"""Exact scalars, sign vectors, and genericity checking.

Every quantity handled here is either a positive rational or the natural
logarithm of a rational, and every comparison is decided exactly with
integer arithmetic.  Floating point never participates in a decision; the
only approximate code in the package lives in the quadrature diagnostics.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction

from . import _halves

__all__ = [
    "SignsumError",
    "ParseError",
    "PreconditionError",
    "DegenerateVectorError",
    "InternalCheckError",
    "Scalar",
    "SignVector",
    "AlphaVector",
    "PairSelection",
    "GenericityReport",
    "max_vector_length",
    "worker_count",
    "parse_scalar",
    "parse_vector",
    "format_scalar",
    "rational_vector",
    "log_vector",
    "scalar_add",
    "scalar_abs_diff",
    "compare_scalars",
    "signed_sum_sign",
    "check_generic",
    "require_generic",
    "minimum_gap",
    "zero_sum_masks",
    "delete_pair",
]


class SignsumError(Exception):
    """Base class for all package errors."""


class ParseError(SignsumError):
    """Malformed textual input or configuration."""


class PreconditionError(SignsumError):
    """An operation was invoked outside its stated domain."""


class DegenerateVectorError(PreconditionError):
    """A vanishing signed sum was found where a generic vector is required."""

    def __init__(self, message: str, witness: "SignVector"):
        super().__init__(message)
        self.witness = witness


class InternalCheckError(SignsumError):
    """A consistency assertion that must hold by construction failed."""


_MAX_M_ENV = "SIGNSUM_MAX_M"
_THREADS_ENV = "SIGNSUM_THREADS"


def _positive_int_env(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ParseError(f"{name} must be at least 1, got {value}")
    return value


def max_vector_length() -> int:
    """Configured cap on vector length, default 30."""
    return _positive_int_env(_MAX_M_ENV, 30)


def worker_count() -> int:
    """The SIGNSUM_THREADS setting, default 1.  Parsed but unused: the
    half-table kernel leaves nothing to split across threads."""
    return _positive_int_env(_THREADS_ENV, 1)


@dataclass(frozen=True)
class Scalar:
    """A quantity realized as a rational or as the log of a rational.

    ``ratio`` is the rational itself in the plain realization and the log
    argument in the log realization.  The represented value is positive
    exactly when the ratio exceeds 1 in log form, or 0 in plain form.
    Comparisons require matching realizations; for logs the argument
    ordering is the value ordering because log is increasing.
    """

    ratio: Fraction
    is_log: bool = False

    def __post_init__(self):
        if not isinstance(self.ratio, Fraction):
            object.__setattr__(self, "ratio", Fraction(self.ratio))
        if self.ratio <= 0:
            raise PreconditionError("scalar argument must be positive")

    def is_positive(self) -> bool:
        return self.ratio > 1 if self.is_log else self.ratio > 0

    def _other(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            raise PreconditionError("scalar compared against non-scalar")
        if other.is_log != self.is_log:
            raise PreconditionError("cannot mix plain and log realizations")
        return other

    def __lt__(self, other):
        return self.ratio < self._other(other).ratio

    def __le__(self, other):
        return self.ratio <= self._other(other).ratio

    def __gt__(self, other):
        return self.ratio > self._other(other).ratio

    def __ge__(self, other):
        return self.ratio >= self._other(other).ratio


def compare_scalars(a: Scalar, b: Scalar) -> int:
    """Exact three-way comparison of values: -1, 0, or +1."""
    b = a._other(b)
    if a.ratio == b.ratio:
        return 0
    return -1 if a.ratio < b.ratio else 1


def scalar_add(a: Scalar, b: Scalar) -> Scalar:
    """Value a + b; in log form the arguments multiply."""
    b = a._other(b)
    if a.is_log:
        return Scalar(a.ratio * b.ratio, True)
    return Scalar(a.ratio + b.ratio, False)


def scalar_abs_diff(a: Scalar, b: Scalar) -> Scalar:
    """Value |a - b|; rejects a == b, which would produce a zero component."""
    b = a._other(b)
    if a.ratio == b.ratio:
        raise PreconditionError("difference of equal components is zero")
    if a.is_log:
        hi, lo = (a.ratio, b.ratio) if a.ratio > b.ratio else (b.ratio, a.ratio)
        return Scalar(hi / lo, True)
    return Scalar(abs(a.ratio - b.ratio), False)


@dataclass(frozen=True)
class SignVector:
    """An assignment of +1 or -1 to ``length`` coordinates, as a bitmask.

    Bit k set means coordinate k+1 carries -1, so the zero mask is the
    all-plus vector.  ``coordinate_map`` names the original 1-based indices
    of the coordinates when the vector lives on a pair-deleted index set.
    """

    length: int
    bits: int
    coordinate_map: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.length < 1:
            raise PreconditionError("sign vector needs at least one coordinate")
        if self.length > max_vector_length():
            raise PreconditionError(
                f"sign vector length {self.length} exceeds the configured cap"
            )
        if not 0 <= self.bits < (1 << self.length):
            raise PreconditionError("sign bitmask out of range for length")
        if self.coordinate_map is not None:
            cmap = tuple(self.coordinate_map)
            if len(cmap) != self.length:
                raise PreconditionError("coordinate map length mismatch")
            object.__setattr__(self, "coordinate_map", cmap)

    @classmethod
    def from_signs(cls, signs, coordinate_map=None) -> "SignVector":
        signs = list(signs)
        bits = 0
        for pos, s in enumerate(signs):
            if s == -1:
                bits |= 1 << pos
            elif s != 1:
                raise ParseError(f"sign entries must be +1 or -1, got {s!r}")
        return cls(len(signs), bits, coordinate_map)

    def sign(self, pos: int) -> int:
        """Sign at 0-based position ``pos``."""
        if not 0 <= pos < self.length:
            raise PreconditionError("sign position out of range")
        return -1 if (self.bits >> pos) & 1 else 1

    def signs(self) -> tuple[int, ...]:
        return tuple(-1 if (self.bits >> k) & 1 else 1 for k in range(self.length))

    def product(self) -> int:
        return -1 if self.bits.bit_count() & 1 else 1

    def negated(self) -> "SignVector":
        full = (1 << self.length) - 1
        return SignVector(self.length, self.bits ^ full, self.coordinate_map)


@dataclass(frozen=True)
class GenericityReport:
    generic: bool
    witness: SignVector | None


@dataclass(frozen=True)
class PairSelection:
    """An unordered index pair, normalized to 1 <= i < j."""

    i: int
    j: int

    def __post_init__(self):
        a, b = int(self.i), int(self.j)
        if a == b:
            raise PreconditionError("pair indices must differ")
        if a > b:
            a, b = b, a
        if a < 1:
            raise PreconditionError("pair indices are 1-based")
        object.__setattr__(self, "i", a)
        object.__setattr__(self, "j", b)

    def validate(self, m: int) -> None:
        if self.j > m:
            raise PreconditionError(f"pair index {self.j} exceeds vector length {m}")


class AlphaVector:
    """A positive vector with a uniform realization and cached genericity data.

    ``index_map`` carries 1-based original indices for vectors produced by
    deleting coordinates; None means the identity labelling.
    """

    __slots__ = ("components", "index_map", "_report", "_zero_groups", "_min_gap")

    def __init__(self, components, index_map=None):
        comps = tuple(components)
        if not comps:
            raise PreconditionError("vector must have at least one component")
        cap = max_vector_length()
        if len(comps) > cap:
            raise PreconditionError(
                f"vector length {len(comps)} exceeds the cap {cap}; "
                f"raise {_MAX_M_ENV} to override"
            )
        mode = comps[0].is_log
        for c in comps:
            if not isinstance(c, Scalar):
                raise PreconditionError("vector components must be scalars")
            if c.is_log != mode:
                raise PreconditionError("vector mixes plain and log realizations")
            if not c.is_positive():
                raise PreconditionError("vector components must be strictly positive")
        self.components = comps
        self.index_map = tuple(index_map) if index_map is not None else None
        if self.index_map is not None and len(self.index_map) != len(comps):
            raise PreconditionError("index map length mismatch")
        self._report = None
        self._zero_groups = None
        self._min_gap = None

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def is_log(self) -> bool:
        return self.components[0].is_log

    def original_index(self, pos: int) -> int:
        """Original 1-based index of 0-based position ``pos``."""
        return self.index_map[pos] if self.index_map is not None else pos + 1

    def ratios(self) -> list[Fraction]:
        return [c.ratio for c in self.components]

    def __repr__(self):
        body = ",".join(format_scalar(c) for c in self.components)
        return f"AlphaVector({body})"


def rational_vector(values, index_map=None) -> AlphaVector:
    """Build a plain-realization vector from rationals (or ints/strings)."""
    return AlphaVector(
        [Scalar(Fraction(v), False) for v in values], index_map=index_map
    )


def log_vector(arguments, index_map=None) -> AlphaVector:
    """Build a log-realization vector; each value is log of its argument."""
    return AlphaVector(
        [Scalar(Fraction(v), True) for v in arguments], index_map=index_map
    )


_PLAIN_RE = re.compile(r"(?:\d+(?:\.\d+)?|\d+/\d+)\Z")


def parse_scalar(text: str, expect_log: bool | None = None) -> Scalar:
    """Parse one scalar token: "4", "6.25", "7/2", "log:3", "log:7/2"."""
    token = text.strip()
    is_log = token.startswith("log:")
    if is_log:
        token = token[4:].strip()
    if expect_log is not None and is_log != expect_log:
        raise ParseError("vector mixes plain and log: entries")
    if not _PLAIN_RE.match(token):
        raise ParseError(f"malformed scalar {text.strip()!r}")
    try:
        ratio = Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text.strip()!r}") from None
    return Scalar(ratio, is_log)


def parse_vector(text: str) -> AlphaVector:
    """Parse a comma-separated vector using the scalar grammar."""
    parts = text.split(",")
    if not parts or any(not p.strip() for p in parts):
        raise ParseError("vector must be a comma-separated list of scalars")
    first = parse_scalar(parts[0])
    rest = [parse_scalar(p, expect_log=first.is_log) for p in parts[1:]]
    return AlphaVector([first, *rest])


def format_scalar(s: Scalar) -> str:
    body = str(s.ratio)
    return f"log:{body}" if s.is_log else body


def signed_sum_sign(alpha: AlphaVector, eps: SignVector) -> int:
    """Exact sign of the signed sum of ``alpha`` under ``eps``.

    Plain realization: sign of an exact rational sum.  Log realization:
    the sum is log of a product of rational arguments to powers +-1, so
    the sign reduces to a big-integer cross-multiplied comparison.
    """
    if eps.length != alpha.m:
        raise PreconditionError("sign vector length does not match the vector")
    if alpha.is_log:
        x = y = 1
        for pos, c in enumerate(alpha.components):
            n, d = c.ratio.numerator, c.ratio.denominator
            if (eps.bits >> pos) & 1:
                x *= d
                y *= n
            else:
                x *= n
                y *= d
        return (x > y) - (x < y)
    total = Fraction(0)
    for pos, c in enumerate(alpha.components):
        total = total - c.ratio if (eps.bits >> pos) & 1 else total + c.ratio
    return (total > 0) - (total < 0)


def _survey(alpha: AlphaVector):
    """Half-table pass over all signed sums with coordinate 1 fixed to +1.

    Returns (zero_groups, gap): the vanishing sums as the kernel's
    ``zero_groups`` over full-length bitmasks (bit 0 clear, one
    representative per negation class), and the closest nonzero approach
    to zero.  The gap is min |sum| as a Fraction in the plain realization;
    in the log realization it is the smallest product ratio above 1, so
    the actual minimum is its logarithm.
    """
    values, den = _halves.coordinates(alpha.ratios(), alpha.is_log)
    tables = _halves.pinned(values, 0, alpha.is_log)
    gap = tables.gap()
    return tables.zero_groups(), gap if alpha.is_log else Fraction(gap, den)


def check_generic(alpha: AlphaVector) -> GenericityReport:
    """Test every signed sum for vanishing, up to global negation.

    Coordinate 1 is fixed to +1, covering all 2^m sign vectors.  The
    other coordinates split into two half tables of about 2^((m-1)/2)
    sums each, and a vanishing sum is a collision between them.  The
    witness is the smallest vanishing mask, found without listing the
    others.  The result is cached on the vector.
    """
    if alpha._report is None:
        groups, gap = _survey(alpha)
        alpha._zero_groups = groups
        alpha._min_gap = gap
        if groups:
            witness = SignVector(alpha.m, _halves.first_zero(groups), alpha.index_map)
            alpha._report = GenericityReport(False, witness)
        else:
            alpha._report = GenericityReport(True, None)
    return alpha._report


def require_generic(alpha: AlphaVector) -> None:
    report = check_generic(alpha)
    if not report.generic:
        raise DegenerateVectorError(
            "vector has a vanishing signed sum", report.witness
        )


def minimum_gap(alpha: AlphaVector) -> Fraction:
    """Smallest nonzero distance of any signed sum from zero.

    Plain realization: an exact Fraction.  Log realization: the smallest
    product ratio above 1 (the minimum signed sum is its logarithm).
    """
    check_generic(alpha)
    return alpha._min_gap


def zero_sum_masks(alpha: AlphaVector) -> tuple[int, ...]:
    """Bitmasks of vanishing signed sums, one per negation class, sorted.

    Listed from the survey's cached zero groups on each call, so the cost
    is the number of vanishing sums; the genericity test never lists them.
    """
    check_generic(alpha)
    return tuple(_halves.zero_masks(alpha._zero_groups))


def delete_pair(alpha: AlphaVector, pair: PairSelection) -> AlphaVector:
    """Drop the pair's two coordinates, keeping original index labels."""
    if alpha.m < 3:
        raise PreconditionError("pair deletion requires at least 3 components")
    pair.validate(alpha.m)
    skip = (pair.i - 1, pair.j - 1)
    comps = []
    imap = []
    for pos, c in enumerate(alpha.components):
        if pos in skip:
            continue
        comps.append(c)
        imap.append(alpha.original_index(pos))
    return AlphaVector(comps, index_map=imap)
