"""Exact scalars, sign vectors, and genericity checking.

Every quantity handled here is either a positive rational or the natural
logarithm of a rational, and every comparison is decided exactly with
integer arithmetic.  Floating point never participates in a decision; the
only approximate code in the package lives in the quadrature diagnostics.
"""

from __future__ import annotations

import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

from . import _SOURCES

# The half-table kernel ``_halves`` is imported inside the two functions
# that use it, so a request that builds no table (``weights``,
# ``rademacher``) never compiles it.

__all__ = list(_SOURCES["core"])


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


class Scalar(namedtuple("Scalar", "ratio is_log")):
    """A quantity realized as a rational or as the log of a rational.

    ``ratio`` is the rational itself in the plain realization and the log
    argument in the log realization.  The represented value is positive
    exactly when the ratio exceeds 1 in log form, or 0 in plain form.
    Comparisons require matching realizations; for logs the argument
    ordering is the value ordering because log is increasing.
    """

    __slots__ = ()

    def __new__(cls, ratio: Fraction, is_log: bool = False):
        if not isinstance(ratio, Fraction):
            ratio = Fraction(ratio)
        if ratio <= 0:
            raise PreconditionError("scalar argument must be positive")
        return tuple.__new__(cls, (ratio, is_log))

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


class SignVector(namedtuple("SignVector", "length bits coordinate_map")):
    """An assignment of +1 or -1 to ``length`` coordinates, as a bitmask.

    Bit k set means coordinate k+1 carries -1, so the zero mask is the
    all-plus vector.  ``coordinate_map`` names the original 1-based indices
    of the coordinates when the vector lives on a pair-deleted index set.
    """

    __slots__ = ()

    def __new__(
        cls, length: int, bits: int, coordinate_map: tuple[int, ...] | None = None
    ):
        if length < 1:
            raise PreconditionError("sign vector needs at least one coordinate")
        if length > max_vector_length():
            raise PreconditionError(
                f"sign vector length {length} exceeds the configured cap"
            )
        if not 0 <= bits < (1 << length):
            raise PreconditionError("sign bitmask out of range for length")
        if coordinate_map is not None:
            coordinate_map = tuple(coordinate_map)
            if len(coordinate_map) != length:
                raise PreconditionError("coordinate map length mismatch")
        return tuple.__new__(cls, (length, bits, coordinate_map))

    @classmethod
    def _bounded(cls, length: int, bits: int, coordinate_map: tuple[int, ...] | None):
        """A row over the coordinates of a validated vector.  Its length is
        within the cap and its mask in range by construction, so no check
        runs, and building a solution row costs no environment read."""
        return tuple.__new__(cls, (length, bits, coordinate_map))

    def signs(self) -> tuple[int, ...]:
        return tuple(-1 if (self.bits >> k) & 1 else 1 for k in range(self.length))


class GenericityReport(namedtuple("GenericityReport", "generic witness")):
    """Whether no signed sum vanishes; if one does, the smallest such
    sign vector as ``witness``, else None."""

    __slots__ = ()


class PairSelection(namedtuple("PairSelection", "i j")):
    """An unordered index pair, normalized to 1 <= i < j."""

    __slots__ = ()

    def __new__(cls, i: int, j: int):
        a, b = int(i), int(j)
        if a == b:
            raise PreconditionError("pair indices must differ")
        if a > b:
            a, b = b, a
        if a < 1:
            raise PreconditionError("pair indices are 1-based")
        return tuple.__new__(cls, (a, b))

    def validate(self, m: int) -> None:
        if self.j > m:
            raise PreconditionError(f"pair index {self.j} exceeds vector length {m}")


class AlphaVector:
    """A positive vector with a uniform realization and cached genericity data.

    ``index_map`` carries 1-based original indices for vectors produced by
    deleting coordinates; None means the identity labelling.
    """

    __slots__ = (
        "components",
        "index_map",
        "_survey",
        "_tables",
    )

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
        self._survey = None
        self._tables = None

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

    def half_tables(self) -> _halves.HalfTables:
        """The signed sums over every coordinate as half tables, mask bit
        k marking position k as minus.  Built on first use and kept, so
        the survey, every pair scan and every sign sum of this vector
        ask questions of one table."""
        if self._tables is None:
            from . import _halves

            self._tables = _halves.HalfTables(self.ratios(), self.is_log)
        return self._tables

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


_PLAIN_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]+)?|[0-9]+/[0-9]+)\Z")


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
    except ValueError:  # the grammar matched, so only the digit limit is left
        raise ParseError(
            f"scalar exceeds the {sys.get_int_max_str_digits()}-digit integer limit"
        ) from None
    return Scalar(ratio, is_log)


def parse_vector(text: str) -> AlphaVector:
    """Parse a comma-separated vector using the scalar grammar."""
    parts = text.split(",")
    if any(not p.strip() for p in parts):
        raise ParseError("vector must be a comma-separated list of scalars")
    first = parse_scalar(parts[0])
    rest = [parse_scalar(p, expect_log=first.is_log) for p in parts[1:]]
    return AlphaVector([first, *rest])


def format_scalar(s: Scalar) -> str:
    body = str(s.ratio)
    return f"log:{body}" if s.is_log else body


def _format_vector(alpha: AlphaVector) -> str:
    return ",".join(format_scalar(c) for c in alpha.components)


def _ascii(token: str) -> str:
    """The token, or ValueError unless it is ASCII without "_": ``int``
    and ``Fraction`` also read other scripts' digits and "_" between
    digits, which the input grammar does not take."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return token


def _parse_pair(text: str) -> PairSelection:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("pair must be two comma-separated indices")
    try:
        i, j = (int(_ascii(p.strip())) for p in parts)
    except ValueError:
        raise ParseError(f"malformed pair {text!r}") from None
    return PairSelection(i, j)


def _parse_int_list(text: str, what: str) -> list[int]:
    parts = text.split(",")
    if any(not p.strip() for p in parts):
        raise ParseError(f"{what} must be a comma-separated list of integers")
    try:
        return [int(_ascii(p.strip())) for p in parts]
    except ValueError:
        raise ParseError(f"malformed {what} {text!r}") from None


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(_ascii(text.strip()))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed {what} {text!r}") from None


def _sign_rows(masks, length: int) -> list[list[int]]:
    """Each mask as its row of ``length`` signs, -1 where a bit is set."""
    return [[-1 if mask >> k & 1 else 1 for k in range(length)] for mask in masks]


def _survey(alpha: AlphaVector):
    """(zero_groups, gap) of the vector's signed sums, cached on it.

    The kernel fixes coordinate 1 to +1, covering all 2^m sign vectors
    up to global negation.  The other coordinates split into two half
    tables of about 2^((m-1)/2) sums each, and a vanishing sum is a
    collision between them (``_halves.HalfTables.survey``).
    """
    if alpha._survey is None:
        alpha._survey = alpha.half_tables().survey()
    return alpha._survey


def check_generic(alpha: AlphaVector) -> GenericityReport:
    """Test every signed sum for vanishing, up to global negation.

    The witness is the smallest vanishing mask, read off the survey's
    zero groups without listing the others.
    """
    groups, _ = _survey(alpha)
    if not groups:
        return GenericityReport(True, None)
    from . import _halves

    witness = SignVector(alpha.m, _halves.first_zero(groups), alpha.index_map)
    return GenericityReport(False, witness)


def require_generic(alpha: AlphaVector) -> None:
    report = check_generic(alpha)
    if not report.generic:
        raise DegenerateVectorError(
            "vector has a vanishing signed sum", report.witness
        )


def _pair_positions(alpha: AlphaVector, pair: PairSelection) -> tuple[int, int]:
    if alpha.m < 3:
        raise PreconditionError("solution sets require at least 3 components")
    pair.validate(alpha.m)
    return pair.i - 1, pair.j - 1


def orient_pair(alpha: AlphaVector, pair: PairSelection) -> tuple[int, int]:
    """0-based (smaller, larger) positions of the pair, by component value.

    Ties resolve to the lower index as the smaller element.
    """
    i0, j0 = _pair_positions(alpha, pair)
    if alpha.components[i0] <= alpha.components[j0]:
        return i0, j0
    return j0, i0
