"""Integer approximation of positive vectors and exact kernel integrals.

The three singular-kernel integral formulas recover the pair invariants
from an integer vector beta that mimics alpha: same component ordering,
same sign for every signed sum.  Such a beta always exists for generic
alpha and is found here by a doubling search on the scale q.  Once beta
is integral, each integrand expands into finitely many complex
exponentials with integer frequencies, the kernel pairs e^{isx} to
i*sgn(s), and the integral collapses to exact integer arithmetic.  The
quadrature code at the bottom is a diagnostic only; it never feeds a
result back into an exact path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _halves
from .core import (
    AlphaVector,
    DegenerateVectorError,
    InternalCheckError,
    PreconditionError,
    SignVector,
    max_vector_length,
    minimum_gap,
    require_generic,
)

__all__ = [
    "BetaApproximation",
    "ExponentialSum",
    "QuadratureResult",
    "rademacher",
    "approximate_beta",
    "integer_beta",
    "kernel_pairing",
    "kernel_pairing_quadrature",
    "integral_N_odd",
    "integral_N_even",
    "integral_count",
    "exact_formula_value",
    "quadrature_check",
    "rademacher_product_identity_check",
]


def rademacher(i: int, t) -> int:
    """Sign read off the i-th binary digit of t: +1 for digit 0.

    Half-open dyadic convention: at a dyadic point the digit comes from
    the interval to its right, so the function is right-continuous.
    """
    i = int(i)
    if i < 1:
        raise PreconditionError("digit index is 1-based")
    t = Fraction(t)
    t -= math.floor(t)  # period 1
    digit = math.floor(t * (1 << i)) & 1
    return 1 - 2 * digit


@dataclass(frozen=True)
class BetaApproximation:
    """An integer stand-in for a positive vector at scale q.

    ``beta`` holds positive integers with beta_k/q close to the original
    components, ``q`` the power-of-two scale, and ``bound`` a positive
    rational no larger than the smallest |signed sum| of the original
    vector (exact in the plain realization, a certified lower bound in
    the log realization).  Closeness and order preservation are verified
    at the construction sites; closeness implies sign preservation (see
    ``approximate_beta``).
    """

    beta: tuple[int, ...]
    q: Fraction
    bound: Fraction

    def __post_init__(self):
        bs = tuple(int(b) for b in self.beta)
        if not bs:
            raise PreconditionError("approximation needs at least one component")
        if len(bs) > max_vector_length():
            raise PreconditionError("approximation exceeds the configured cap")
        if any(b < 1 for b in bs):
            raise PreconditionError("approximation components must be positive")
        object.__setattr__(self, "beta", bs)
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "bound", Fraction(self.bound))
        if self.q <= 0 or self.bound <= 0:
            raise PreconditionError("scale and bound must be positive")

    @property
    def m(self) -> int:
        return len(self.beta)


_Q_CAP = 1 << 64
_PREC_CAP = 1 << 16


def _round_half_up(x: Fraction) -> int:
    """Nearest integer to x, ties upward."""
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def _order_preserved(keys, betas) -> bool:
    # equal keys need equal betas, strictly ordered keys must not reverse
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for a, b in zip(order, order[1:]):
        if keys[a] == keys[b]:
            if betas[a] != betas[b]:
                return False
        elif betas[a] > betas[b]:
            return False
    return True


def _log_enclosure(ratio: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of log(ratio) at ``prec`` bits."""
    import mpmath  # only the log realization needs it; kept off import time

    ctx = mpmath.ctx_iv.MPIntervalContext()
    ctx.prec = prec
    z = ctx.log(ctx.mpf(ratio.numerator) / ctx.mpf(ratio.denominator))
    lo, hi = z._mpi_
    return (
        Fraction(*mpmath.libmp.to_rational(lo)),
        Fraction(*mpmath.libmp.to_rational(hi)),
    )


def _certified_round(q: int, ratio: Fraction) -> int:
    """floor(q*log(ratio) + 1/2), certified by interval refinement.

    The rounding boundary is never hit: that would make log(ratio)
    rational, impossible for rational ratio != 1.  So refinement stops.
    """
    prec = 64
    while prec <= _PREC_CAP:
        lo, hi = _log_enclosure(ratio, prec)
        a = _round_half_up(q * lo)
        b = _round_half_up(q * hi)
        if a == b:
            return a
        prec *= 2
    raise InternalCheckError("rounding certification stalled")


def _log_closeness(ratios, betas, q: int, target: Fraction) -> bool:
    """Decide |b_k/q - log(r_k)| < target for every k, certified.

    Exact equality with the rational target cannot occur, so shrinking
    the enclosures settles each comparison in finitely many rounds.
    """
    prec = 64
    while prec <= _PREC_CAP:
        undecided = False
        for b, r in zip(betas, ratios):
            c = Fraction(b, q)
            lo, hi = _log_enclosure(r, prec)
            upper = max(abs(c - lo), abs(c - hi))
            if lo <= c <= hi:
                lower = Fraction(0)
            else:
                lower = min(abs(c - lo), abs(c - hi))
            if upper < target:
                continue
            if lower >= target:
                return False
            undecided = True
            break
        if not undecided:
            return True
        prec *= 2
    raise InternalCheckError("closeness certification stalled")


def _approximate_plain(alpha: AlphaVector) -> BetaApproximation:
    vals = alpha.ratios()
    m = alpha.m
    bound = minimum_gap(alpha)
    tol = bound / m
    q = 1
    while q <= _Q_CAP:
        betas = []
        ok = True
        for v in vals:
            sv = q * v
            b = _round_half_up(sv)
            if b < 1 or abs(Fraction(b, q) - v) >= tol:
                ok = False
                break
            betas.append(b)
        if ok and _order_preserved(vals, betas):
            return BetaApproximation(tuple(betas), Fraction(q), bound)
        q <<= 1
    raise InternalCheckError("scale search exceeded the safety cap")


def _approximate_log(alpha: AlphaVector) -> BetaApproximation:
    ratios = alpha.ratios()
    m = alpha.m
    gap_ratio = minimum_gap(alpha)  # smallest product ratio above 1
    prec = 64
    while True:
        mlo, mhi = _log_enclosure(gap_ratio, prec)
        if mlo > 0 and (mhi - mlo) * 16 < mhi:
            break
        prec *= 2
        if prec > _PREC_CAP:
            raise InternalCheckError("gap bound certification stalled")
    bound = mlo
    target = bound / m
    q = 1
    while q <= _Q_CAP:
        betas = [_certified_round(q, r) for r in ratios]
        if (
            min(betas) >= 1
            and _order_preserved(ratios, betas)
            and _log_closeness(ratios, betas, q, target)
        ):
            return BetaApproximation(tuple(betas), Fraction(q), bound)
        q <<= 1
    raise InternalCheckError("scale search exceeded the safety cap")


def approximate_beta(alpha: AlphaVector) -> BetaApproximation:
    """Integer approximation preserving order, ties, and every sum sign.

    Doubles q starting from 1 and takes beta_k as the nearest integer to
    q*alpha_k, accepting the first q for which the closeness bound and
    the component ordering with its ties check out exactly.  Closeness
    |beta_k/q - alpha_k| < bound/m for every k preserves all 2^m
    signed-sum signs: by the triangle inequality a signed sum moves by
    less than m * bound/m = bound, and bound is at most its distance from
    zero.  Termination is guaranteed for generic input because every
    defect shrinks like 1/q while the gap stays fixed.
    """
    require_generic(alpha)
    if alpha.is_log:
        return _approximate_log(alpha)
    return _approximate_plain(alpha)


def _gray_rank(mask: int) -> int:
    """Position of ``mask`` in the binary reflected Gray order.

    Bit i of the rank is the parity of the mask's bits i and above; the
    shifts double, so a mask of b bits takes about log2(b) steps.
    """
    shift = 1
    while mask >> shift:
        mask ^= mask >> shift
        shift <<= 1
    return mask


def _first_in_gray_order(groups) -> int:
    """The vanishing mask of smallest Gray rank, from ``zero_groups``.

    The rank is linear over GF(2), so rank(a | b) = rank(a) ^ rank(b) for
    the disjoint half masks.  Every bit of b lies at or above B's lowest
    bit L and every bit of a below it, so rank(a) < 2^L, while each bit
    of rank(b) below L repeats bit L (the parity of b).  The order of
    rank(a | b) is thus set first by rank(b), then by rank(a) ^ rank(b):
    a group's first mask takes its b of smallest rank, then the a that
    minimizes the XOR, without listing the group's pairs.
    """
    firsts = []
    for a_masks, b_masks in groups:
        b = min(b_masks, key=_gray_rank)
        rb = _gray_rank(b)
        a = min(a_masks, key=lambda a: _gray_rank(a) ^ rb)
        firsts.append(a | b)
    return min(firsts, key=_gray_rank)


def integer_beta(values) -> BetaApproximation:
    """Wrap raw positive integers as their own approximation at q = 1.

    The kernel evaluators need every signed sum nonzero; that is checked
    over all sign vectors with the first component at +1, by half tables,
    and the exact smallest |signed sum| becomes the bound.  A degenerate
    vector is reported with the vanishing sum that comes first in Gray
    order.
    """
    bs = tuple(int(v) for v in values)
    if not bs:
        raise PreconditionError("need at least one component")
    if any(b < 1 for b in bs):
        raise PreconditionError("components must be positive integers")
    if len(bs) > max_vector_length():
        raise PreconditionError("length exceeds the configured cap")
    tables = _halves.pinned(bs, 0)
    groups = tables.zero_groups()
    if groups:
        raise DegenerateVectorError(
            "integer vector has a vanishing signed sum",
            SignVector(len(bs), _first_in_gray_order(groups)),
        )
    return BetaApproximation(bs, Fraction(1), Fraction(tables.gap()))


class ExponentialSum:
    """Integer-coefficient expansion of a product of sines and cosines.

    Represents scale * sum_s coeffs[s] * e^{isx} with scale equal to
    (-i)^sin_count / 2^(sin_count + cos_count).  Coefficients stay
    integers because each sine contributes e^{ibx} - e^{-ibx} and each
    cosine e^{ibx} + e^{-ibx}, the 1/(2i) and 1/2 factors being folded
    into the scale.
    """

    __slots__ = ("sin_count", "cos_count", "coeffs")

    def __init__(self, sin_freqs, cos_freqs):
        sin_fs = [int(b) for b in sin_freqs]
        cos_fs = [int(b) for b in cos_freqs]
        if any(b < 1 for b in sin_fs + cos_fs):
            raise PreconditionError("frequencies must be positive integers")
        cur = {0: 1}
        for b in sin_fs:
            nxt: dict[int, int] = {}
            for s, c in cur.items():
                nxt[s + b] = nxt.get(s + b, 0) + c
                nxt[s - b] = nxt.get(s - b, 0) - c
            cur = {s: c for s, c in nxt.items() if c}
        for b in cos_fs:
            nxt = {}
            for s, c in cur.items():
                nxt[s + b] = nxt.get(s + b, 0) + c
                nxt[s - b] = nxt.get(s - b, 0) + c
            cur = {s: c for s, c in nxt.items() if c}
        self.sin_count = len(sin_fs)
        self.cos_count = len(cos_fs)
        self.coeffs = cur

    def conjugate_symmetric(self) -> bool:
        """Coefficient symmetry forced by the integrand being real."""
        flip = -1 if self.sin_count % 2 else 1
        return all(
            self.coeffs.get(-s, 0) == flip * c for s, c in self.coeffs.items()
        )

    def signed_total(self) -> int:
        return sum(c * ((s > 0) - (s < 0)) for s, c in self.coeffs.items())

    def pairing_value(self) -> Fraction:
        """Pair every e^{isx} with i*sgn(s) and fold in the scale.

        Needs an odd sine count; then (-i)^a * i is the real number
        (-1)^((a-1)/2) and the whole pairing is rational.
        """
        a = self.sin_count
        if a % 2 == 0:
            raise PreconditionError("pairing needs an odd number of sine factors")
        factor = -1 if ((a - 1) // 2) % 2 else 1
        return Fraction(factor * self.signed_total(), 1 << (a + self.cos_count))


def kernel_pairing(s: int) -> int:
    """Kernel pairing of a single oscillation: sgn(s).

    Realizes the 1/(2 pi) principal-value integral of cot(x/2) sin(sx)
    over a full period; the cosine component pairs to zero by
    antisymmetry about the midpoint.
    """
    s = int(s)
    return (s > 0) - (s < 0)


_WINDOW_CHECK_MAX = 16


def _check_window_forms(betas, value: int) -> None:
    """Cross-check the kernel value against the two window counts.

    Splitting off the last component B turns the expansion into a count
    of sign vectors whose partial sum lies in a symmetric window, with
    two admissible widths B-1 and B.  No partial sum can land on the
    boundary (the full vector has no vanishing signed sum), so the two
    counts agree with each other and with the kernel value.
    """
    if len(betas) > _WINDOW_CHECK_MAX:
        return
    last = betas[-1]
    rest = len(betas) - 1
    tables = _halves.HalfTables(betas[:-1], [1 << k for k in range(rest)])
    full = (1 << rest) - 1
    # integer partial sums: |t| <= w - 1 is -w < t < w
    (narrow,), _, _ = tables.window(-last, last, [full])
    (wide,), _, _ = tables.window(-last - 1, last + 1, [full])
    for name, s in (("narrow", narrow), ("wide", wide)):
        if s % 2:
            raise InternalCheckError(f"{name} window sum must be even")
        if -(s // 2) != value:
            raise InternalCheckError(
                f"{name} window form disagrees with the kernel value"
            )


def _position(beta: BetaApproximation, k: int) -> int:
    k = int(k)
    if not 1 <= k <= beta.m:
        raise PreconditionError("component index out of range")
    return k - 1


def _exact_int(val: Fraction, what: str) -> int:
    if val.denominator != 1:
        raise InternalCheckError(f"{what} must be an integer, got {val}")
    return int(val)


def integral_N_odd(beta: BetaApproximation) -> int:
    """Signed solution count for odd length via the sine-product kernel."""
    m = beta.m
    if m < 3:
        raise PreconditionError("need at least 3 components")
    if m % 2 == 0:
        raise PreconditionError("even length uses the cotangent variant")
    es = ExponentialSum(beta.beta, ())
    pref = (-1 if ((m + 1) // 2) % 2 else 1) * (1 << (m - 2))
    value = _exact_int(pref * es.pairing_value(), "kernel value")
    _check_window_forms(beta.beta, value)
    return value


def integral_N_even(beta: BetaApproximation, j: int) -> int:
    """Signed solution count for even length; j indexes the larger pair
    member.  The extra cotangent factor at j is removed beforehand by
    cot(b x) sin(b x) = cos(b x), which also removes its poles."""
    m = beta.m
    if m % 2:
        raise PreconditionError("odd length uses the plain variant")
    if m < 4:
        raise PreconditionError("need at least 4 components")
    j0 = _position(beta, j)
    others = [b for k, b in enumerate(beta.beta) if k != j0]
    if beta.beta[j0] < min(others):
        raise PreconditionError("index must carry the larger member of a pair")
    es = ExponentialSum(others, (beta.beta[j0],))
    pref = (-1 if (m // 2 - 1) % 2 else 1) * (1 << (m - 2))
    return _exact_int(pref * es.pairing_value(), "kernel value")


def integral_count(beta: BetaApproximation, i: int) -> int:
    """Solution count; i indexes the smaller pair member.

    tan(b x) cos(b x) = sin(b x) removes the tangent at i before the
    expansion, leaving one sine against a bed of cosines.
    """
    m = beta.m
    if m < 3:
        raise PreconditionError("need at least 3 components")
    i0 = _position(beta, i)
    others = [b for k, b in enumerate(beta.beta) if k != i0]
    if beta.beta[i0] > max(others):
        raise PreconditionError("index must carry the smaller member of a pair")
    es = ExponentialSum((beta.beta[i0],), others)
    pref = 1 << (m - 2)
    return _exact_int(pref * es.pairing_value(), "kernel value")


# ---------------------------------------------------------------------------
# Quadrature diagnostics.  Floating point is quarantined below this line.

_ETA = 1e-4
_GL_NODES = (
    -0.9061798459386640,
    -0.5384693101056831,
    0.0,
    0.5384693101056831,
    0.9061798459386640,
)
_GL_WEIGHTS = (
    0.2369268850561891,
    0.4786286704993665,
    0.5688888888888889,
    0.4786286704993665,
    0.2369268850561891,
)


@dataclass(frozen=True)
class QuadratureResult:
    numeric: float
    exact: int
    agree: bool


def _cot_half(x: float) -> float:
    return math.cos(x / 2) / math.sin(x / 2)


def _gauss_segment(f, a: float, b: float) -> float:
    h = (b - a) / 2
    c = (a + b) / 2
    return h * sum(w * f(c + h * x) for x, w in zip(_GL_NODES, _GL_WEIGHTS))


def _simpson_refine(f, a, b, fa, fm, fb, whole, tol, budget, depth):
    mid = (a + b) / 2
    lm, rm = (a + mid) / 2, (mid + b) / 2
    flm, frm = f(lm), f(rm)
    budget[0] -= 2
    if budget[0] < 0:
        raise InternalCheckError("quadrature evaluation budget exhausted")
    left = (mid - a) / 6 * (fa + 4 * flm + fm)
    right = (b - mid) / 6 * (fm + 4 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15 * tol:
        return left + right + delta / 15
    if depth >= 48:
        raise InternalCheckError("quadrature subdivision exhausted")
    return _simpson_refine(
        f, a, mid, fa, flm, fm, left, tol / 2, budget, depth + 1
    ) + _simpson_refine(f, mid, b, fm, frm, fb, right, tol / 2, budget, depth + 1)


def _integrate(f, a: float, b: float, tol: float, max_freq: int) -> float:
    """Adaptive Simpson over [a, b] split below the oscillation scale.

    Pre-splitting into quarter-period segments stops the error estimate
    from aliasing a fast oscillation on a coarse grid.
    """
    segments = max(16, 4 * max_freq)
    width = (b - a) / segments
    seg_tol = tol / segments
    budget = [3_000_000]
    total = 0.0
    for k in range(segments):
        sa = a + k * width
        sb = a + (k + 1) * width
        fa, fm, fb = f(sa), f((sa + sb) / 2), f(sb)
        budget[0] -= 3
        whole = (sb - sa) / 6 * (fa + 4 * fm + fb)
        total += _simpson_refine(f, sa, sb, fa, fm, fb, whole, seg_tol, budget, 0)
    return total


def _build_integrand(sin_freqs, cos_freqs):
    sf = tuple(sin_freqs)
    cf = tuple(cos_freqs)

    def f(x: float) -> float:
        v = _cot_half(x)
        for b in sf:
            v *= math.sin(b * x)
        for b in cf:
            v *= math.cos(b * x)
        return v

    return f


def _pv_integral(sin_freqs, cos_freqs, inner_tol: float) -> float:
    """Principal value over a full period: adaptive body plus two tails.

    The integrand is bounded, so the tails [0, eta] and [2 pi - eta, 2 pi]
    are smooth short segments; Gauss nodes keep the endpoints themselves
    out of the evaluation.
    """
    f = _build_integrand(sin_freqs, cos_freqs)
    two_pi = 2 * math.pi
    max_freq = sum(sin_freqs) + sum(cos_freqs)
    body = _integrate(f, _ETA, two_pi - _ETA, inner_tol, max_freq)
    tails = 0.0
    for lo, hi in ((0.0, _ETA), (two_pi - _ETA, two_pi)):
        mid = (lo + hi) / 2
        tails += _gauss_segment(f, lo, mid) + _gauss_segment(f, mid, hi)
    return body + tails


def exact_formula_value(
    beta: BetaApproximation, formula: str, index: int | None = None
) -> int:
    """Exact value of one named kernel formula.

    ``formula`` picks the sine-product form ("result"), the even-length
    variant with its cotangent factor ("result1", needs the index of the
    larger pair member), or the count form ("result2", needs the index
    of the smaller member).  For "result" on even length the value is 0
    by pairwise cancellation, which is asserted on the expansion itself.
    """
    if formula == "result":
        if beta.m % 2:
            return integral_N_odd(beta)
        es = ExponentialSum(beta.beta, ())
        if es.signed_total() != 0:
            raise InternalCheckError("even-length expansion must cancel")
        _check_window_forms(beta.beta, 0)
        return 0
    if formula in ("result1", "result2"):
        if index is None:
            raise PreconditionError("this formula needs the pair index")
        if formula == "result1":
            return integral_N_even(beta, index)
        return integral_count(beta, index)
    raise PreconditionError(f"unknown formula {formula!r}")


def quadrature_check(
    beta: BetaApproximation,
    formula: str,
    tolerance: float = 1e-8,
    index: int | None = None,
) -> QuadratureResult:
    """Integrate the stated kernel formula numerically and compare.

    The numeric side uses the pole-free rewrites (cotangent and tangent
    factors folded into a cosine or sine at the chosen index), the exact
    side ``exact_formula_value``.
    """
    if tolerance <= 0:
        raise PreconditionError("tolerance must be positive")
    exact = exact_formula_value(beta, formula, index)
    m = beta.m
    betas = beta.beta
    if formula == "result":
        sin_fs, cos_fs = list(betas), []
        pref = (-1 if ((m + 1) // 2) % 2 else 1) * (1 << (m - 2))
    elif formula == "result1":
        j0 = index - 1
        sin_fs = [b for k, b in enumerate(betas) if k != j0]
        cos_fs = [betas[j0]]
        pref = (-1 if (m // 2 - 1) % 2 else 1) * (1 << (m - 2))
    else:
        i0 = index - 1
        sin_fs = [betas[i0]]
        cos_fs = [b for k, b in enumerate(betas) if k != i0]
        pref = 1 << (m - 2)
    two_pi = 2 * math.pi
    inner_tol = tolerance * two_pi / abs(pref) / 8
    numeric = pref * _pv_integral(sin_fs, cos_fs, inner_tol) / two_pi
    return QuadratureResult(numeric, exact, abs(numeric - exact) < tolerance)


def kernel_pairing_quadrature(s: int, tolerance: float = 1e-8) -> QuadratureResult:
    """Diagnostic for the single-oscillation pairing against sgn(s)."""
    s = int(s)
    exact = kernel_pairing(s)
    if s == 0:
        return QuadratureResult(0.0, 0, True)
    numeric = _pv_integral(
        [abs(s)], [], tolerance * 2 * math.pi / 8
    ) / (2 * math.pi)
    if s < 0:
        numeric = -numeric
    return QuadratureResult(numeric, exact, abs(numeric - exact) < tolerance)


def rademacher_product_identity_check(betas, x: float) -> bool:
    """Compare the dyadic-interval average with the sine-product form.

    The average of prod_k r_k(t) e^{i x sum_k b_k r_k(t)} over t in [0,1)
    is a finite sum because all k digit functions are constant on each of
    the 2^k dyadic subintervals; it must equal i^k prod_k sin(b_k x).
    """
    bs = [int(b) for b in betas]
    k = len(bs)
    if not 1 <= k <= 20:
        raise PreconditionError("between 1 and 20 components")
    if any(b < 1 for b in bs):
        raise PreconditionError("components must be positive integers")
    total = 0j
    for jmask in range(1 << k):
        dot = 0
        for pos in range(k):
            digit = (jmask >> (k - 1 - pos)) & 1
            dot += bs[pos] * (1 - 2 * digit)
        prod = -1 if jmask.bit_count() & 1 else 1
        total += prod * cmath.exp(1j * x * dot)
    lhs = total / (1 << k)
    rhs = 1j**k
    for b in bs:
        rhs *= math.sin(b * x)
    return abs(lhs - rhs) <= 1e-10
