"""Integer approximation of positive vectors and exact kernel integrals.

The three singular-kernel integral formulas recover the pair invariants
from an integer vector beta that mimics alpha: same component ordering,
same sign for every signed sum.  Such a beta always exists for generic
alpha and is found here by a doubling search on the scale q; an integer
vector is its own beta at q = 1, found by the same search, so its
genericity, witness and gap come from the one survey in ``core``.  Once
beta is integral, the kernel pairs each oscillation e^{isx} of an integrand
with i*sgn(s), so every formula is a weighted sign sum over the signed
sums of beta: the same half-table sum as the closed forms, in exact
integer arithmetic.  The quadrature code at the bottom is a diagnostic
only; it never feeds a result back into an exact path.  With integer
beta each integrand is a trigonometric polynomial of degree at most
sum(beta), or cancels in pairs about pi, so a midpoint rule on
sum(beta) + 1 nodes integrates it exactly up to rounding, at a cost
known before the first evaluation.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import _SOURCES
from .core import (
    AlphaVector,
    InternalCheckError,
    ParseError,
    PreconditionError,
    _format_vector,
    _parse_int_list,
    _parse_rational,
    _survey,
    max_vector_length,
    parse_vector,
    rational_vector,
    require_generic,
)

__all__ = list(_SOURCES["trig"])


def rademacher(i: int, t) -> int:
    """Sign read off the i-th binary digit of t: +1 for digit 0.

    Half-open dyadic convention: at a dyadic point the digit comes from
    the interval to its right, so the function is right-continuous.
    With t = num/den and 2^(i-1) num = k den + r, 0 <= r < den, the
    digit floor(2^i t) mod 2 is floor(2r/den), and r is a modular power:
    O(log i) steps, never the number 2^i.  Reducing num mod den makes
    the function periodic with period 1.
    """
    i = int(i)
    if i < 1:
        raise PreconditionError("digit index is 1-based")
    t = Fraction(t)
    num, den = t.numerator, t.denominator
    r = num * pow(2, i - 1, den) % den
    return 1 - 2 * (2 * r // den)


class BetaApproximation(namedtuple("BetaApproximation", "beta q bound")):
    """An integer stand-in for a positive vector at scale q.

    ``beta`` holds positive integers with beta_k/q close to the original
    components, ``q`` the power-of-two scale, and ``bound`` a positive
    rational no larger than the smallest |signed sum| of the original
    vector (exact in the plain realization, a certified lower bound in
    the log realization).  ``approximate_beta`` verifies closeness, which
    implies sign preservation, and its exact rounding preserves order.
    """

    __slots__ = ()

    def __new__(cls, beta: tuple[int, ...], q: Fraction, bound: Fraction):
        bs = _positive_integers(beta)
        q, bound = Fraction(q), Fraction(bound)
        if q <= 0 or bound <= 0:
            raise PreconditionError("scale and bound must be positive")
        return tuple.__new__(cls, (bs, q, bound))

    @property
    def m(self) -> int:
        return len(self.beta)


_Q_CAP = 1 << 64
_PREC_CAP = 1 << 16


def _round_half_up(q: int, x: Fraction) -> int:
    """Nearest integer to q*x, ties upward."""
    return (2 * q * x.numerator + x.denominator) // (2 * x.denominator)


def _dyadic(v: int, bits: int, prec: int, up: bool) -> Fraction:
    """v / 2^bits rounded down (or up) to ``prec`` significant bits."""
    drop = abs(v).bit_length() - prec
    if drop > 0:
        v = -(-v >> drop) if up else v >> drop
        bits -= drop
    return Fraction(v, 1 << bits) if bits >= 0 else Fraction(v << -bits)


def _log_fixed(a: int, b: int, prec: int) -> tuple[int, int, int]:
    """(v, err, F) with |2^F log(a/b) - v| <= err, for a > b > 0, and
    err / 2^F far below 2^-prec log(a/b).

    Fixed-point integers with a counted error.  s square roots take
    x = a/b to x^(2^-s) <= 2: for x in [2^k, 2^(k+1)), r = k.bit_length()
    roots suffice, as k < 2^r gives 2^((k+1)/2^r) <= 2, and at high
    precision a few more shrink z by 2^-s and the series by as many
    terms.  Then log x = 2^(s+1) atanh(z), z = (x^(2^-s) - 1)/(x^(2^-s)
    + 1) <= 1/3, summed as a series.  Every step rounds down and its
    error is bounded in units of 2^-F:
      - x below 1 unit, each root (slope at most 1/2 above 1) keeps it
        below 2, and z (slope at most 1/2) below 2;
      - z^2 below 3, each power below 4 (each product drops the bits
        of z^2 that cannot reach its unit) and each term below 5, and
        the power that reaches 0 bounds the tail below 5;
    and the factor 2^(s+1) scales the error with the sum.  F fractional
    bits leave room for the error count, the roots and a log as small as
    2 (a - b)/(a + b).
    """
    k = a.bit_length() - b.bit_length()
    if a < b << k:
        k -= 1
    # (a - b)/(a + b) >= 2^-e, so log(a/b) >= 2^(1-e)
    e = (a + b).bit_length() - (a - b).bit_length() + 1
    s = k.bit_length() + max(0, math.isqrt(prec) // 4 - e)
    F = prec + e + s + 2 * prec.bit_length() + 8
    one = 1 << F
    if s:
        x = (a << F) // b
        for _ in range(s):
            x = math.isqrt(x << F)
        z = ((x - one) << F) // (x + one)
    else:
        z = ((a - b) << F) // (a + b)
    z2 = (z * z) >> F
    t = total = z
    j = 1
    while t:
        width = t.bit_length()
        t = (t * (z2 >> (F - width))) >> width
        total += t // (2 * j + 1)
        j += 1
    return total << (s + 1), (5 * j + 5) << (s + 1), F


def _log_enclosure(ratio: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of log(ratio) at ``prec`` bits.

    Both ends are dyadic with at most ``prec`` significant bits, and the
    width is about 2^-prec relative: ``_log_fixed``'s interval rounded
    outward.
    """
    a, b = ratio.numerator, ratio.denominator
    if a <= b:
        if a == b:
            return Fraction(0), Fraction(0)
        lo, hi = _log_enclosure(Fraction(b, a), prec)
        return -hi, -lo
    v, err, bits = _log_fixed(a, b, prec)
    return _dyadic(v - err, bits, prec, False), _dyadic(v + err, bits, prec, True)


def _log_box(ratio: Fraction) -> list:
    return [*_log_enclosure(ratio, 64), 64, ratio]


def _decide(box: list, test):
    """Settle ``test(lo, hi)`` on a certified enclosure [lo, hi, prec, ratio].

    ``test`` returns its verdict, or None while the enclosure is too wide
    to tell.  Then the enclosure of log(ratio) is recomputed at twice the
    precision, up to ``_PREC_CAP``, and kept in ``box`` for every later
    test.  A plain component's exact box [v, v, _PREC_CAP, None] always
    decides.
    """
    while True:
        verdict = test(box[0], box[1])
        if verdict is not None:
            return verdict
        prec = 2 * box[2]
        if prec > _PREC_CAP:
            raise InternalCheckError("certification stalled")
        box[:3] = *_log_enclosure(box[3], prec), prec


def minimum_gap(alpha: AlphaVector) -> Fraction:
    """Smallest nonzero distance of any signed sum from zero.

    Plain realization: an exact Fraction.  Log realization: the smallest
    product ratio above 1 (the minimum signed sum is its logarithm).
    """
    return _survey(alpha)[1]


def approximate_beta(alpha: AlphaVector) -> BetaApproximation:
    """Integer approximation preserving order, ties, and every sum sign.

    Doubles q starting from 1 and takes beta_k as the nearest integer to
    q*alpha_k, accepting the first q for which the closeness bound checks
    out exactly.  Closeness |beta_k/q - alpha_k| < bound/m for every k
    preserves all 2^m signed-sum signs: by the triangle inequality a
    signed sum moves by less than m * bound/m = bound, and bound is at
    most its distance from zero.  Order and ties need no check: each
    beta_k is the exact rounding, half up, of q*alpha_k (a log bracket
    is accepted only when both its ends round alike, and the rounding of
    log(r) lies between theirs), and rounding half up is monotone, so
    equal components get equal betas and no pair is reversed.
    Termination is guaranteed for generic input because every defect
    shrinks like 1/q while the gap stays fixed.

    Every decision reads a certified enclosure (lo, hi) of its component:
    the exact (v, v) in the plain realization, a bracket of log(r) in
    fixed-point integers in the log realization.  Each bracket is
    computed once at 64 bits and refined only while a rounding or
    closeness test cannot tell from it; a boundary case cannot occur,
    log(r) being irrational, so refinement stops.  The log bound is the
    lower end of the first bracket of log(g), g the smallest product
    ratio above 1, at 64, 128, ... bits that is positive and narrower
    than a sixteenth of its upper end.
    """
    require_generic(alpha)
    m = alpha.m
    keys = alpha.ratios()
    gap = minimum_gap(alpha)
    if alpha.is_log:
        bound = _decide(
            _log_box(gap),
            lambda lo, hi: lo if lo > 0 and (hi - lo) * 16 < hi else None,
        )
        boxes = [_log_box(r) for r in keys]
    else:
        bound = gap
        boxes = [[v, v, _PREC_CAP, None] for v in keys]
    target = bound / m
    tnum, tden = target.numerator, target.denominator

    def rounded(lo, hi):
        b = _round_half_up(q, lo)
        return b if b == _round_half_up(q, hi) else None

    def close(lo, hi):
        # b/q - lo and hi - b/q against target, times q * tden * the end's
        # denominator: integers only, the Fraction forms cost a gcd each
        above = (b * lo.denominator - q * lo.numerator) * tden
        below = (q * hi.numerator - b * hi.denominator) * tden
        reach_lo, reach_hi = q * tnum * lo.denominator, q * tnum * hi.denominator
        if above < reach_lo and below < reach_hi:
            return True
        return False if above <= -reach_lo or below <= -reach_hi else None

    q = 1
    while q <= _Q_CAP:
        betas = []
        for box in boxes:
            b = _decide(box, rounded)
            if b < 1 or not _decide(box, close):
                break
            betas.append(b)
        else:
            return BetaApproximation(tuple(betas), Fraction(q), bound)
        q <<= 1
    raise InternalCheckError("scale search exceeded the safety cap")


@lru_cache(maxsize=1)
def _integer_vector(values: tuple[int, ...]) -> AlphaVector:
    """The plain vector of some positive integers, kept for the next caller.

    ``integer_beta`` approximates it and ``exact_formula_value`` reads its
    value and checks from its half tables, so one request builds one
    table.  Tables are never mutated: a question filters a copy.
    """
    return rational_vector(values)


def integer_beta(values) -> BetaApproximation:
    """Wrap raw positive integers as their own approximation at q = 1.

    The kernel evaluators need every signed sum nonzero.  An integer
    vector is its own nearest integer at q = 1, so ``approximate_beta``
    of it accepts beta = values with the exact smallest |signed sum| as
    the bound; genericity, the witness of a degenerate vector (the
    smallest vanishing mask) and the gap come from the one survey in
    ``core``.
    """
    return approximate_beta(_integer_vector(_positive_integers(values)))


def _positive_integers(values) -> tuple[int, ...]:
    """The values as a tuple of ints, refused unless there is at least one,
    each is positive and there are no more than the cap allows."""
    bs = tuple(int(v) for v in values)
    if not bs:
        raise PreconditionError("need at least one component")
    if any(b < 1 for b in bs):
        raise PreconditionError("components must be positive integers")
    if len(bs) > max_vector_length():
        raise PreconditionError("length exceeds the configured cap")
    return bs


def kernel_pairing(s: int) -> int:
    """Kernel pairing of a single oscillation: sgn(s).

    Realizes the 1/(2 pi) principal-value integral of cot(x/2) sin(sx)
    over a full period; the cosine component pairs to zero by
    antisymmetry about the midpoint.
    """
    s = int(s)
    return (s > 0) - (s < 0)


def _check_window_forms(tables, value: int) -> None:
    """Cross-check the kernel value against a window count.

    Splitting off the last component B turns the sign sum into a count
    of sign vectors whose partial sum t lies in the window |t| < B
    (``HalfTables.edge_window``).  The paper's second width, |t| <= B,
    adds only the partial sums t = +-B, which are full sums at zero;
    the kernel refuses those, and they cannot occur for a generic
    vector, so one window settles both.  Its parity-signed count is -2
    times the value.  ``tables`` are the half tables of beta.
    """
    if tables.edge_window() != -2 * value:
        raise InternalCheckError("window form disagrees with the kernel value")


def _formula(values, formula: str, index: int | None) -> tuple[int, int]:
    """(sines, prefactor) of a named kernel formula on the integers
    ``values`` of a beta, preconditions checked.  Only comparisons of the
    values are made, so raw input can be checked before any table.

    ``sines`` is the mask of the components that enter as sin(b_k x);
    the others enter as cos(b_k x).  "result" is the sine product.
    "result1" drops its cotangent factor at the larger pair member j by
    cot(b x) sin(b x) = cos(b x), which also removes its poles, and
    "result2" its tangent factor at the smaller member i by
    tan(b x) cos(b x) = sin(b x), leaving one sine against cosines.
    """
    m = len(values)
    if formula == "result":
        if m < 3:
            raise PreconditionError("need at least 3 components")
        return (1 << m) - 1, (-1 if ((m + 1) // 2) % 2 else 1) << (m - 2)
    if formula not in ("result1", "result2"):
        raise PreconditionError(f"unknown formula {formula!r}")
    if index is None:
        raise PreconditionError("this formula needs the pair index")
    if formula == "result1":
        if m % 2:
            raise PreconditionError("odd length uses the plain variant")
        if m < 4:
            raise PreconditionError("need at least 4 components")
    elif m < 3:
        raise PreconditionError("need at least 3 components")
    k0 = int(index) - 1
    if not 0 <= k0 < m:
        raise PreconditionError("component index out of range")
    others = [b for k, b in enumerate(values) if k != k0]
    if formula == "result1":
        if values[k0] < min(others):
            raise PreconditionError("index must carry the larger member of a pair")
        pref = (-1 if (m // 2 - 1) % 2 else 1) << (m - 2)
        return ((1 << m) - 1) ^ (1 << k0), pref
    if values[k0] > max(others):
        raise PreconditionError("index must carry the smaller member of a pair")
    return 1 << k0, 1 << (m - 2)


def integral_N_odd(beta: BetaApproximation) -> int:
    """Signed solution count for odd length via the sine-product kernel."""
    if beta.m < 3:
        raise PreconditionError("need at least 3 components")
    if beta.m % 2 == 0:
        raise PreconditionError("even length uses the cotangent variant")
    return exact_formula_value(beta, "result")


def integral_N_even(beta: BetaApproximation, j: int) -> int:
    """Signed solution count for even length; j indexes the larger pair
    member, whose cotangent factor becomes a cosine."""
    return exact_formula_value(beta, "result1", j)


def integral_count(beta: BetaApproximation, i: int) -> int:
    """Solution count; i indexes the smaller pair member, whose tangent
    factor becomes its one sine."""
    return exact_formula_value(beta, "result2", i)


def exact_formula_value(
    beta: BetaApproximation, formula: str, index: int | None = None
) -> int:
    """Exact value of one named kernel formula.

    ``formula`` picks the sine-product form ("result"), the even-length
    variant with its cotangent factor ("result1", needs the index of the
    larger pair member), or the count form ("result2", needs the index
    of the smaller member).

    With a sines and m - a cosines the integrand is (-i)^a / 2^m times
    the sum over sign vectors e of prod_{sine k} e_k e^{i<e,beta>x}, and
    the kernel pairs each e^{isx} with i*sgn(s).  For odd a that is
    (-1)^((a-1)/2) / 2^m times the sign sum of the sines' character,
    four times ``HalfTables.sign_sum``, and the prefactor 2^(m-2) leaves
    plus or minus that half.  For "result" on even length the sign sum
    vanishes, as the terms of e and -e cancel in pairs (the same argument
    makes ``closed_form_g`` 0); the window cross-check confirms the 0.
    One half table of beta, shared with ``integer_beta``
    (``_integer_vector``), serves the value and its check.  A beta with a
    vanishing signed sum is refused by that vector's survey, which
    ``integer_beta`` has already made on the CLI path.
    """
    sines, pref = _formula(beta.beta, formula, index)
    alpha = _integer_vector(beta.beta)
    require_generic(alpha)
    tables = alpha.half_tables()
    a = sines.bit_count()
    if a % 2 == 0:
        value = 0
    else:
        half = tables.sign_sum(sines)
        value = half if (pref > 0) == (a % 4 == 1) else -half
    if formula == "result":
        _check_window_forms(tables, value)
    return value


# ---------------------------------------------------------------------------
# Quadrature diagnostics.  Floating point is quarantined below this line.

_EVALUATIONS = 3_000_000


class QuadratureResult(namedtuple("QuadratureResult", "numeric exact agree")):
    """A numeric integral, the exact value it checks, and whether they
    agree within the tolerance."""

    __slots__ = ()


def _cot_half(x: float) -> float:
    return math.cos(x / 2) / math.sin(x / 2)


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


def _rounding_bound(freqs, scale: int) -> float:
    """Bound on the rounding error of ``scale`` times the midpoint mean
    over ``freqs`` (see ``quadrature_check``).

    N = S + 1 nodes, S the sum of the frequencies, and the bound are
    known before the first evaluation, so an input over the node budget,
    or with a bound of 1/2 or more, is refused here, before any.
    """
    total = sum(freqs)
    if total + 1 > _EVALUATIONS:
        raise PreconditionError(
            f"quadrature needs {total + 1:,} evaluations, over its"
            f" {_EVALUATIONS:,}-evaluation budget"
        )
    spread = (2 / math.pi) * (2 + math.log(total + 1))
    eps = sys.float_info.epsilon
    bound = abs(scale) * eps * (10 * math.pi * total + 2 * len(freqs) + 16) * spread
    if bound >= 0.5:
        raise PreconditionError(
            f"quadrature rounding bound {bound:.3g} reaches 1/2,"
            " too wide to tell a wrong integer from the right one"
        )
    return bound


def _midpoint_mean(sin_freqs, cos_freqs) -> float:
    """Principal-value mean of cot(x/2) prod sin(b x) prod cos(b x).

    The midpoint rule on N = S + 1 nodes (k + 1/2) 2 pi / N, with S the
    sum of the frequencies, is exact up to rounding (see
    ``quadrature_check``).  No node sits on the pole at 0.
    """
    n = sum(sin_freqs) + sum(cos_freqs) + 1
    f = _build_integrand(sin_freqs, cos_freqs)
    h = 2 * math.pi / n
    return math.fsum(f((k + 0.5) * h) for k in range(n)) / n


def _quadrature_plan(values, formula: str, tolerance: float, index: int | None):
    """(sines, prefactor, rounding bound) of the quadrature of a formula on
    the positive integers ``values``.  Its refusals read only the values,
    the formula and the tolerance, so raw input is checked before any
    table."""
    sines, pref = _formula(values, formula, index)
    if tolerance <= 0:
        raise PreconditionError("tolerance must be positive")
    return sines, pref, _rounding_bound(values, pref)


def quadrature_check(
    beta: BetaApproximation,
    formula: str,
    tolerance: float = 1e-8,
    index: int | None = None,
) -> QuadratureResult:
    """Integrate the stated kernel formula numerically and compare.

    The numeric side uses the pole-free rewrites (cotangent and tangent
    factors folded into a cosine or sine at the chosen index), the exact
    side ``exact_formula_value``; ``agree`` tells whether they differ by
    less than ``tolerance`` plus the rounding bound below.

    The numeric side is exact up to rounding.  The product of the sines
    and cosines is a trigonometric polynomial of degree at most S, the
    sum of beta.  With an odd sine count it is a sum of sin(s x), s <= S,
    and cot(x/2) sin(s x) = 1 + cos(s x) + 2 sum_{0<k<s} cos(k x) is a
    polynomial of the same degree, which the midpoint rule on S + 1
    nodes integrates exactly: every e^{ikx} with 0 < |k| <= S sums to
    zero over the nodes.  With an even sine count the integrand is odd
    about pi, its principal value vanishes, and the nodes, symmetric
    about pi, cancel in pairs.  Reference: Trefethen and Weideman, "The
    exponentially convergent trapezoidal rule", SIAM Review 56(3), 2014.

    Rounding bound.  With eps the double-precision epsilon, m factors and
    n = S + 1 nodes, the numeric value is within

        2^(m-2) * eps * (10 pi S + 2m + 16) * (2/pi) (2 + ln n)

    of the exact one (the prefactor's magnitude in place of 2^(m-2)), to
    first order in eps and with sin and cos off by at most a unit in the
    last place.  Each node x is off by at most 3 eps x, so b x by at
    most 8 pi eps b, and each factor, of magnitude at most 1, by at most
    (8 pi b + 1) eps; a node's error is thus at most |cot(x/2)| eps
    (8 pi S + 2m + 16) plus the cotangent's own, which near the pole at
    2 pi adds at most 5 eps n to the mean, less than the 2 pi S more in
    the bound.  The mean of |cot(x/2)| over the nodes is at most
    (2/pi)(2 + ln n), by cot y <= 1/y.  The bound
    grows like 2^m S log S, so at m = 30 with entries near 1000 it is
    about 0.2.  Once it reaches 1/2 ``agree`` could no longer tell a
    wrong integer from the right one, so such a request is refused as a
    precondition before the first evaluation.
    """
    sines, pref, rounding = _quadrature_plan(beta.beta, formula, tolerance, index)
    exact = exact_formula_value(beta, formula, index)
    sin_fs = [b for k, b in enumerate(beta.beta) if sines >> k & 1]
    cos_fs = [b for k, b in enumerate(beta.beta) if not sines >> k & 1]
    numeric = pref * _midpoint_mean(sin_fs, cos_fs)
    limit = tolerance + rounding
    return QuadratureResult(numeric, exact, abs(numeric - exact) < limit)


def kernel_pairing_quadrature(s: int, tolerance: float = 1e-8) -> QuadratureResult:
    """Diagnostic for the single-oscillation pairing against sgn(s), with
    the rounding bound of ``quadrature_check``."""
    s = int(s)
    exact = kernel_pairing(s)
    # the sign comes from the oddness of sin, not from the value checked
    rounding = _rounding_bound([abs(s)], 1)
    numeric = _midpoint_mean([abs(s)], [])
    if s < 0:
        numeric = -numeric
    limit = tolerance + rounding
    return QuadratureResult(numeric, exact, abs(numeric - exact) < limit)


def _cmd_integral(args, inputs):
    beta_list = _parse_int_list(args.beta, "beta")
    if not math.isfinite(args.tol):
        raise ParseError(f"argument --tol: must be finite, got {args.tol!r}")
    inputs.update(beta=beta_list, formula=args.formula)
    if args.pair_index is not None:
        inputs["pair_index"] = args.pair_index
    if args.quadrature:
        inputs.update(quadrature=True, tolerance=args.tol)

    # every refusal that reads only the integers comes before the
    # survey builds a table
    _formula(beta_list, args.formula, args.pair_index)
    values = _positive_integers(beta_list)
    if args.quadrature:
        _quadrature_plan(values, args.formula, args.tol, args.pair_index)
    beta = integer_beta(values)
    if not args.quadrature:
        exact = exact_formula_value(beta, args.formula, args.pair_index)
        return {"formula": args.formula, "exact": exact}
    check = quadrature_check(beta, args.formula, args.tol, args.pair_index)
    return {
        "formula": args.formula,
        "exact": check.exact,
        "numeric": check.numeric,
        "agree": check.agree,
        "tolerance": args.tol,
    }


def _cmd_approx_beta(args, inputs):
    alpha = parse_vector(args.alpha)
    inputs.update(alpha=_format_vector(alpha))
    approx = approximate_beta(alpha)
    return {
        "m": approx.m,
        "beta": list(approx.beta),
        "q": str(approx.q),
        "bound": str(approx.bound),
    }


def _cmd_rademacher(args, inputs):
    t = _parse_rational(args.t, "t")
    inputs.update(i=args.i, t=str(t))
    return {"value": rademacher(args.i, t)}
