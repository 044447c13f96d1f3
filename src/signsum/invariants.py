"""Solution sets of the two-sided signed-sum inequality and their invariants.

For a positive vector a of length m and an index pair (i, j), the solution
set collects the sign vectors e on the remaining m-2 coordinates with

    |a_i - a_j|  <  sum_k e_k a_k  <  a_i + a_j,

both inequalities strict.  This module enumerates that set exactly, computes
the signed count N (sum of coordinate products), the count parity, and the
closed-form sign-sum routes to the same numbers, and verifies the laws that
make N and the parity invariants of the vector rather than of the pair.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .core import (
    AlphaVector,
    InternalCheckError,
    PairSelection,
    PreconditionError,
    Scalar,
    SignVector,
    _half_sign_sum,
    _survey,
    check_generic,
    require_generic,
    zero_sum_masks,
)

__all__ = [
    "SolutionSet",
    "PairInvariants",
    "InvariantReport",
    "WallCrossing",
    "enumerate_solutions",
    "pair_invariants",
    "count_solutions",
    "signed_count",
    "parity",
    "closed_form_g",
    "count_via_sign_sum",
    "signed_count_even_via_sign_sum",
    "extended_signed_count",
    "verify_invariance",
    "wall_crossing_check",
    "orient_pair",
]

class SolutionSet(namedtuple("SolutionSet", "pair solutions source signed")):
    """Materialized solution set for one pair, sorted ascending by bitmask,
    with its signed count from the same scan."""

    __slots__ = ()


class ScanResult(namedtuple("ScanResult", "count signed masks")):
    """One pair scan: the count, the signed count and the sorted solution
    masks (None when not materialized)."""

    __slots__ = ()


def _pair_positions(alpha: AlphaVector, pair: PairSelection) -> tuple[int, int]:
    if alpha.m < 3:
        raise PreconditionError("solution sets require at least 3 components")
    pair.validate(alpha.m)
    return pair.i - 1, pair.j - 1


def _rest_positions(m: int, i0: int, j0: int) -> list[int]:
    return [pos for pos in range(m) if pos != i0 and pos != j0]


def _rest_masks(masks, i0: int, j0: int) -> list[int]:
    """Full masks with bits i0 < j0 clear, as masks over the m-2 rest
    positions, ascending.  Dropping two clear bits keeps the order."""
    low = (1 << i0) - 1
    mid = ((1 << (j0 - 1)) - 1) ^ low
    high = -1 << (j0 - 1)
    return sorted((x & low) | (x >> 1 & mid) | (x >> 2 & high) for x in masks)


def _scan(alpha, pair, materialize=False) -> ScanResult:
    """Count and signed count of one pair's solutions.

    The vector's half tables, restricted to the sums with both pair
    coordinates at plus, hold each rest sum s as s + v_i + v_j, so the
    window moves by that much (see ``_halves``).  Each entry of the
    smaller restricted half meets the window in one run of the sorted
    other, found by bisection, so the scan costs about 2^((m-2)/2)
    bisections plus one O(2^(m/2)) filtering pass instead of 2^(m-2)
    steps.  The pair bits are clear in every entry, so the window's
    parity signs are those of the rest.  A full sum on either bound
    would mean a vanishing signed sum of the whole vector, impossible
    once it is generic.
    """
    i0, j0 = _pair_positions(alpha, pair)
    require_generic(alpha)
    tables = alpha.half_tables()
    vi, vj = tables.values[i0], tables.values[j0]
    if alpha.is_log:
        lo, hi = max(vi, vj) ** 2, (vi * vj) ** 2
    else:
        lo, hi = 2 * max(vi, vj), 2 * (vi + vj)
    pinned = (1 << i0) | (1 << j0)
    count, signed, masks, touched = tables.restrict(pinned).window(
        lo, hi, materialize
    )
    if touched:
        raise InternalCheckError("boundary equality on a generic vector")
    if materialize:
        masks = tuple(_rest_masks(masks, i0, j0))
    return ScanResult(count, signed, masks)


def enumerate_solutions(alpha: AlphaVector, pair: PairSelection) -> SolutionSet:
    """All sign vectors strictly inside the two-sided bound, ascending."""
    i0, j0 = _pair_positions(alpha, pair)
    result = _scan(alpha, pair, materialize=True)
    cmap = tuple(
        alpha.original_index(pos) for pos in _rest_positions(alpha.m, i0, j0)
    )
    n = len(cmap)
    sols = tuple(SignVector._bounded(n, mask, cmap) for mask in result.masks)
    return SolutionSet(pair, sols, alpha, result.signed)


def pair_invariants(alpha: AlphaVector, pair: PairSelection) -> PairInvariants:
    """Count, parity and signed count of one pair from a single scan."""
    scan = _scan(alpha, pair)
    return PairInvariants(pair, scan.count, scan.count & 1, scan.signed)


def count_solutions(alpha: AlphaVector, pair: PairSelection) -> int:
    return _scan(alpha, pair).count


def signed_count(alpha: AlphaVector, pair: PairSelection) -> int:
    """Sum of coordinate products over the solution set."""
    return _scan(alpha, pair).signed


def parity(alpha: AlphaVector, pair: PairSelection) -> int:
    """Solution count mod 2; the same for every pair."""
    return _scan(alpha, pair).count & 1


def closed_form_g(alpha: AlphaVector) -> int:
    """The sign-sum closed form: -(1/4) sum over all e of sgn(<e,a>) prod e.

    Equals the signed count for every pair when m is odd.  For even m the
    e and -e terms cancel pairwise, so the value is identically 0.
    """
    if alpha.m < 3:
        raise PreconditionError("closed form requires at least 3 components")
    require_generic(alpha)
    if alpha.m % 2 == 0:
        return 0
    return -_half_sign_sum(alpha.half_tables(), (1 << alpha.m) - 1)


def orient_pair(alpha: AlphaVector, pair: PairSelection) -> tuple[int, int]:
    """0-based (smaller, larger) positions of the pair, by component value.

    Ties resolve to the lower index as the smaller element.
    """
    i0, j0 = _pair_positions(alpha, pair)
    if alpha.components[i0] <= alpha.components[j0]:
        return i0, j0
    return j0, i0


def count_via_sign_sum(alpha: AlphaVector, pair: PairSelection) -> int:
    """Solution count as (1/4) sum of e_i sgn(<e,a>) over all e, with i the
    smaller pair coordinate."""
    small, _ = orient_pair(alpha, pair)
    require_generic(alpha)
    return _half_sign_sum(alpha.half_tables(), 1 << small)


def signed_count_even_via_sign_sum(alpha: AlphaVector, pair: PairSelection) -> int:
    """Signed count for even m as (1/4) sum of e_j sgn(<e,a>) prod e, with j
    the larger pair coordinate."""
    if alpha.m % 2:
        raise PreconditionError("this route requires even length")
    _, large = orient_pair(alpha, pair)
    require_generic(alpha)
    # e_j times the sign product is the sign product without e_j
    return _half_sign_sum(alpha.half_tables(), ((1 << alpha.m) - 1) ^ (1 << large))


def extended_signed_count(
    alpha: AlphaVector, pair: PairSelection, h: int
) -> int:
    """Signed count with one extra sign factor at the coordinate holding
    component h: the sum of e_h prod_k e_k over the pair's solutions,
    k running over the m - 2 coordinates outside the pair.

    A sign-sum closed form.  Let T_c sum c(e) over the sign vectors e
    with <e, a> > 0, for a product c of signs, chi be the product of all
    m signs and I the larger pair member (``orient_pair``).  The window
    step of ``_moment_rows`` with chi e_h in place of chi (h avoids the
    pair, so e_h rides along) gives ext = (T_{chi e_h e_I} - T_{chi
    e_h}) / 2.  Negating e maps the sums above zero onto the sums below
    it, none vanishing on a generic vector, and multiplies a product of
    k signs by (-1)^k.  So T_c = 0 for a nonempty c of even size, and
    for odd size T_c is half of sum_e c(e) sgn(<e, a>), i.e. twice
    ``_half_sign_sum``.  chi e_h has m - 1 signs and chi e_h e_I has
    m - 2, hence:

    - even m: ext = -_half_sign_sum(chi e_h), the same for every pair
      avoiding h;
    - odd m: ext = _half_sign_sum(chi e_h e_I), the same for every pair
      with larger member I.
    """
    if alpha.m < 4:
        raise PreconditionError("extended count requires at least 4 components")
    _, large = orient_pair(alpha, pair)
    if not 1 <= h <= alpha.m:
        raise PreconditionError("extra index out of range")
    if h in (pair.i, pair.j):
        raise PreconditionError("extra index must avoid the pair")
    require_generic(alpha)
    char = ((1 << alpha.m) - 1) ^ (1 << (h - 1))
    if alpha.m % 2:
        return _half_sign_sum(alpha.half_tables(), char ^ (1 << large))
    return -_half_sign_sum(alpha.half_tables(), char)


class PairInvariants(namedtuple("PairInvariants", "pair count parity signed")):
    """One pair's solution count, its parity and its signed count N."""

    __slots__ = ()


class InvariantReport(
    namedtuple(
        "InvariantReport",
        "m rows parity_invariant parity n_invariant signed n_by_max_omitted"
        " count_by_min_omitted abs_n_invariant violations",
    )
):
    """Per-pair table plus the cross-pair invariance flags.

    ``rows`` lists the PairInvariants of every pair.  Flags that do not
    apply to the parity of m are None.  Grouping maps (dicts) are keyed by
    component value (the larger or smaller of each pair).  ``violations``
    lists the laws found broken.
    """

    __slots__ = ()


def _moment_rows(alpha: AlphaVector) -> list[PairInvariants]:
    """Every pair's invariants from degree-1 moments of one table.

    With T^w the sum of w(e) over the sign vectors e with <e, a> > 0 and
    T^w_k the same sum weighted by e_k, for w = 1 and w = chi (the sign
    product), a pair with smaller member J and larger member I
    (``orient_pair``) has count = T^1_J / 2 and N = (T^chi_I - T^chi) / 2.
    On e_I = -1 the sums above zero are the rest sums above
    a_I - a_J (e_J = +1) or above a_I + a_J (e_J = -1), so the window
    count is the sum of e_J over them and N minus that of chi; e -> -e
    turns the half e_I = +1 into the same numbers.  These are Chow
    parameters of the threshold function sgn(<e, a>) (Chow 1961;
    O'Donnell, "Analysis of Boolean Functions", 2014, ch. 5).

    The m - 1 pairs adjacent in (value, index) order are scanned as well:
    together they use each moment a row reads exactly once, so a wrong
    moment cannot pass unseen.
    """
    m = alpha.m
    ones, chis, touched = alpha.half_tables().moments()
    if touched:
        raise InternalCheckError("generic vector produced a zero signed sum")
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            pair = PairSelection(i + 1, j + 1)
            small, large = orient_pair(alpha, pair)
            count, odd = divmod(ones[small + 1], 2)
            signed, odd_n = divmod(chis[large + 1] - chis[0], 2)
            if odd or odd_n:
                raise InternalCheckError("moment of a pair must be even")
            rows.append(PairInvariants(pair, count, count & 1, signed))
    by_pair = {row.pair: row for row in rows}
    order = sorted(range(m), key=lambda pos: (alpha.components[pos], pos))
    for p, q in zip(order, order[1:]):
        pair = PairSelection(p + 1, q + 1)
        if pair_invariants(alpha, pair) != by_pair[pair]:
            raise InternalCheckError(
                f"moment row disagrees with the scan of pair {pair.i},{pair.j}"
            )
    return rows


def verify_invariance(alpha: AlphaVector) -> InvariantReport:
    """Compute every pair and check the cross-pair laws.

    The rows come from degree-1 moments of the vector's table, checked
    against the scans of m - 1 adjacent pairs (``_moment_rows``).  On
    that route two laws hold by construction, so their checks below can
    only fail through a defect in the route itself: the count depends on
    the smaller member alone, and for even m, where T^chi = 0, N depends
    on the larger member alone.  Parity invariance, odd-m N invariance
    (T^chi_k = 0 there) and the m = 4 |N| law still compare numbers.
    A violation marks an implementation bug, not bad input; it is recorded
    in the report rather than raised.
    """
    m = alpha.m
    if m < 3:
        raise PreconditionError("solution sets require at least 3 components")
    require_generic(alpha)
    rows = _moment_rows(alpha)

    violations = []
    parities = {row.parity for row in rows}
    parity_invariant = len(parities) == 1
    if not parity_invariant:
        violations.append("parity differs across pairs")
    common_parity = rows[0].parity if parity_invariant else None

    n_invariant = None
    common_signed = None
    n_by_max = None
    if m % 2:
        signs = {row.signed for row in rows}
        n_invariant = len(signs) == 1
        if n_invariant:
            common_signed = rows[0].signed
        else:
            violations.append("signed count differs across pairs (odd length)")
    else:
        n_by_max = {}
        for row in rows:
            small, large = orient_pair(alpha, row.pair)
            key = alpha.components[large]
            if key in n_by_max and n_by_max[key] != row.signed:
                violations.append(
                    "signed count not a function of the larger component"
                )
            n_by_max.setdefault(key, row.signed)

    count_by_min = {}
    for row in rows:
        small, _ = orient_pair(alpha, row.pair)
        key = alpha.components[small]
        if key in count_by_min and count_by_min[key] != row.count:
            violations.append("count not a function of the smaller component")
        count_by_min.setdefault(key, row.count)

    abs_n_invariant = None
    if m == 4:
        abs_vals = {abs(row.signed) for row in rows}
        abs_n_invariant = len(abs_vals) == 1
        if not abs_n_invariant:
            violations.append("absolute signed count differs across pairs (m=4)")

    return InvariantReport(
        m=m,
        rows=rows,
        parity_invariant=parity_invariant,
        parity=common_parity,
        n_invariant=n_invariant,
        signed=common_signed,
        n_by_max_omitted=n_by_max,
        count_by_min_omitted=count_by_min,
        abs_n_invariant=abs_n_invariant,
        violations=violations,
    )


class WallCrossing(
    namedtuple(
        "WallCrossing",
        "pair perturbed delta jump_signed jump_count predicted_signed"
        " predicted_count wall_masks",
    )
):
    """Measured and predicted jumps across a degeneracy wall.

    Jumps are value(a with a_l - delta) minus value(a with a_l + delta).
    """

    __slots__ = ()


def _char_total(masks, char: int) -> int:
    """Sum of (-1)^popcount(mask & char) over ``masks``."""
    odd = sum((mask & char).bit_count() & 1 for mask in masks)
    return len(masks) - 2 * odd


def wall_crossing_check(
    alpha: AlphaVector,
    l: int,
    pair: PairSelection,
    delta: Fraction | None = None,
) -> WallCrossing:
    """Measure the solution-set jumps when coordinate l crosses its wall.

    The input may sit on a wall (some vanishing signed sums) or be generic
    (no walls, all jumps zero).  Both perturbed endpoints must be generic,
    which holds automatically for any delta below half the minimum nonzero
    gap.  The measured jumps are compared against the wall-solution sums
    predicted by the crossing analysis; a mismatch raises, since it would
    mean the enumeration and the prediction disagree.
    """
    if alpha.is_log:
        raise PreconditionError("wall crossing requires the plain realization")
    i0, j0 = _pair_positions(alpha, pair)
    if not 1 <= l <= alpha.m:
        raise PreconditionError("perturbed index out of range")
    l0 = l - 1
    if l0 in (i0, j0):
        raise PreconditionError("perturbed index must avoid the pair")

    refusal = "delta must be positive and below half the minimum nonzero gap"
    if delta is not None and Fraction(delta) <= 0:  # before the survey's table
        raise PreconditionError(refusal)
    groups, gap = _survey(alpha)
    delta = gap / 4 if delta is None else Fraction(delta)
    if not delta < gap / 2:
        raise PreconditionError(refusal)

    base = alpha.components[l0].ratio
    if base <= delta:
        raise PreconditionError("delta would drive the component nonpositive")

    def perturbed(sign):
        comps = list(alpha.components)
        comps[l0] = Scalar(base + sign * delta, False)
        return AlphaVector(comps, index_map=alpha.index_map)

    minus = perturbed(-1)
    plus = perturbed(+1)
    for endpoint in (minus, plus):
        if not check_generic(endpoint).generic:
            raise InternalCheckError("perturbed endpoint is degenerate")

    scan_minus = _scan(minus, pair)
    scan_plus = _scan(plus, pair)
    jump_signed = scan_minus.signed - scan_plus.signed
    jump_count = scan_minus.count - scan_plus.count

    # Each wall solution r moves exactly one sign vector in or out of the
    # solution set.  Which side it lands on is decided by r_l, and its
    # contribution by whether the pair coordinates agree in r (a crossing
    # of the upper bound) or differ (the lower bound).  With s and t the
    # smaller and larger pair positions and P = prod_{k != i,j,l} r_k, r
    # adds -r_s r_l to the count and, to N, (-r_i)^(m-1) P when r_i = r_j
    # and -r_s^(m-1) P otherwise.  As r_i r_j is 1 or -1 in the two cases,
    # both read chi_{all but l}(r) for odd m and -r_s P = -chi_{all but
    # t,l}(r) for even m, chi_S(r) being the product of r over S.  Each S
    # has even size, so chi_S is the same on r and -r, and the survey's
    # one mask per negation class serves.  A zero group pairs every A mask
    # with every B mask, on disjoint bits, so it adds (sum_A chi_S)(sum_B
    # chi_S).
    small, large = orient_pair(alpha, pair)
    full = (1 << alpha.m) - 1

    def wall_sum(s):
        return sum(_char_total(am, s) * _char_total(bm, s) for am, bm in groups)

    pred_count = -wall_sum((1 << small) | (1 << l0))
    if alpha.m % 2:
        pred_signed = wall_sum(full ^ (1 << l0))
    else:
        pred_signed = -wall_sum(full ^ (1 << large) ^ (1 << l0))

    if jump_signed != pred_signed or jump_count != pred_count:
        raise InternalCheckError(
            "measured wall jumps disagree with the crossing prediction: "
            f"measured ({jump_signed}, {jump_count}), "
            f"predicted ({pred_signed}, {pred_count})"
        )
    return WallCrossing(
        pair=pair,
        perturbed=l,
        delta=delta,
        jump_signed=jump_signed,
        jump_count=jump_count,
        predicted_signed=pred_signed,
        predicted_count=pred_count,
        wall_masks=zero_sum_masks(alpha),
    )
