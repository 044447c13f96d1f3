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

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    AlphaVector,
    InternalCheckError,
    PairSelection,
    PreconditionError,
    Scalar,
    SignVector,
    check_generic,
    minimum_gap,
    require_generic,
    zero_sum_masks,
)
from . import _halves

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

@dataclass(frozen=True)
class SolutionSet:
    """Materialized solution set for one pair, sorted ascending by bitmask,
    with its signed count from the same scan."""

    pair: PairSelection
    solutions: tuple[SignVector, ...]
    source: AlphaVector
    signed: int

    def masks(self) -> tuple[int, ...]:
        return tuple(sv.bits for sv in self.solutions)


@dataclass(frozen=True)
class ScanResult:
    count: int
    signed: int
    extended: int
    masks: tuple[int, ...] | None


def _pair_positions(alpha: AlphaVector, pair: PairSelection) -> tuple[int, int]:
    if alpha.m < 3:
        raise PreconditionError("solution sets require at least 3 components")
    pair.validate(alpha.m)
    return pair.i - 1, pair.j - 1


def _rest_positions(m: int, i0: int, j0: int) -> list[int]:
    return [pos for pos in range(m) if pos != i0 and pos != j0]


def _scan(alpha, pair, materialize=False, h1=None) -> ScanResult:
    """Count, signed count and extended count of one pair's solutions.

    The m-2 free coordinates split into two half tables; each entry of
    the first meets the window in one run of the sorted second, found by
    bisection, so the scan costs about 2^((m-2)/2) steps instead of
    2^(m-2).  A full sum on either bound would mean a vanishing signed
    sum of the whole vector, impossible once it is generic.
    """
    i0, j0 = _pair_positions(alpha, pair)
    require_generic(alpha)
    rest = _rest_positions(alpha.m, i0, j0)
    values, _ = _halves.coordinates(alpha.ratios(), alpha.is_log)
    vi, vj = values[i0], values[j0]
    if alpha.is_log:
        lo, hi = max(vi, vj) / min(vi, vj), vi * vj
    else:
        lo, hi = abs(vi - vj), vi + vj
    tables = _halves.HalfTables(
        [values[p] for p in rest],
        [1 << k for k in range(len(rest))],
        is_log=alpha.is_log,
    )
    full = (1 << len(rest)) - 1
    chars = [0, full] if h1 is None else [0, full, full ^ (1 << h1)]
    totals, masks, touched = tables.window(lo, hi, chars, materialize)
    if touched:
        raise InternalCheckError("boundary equality on a generic vector")
    return ScanResult(
        totals[0],
        totals[1],
        totals[2] if h1 is not None else 0,
        tuple(sorted(masks)) if materialize else None,
    )


def enumerate_solutions(alpha: AlphaVector, pair: PairSelection) -> SolutionSet:
    """All sign vectors strictly inside the two-sided bound, ascending."""
    i0, j0 = _pair_positions(alpha, pair)
    result = _scan(alpha, pair, materialize=True)
    cmap = tuple(
        alpha.original_index(pos) for pos in _rest_positions(alpha.m, i0, j0)
    )
    sols = tuple(
        SignVector(alpha.m - 2, mask, cmap) for mask in result.masks
    )
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


def _sign_sum(alpha: AlphaVector, fixed_pos: int, char: int) -> int:
    """Sum of sgn(<e,a>) (-1)^popcount(mask(e) & char) over the sign
    vectors e with ``fixed_pos`` at +1.

    Masks are m-bit with the fixed bit clear.  Half tables give the sum
    as sum over A of p_A (W(> -s_A) - W(< -s_A)), W the weight prefix
    sums of the sorted second half.
    """
    values, _ = _halves.coordinates(alpha.ratios(), alpha.is_log)
    total, touched = _halves.pinned(values, fixed_pos, alpha.is_log).sign_sum(char)
    if touched:
        raise InternalCheckError("generic vector produced a zero signed sum")
    return total


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
    total = _sign_sum(alpha, 0, (1 << alpha.m) - 1)
    # the fixed-coordinate half contributes exactly half of the full sum
    if total % 2:
        raise InternalCheckError("closed-form half sum must be even")
    return -total // 2


def orient_pair(alpha: AlphaVector, pair: PairSelection) -> tuple[int, int]:
    """0-based (smaller, larger) positions of the pair, by component value.

    Ties resolve to the lower index as the smaller element.
    """
    i0, j0 = _pair_positions(alpha, pair)
    if alpha.components[i0] <= alpha.components[j0]:
        return i0, j0
    return j0, i0


def count_via_sign_sum(alpha: AlphaVector, pair: PairSelection) -> int:
    """Solution count as (1/2) sum of sgn(<e,a>) over e fixing the smaller
    pair coordinate to +1."""
    require_generic(alpha)
    small, _ = orient_pair(alpha, pair)
    total = _sign_sum(alpha, small, 0)
    if total % 2:
        raise InternalCheckError("count sign sum must be even")
    return total // 2


def signed_count_even_via_sign_sum(alpha: AlphaVector, pair: PairSelection) -> int:
    """Signed count for even m as (1/4) sum of e_j sgn(<e,a>) prod e, with j
    the larger pair coordinate."""
    if alpha.m % 2:
        raise PreconditionError("this route requires even length")
    require_generic(alpha)
    _, large = orient_pair(alpha, pair)
    # e_j times the sign product is the sign product without e_j; when j
    # is the fixed coordinate its bit never occurs in a mask
    total = _sign_sum(alpha, 0, ((1 << alpha.m) - 1) ^ (1 << large))
    # e and -e contribute equally when m is even, so this is half the sum
    if total % 2:
        raise InternalCheckError("signed-count sign sum must be even")
    return total // 2


def extended_signed_count(
    alpha: AlphaVector, pair: PairSelection, h: int
) -> int:
    """Signed count with one extra sign factor at the coordinate holding
    component h; pair-independent for even m over pairs avoiding h."""
    if alpha.m < 4:
        raise PreconditionError("extended count requires at least 4 components")
    i0, j0 = _pair_positions(alpha, pair)
    if not 1 <= h <= alpha.m:
        raise PreconditionError("extra index out of range")
    if h in (pair.i, pair.j):
        raise PreconditionError("extra index must avoid the pair")
    rest = _rest_positions(alpha.m, i0, j0)
    h1 = rest.index(h - 1)
    return _scan(alpha, pair, h1=h1).extended


@dataclass(frozen=True)
class PairInvariants:
    pair: PairSelection
    count: int
    parity: int
    signed: int


@dataclass
class InvariantReport:
    """Per-pair table plus the cross-pair invariance flags.

    Flags that do not apply to the parity of m are None.  Grouping maps are
    keyed by component value (the larger or smaller of each pair).
    """

    m: int
    rows: list[PairInvariants]
    parity_invariant: bool
    parity: int | None
    n_invariant: bool | None
    signed: int | None
    n_by_max_omitted: dict[Scalar, int] | None
    count_by_min_omitted: dict[Scalar, int]
    abs_n_invariant: bool | None
    violations: list[str] = field(default_factory=list)


def verify_invariance(alpha: AlphaVector) -> InvariantReport:
    """Compute every pair and check the cross-pair laws.

    A violation marks an implementation bug, not bad input; it is recorded
    in the report rather than raised.
    """
    require_generic(alpha)
    m = alpha.m
    rows = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            rows.append(pair_invariants(alpha, PairSelection(i, j)))

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


@dataclass(frozen=True)
class WallCrossing:
    """Measured and predicted jumps across a degeneracy wall.

    Jumps are value(a with a_l - delta) minus value(a with a_l + delta).
    """

    pair: PairSelection
    perturbed: int
    delta: Fraction
    jump_signed: int
    jump_count: int
    predicted_signed: int
    predicted_count: int
    wall_masks: tuple[int, ...]


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

    gap = minimum_gap(alpha)
    if delta is None:
        delta = gap / 4
    else:
        delta = Fraction(delta)
    if not 0 < delta < gap / 2:
        raise PreconditionError(
            "delta must be positive and below half the minimum nonzero gap"
        )
    walls = zero_sum_masks(alpha)

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
    # of the upper bound) or differ (the lower bound).
    small, _ = orient_pair(alpha, pair)
    pred_signed = 0
    pred_count = 0
    for mask in walls:
        sig = lambda pos: -1 if (mask >> pos) & 1 else 1
        ri, rj, rl, r_small = sig(i0), sig(j0), sig(l0), sig(small)
        pred_count += -r_small * rl
        prod_rest = 1
        for pos in range(alpha.m):
            if pos != i0 and pos != j0 and (mask >> pos) & 1:
                prod_rest = -prod_rest
        if ri == rj:
            norm = (-ri) ** (alpha.m - 1)
            pred_signed += norm * rl * prod_rest
        else:
            norm = r_small ** (alpha.m - 1)
            pred_signed += -norm * rl * prod_rest

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
        wall_masks=tuple(walls),
    )
