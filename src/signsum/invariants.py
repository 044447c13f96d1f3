"""Solution sets of the two-sided signed-sum inequality and their invariants.

For a positive vector a of length m and an index pair (i, j), the solution
set collects the sign vectors e on the remaining m-2 coordinates with

    |a_i - a_j|  <  sum_k e_k a_k  <  a_i + a_j,

both inequalities strict.  This module enumerates that set exactly, computes
the signed count N (sum of coordinate products) and the count parity, and
verifies the laws that make N and the parity invariants of the vector rather
than of the pair.  The closed-form sign-sum routes to the same numbers are
in ``forms``, the wall-crossing check in ``walls``.
"""

from __future__ import annotations

from collections import namedtuple

from . import _SOURCES
from .core import (
    AlphaVector,
    InternalCheckError,
    PairSelection,
    PreconditionError,
    SignVector,
    _format_vector,
    _pair_positions,
    _parse_pair,
    _sign_rows,
    format_scalar,
    parse_vector,
    require_generic,
)

__all__ = list(_SOURCES["invariants"])

class SolutionSet(namedtuple("SolutionSet", "pair solutions source signed")):
    """Materialized solution set for one pair, sorted ascending by bitmask,
    with its signed count from the same scan."""

    __slots__ = ()


class ScanResult(namedtuple("ScanResult", "count signed masks")):
    """One pair scan: the count, the signed count and the sorted solution
    masks (None when not materialized)."""

    __slots__ = ()


def _rest_positions(m: int, i0: int, j0: int) -> list[int]:
    return [pos for pos in range(m) if pos != i0 and pos != j0]


def _scan(alpha, pair, materialize=False) -> ScanResult:
    """Count and signed count of one pair's solutions, from the window
    the vector's half tables hold for the pair (``_halves``).

    Each entry of the smaller half meets the window in one run of the
    sorted other, found by bisection, so the scan costs about
    2^((m-2)/2) bisections plus one O(2^(m/2)) filtering pass instead of
    2^(m-2) steps.  A full sum on either bound would mean a vanishing
    signed sum of the whole vector, impossible once it is generic.
    """
    i0, j0 = _pair_positions(alpha, pair)
    require_generic(alpha)
    return ScanResult(*alpha.half_tables().pair_window(i0, j0, materialize))


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


def verify_invariance(alpha: AlphaVector) -> InvariantReport:
    """Compute every pair from degree-1 moments of one table and check the
    cross-pair laws.

    With T^w the sum of w(e) over the sign vectors e with <e, a> > 0 and
    T^w_k the same sum weighted by e_k, for w = 1 and w = chi (the sign
    product), a pair with smaller member J and larger member I has
    count = T^1_J / 2 and N = (T^chi_I - T^chi) / 2.  On e_I = -1 the sums
    above zero are the rest sums above a_I - a_J (e_J = +1) or above
    a_I + a_J (e_J = -1), so the window count is the sum of e_J over them
    and N minus that of chi; e -> -e turns the half e_I = +1 into the
    same numbers.  These are Chow parameters of the threshold function
    sgn(<e, a>) (Chow 1961; O'Donnell, "Analysis of Boolean Functions",
    2014, ch. 5).

    Members are ordered by (value, index), the tie rule of
    ``orient_pair``, so one sort gives every pair's J and I by rank.  The
    m - 1 pairs adjacent in that order are scanned as well: together they
    use each moment a row reads exactly once, so a wrong moment cannot
    pass unseen.  On this route two laws hold by construction, so their
    checks can only fail through a defect in the route itself: the count
    depends on the smaller member alone, and for even m, where T^chi = 0,
    N depends on the larger member alone.  Parity invariance, odd-m N
    invariance (T^chi_k = 0 there) and the m = 4 |N| law still compare
    numbers.  A violation marks an implementation bug, not bad input; it
    is recorded in the report rather than raised.
    """
    m = alpha.m
    if m < 3:
        raise PreconditionError("solution sets require at least 3 components")
    require_generic(alpha)
    ones, chis = alpha.half_tables().moments()
    comps = alpha.components
    order = sorted(range(m), key=lambda pos: (comps[pos], pos))
    rank = [0] * m
    for r, pos in enumerate(order):
        rank[pos] = r
    rows, anchors = [], [None] * (m - 1)
    count_by_min, n_by_max = {}, None if m % 2 else {}
    count_misses = n_misses = 0
    for i in range(m):
        for j in range(i + 1, m):
            small, large = (i, j) if rank[i] < rank[j] else (j, i)
            count, odd = divmod(ones[small + 1], 2)
            signed, odd_n = divmod(chis[large + 1] - chis[0], 2)
            if odd or odd_n:
                raise InternalCheckError("moment of a pair must be even")
            row = PairInvariants(PairSelection(i + 1, j + 1), count, count & 1, signed)
            rows.append(row)
            if rank[large] == rank[small] + 1:
                anchors[rank[small]] = row
            count_misses += count_by_min.setdefault(comps[small], count) != count
            if n_by_max is not None:
                n_misses += n_by_max.setdefault(comps[large], signed) != signed
    for row in anchors:
        if pair_invariants(alpha, row.pair) != row:
            raise InternalCheckError(
                f"moment row disagrees with the scan of pair {row.pair.i},{row.pair.j}"
            )

    violations = []
    parity_invariant = len({row.parity for row in rows}) == 1
    if not parity_invariant:
        violations.append("parity differs across pairs")
    n_invariant = common_signed = None
    if m % 2:
        n_invariant = len({row.signed for row in rows}) == 1
        if n_invariant:
            common_signed = rows[0].signed
        else:
            violations.append("signed count differs across pairs (odd length)")
    violations += ["signed count not a function of the larger component"] * n_misses
    violations += ["count not a function of the smaller component"] * count_misses
    abs_n_invariant = None
    if m == 4:
        abs_n_invariant = len({abs(row.signed) for row in rows}) == 1
        if not abs_n_invariant:
            violations.append("absolute signed count differs across pairs (m=4)")

    return InvariantReport(
        m=m,
        rows=rows,
        parity_invariant=parity_invariant,
        parity=rows[0].parity if parity_invariant else None,
        n_invariant=n_invariant,
        signed=common_signed,
        n_by_max_omitted=n_by_max,
        count_by_min_omitted=count_by_min,
        abs_n_invariant=abs_n_invariant,
        violations=violations,
    )


def _cmd_compute(args, inputs):
    alpha = parse_vector(args.alpha)
    pair = _parse_pair(args.pair)
    inputs.update(
        alpha=_format_vector(alpha),
        pair=[pair.i, pair.j],
        solutions=bool(args.solutions),
    )

    # one scan, materialized only when the rows are asked for
    scan = _scan(alpha, pair, materialize=args.solutions)
    out = {"N": scan.signed, "count": scan.count, "parity": scan.count & 1}
    if args.solutions:
        out["solutions"] = _sign_rows(scan.masks, alpha.m - 2)
        out["coordinates"] = [
            alpha.original_index(pos)
            for pos in _rest_positions(alpha.m, pair.i - 1, pair.j - 1)
        ]
    return out


def _cmd_verify(args, inputs):
    alpha = parse_vector(args.alpha)
    inputs.update(alpha=_format_vector(alpha))
    report = verify_invariance(alpha)
    return {
        "m": report.m,
        "parity_invariant": report.parity_invariant,
        "parity": report.parity,
        "N_invariant": report.n_invariant,
        "N": report.signed,
        "N_by_max_omitted": None
        if report.n_by_max_omitted is None
        else {format_scalar(k): v for k, v in report.n_by_max_omitted.items()},
        "count_by_min_omitted": {
            format_scalar(k): v for k, v in report.count_by_min_omitted.items()
        },
        "abs_N_invariant": report.abs_n_invariant,
        "violations": list(report.violations),
        "rows": [
            {
                "pair": [row.pair.i, row.pair.j],
                "count": row.count,
                "parity": row.parity,
                "N": row.signed,
            }
            for row in report.rows
        ],
    }
