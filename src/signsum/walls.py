"""The wall-crossing check: solution-set jumps across a degeneracy wall.

A vector with vanishing signed sums sits on a wall.  Moving one of its
components by a small delta either way gives two generic vectors, and the
pair's count and signed count jump between them by sums over the
vanishing signed sums, which the check predicts and compares against two
pair scans.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import _SOURCES
from ._halves import char_signs, zero_masks
from .core import (
    AlphaVector,
    InternalCheckError,
    PairSelection,
    PreconditionError,
    Scalar,
    _format_vector,
    _parse_pair,
    _parse_rational,
    _sign_rows,
    _survey,
    check_generic,
    orient_pair,
    parse_vector,
)
from .invariants import _scan

__all__ = list(_SOURCES["walls"])


def zero_sum_masks(alpha: AlphaVector) -> tuple[int, ...]:
    """Bitmasks of vanishing signed sums, one per negation class, sorted.

    Listed from the survey's cached zero groups on each call, so the cost
    is the number of vanishing sums; the genericity test never lists them.
    """
    return tuple(zero_masks(_survey(alpha)[0]))


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
    small, large = orient_pair(alpha, pair)
    if not 1 <= l <= alpha.m:
        raise PreconditionError("perturbed index out of range")
    l0 = l - 1
    if l0 in (small, large):
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
    full = (1 << alpha.m) - 1

    def wall_sum(s):
        return sum(sum(char_signs(am, s)) * sum(char_signs(bm, s)) for am, bm in groups)

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


def _cmd_wall_cross(args, inputs):
    alpha = parse_vector(args.alpha)
    pair = _parse_pair(args.pair)
    delta = None
    if args.delta is not None:
        delta = _parse_rational(args.delta, "delta")
    inputs.update(alpha=_format_vector(alpha), l=args.l, pair=[pair.i, pair.j])
    if delta is not None:
        inputs["delta"] = str(delta)
    crossing = wall_crossing_check(alpha, args.l, pair, delta)
    return {
        "jump_N": crossing.jump_signed,
        "jump_count": crossing.jump_count,
        "predicted_N": crossing.predicted_signed,
        "predicted_count": crossing.predicted_count,
        "delta": str(crossing.delta),
        "wall_solutions": _sign_rows(crossing.wall_masks, alpha.m),
    }
