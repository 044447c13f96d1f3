"""Weight functions on pair-deleted sign vectors and their admissibility.

A weight function assigns a rational to each sign vector on m-2 coordinates.
The admissibility condition asks that for every full sign vector e, the
quantity e_i * f(-e_j * e restricted away from the pair) does not depend on
the ordered index pair (i, j): all terms e_i * x_a of one sign vector are
equal.  The admissible weights are known in closed form (the multiples of
the parity product for odd m, none for even m), so this module returns
them without solving, and checks candidate weights exhaustively.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .core import (
    AlphaVector,
    PairSelection,
    PreconditionError,
    SignVector,
)

__all__ = [
    "WeightFunction",
    "WEIGHTS_MAX_M",
    "solve_weight_space",
    "check_condition_star",
    "parity_product_weight",
    "weighted_count",
]

# bounds check_condition_star's walk of 2^(m-1) sign vectors against the
# m(m-1) ordered pairs, and the 2^(m-2) table entries a basis prints
WEIGHTS_MAX_M = 12


class WeightFunction(namedtuple("WeightFunction", "m table")):
    """Rational table indexed by the bitmask of a length m-2 sign vector."""

    __slots__ = ()

    def __new__(cls, m: int, table: tuple[Fraction, ...]):
        if m < 3:
            raise PreconditionError("weight functions require m >= 3")
        table = tuple(Fraction(v) for v in table)
        if len(table) != 1 << (m - 2):
            raise PreconditionError("weight table must have 2^(m-2) entries")
        return tuple.__new__(cls, (m, table))


def _check_m(m: int) -> None:
    if not 3 <= m <= WEIGHTS_MAX_M:
        raise PreconditionError(
            f"m must lie in [3, {WEIGHTS_MAX_M}] for the weight solver"
        )


def _argument_masks(m: int, i0: int, j0: int, count: int) -> list[int]:
    """Bitmask of the weight argument -e_j * (e with the pair deleted), for
    every sign vector mask e below ``count``.

    Deleting bits i0 and j0 keeps the bits below the pair, shifts the bits
    between them down by one and those above by two.  A kept coordinate
    lands at -1 exactly when its sign agrees with e_j, so the sliced mask
    is complemented when e_j's bit is clear.
    """
    lo, hi = sorted((i0, j0))
    below = (1 << lo) - 1
    between = (1 << hi) - (1 << (lo + 1))
    flip = ((1 << (m - 2)) - 1, 0)
    return [
        ((e & below) | ((e & between) >> 1) | ((e >> (hi + 1)) << (hi - 1)))
        ^ flip[(e >> j0) & 1]
        for e in range(count)
    ]


def _ordered_pairs(m: int):
    return [(i0, j0) for i0 in range(m) for j0 in range(m) if i0 != j0]


def _terms(m: int, pairs, count: int) -> list[tuple[int, ...]]:
    """Per sign vector mask e below ``count``, the term e_i * x_a of each
    ordered pair (i, j) of ``pairs``, in order.

    A term is a key: the argument mask a, then a low bit set when e_i is
    -1, so the table entry x_a is key >> 1 and its sign is read off the
    low bit.
    """
    columns = [
        [(x << 1) | ((e >> i0) & 1) for e, x in enumerate(_argument_masks(m, i0, j0, count))]
        for i0, j0 in pairs
    ]
    return list(zip(*columns))


def solve_weight_space(m: int) -> tuple[int, list[WeightFunction]]:
    """Dimension and a normalized basis of the admissible weight space:
    (0, []) for even m, (1, [parity_product_weight(m)]) for odd m.

    Write t_ij(e) = e_i * f(-e_j * e_ij) for the term of the ordered pair
    (i, j) on the sign vector e, e_ij being e with coordinates i and j
    deleted; f is admissible when all terms of each e are equal.  The
    adjacent pairs (k, k+1) and (k+1, k) alone force the answer.

    Step 1: f is odd.  At e_k = 1 and e_{k+1} = -1 both adjacent terms
    read off the same rest r = e_{k,k+1}: t_{k,k+1} = f(r) and
    t_{k+1,k} = -f(-r).  So f(-r) = -f(r) for every r, and
    f(-c * x) = -c * f(x) for c = +-1.

    Step 2: f is odd in every coordinate.  By step 1,
    t_{k,k+1} = -e_k e_{k+1} * f(e_{k,k+1}).  Equating it with
    t_{k+1,k+2} = -e_{k+1} e_{k+2} * f(e_{k+1,k+2}) and dividing by
    -e_{k+1} gives e_k * f(p, e_{k+2}, q) = e_{k+2} * f(p, e_k, q), where
    p holds the coordinates below k and q those above k+2.  At e_k = 1
    and e_{k+2} = -1 this says that negating coordinate k of f's
    argument negates f, for every k = 0, ..., m-3.

    Step 3: a function odd in every coordinate is c * prod x_k, since
    only the full Walsh character survives.  Negating all m-2
    coordinates then gives c * (-1)^(m-2) = -c by step 1, so c = 0 for
    even m.  For odd m the parity product is admissible: the argument
    -e_j * e_ij has an odd number m - 2 of coordinates, so for every
    ordered pair (i, j)
      e_i * prod_{k != i, j} (-e_j e_k) = -e_i e_j prod_{k != i, j} e_k
                                       = -prod_k e_k.
    """
    _check_m(m)
    if m % 2 == 0:
        return 0, []
    return 1, [parity_product_weight(m)]


def check_condition_star(f: WeightFunction):
    """Exhaustive admissibility check.

    Returns (True, None) or (False, (eps, (i, j), (i2, j2))) where the two
    1-based ordered pairs give different values of the pair quantity on eps.

    Only the masks with the top bit clear are walked.  Negating eps
    leaves every argument -e_j * e_ij as it is and negates every e_i, so
    it negates every term: a mask fails exactly when its complement
    does.  A mask with the top bit set has its complement below it, so
    the first failing mask of the full walk has the top bit clear, and
    the verdict and the witness are those of the full walk.
    """
    m = f.m
    _check_m(m)
    pairs = _ordered_pairs(m)
    # a term key reads its entry's value, negated when the low bit is set
    value = [v for x in f.table for v in (x, -x)]
    ref_pair = (pairs[0][0] + 1, pairs[0][1] + 1)
    for eps_mask, keys in enumerate(_terms(m, pairs, 1 << (m - 1))):
        ref = value[keys[0]]
        for (i0, j0), key in zip(pairs, keys):
            if value[key] != ref:
                return False, (SignVector(m, eps_mask), ref_pair, (i0 + 1, j0 + 1))
    return True, None


def parity_product_weight(m: int) -> WeightFunction:
    """The coordinate-product weight, f(e) = prod e_k."""
    _check_m(m)
    size = 1 << (m - 2)
    table = tuple(
        Fraction(-1 if mask.bit_count() & 1 else 1) for mask in range(size)
    )
    return WeightFunction(m, table)


def weighted_count(
    alpha: AlphaVector, pair: PairSelection, f: WeightFunction
) -> Fraction:
    """Sum of f over the solution set of the pair."""
    # the only user of the scan kernel here; importing it on demand keeps
    # it out of a process that only solves for the weight space
    from .invariants import _scan

    if f.m != alpha.m:
        raise PreconditionError("weight length does not match the vector")
    masks = _scan(alpha, pair, materialize=True).masks
    return sum((f.table[mask] for mask in masks), Fraction(0))
