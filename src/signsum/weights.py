"""Weight functions on pair-deleted sign vectors and their admissibility.

A weight function assigns a rational to each sign vector on m-2 coordinates.
The admissibility condition asks that for every full sign vector e, the
quantity e_i * f(-e_j * e restricted away from the pair) does not depend on
the ordered index pair (i, j): all terms e_i * x_a of one sign vector are
equal.  The admissible weights are known in closed form (the multiples of
the parity product for odd m, none for even m), so this module returns
them without solving, and checks a candidate weight against the two
steps of that proof.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import _SOURCES
from .core import (
    AlphaVector,
    PairSelection,
    PreconditionError,
    SignVector,
)

__all__ = [*_SOURCES["weights"], "WEIGHTS_MAX_M"]

# bounds the 2^(m-2) entries of a weight table, which a basis prints
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
    """Admissibility check by the steps of ``solve_weight_space``'s proof.

    Returns (True, None) or (False, (eps, (i, j), (i2, j2))) where the two
    1-based ordered pairs give different values of the pair quantity on
    eps: the first violation in the proof's order.  Each step compares
    two table entries, so no ordered pair's term is evaluated.

    Step 1, f is odd: on eps = (1, -1, r) the pairs (1, 2) and (2, 1)
    give f(r) and -f(-r).  Step 2, f is odd in every coordinate: for
    x > 0 with lowest set bit k (0-based), eps = (1, 1, x) has
    coordinates k+1 and k+2 at 1 and k+3 at -1 (1-based), with all below
    them at 1, and the pairs (k+1, k+2) and (k+2, k+3) give f(-x), which
    is -f(x) once step 1 holds, and f(x with bit k cleared).  A weight
    that passes both is f(0) times the parity product, and for even m
    step 1 at r = 0 forces f(0) = 0.
    """
    m = f.m
    _check_m(m)
    t = f.table
    full = len(t) - 1
    for r in range(full + 1):
        if t[r] != -t[full ^ r]:
            return False, (SignVector(m, 0b10 | r << 2), (1, 2), (2, 1))
    for x in range(1, full + 1):
        if t[x] != -t[x & (x - 1)]:
            k = (x & -x).bit_length() - 1
            return False, (SignVector(m, x << 2), (k + 1, k + 2), (k + 2, k + 3))
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


def _cmd_weights(args, inputs):
    inputs.update(m=args.m)
    dimension, basis = solve_weight_space(args.m)
    return {
        "m": args.m,
        "dimension": dimension,
        "basis": [[str(v) for v in f.table] for f in basis],
    }
