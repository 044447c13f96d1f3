"""Weight functions on pair-deleted sign vectors and their admissibility.

A weight function assigns a rational to each sign vector on m-2 coordinates.
The admissibility condition asks that for every full sign vector e, the
quantity e_i * f(-e_j * e restricted away from the pair) does not depend on
the ordered index pair (i, j): all terms e_i * x_a of one sign vector are
equal.  This module solves those term sets as a signed union-find (one
basis vector per component without a sign conflict) and checks candidate
weights exhaustively.
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

# 2^(m-2) unknowns; the generator walks 2^(m-1) sign vectors against the
# 2(m-1) adjacent ordered pairs, so its cost about doubles per step of m.
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


_SIGNS = (1, -1)


def _nullspace(n: int, term_sets) -> list[tuple[int, ...]]:
    """Nullspace of "all terms of each set are equal" over n table entries,
    as a signed union-find.

    Tying every term of a set to the set's smallest term says as much as
    tying all pairs of terms.  Each tie x_b = r * x_a joins two entries up
    to sign, so each connected component carries one degree of freedom,
    unless a tie closing a cycle with the wrong sign kills it.  An entry
    that occurs with both signs in one set is tied to itself with -1,
    which forces it, and its component, to zero.  ``sign[a]`` gives
    x_a = sign[a] * x_parent(a); path compression keeps it relative to
    the root (Galler and Fischer 1964; Tarjan 1975).  Each surviving
    component gives one basis vector, +-1 on its members with its
    smallest member at 1, ordered by the component's largest member: the
    column that elimination with first-column pivots leaves free, so the
    basis is the one elimination gives.
    """
    parent = list(range(n))
    sign = [1] * n
    dead = [False] * n

    def find(a: int) -> int:
        path = []
        while parent[a] != a:
            path.append(a)
            a = parent[a]
        acc = 1
        for node in reversed(path):
            acc *= sign[node]
            sign[node] = acc
            parent[node] = a
        return a

    for keys in term_sets:
        first = min(keys)
        root = find(first >> 1)
        # roots keep sign 1, so after a find sign[b] is x_b / x_root(b);
        # the first term is lead * x_root, and so must every term be
        lead = sign[first >> 1] * _SIGNS[first & 1]
        for key in keys:
            b = key >> 1
            rb = parent[b]
            if parent[rb] != rb:
                rb = find(b)
            rel = lead * sign[b] * _SIGNS[key & 1]  # x_rb = rel * x_root
            if rb != root:
                parent[rb] = root
                sign[rb] = rel
                dead[root] = dead[root] or dead[rb]
            elif rel != 1:
                dead[root] = True

    members: dict[int, list[int]] = {}
    for node in range(n):
        root = find(node)
        if not dead[root]:
            members.setdefault(root, []).append(node)
    basis = []
    for group in sorted(members.values(), key=lambda g: g[-1]):
        vec = [0] * n
        lead = sign[group[0]]
        for node in group:
            vec[node] = sign[node] * lead
        basis.append(tuple(vec))
    return basis


def solve_weight_space(m: int) -> tuple[int, list[WeightFunction]]:
    """Dimension and a normalized basis of the admissible weight space.

    The terms are taken over the 2(m-1) adjacent ordered pairs (k, k+1)
    and (k+1, k).  For one sign vector e the ordered pair (i, j)
    contributes the term e_i * x_a, a the argument mask, and all of e's
    terms must be equal.  Negating e negates every term and leaves its
    constraints as they are, so only the masks with the top bit clear
    are walked.

    The adjacent pairs give the solution space of all m(m-1) ordered
    pairs.  Dropping terms only enlarges the solution space, and the
    adjacent terms leave dimension 0 for even m and the span of
    ``parity_product_weight(m)`` for odd m (checked against all ordered
    pairs at every m up to ``WEIGHTS_MAX_M``).  That vector is
    admissible: for odd m the argument -e_j * (e without i and j) has an
    odd number m - 2 of coordinates, so for every ordered pair (i, j)
      e_i * prod_{k != i, j} (-e_j e_k) = -e_i e_j prod_{k != i, j} e_k
                                       = -prod_k e_k.
    So it lies in the all-pairs space, which lies in the adjacent one.
    """
    _check_m(m)
    adjacent = [(k, k + 1) for k in range(m - 1)]
    pairs = adjacent + [(j, i) for i, j in adjacent]
    basis = _nullspace(1 << (m - 2), _terms(m, pairs, 1 << (m - 1)))
    return len(basis), [WeightFunction(m, vec) for vec in basis]


def check_condition_star(f: WeightFunction):
    """Exhaustive admissibility check.

    Returns (True, None) or (False, (eps, (i, j), (i2, j2))) where the two
    1-based ordered pairs give different values of the pair quantity on eps.
    """
    m = f.m
    _check_m(m)
    pairs = _ordered_pairs(m)
    # a term key reads its entry's value, negated when the low bit is set
    value = [v for x in f.table for v in (x, -x)]
    ref_pair = (pairs[0][0] + 1, pairs[0][1] + 1)
    for eps_mask, keys in enumerate(_terms(m, pairs, 1 << m)):
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
