"""Weight functions on pair-deleted sign vectors and their admissibility.

A weight function assigns a rational to each sign vector on m-2 coordinates.
The admissibility condition asks that for every full sign vector e, the
quantity e_i * f(-e_j * e restricted away from the pair) does not depend on
the ordered index pair (i, j).  Each constraint ties two table entries up
to sign, x_a = +-x_b, or pins one to zero.  This module emits them as one
chain of rows per sign vector, solves the system as a signed union-find
(one basis vector per component without a sign conflict), and checks
candidate weights exhaustively.
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
    "ConstraintSystem",
    "WEIGHTS_MAX_M",
    "build_constraints",
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


class ConstraintSystem(namedtuple("ConstraintSystem", "m unknowns rows")):
    """Deduplicated constraints between signed table entries.

    Rows are canonical tuples: ("eq", a, b, r) meaning x_a = r * x_b with
    a < b and r in {+1, -1}, and ("zero", a) meaning x_a = 0.
    """

    __slots__ = ()


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


def _chain_rows(n: int, term_sets) -> tuple[tuple, ...]:
    """Rows tying every term of each set to the set's first term.

    A term is a key: an n-bit entry mask, then a low bit set for a minus
    sign.  All terms of a set must be equal, which a chain of rows from the
    smallest term (by mask, plus before minus) to each other term says as
    well as all pairs of terms do.  An entry that occurs with both signs is
    forced to zero: by a zero row when it is the first term's entry, by an
    odd cycle of two eq rows through the first term otherwise.
    """
    eq, zero = set(), set()
    for keys in term_sets:
        first = min(keys)
        a, minus = first >> 1, first & 1
        if not minus and first | 1 in keys:
            zero.add(a)
        # eq row (a, b, r) packed as a, then b, then a bit set for r = -1
        head = a << (n + 1)
        eq.update([head | (k ^ minus) for k in keys if k >> 1 != a])
    low = (1 << n) - 1
    rows = [("eq", c >> (n + 1), (c >> 1) & low, -1 if c & 1 else 1) for c in eq]
    rows += [("zero", a) for a in zero]
    return tuple(sorted(rows))


def build_constraints(m: int) -> ConstraintSystem:
    """Chain rows for the pair quantity of every sign vector, over the
    2(m-1) adjacent ordered pairs (k, k+1) and (k+1, k).

    For one sign vector e the ordered pair (i, j) contributes the term
    e_i * x_a, a the argument mask, and all of e's terms must be equal.
    Negating e negates every term and leaves its constraints as they are,
    so only the masks with the top bit clear are walked.

    The adjacent pairs give the solution space of all m(m-1) ordered
    pairs.  Dropping rows only enlarges the solution space, and the
    adjacent rows leave dimension 0 for even m and the span of
    ``parity_product_weight(m)`` for odd m (checked against the all-pairs
    rows at every m up to ``WEIGHTS_MAX_M``).  That vector is admissible:
    for odd m the argument -e_j * (e without i and j) has an odd number
    m - 2 of coordinates, so for every ordered pair (i, j)
      e_i * prod_{k != i, j} (-e_j e_k) = -e_i e_j prod_{k != i, j} e_k
                                       = -prod_k e_k.
    So it lies in the all-pairs space, which lies in the adjacent one.
    """
    _check_m(m)
    n = m - 2
    half = 1 << (m - 1)
    adjacent = [(k, k + 1) for k in range(m - 1)]
    pairs = adjacent + [(j, i) for i, j in adjacent]
    columns = [
        [(x << 1) | ((e >> i0) & 1) for e, x in enumerate(_argument_masks(m, i0, j0, half))]
        for i0, j0 in pairs
    ]
    return ConstraintSystem(m, 1 << n, _chain_rows(n, map(set, zip(*columns))))


def _nullspace(system: ConstraintSystem) -> list[tuple[int, ...]]:
    """Nullspace as a signed union-find over the table entries.

    Every row ties two entries up to sign or pins one to zero, so each
    connected component of the rows carries one degree of freedom, unless
    a zero row or an eq row closing a cycle with the wrong sign kills it.
    ``sign[a]`` gives x_a = sign[a] * x_parent(a); path compression keeps
    it relative to the root (Galler and Fischer 1964; Tarjan 1975).  Each
    surviving component gives one basis vector, +-1 on its members with
    its smallest member at 1, ordered by the component's largest member:
    the column that elimination with first-column pivots leaves free, so
    the basis is the one elimination gives.
    """
    n = system.unknowns
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

    for row in system.rows:
        if row[0] == "zero":
            dead[find(row[1])] = True
            continue
        _, a, b, r = row
        ra, rb = find(a), find(b)
        # roots keep sign 1, so sign[a] is x_a / x_ra after find
        rel = sign[a] * r * sign[b]
        if ra == rb:
            if rel != 1:
                dead[ra] = True
        else:
            parent[ra] = rb
            sign[ra] = rel
            dead[rb] = dead[rb] or dead[ra]

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
    """Dimension and a normalized basis of the admissible weight space."""
    system = build_constraints(m)
    basis = _nullspace(system)
    return len(basis), [WeightFunction(m, vec) for vec in basis]


def check_condition_star(f: WeightFunction):
    """Exhaustive admissibility check.

    Returns (True, None) or (False, (eps, (i, j), (i2, j2))) where the two
    1-based ordered pairs give different values of the pair quantity on eps.
    """
    m = f.m
    _check_m(m)
    pairs = _ordered_pairs(m)
    table = f.table
    columns = [
        [
            -table[x] if (e >> i0) & 1 else table[x]
            for e, x in enumerate(_argument_masks(m, i0, j0, 1 << m))
        ]
        for i0, j0 in pairs
    ]
    ref_pair = (pairs[0][0] + 1, pairs[0][1] + 1)
    for eps_mask, quantities in enumerate(zip(*columns)):
        ref = quantities[0]
        for (i0, j0), q in zip(pairs, quantities):
            if q != ref:
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
