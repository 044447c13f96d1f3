"""Admissible weight functions and the pair-independence constraint."""

import random
from fractions import Fraction

import pytest

from signsum import (
    PairSelection,
    PreconditionError,
    SignVector,
    WeightFunction,
    check_condition_star,
    parity_product_weight,
    rational_vector,
    solve_weight_space,
    weighted_count,
)
from signsum import weights

from conftest import random_generic_values


@pytest.mark.parametrize("m,dim", [(3, 1), (4, 0), (5, 1), (6, 0), (7, 1), (8, 0)])
def test_dimension_alternates(m, dim):
    dimension, basis = solve_weight_space(m)
    assert dimension == dim
    assert len(basis) == dim


@pytest.mark.parametrize("m", [3, 5, 7])
def test_odd_basis_is_parity_product(m):
    _, basis = solve_weight_space(m)
    f = basis[0]
    ref = parity_product_weight(m)
    # bases are normalized to leading entry 1; the parity product already is
    assert f.table == ref.table


@pytest.mark.parametrize("m", [3, 5, 7])
def test_parity_product_admissible_odd(m):
    ok, witness = check_condition_star(parity_product_weight(m))
    assert ok and witness is None


def test_parity_product_fails_at_four():
    ok, witness = check_condition_star(parity_product_weight(4))
    assert not ok
    eps, pair_a, pair_b = witness
    assert pair_a != pair_b
    # the witness must reproduce the disagreement it claims
    f = parity_product_weight(4)
    assert pair_quantity(f, eps, pair_a) != pair_quantity(f, eps, pair_b)


def pair_quantity(f, eps, pair):
    """Recompute the constrained quantity e_i * f(-e_j * e without i, j)
    directly from the definition.

    The constraint quantifies over ordered pairs: the sign factor belongs
    to the first pair member, and the second one multiplies f's argument.
    """
    m = f.m
    i, j = pair
    signs = eps.signs()
    arg = [-signs[j - 1] * signs[p] for p in range(m) if p + 1 not in (i, j)]
    kept = sum(1 << k for k, s in enumerate(arg) if s == -1)
    return signs[i - 1] * f.table[kept]


def first_disagreement(f):
    """The full walk of the definition: the first sign vector, over all
    2^m of them, on which an ordered pair's quantity differs from that of
    (1, 2), with that pair; None when there is none."""
    m = f.m
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i != j]
    for mask in range(1 << m):
        eps = SignVector(m, mask)
        ref = pair_quantity(f, eps, pairs[0])
        for pair in pairs:
            if pair_quantity(f, eps, pair) != ref:
                return eps, pairs[0], pair
    return None


def candidate_tables(rng, m):
    """Random tables, scaled parity products (zero included) and scaled
    parity products with one entry's sign flipped."""
    size = 1 << (m - 2)
    parity = parity_product_weight(m).table
    tables = [tuple(Fraction(0) for _ in range(size))]
    for _ in range(6):
        tables.append(tuple(Fraction(rng.randint(-3, 3)) for _ in range(size)))
        # random signs times one scale: at small m sometimes +-parity
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        tables.append(tuple(scale * rng.choice((1, -1)) for _ in range(size)))
        scale *= rng.choice((1, -1))
        scaled = [scale * p for p in parity]
        tables.append(tuple(scaled))
        flip = rng.randrange(size)
        scaled[flip] = -scaled[flip]
        tables.append(tuple(scaled))
    return tables


@pytest.mark.parametrize("m", range(3, 9))
def test_exhaustive_check_agrees_with_the_closed_form(m):
    rng = random.Random(0x9A7E + m)
    parity = parity_product_weight(m).table
    verdicts = set()
    for table in candidate_tables(rng, m):
        f = WeightFunction(m, table)
        ok, witness = check_condition_star(f)
        # the admissible tables are the multiples of the parity product
        # for odd m, and the zero table alone for even m
        c = table[0]
        in_space = all(x == c * p for x, p in zip(table, parity))
        assert ok == (in_space and (m % 2 == 1 or c == 0)), table
        assert witness == first_disagreement(f), table
        if not ok:
            eps, pair_a, pair_b = witness
            assert pair_quantity(f, eps, pair_a) != pair_quantity(f, eps, pair_b)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_parity_product_values():
    f = parity_product_weight(5)
    assert f.table[0] == 1
    assert f.table[0b101] == 1
    assert f.table[0b100] == -1


def test_weighted_count_pair_independent_odd(rng):
    for _ in range(8):
        m = rng.choice([3, 5])
        v = rational_vector(random_generic_values(rng, m))
        f = parity_product_weight(m)
        vals = {
            weighted_count(v, PairSelection(i, j), f)
            for i in range(1, m + 1)
            for j in range(i + 1, m + 1)
        }
        assert len(vals) == 1


def test_weighted_count_constant_one_gives_count(rng):
    from signsum import count_solutions

    m = 5
    ones = WeightFunction(m, tuple(Fraction(1) for _ in range(1 << (m - 2))))
    v = rational_vector(random_generic_values(rng, m))
    p = PairSelection(2, 4)
    assert weighted_count(v, p, ones) == count_solutions(v, p)


def test_rejects_tiny_m():
    with pytest.raises(PreconditionError):
        solve_weight_space(2)
    with pytest.raises(PreconditionError):
        parity_product_weight(2)


def test_cap():
    with pytest.raises(PreconditionError):
        solve_weight_space(13)


# ---------------------------------------------------------------------------
# Oracles: the literal term generator, the all-pairs rows, the Fraction
# elimination and the signed union-find, the two solvers the library used
# before it returned the weight space in closed form.  A term is the
# library's key: the entry mask, then a low bit set for a minus sign.


def key(sign: int, entry: int) -> int:
    return entry << 1 | (sign < 0)


def _argument_mask(eps_mask: int, m: int, i0: int, j0: int) -> int:
    """Bitmask of the weight argument -e_j * (e with the pair deleted).

    A deleted coordinate lands at -1 exactly when its sign agrees with e_j,
    which in mask terms means its bit equals bit j0.
    """
    ej_bit = (eps_mask >> j0) & 1
    mask = 0
    out = 0
    for pos in range(m):
        if pos == i0 or pos == j0:
            continue
        if ((eps_mask >> pos) & 1) == ej_bit:
            mask |= 1 << out
        out += 1
    return mask


def all_pair_rows(term_sets) -> tuple[tuple, ...]:
    """Every pair of distinct terms of every set, deduplicated: ("eq", a,
    b, r) for x_a = r * x_b with a < b, ("zero", a) for x_a = 0."""
    rows = set()
    for terms in term_sets:
        uniq = sorted(set(terms))
        for a_idx in range(len(uniq)):
            m1, s1 = uniq[a_idx] >> 1, -1 if uniq[a_idx] & 1 else 1
            for b_idx in range(a_idx + 1, len(uniq)):
                m2, s2 = uniq[b_idx] >> 1, -1 if uniq[b_idx] & 1 else 1
                if m1 == m2:
                    # distinct terms on the same entry force it to zero
                    rows.add(("zero", m1))
                else:
                    rows.add(("eq", m1, m2, s1 * s2))
    return tuple(sorted(rows))


def all_pair_term_sets(m: int) -> list[set[int]]:
    """The literal term sets: every ordered pair on every sign vector."""
    pairs = [(i0, j0) for i0 in range(m) for j0 in range(m) if i0 != j0]
    return [
        {
            key(-1 if (eps_mask >> i0) & 1 else 1, _argument_mask(eps_mask, m, i0, j0))
            for i0, j0 in pairs
        }
        for eps_mask in range(1 << m)
    ]


def elimination_nullspace(n: int, term_sets) -> list[tuple[Fraction, ...]]:
    """Exact nullspace of the all-pairs rows of the term sets over n
    entries, by incremental elimination with first-column pivots.

    Rows stay at most 2-sparse, so each insertion touches a handful of
    entries.  Every pivot row's lead is its smallest column, which makes
    descending back-substitution well founded.
    """
    one = Fraction(1)
    pivots: dict[int, dict[int, Fraction]] = {}

    def insert(row: dict[int, Fraction]) -> None:
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                factor = row[lead]
                pivots[lead] = {c: v / factor for c, v in row.items()}
                return
            factor = row.pop(lead)
            for c, v in prow.items():
                if c == lead:
                    continue
                nv = row.get(c, 0) - factor * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)

    for item in all_pair_rows(term_sets):
        if item[0] == "zero":
            insert({item[1]: one})
        else:
            _, a, b, r = item
            insert({a: one, b: Fraction(-r)})

    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = one
        for p in sorted(pivots, reverse=True):
            acc = Fraction(0)
            for c, v in pivots[p].items():
                if c != p:
                    acc -= v * vec[c]
            vec[p] = acc
        lead_val = next(v for v in vec if v)
        basis.append(tuple(v / lead_val for v in vec))
    return basis


_SIGNS = (1, -1)


def union_find_nullspace(n: int, term_sets) -> list[tuple[int, ...]]:
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


def random_term_sets(rng, n: int) -> list[set[int]]:
    """A few term sets over n entries: several components, some sets
    holding an entry with both signs, some closing a cycle with an odd
    number of minus signs."""
    sets = []
    for _ in range(rng.randint(0, 2 * n)):
        entries = rng.sample(range(n), rng.randint(1, min(n, 4)))
        terms = {key(rng.choice((1, -1)), a) for a in entries}
        if rng.random() < 0.1:
            terms |= {key(1, entries[0]), key(-1, entries[0])}
        sets.append(terms)
    return sets


def adjacent_term_sets(m: int):
    """The adjacent ordered pairs' term sets, top bit clear: the terms
    that ``solve_weight_space``'s proof uses."""
    adjacent = [(k, k + 1) for k in range(m - 1)]
    pairs = adjacent + [(j, i) for i, j in adjacent]
    return weights._terms(m, pairs, 1 << (m - 1))


def test_argument_masks_match_the_positional_loop():
    for m in range(3, 9):
        for i0 in range(m):
            for j0 in range(m):
                if i0 == j0:
                    continue
                got = weights._argument_masks(m, i0, j0, 1 << m)
                assert got == [
                    _argument_mask(e, m, i0, j0) for e in range(1 << m)
                ]


def test_terms_match_the_literal_term_sets():
    for m in range(3, 9):
        got = weights._terms(m, weights._ordered_pairs(m), 1 << m)
        assert [set(keys) for keys in got] == all_pair_term_sets(m)


def test_chain_rows_span_the_all_pair_rows_on_random_terms():
    # The union-find ties each term to its set's smallest term, a chain of
    # ties per set.  Small entry sets, so the smallest term's entry often
    # has both signs.
    rng = random.Random(0x71C4)
    for _ in range(2000):
        n = rng.randint(1, 3)
        term_sets = [
            {key(rng.choice((1, -1)), rng.randrange(1 << n)) for _ in range(rng.randint(1, 4))}
            for _ in range(rng.randint(1, 4))
        ]
        assert union_find_nullspace(1 << n, term_sets) == elimination_nullspace(
            1 << n, term_sets
        ), term_sets


@pytest.mark.parametrize("m", range(3, weights.WEIGHTS_MAX_M + 1))
def test_adjacent_pairs_give_the_all_pairs_weight_space(m):
    # the closed form against the union-find over every ordered pair, and
    # over the adjacent pairs its proof uses
    closed_form = solve_weight_space(m)
    assert closed_form[0] == m % 2
    for terms in (
        weights._terms(m, weights._ordered_pairs(m), 1 << (m - 1)),
        adjacent_term_sets(m),
    ):
        basis = union_find_nullspace(1 << (m - 2), terms)
        assert closed_form == (len(basis), [WeightFunction(m, vec) for vec in basis])


@pytest.mark.parametrize("m", range(3, 9))
def test_chain_rows_span_the_all_pair_rows(m):
    # the closed form against every pair of terms over every ordered pair
    # and sign vector
    _, basis = solve_weight_space(m)
    assert [f.table for f in basis] == elimination_nullspace(
        1 << (m - 2), all_pair_term_sets(m)
    )


def test_union_find_matches_elimination_on_random_systems():
    rng = random.Random(0x3E1F)
    dims = set()
    for _ in range(3000):
        n = rng.randint(1, 14)
        term_sets = random_term_sets(rng, n)
        expected = elimination_nullspace(n, term_sets)
        assert union_find_nullspace(n, term_sets) == expected, term_sets
        dims.add(len(expected))
    assert len(dims) > 3


@pytest.mark.parametrize(
    "term_sets,dim",
    [
        # odd cycle kills its component, the singleton survives
        ([{key(1, 0), key(1, 1)}, {key(1, 0), key(1, 2)}, {key(1, 1), key(-1, 2)}], 1),
        # even cycle keeps it
        ([{key(1, 0), key(-1, 1)}, {key(1, 0), key(-1, 2)}, {key(1, 1), key(1, 2)}], 2),
        # the same odd cycle within one set of three terms
        ([{key(1, 0), key(1, 1), key(-1, 1)}], 2),
        # an entry with both signs kills its whole component
        ([{key(1, 0), key(1, 1)}, {key(1, 1), key(-1, 3), key(1, 3)}], 1),
        # both signs on the set's smallest entry, tied to the others
        ([{key(1, 1), key(-1, 1), key(1, 3)}, {key(-1, 0), key(1, 2)}], 1),
        # two components, ordered by their largest member
        ([{key(1, 0), key(-1, 3)}, {key(1, 1), key(1, 2)}], 2),
    ],
)
def test_union_find_small_systems(term_sets, dim):
    basis = union_find_nullspace(4, term_sets)
    assert len(basis) == dim
    assert basis == elimination_nullspace(4, term_sets)


@pytest.mark.parametrize("m", range(3, 11))
def test_union_find_matches_elimination_on_weight_systems(m):
    term_sets = adjacent_term_sets(m)
    assert union_find_nullspace(1 << (m - 2), term_sets) == elimination_nullspace(
        1 << (m - 2), term_sets
    )


@pytest.mark.parametrize("m", [11, 12])
def test_large_m_dimension(m):
    dimension, basis = solve_weight_space(m)
    assert dimension == m % 2
    if m % 2:
        assert basis[0].table == parity_product_weight(m).table
