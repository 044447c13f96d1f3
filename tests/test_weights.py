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
    """Random tables, scaled parity products (zero included), scaled
    parity products with one entry's sign flipped, random odd tables, and
    for odd m scaled parity products with an entry and its negated
    argument's entry both flipped, which keeps them odd."""
    size = 1 << (m - 2)
    full = size - 1
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
    for _ in range(3):
        odd = [Fraction(rng.randint(-3, 3)) for _ in range(size)]
        for r in range(size >> 1):
            odd[full ^ r] = -odd[r]
        tables.append(tuple(odd))
        if m % 2:
            scaled = [p * rng.randint(1, 5) for p in parity]
            flip = rng.randrange(size)
            scaled[flip] = -scaled[flip]
            scaled[full ^ flip] = -scaled[full ^ flip]
            tables.append(tuple(scaled))
    return tables


def sign_vector(signs):
    return SignVector(len(signs), sum(1 << k for k, s in enumerate(signs) if s < 0))


def proof_candidates(m):
    """The comparisons of ``solve_weight_space``'s proof steps, in order,
    as (eps, pair, pair) with eps spelled out sign by sign.

    Step 1 takes eps = (1, -1, r) with the pairs (1, 2) and (2, 1), for
    every rest r.  Step 2, for every nonzero argument x with lowest -1
    at coordinate k (0-based): eps has 1 at coordinates 1 to k+2, -1 at
    k+3 and x's coordinates above k after that (1-based), with the pairs
    (k+1, k+2) and (k+2, k+3).
    """
    n = m - 2

    def signs(mask):
        return [-1 if mask >> k & 1 else 1 for k in range(n)]

    for r in range(1 << n):
        yield sign_vector([1, -1] + signs(r)), (1, 2), (2, 1)
    for x in range(1, 1 << n):
        rest = signs(x)
        k = rest.index(-1)
        yield sign_vector([1] * (k + 2) + [-1] + rest[k + 1:]), (k + 1, k + 2), (k + 2, k + 3)


def proof_witness(f):
    """The first proof candidate whose two pair quantities differ."""
    for eps, pair_a, pair_b in proof_candidates(f.m):
        if pair_quantity(f, eps, pair_a) != pair_quantity(f, eps, pair_b):
            return eps, pair_a, pair_b
    return None


@pytest.mark.parametrize("m", range(3, weights.WEIGHTS_MAX_M + 1))
def test_exhaustive_check_agrees_with_the_closed_form(m):
    rng = random.Random(0x9A7E + m)
    parity = parity_product_weight(m).table
    verdicts = set()
    steps = set()
    for table in candidate_tables(rng, m):
        f = WeightFunction(m, table)
        ok, witness = check_condition_star(f)
        # the admissible tables are the multiples of the parity product
        # for odd m, and the zero table alone for even m
        c = table[0]
        in_space = all(x == c * p for x, p in zip(table, parity))
        assert ok == (in_space and (m % 2 == 1 or c == 0)), table
        # the first disagreement in the proof's order, recomputed from
        # the definition
        assert witness == proof_witness(f), table
        if m <= 8:
            # and the walk over every sign vector and ordered pair agrees
            assert ok == (first_disagreement(f) is None), table
        if witness is not None:
            steps.add(1 if witness[2] == (2, 1) else 2)
        verdicts.add(ok)
    assert verdicts == {True, False}
    # at m = 3 every odd table is a multiple of the parity product (1, -1)
    assert steps == ({1, 2} if m > 3 else {1})


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
# Oracles: the literal term generator and its bitwise form (``_terms``),
# the all-pairs rows, the Fraction elimination and the signed union-find,
# two solvers of the term sets for the weight space the library gives in
# closed form.  A term is a key: the entry mask, then a low bit set for a
# minus sign.


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


def _argument_masks(m: int, i0: int, j0: int, masks: range) -> list[int]:
    """Bitmask of the weight argument -e_j * (e with the pair deleted), for
    every sign vector mask e in ``masks``.

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
        for e in masks
    ]


def _ordered_pairs(m: int):
    return [(i0, j0) for i0 in range(m) for j0 in range(m) if i0 != j0]


def _terms(m: int, pairs, masks: range) -> list[tuple[int, ...]]:
    """Per sign vector mask e in ``masks``, the term e_i * x_a of each
    ordered pair (i, j) of ``pairs``, in order.

    A term is a key: the argument mask a, then a low bit set when e_i is
    -1, so the table entry x_a is key >> 1 and its sign is read off the
    low bit.
    """
    columns = [
        [(x << 1) | ((e >> i0) & 1) for e, x in zip(masks, _argument_masks(m, i0, j0, masks))]
        for i0, j0 in pairs
    ]
    return list(zip(*columns))


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
    return _terms(m, pairs, range(1 << (m - 1)))


def test_argument_masks_match_the_positional_loop():
    for m in range(3, 9):
        for i0 in range(m):
            for j0 in range(m):
                if i0 == j0:
                    continue
                got = _argument_masks(m, i0, j0, range(1 << m))
                assert got == [
                    _argument_mask(e, m, i0, j0) for e in range(1 << m)
                ]


def test_terms_match_the_literal_term_sets():
    for m in range(3, 9):
        got = _terms(m, _ordered_pairs(m), range(1 << m))
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
        _terms(m, _ordered_pairs(m), range(1 << (m - 1))),
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


@pytest.mark.parametrize("m", range(4, 9))
def test_block_walk_keeps_the_full_walks_witness(m):
    # Weights admissible on the sign vector masks below 2^top, for each
    # doubling block [2^(top-1), 2^top), but not on all.  The full walk
    # first fails at a mask at or above 2^top; the masks below 2^(m-2)
    # already force the closed form, so the last block a failure can
    # start in is [2^(m-3), 2^(m-2)), and mask 0 never fails.  The
    # check's verdict is the full walk's and its witness the proof's.
    first_failures = set()
    for top in range(m - 2):
        terms = _terms(m, _ordered_pairs(m), range(1 << top))
        basis = union_find_nullspace(1 << (m - 2), terms)
        for vec in basis[:3] + basis[-3:]:
            f = WeightFunction(m, vec)
            witness = first_disagreement(f)
            assert check_condition_star(f) == (witness is None, proof_witness(f)), vec
            if witness is not None:
                assert witness[0].bits >= 1 << top
                first_failures.add(witness[0].bits.bit_length())
    assert first_failures == set(range(1, m - 1))
