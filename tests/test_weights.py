"""Admissible weight functions and the pair-independence constraint."""

import random
from fractions import Fraction

import pytest

from signsum import (
    PairSelection,
    PreconditionError,
    check_condition_star,
    parity_product_weight,
    rational_vector,
    solve_weight_space,
    weighted_count,
)
from signsum import weights
from signsum.weights import ConstraintSystem

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
    """Recompute the constrained quantity directly from the definition.

    The constraint quantifies over ordered pairs, and the sign factor
    belongs to the first pair member alone.
    """
    m = f.m
    i, j = pair
    rest = [p for p in range(m) if p + 1 not in (i, j)]
    kept = sum(1 << k for k, p in enumerate(rest) if eps.signs()[p] == -1)
    return eps.signs()[i - 1] * f.table[kept]


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
    from signsum import WeightFunction, count_solutions

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
# Oracles: the literal constraint generator and the Fraction elimination the
# library used before the chain rows and the signed union-find.


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
    """Every pair of distinct (sign, mask) terms of every set, deduplicated."""
    rows = set()
    for terms in term_sets:
        uniq = sorted(terms)
        for a_idx in range(len(uniq)):
            s1, m1 = uniq[a_idx]
            for b_idx in range(a_idx + 1, len(uniq)):
                s2, m2 = uniq[b_idx]
                if m1 == m2:
                    # distinct terms on the same entry force it to zero
                    rows.add(("zero", m1))
                else:
                    a, b = (m1, m2) if m1 < m2 else (m2, m1)
                    rows.add(("eq", a, b, s1 * s2))
    return tuple(sorted(rows))


def all_pair_constraints(m: int) -> ConstraintSystem:
    """The literal system: all pairs of terms of every sign vector."""
    pairs = [(i0, j0) for i0 in range(m) for j0 in range(m) if i0 != j0]
    term_sets = []
    for eps_mask in range(1 << m):
        terms = set()
        for i0, j0 in pairs:
            s = -1 if (eps_mask >> i0) & 1 else 1
            terms.add((s, _argument_mask(eps_mask, m, i0, j0)))
        term_sets.append(terms)
    return ConstraintSystem(m, 1 << (m - 2), all_pair_rows(term_sets))


def _nullspace(system: ConstraintSystem) -> list[tuple[Fraction, ...]]:
    """Exact nullspace by incremental elimination with first-column pivots.

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

    for item in system.rows:
        if item[0] == "zero":
            insert({item[1]: one})
        else:
            _, a, b, r = item
            insert({a: one, b: Fraction(-r)})

    n = system.unknowns
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


def random_system(rng) -> ConstraintSystem:
    """Sparse signed rows over a few unknowns: several components, some
    pinned to zero, some closing a cycle with an odd number of minus signs."""
    n = rng.randint(1, 14)
    rows = set()
    for _ in range(rng.randint(0, 2 * n)):
        if n > 1 and rng.random() < 0.9:
            a, b = sorted(rng.sample(range(n), 2))
            rows.add(("eq", a, b, rng.choice((1, -1))))
        else:
            rows.add(("zero", rng.randrange(n)))
    return ConstraintSystem(0, n, tuple(sorted(rows)))


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


def test_chain_rows_span_the_all_pair_rows_on_random_terms():
    # small entry sets, so the first term's entry often has both signs
    rng = random.Random(0x71C4)
    for _ in range(2000):
        n = rng.randint(1, 3)
        term_sets = [
            {(rng.choice((1, -1)), rng.randrange(1 << n)) for _ in range(rng.randint(1, 4))}
            for _ in range(rng.randint(1, 4))
        ]
        keys = [{mask << 1 | (s < 0) for s, mask in terms} for terms in term_sets]
        chain = ConstraintSystem(0, 1 << n, weights._chain_rows(n, keys))
        full = ConstraintSystem(0, 1 << n, all_pair_rows(term_sets))
        assert weights._nullspace(chain) == _nullspace(full), term_sets


def all_ordered_pair_constraints(m: int) -> ConstraintSystem:
    """The chain rows over all m(m-1) ordered pairs, as the library built
    them before it kept only the adjacent pairs."""
    half = 1 << (m - 1)
    columns = [
        [
            (x << 1) | ((e >> i0) & 1)
            for e, x in enumerate(weights._argument_masks(m, i0, j0, half))
        ]
        for i0, j0 in weights._ordered_pairs(m)
    ]
    rows = weights._chain_rows(m - 2, map(set, zip(*columns)))
    return ConstraintSystem(m, 1 << (m - 2), rows)


@pytest.mark.parametrize("m", range(3, weights.WEIGHTS_MAX_M + 1))
def test_adjacent_pairs_give_the_all_pairs_weight_space(m):
    basis = weights._nullspace(all_ordered_pair_constraints(m))
    assert solve_weight_space(m) == (
        len(basis),
        [weights.WeightFunction(m, vec) for vec in basis],
    )
    assert len(basis) == m % 2


@pytest.mark.parametrize("m", range(3, 9))
def test_chain_rows_span_the_all_pair_rows(m):
    assert weights._nullspace(weights.build_constraints(m)) == _nullspace(
        all_pair_constraints(m)
    )


def test_union_find_matches_elimination_on_random_systems():
    rng = random.Random(0x3E1F)
    dims = set()
    for _ in range(3000):
        system = random_system(rng)
        expected = _nullspace(system)
        assert weights._nullspace(system) == expected, system
        dims.add(len(expected))
    assert len(dims) > 3


@pytest.mark.parametrize(
    "rows,dim",
    [
        # odd cycle kills its component, the singleton survives
        ((("eq", 0, 1, 1), ("eq", 0, 2, 1), ("eq", 1, 2, -1)), 1),
        # even cycle keeps it
        ((("eq", 0, 1, -1), ("eq", 0, 2, -1), ("eq", 1, 2, 1)), 2),
        # a zero row anywhere in a component kills all of it
        ((("eq", 0, 1, 1), ("eq", 1, 3, -1), ("zero", 3)), 1),
        # two components, ordered by their largest member
        ((("eq", 0, 3, -1), ("eq", 1, 2, 1)), 2),
    ],
)
def test_union_find_small_systems(rows, dim):
    system = ConstraintSystem(0, 4, tuple(sorted(rows)))
    basis = weights._nullspace(system)
    assert len(basis) == dim
    assert basis == _nullspace(system)


@pytest.mark.parametrize("m", range(3, 11))
def test_union_find_matches_elimination_on_weight_systems(m):
    system = weights.build_constraints(m)
    assert weights._nullspace(system) == _nullspace(system)


@pytest.mark.parametrize("m", [11, 12])
def test_large_m_dimension(m):
    dimension, basis = solve_weight_space(m)
    assert dimension == m % 2
    if m % 2:
        assert basis[0].table == parity_product_weight(m).table
