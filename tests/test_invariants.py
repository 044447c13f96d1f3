"""Solution sets, the two invariants, cross-pair laws, wall crossing."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsum import (
    DegenerateVectorError,
    InternalCheckError,
    PairSelection,
    PreconditionError,
    check_generic,
    closed_form_g,
    count_solutions,
    count_via_sign_sum,
    enumerate_solutions,
    extended_signed_count,
    log_vector,
    minimum_gap,
    orient_pair,
    pair_invariants,
    parity,
    parse_scalar,
    rational_vector,
    signed_count,
    signed_count_even_via_sign_sum,
    verify_invariance,
    wall_crossing_check,
    zero_sum_masks,
)

from conftest import brute_force_pair, random_generic_values

INTRO = [4, 6, 7, 9, 11]


def mask_of(signs):
    """Bitmask with bit k set when coordinate k carries -1."""
    return sum(1 << k for k, s in enumerate(signs) if s < 0)


class TestIntroExample:
    def test_pair_one_two(self):
        v = rational_vector(INTRO)
        p = PairSelection(1, 2)
        sols = enumerate_solutions(v, p)
        assert [sv.signs() for sv in sols.solutions] == [(1, -1, 1), (1, 1, -1)]
        assert sols.solutions[0].coordinate_map == (3, 4, 5)
        assert signed_count(v, p) == -2
        assert count_solutions(v, p) == 2
        assert parity(v, p) == 0

    def test_all_pairs_share_n(self):
        v = rational_vector(INTRO)
        for i in range(1, 6):
            for j in range(i + 1, 6):
                assert signed_count(v, PairSelection(i, j)) == -2
                assert parity(v, PairSelection(i, j)) == 0


class TestFrozenEvenExample:
    # diffs/sums for (2,3,4,8) worked out by hand once, then pinned
    def test_enumerate_pair_three_four(self):
        v = rational_vector([2, 3, 4, 8])
        sols = enumerate_solutions(v, PairSelection(3, 4))
        assert [sv.signs() for sv in sols.solutions] == [(1, 1)]
        assert sols.solutions[0].coordinate_map == (1, 2)

    def test_signed_counts(self):
        v = rational_vector([2, 3, 4, 8])
        assert signed_count(v, PairSelection(2, 3)) == -1
        assert signed_count(v, PairSelection(3, 4)) == 1

    def test_verify_report(self):
        v = rational_vector([2, 3, 4, 8])
        report = verify_invariance(v)
        assert report.parity_invariant and report.parity == 1
        assert report.violations == []
        assert report.n_invariant is None
        named = {
            format_key(k): val for k, val in report.n_by_max_omitted.items()
        }
        assert named == {"8": 1, "4": -1, "3": -1}
        counts = {
            format_key(k): val for k, val in report.count_by_min_omitted.items()
        }
        assert counts == {"2": 1, "3": 1, "4": 1}
        assert report.abs_n_invariant is True


def format_key(scalar):
    from signsum import format_scalar

    return format_scalar(scalar)


class TestOracleAgreement:
    def test_random_vectors_match_brute_force(self, rng):
        for _ in range(40):
            m = rng.randint(3, 6)
            vals = random_generic_values(rng, m)
            v = rational_vector(vals)
            i = rng.randint(1, m - 1)
            j = rng.randint(i + 1, m)
            p = PairSelection(i, j)
            sols, count, signed, par = brute_force_pair(vals, i - 1, j - 1)
            got = enumerate_solutions(v, p)
            assert [sv.signs() for sv in got.solutions] == sorted(
                sols, key=mask_of
            )
            assert count_solutions(v, p) == count
            assert signed_count(v, p) == signed
            assert parity(v, p) == par

    def test_log_mode_matches_plain_on_integer_logs(self, rng):
        # exp of the plain problem: products against an interval
        for _ in range(10):
            while True:
                ints = [rng.randint(2, 40) for _ in range(4)]
                try:
                    v = log_vector(ints)
                except PreconditionError:
                    continue
                from signsum import check_generic

                if check_generic(v).generic:
                    break
            p = PairSelection(1, 2)
            direct = []
            lo = max(ints[0], ints[1]) / min(ints[0], ints[1])
            hi = ints[0] * ints[1]
            for s2 in (1, -1):
                for s3 in (1, -1):
                    prod = ints[2] ** s2 * ints[3] ** s3
                    if lo < prod < hi:
                        direct.append((s2, s3))
            got = enumerate_solutions(v, p)
            assert [sv.signs() for sv in got.solutions] == sorted(
                direct, key=mask_of
            )


class TestClosedForms:
    def test_pair_refused_before_the_survey(self, no_tables):
        degenerate = rational_vector([1, 2, 3, 4])
        for route in (count_via_sign_sum, signed_count_even_via_sign_sum):
            with pytest.raises(PreconditionError, match="exceeds vector length"):
                route(degenerate, PairSelection(1, 5))

    def test_g_equals_n_for_odd(self, rng):
        for _ in range(15):
            m = rng.choice([3, 5])
            vals = random_generic_values(rng, m)
            v = rational_vector(vals)
            g = closed_form_g(v)
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    assert signed_count(v, PairSelection(i, j)) == g

    def test_g_vanishes_for_even(self, rng):
        for _ in range(15):
            m = rng.choice([4, 6])
            v = rational_vector(random_generic_values(rng, m))
            assert closed_form_g(v) == 0

    def test_count_route(self, rng):
        for _ in range(20):
            m = rng.randint(3, 6)
            vals = random_generic_values(rng, m)
            v = rational_vector(vals)
            i = rng.randint(1, m - 1)
            j = rng.randint(i + 1, m)
            p = PairSelection(i, j)
            assert count_via_sign_sum(v, p) == count_solutions(v, p)

    def test_even_signed_route(self, rng):
        for _ in range(20):
            m = rng.choice([4, 6])
            vals = random_generic_values(rng, m)
            v = rational_vector(vals)
            i = rng.randint(1, m - 1)
            j = rng.randint(i + 1, m)
            p = PairSelection(i, j)
            assert signed_count_even_via_sign_sum(v, p) == signed_count(v, p)

    def test_even_signed_route_rejects_odd(self):
        v = rational_vector([2, 3, 4, 8, 9])
        with pytest.raises(PreconditionError):
            signed_count_even_via_sign_sum(v, PairSelection(1, 2))


class TestExtendedSignedCount:
    def test_frozen_table(self):
        v = rational_vector([2, 3, 4, 8])
        expected = {1: 1, 2: 1, 3: 1, 4: -1}
        for h, val in expected.items():
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    if h in (i, j):
                        continue
                    assert extended_signed_count(v, PairSelection(i, j), h) == val

    def test_powers_of_two_give_zero(self):
        v = rational_vector([1, 2, 4, 8])
        assert extended_signed_count(v, PairSelection(1, 2), 3) == 0
        assert extended_signed_count(v, PairSelection(1, 2), 4) == 0

    @staticmethod
    def _vector(rng, m, is_log):
        if not is_log:
            return rational_vector(random_generic_values(rng, m))
        while True:
            v = log_vector([rng.randint(2, 40) for _ in range(m)])
            if check_generic(v).generic:
                return v

    @staticmethod
    def _pairs(m):
        pairs = itertools.combinations(range(1, m + 1), 2)
        return [PairSelection(i, j) for i, j in pairs]

    def test_matches_negated_complement_pair(self, rng):
        # even m: ext(p, h) = -N(q) for every pair q whose larger member is h
        for _ in range(12):
            m = rng.choice([4, 6, 8, 10])
            v = rational_vector(random_generic_values(rng, m))
            pairs = self._pairs(m)
            for q in pairs:
                h = orient_pair(v, q)[1] + 1
                n = signed_count(v, q)
                for p in pairs:
                    if h not in p:
                        assert extended_signed_count(v, p, h) == -n

    def test_pair_independent_for_even(self, rng):
        for k in range(30):
            m = rng.choice([4, 6, 8])
            v = self._vector(rng, m, is_log=k % 2)
            for h in range(1, m + 1):
                vals = {
                    extended_signed_count(v, p, h)
                    for p in self._pairs(m)
                    if h not in p
                }
                assert len(vals) == 1

    def test_depends_on_the_larger_member_for_odd(self, rng):
        for k in range(30):
            m = rng.choice([5, 7, 9])
            v = self._vector(rng, m, is_log=k % 2)
            for h in range(1, m + 1):
                by_large = {}
                for p in self._pairs(m):
                    if h not in p:
                        large = orient_pair(v, p)[1]
                        by_large.setdefault(large, set()).add(
                            extended_signed_count(v, p, h)
                        )
                assert all(len(vals) == 1 for vals in by_large.values())

    def test_h_must_avoid_pair(self):
        v = rational_vector([2, 3, 4, 8])
        with pytest.raises(PreconditionError):
            extended_signed_count(v, PairSelection(1, 2), 2)

    def test_refusals_in_order(self):
        # each input breaks every later precondition as well; the vectors
        # are degenerate throughout, and the survey comes last
        cases = [
            ([1, 1, 2], (1, 5), 9, "extended count requires at least 4 components"),
            ([1, 1, 1, 1], (1, 5), 9, "pair index 5 exceeds vector length 4"),
            ([1, 1, 1, 1], (1, 2), 9, "extra index out of range"),
            ([1, 1, 1, 1], (1, 2), 0, "extra index out of range"),
            ([1, 1, 1, 1], (1, 2), 2, "extra index must avoid the pair"),
        ]
        for values, pair, h, message in cases:
            with pytest.raises(PreconditionError) as exc:
                extended_signed_count(rational_vector(values), PairSelection(*pair), h)
            assert str(exc.value) == message
        v = rational_vector([1, 1, 1, 1])
        with pytest.raises(DegenerateVectorError) as exc:
            extended_signed_count(v, PairSelection(1, 2), 3)
        assert str(exc.value) == "vector has a vanishing signed sum"
        assert exc.value.witness == check_generic(v).witness


class TestInvarianceLaws:
    def test_scaling_invariance(self, rng):
        for _ in range(10):
            m = rng.randint(3, 6)
            vals = random_generic_values(rng, m)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            v = rational_vector(vals)
            w = rational_vector([c * x for x in vals])
            i = rng.randint(1, m - 1)
            j = rng.randint(i + 1, m)
            p = PairSelection(i, j)
            sols = enumerate_solutions(v, p).solutions
            assert sols == enumerate_solutions(w, p).solutions
            assert signed_count(v, p) == signed_count(w, p)

    def test_monotone_escape(self, rng):
        # a dominating component forces S empty for every pair avoiding it
        for _ in range(10):
            m = rng.randint(3, 5)
            vals = random_generic_values(rng, m)
            vals.append(sum(vals) + Fraction(1, 3))
            if not closed_form_is_generic(vals):
                continue
            v = rational_vector(vals)
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    assert count_solutions(v, PairSelection(i, j)) == 0

    def test_verify_invariance_random(self, rng):
        for _ in range(15):
            m = rng.randint(3, 6)
            v = rational_vector(random_generic_values(rng, m))
            report = verify_invariance(v)
            assert report.violations == []
            assert report.parity_invariant
            if m % 2:
                assert report.n_invariant
            if m == 4:
                assert report.abs_n_invariant


def closed_form_is_generic(vals):
    from conftest import is_generic_values

    return is_generic_values(vals)


class TestOrientPair:
    def test_orients_by_value(self):
        v = rational_vector([5, 2, 7])
        small, large = orient_pair(v, PairSelection(1, 2))
        assert (small, large) == (1, 0)

    def test_tie_keeps_index_order(self):
        v = rational_vector([3, 3, 5])
        small, large = orient_pair(v, PairSelection(1, 2))
        assert (small, large) == (0, 1)


class TestWallCrossing:
    def test_frozen_single_wall(self):
        v = rational_vector([1, 2, 3])
        res = wall_crossing_check(v, 3, PairSelection(1, 2))
        assert res.jump_signed == res.predicted_signed == 1
        assert res.jump_count == res.predicted_count == 1
        assert len(res.wall_masks) == 1

    def test_generic_input_sees_no_jump(self, rng):
        for _ in range(5):
            vals = random_generic_values(rng, 4)
            v = rational_vector(vals)
            # keep the perturbed component positive for any draw
            delta = min(minimum_gap(v), vals[3]) / 4
            res = wall_crossing_check(v, 4, PairSelection(1, 2), delta=delta)
            assert res.jump_signed == 0 and res.jump_count == 0
            assert res.wall_masks == ()

    def test_explicit_delta_validated(self):
        v = rational_vector([1, 2, 3])
        with pytest.raises(PreconditionError):
            wall_crossing_check(v, 3, PairSelection(1, 2), Fraction(10))
        with pytest.raises(PreconditionError):
            wall_crossing_check(v, 3, PairSelection(1, 2), Fraction(0))

    def test_perturbed_index_must_avoid_pair(self):
        v = rational_vector([1, 2, 3])
        with pytest.raises(PreconditionError):
            wall_crossing_check(v, 1, PairSelection(1, 2))

    def test_log_realization_rejected(self):
        v = log_vector([2, 3, 5])
        with pytest.raises(PreconditionError):
            wall_crossing_check(v, 3, PairSelection(1, 2))

    def test_prediction_matches_the_per_wall_loop(self, rng):
        # small values, so most vectors sit on many walls
        seen = set()
        for _ in range(300):
            m = rng.randint(4, 11)
            v = rational_vector([rng.randint(1, 6) for _ in range(m)])
            i, j = sorted(rng.sample(range(1, m + 1), 2))
            rest = [k for k in range(1, m + 1) if k not in (i, j)]
            # l = 1, the bit the survey pins to plus, whenever the pair allows
            l = 1 if i > 1 and rng.random() < 0.5 else rng.choice(rest)
            pair = PairSelection(i, j)
            res = wall_crossing_check(v, l, pair)
            assert (res.predicted_signed, res.predicted_count) == per_wall_prediction(
                v, l, pair
            )
            if res.predicted_signed and res.predicted_count:
                seen.add((m % 2, l == 1))
        assert seen == {(0, False), (0, True), (1, False), (1, True)}


def per_wall_prediction(alpha, l, pair):
    """(N jump, count jump) summed wall by wall, decoding each wall's signs.

    Each wall solution r moves one sign vector in or out of the solution
    set: r_l decides the side, and whether the pair coordinates agree in r
    (the upper bound) or differ (the lower bound) decides its term.
    """
    i0, j0, l0 = pair.i - 1, pair.j - 1, l - 1
    small, _ = orient_pair(alpha, pair)
    rest = ((1 << alpha.m) - 1) ^ (1 << i0) ^ (1 << j0)
    pred_signed = pred_count = 0
    for mask in zero_sum_masks(alpha):
        ri, rj, rl, r_small = (
            -1 if mask >> pos & 1 else 1 for pos in (i0, j0, l0, small)
        )
        pred_count += -r_small * rl
        prod_rest = -1 if (mask & rest).bit_count() & 1 else 1
        if ri == rj:
            pred_signed += (-ri) ** (alpha.m - 1) * rl * prod_rest
        else:
            pred_signed += -(r_small ** (alpha.m - 1)) * rl * prod_rest
    return pred_signed, pred_count


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 6), max_value=30, max_denominator=6),
        min_size=3,
        max_size=5,
    ),
    st.data(),
)
def test_parity_constant_across_pairs(vals, data):
    from conftest import is_generic_values

    if not is_generic_values(vals):
        return
    v = rational_vector(vals)
    m = len(vals)
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    parities = {parity(v, PairSelection(i, j)) for i, j in pairs}
    assert len(parities) == 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=40),
        min_size=4,
        max_size=4,
    )
)
def test_even_n_keyed_by_larger_component(vals):
    from conftest import is_generic_values

    fr = [Fraction(x) for x in vals]
    if not is_generic_values(fr):
        return
    v = rational_vector(fr)
    by_larger = {}
    for i in range(1, 5):
        for j in range(i + 1, 5):
            small, large = orient_pair(v, PairSelection(i, j))
            key = fr[large]
            n = signed_count(v, PairSelection(i, j))
            assert by_larger.setdefault(key, n) == n


# ---------------------------------------------------------------------------
# verify's moment rows against a scan of every pair.


def _rows_by_scan(alpha):
    m = alpha.m
    return [
        pair_invariants(alpha, PairSelection(i, j))
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
    ]


_big = st.integers(1, 10**18)


@st.composite
def _moment_inputs(draw):
    """(values, is_log), m = 3-12, of one of five shapes: small rationals
    with ties, 18-digit numerators and denominators, a vector a rational
    delta below half its gap off a wall, log:p/q and prime logs."""
    kind = draw(st.sampled_from(("tied", "big", "near-wall", "ratios", "primes")))
    m = draw(st.integers(3, 12))
    if kind == "primes":
        from signsum import prime_alpha

        return list(draw(st.permutations(prime_alpha(20).primes))[:m]), True
    if kind == "ratios":
        ratio = st.integers(2, 9).flatmap(
            lambda q: st.builds(Fraction, st.integers(q + 1, 60), st.just(q))
        )
        vals = draw(st.lists(ratio, min_size=m, max_size=m))
        return vals + [vals[0]] if draw(st.booleans()) else vals, True
    if kind == "big":
        return draw(st.lists(st.builds(Fraction, _big, _big), min_size=m, max_size=m)), False
    if kind == "tied":
        vals = draw(st.lists(st.integers(1, 40), min_size=m - 1, max_size=m - 1))
        return vals + [draw(st.sampled_from(vals))], False
    # the last component sits on the wall |sum e_k v_k| of the others, then
    # moves off it by delta < gap / 2, gap the degenerate vector's gap
    rest = draw(st.lists(st.integers(1, 10**6), min_size=m - 1, max_size=m - 1))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=m - 1, max_size=m - 1))
    wall = abs(sum(e * v for e, v in zip(signs, rest))) or 1
    on_wall = rational_vector(rest + [wall])
    gap = minimum_gap(on_wall)
    delta = gap / draw(st.integers(3, 10**6))
    return rest + [wall + draw(st.sampled_from((delta, -delta)))], False


@settings(max_examples=300, deadline=None)
@given(_moment_inputs())
def test_moment_rows_match_every_pair_scan(inputs):
    from hypothesis import assume

    from signsum import DegenerateVectorError

    values, is_log = inputs
    alpha = (log_vector if is_log else rational_vector)(values)
    try:
        report = verify_invariance(alpha)
    except DegenerateVectorError:
        assume(False)
    assert report.rows == _rows_by_scan(alpha)
    assert report.violations == []


@pytest.mark.parametrize("m", [14, 17])
@pytest.mark.parametrize("is_log", [False, True], ids=["plain", "log"])
def test_moment_rows_match_every_pair_scan_at_larger_m(m, is_log):
    import random

    rng = random.Random(m)
    if is_log:
        alpha = log_vector([Fraction(rng.randint(10, 10**6), rng.randint(1, 9))
                            for _ in range(m)])
    else:
        alpha = rational_vector([rng.randint(1, 10**9) for _ in range(m)])
    assert verify_invariance(alpha).rows == _rows_by_scan(alpha)


@pytest.mark.parametrize("values", [INTRO, [2, 3, 4, 8], [3, 5, 7, 11, 13, 17, 19, 23, 29]])
def test_moment_pass_with_a_shifted_run_start_is_caught(values, monkeypatch):
    """Every run above zero starting one B entry late: the adjacent-pair
    scans see the wrong moments.  Only zero-bound cuts shift; the pair
    windows' bounds are never zero, so those scans see the true runs."""
    from signsum import _halves, check_generic

    alpha = rational_vector(values)
    check_generic(alpha)  # the survey reads the unmutated runs
    cut = _halves.HalfTables._cut

    def late(self, bound, side):
        ends = cut(self, bound, side)
        if bound == self._zero:
            n = len(self.b_keys)
            ends = [min(e + 1, n) for e in ends]
        return ends

    monkeypatch.setattr(_halves.HalfTables, "_cut", late)
    with pytest.raises(InternalCheckError, match="moment row disagrees"):
        verify_invariance(alpha)


@pytest.mark.parametrize("m", [9, 12])
def test_verify_reads_one_moment_pass_and_the_adjacent_scans(m, monkeypatch):
    """One ``moments()`` call, the m - 1 pairs adjacent in (value, index)
    order scanned once each in that order, and no per-pair
    ``orient_pair``."""
    import random

    from signsum import _halves, core, invariants

    calls = {"moments": 0, "orient": 0}
    scanned = []
    moments, scan, orient = _halves.HalfTables.moments, invariants._scan, core.orient_pair

    def counting_moments(self):
        calls["moments"] += 1
        return moments(self)

    def counting_scan(alpha, pair, materialize=False):
        scanned.append(pair)
        return scan(alpha, pair, materialize)

    def counting_orient(alpha, pair):
        calls["orient"] += 1
        return orient(alpha, pair)

    monkeypatch.setattr(_halves.HalfTables, "moments", counting_moments)
    monkeypatch.setattr(invariants, "_scan", counting_scan)
    monkeypatch.setattr(core, "orient_pair", counting_orient)
    monkeypatch.setattr(invariants, "orient_pair", counting_orient, raising=False)

    rng = random.Random(m)
    while True:
        values = [rng.randint(1, 10**6) for _ in range(m - 1)]
        values.append(values[0])  # a tie, ordered by index
        if check_generic(rational_vector(values)).generic:
            break
    alpha = rational_vector(values)
    report = verify_invariance(alpha)
    assert calls == {"moments": 1, "orient": 0}
    order = sorted(range(m), key=lambda pos: (values[pos], pos))
    assert scanned == [
        PairSelection(p + 1, q + 1) for p, q in zip(order, order[1:])
    ]
    assert report.rows == _rows_by_scan(alpha)


def _laws_by_orient(alpha, rows):
    """The cross-pair law maps and violations from the rows, one
    ``orient_pair`` per row and law, in the report's order."""
    m = alpha.m
    violations = []
    if len({row.parity for row in rows}) != 1:
        violations.append("parity differs across pairs")
    n_by_max = None
    if m % 2:
        if len({row.signed for row in rows}) != 1:
            violations.append("signed count differs across pairs (odd length)")
    else:
        n_by_max = {}
        for row in rows:
            key = alpha.components[orient_pair(alpha, row.pair)[1]]
            if key in n_by_max and n_by_max[key] != row.signed:
                violations.append("signed count not a function of the larger component")
            n_by_max.setdefault(key, row.signed)
    count_by_min = {}
    for row in rows:
        key = alpha.components[orient_pair(alpha, row.pair)[0]]
        if key in count_by_min and count_by_min[key] != row.count:
            violations.append("count not a function of the smaller component")
        count_by_min.setdefault(key, row.count)
    if m == 4 and len({abs(row.signed) for row in rows}) != 1:
        violations.append("absolute signed count differs across pairs (m=4)")
    return n_by_max and list(n_by_max.items()), list(count_by_min.items()), violations


class _Agrees:
    """Equal to every row: stands in for the anchor scans."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False


@pytest.mark.parametrize("seed", range(40))
def test_broken_moments_give_the_violations_in_law_order(seed, monkeypatch):
    """Moments shifted by even amounts, with the anchor scans bypassed,
    break the laws; the report lists each broken comparison once, in the
    order parity, N (odd m) or N by the larger value (even m), count by
    the smaller value, |N| at m = 4."""
    import random

    from signsum import _halves, invariants

    rng = random.Random(seed)
    m = rng.randint(3, 8)
    while True:
        values = [rng.randint(1, 12) for _ in range(m)]
        if check_generic(rational_vector(values)).generic:
            break
    moments = _halves.HalfTables.moments

    def shifted(self):
        ones, chis = moments(self)
        ones, chis = list(ones), list(chis)
        for k in rng.sample(range(1, m + 1), rng.randint(1, m)):
            ones[k] += 2 * rng.choice((-1, 1))
            chis[k] += 2 * rng.choice((-1, 1))
        return ones, chis

    monkeypatch.setattr(_halves.HalfTables, "moments", shifted)
    monkeypatch.setattr(invariants, "pair_invariants", lambda alpha, pair: _Agrees())
    alpha = rational_vector(values)
    report = verify_invariance(alpha)
    n_by_max, count_by_min, violations = _laws_by_orient(alpha, report.rows)
    assert (report.n_by_max_omitted and list(report.n_by_max_omitted.items())) == n_by_max
    assert list(report.count_by_min_omitted.items()) == count_by_min
    assert report.violations == violations
    assert report.parity_invariant == ("parity differs across pairs" not in violations)
