"""Shortened vectors and the splitting identities."""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from signsum import (
    PairSelection,
    PreconditionError,
    check_generic,
    format_scalar,
    log_vector,
    pair_for_values,
    parse_scalar,
    rational_vector,
    shorten,
    verify_count_split,
    verify_count_split_general,
    verify_signed_split_even,
    verify_signed_split_odd,
)
from signsum.cli import run

from conftest import random_generic_values


class TestShorten:
    def test_minus_example(self):
        v = rational_vector([4, 6, 7, 9, 11])
        s = shorten(v, 2, 4, "-")
        assert s.base.ratios() == [4, 3, 7, 11]
        assert [s.base.original_index(p) for p in range(4)] == [1, 2, 3, 5]
        assert s.replaced_index == 2 and s.deleted_index == 4
        assert format_scalar(s.new_scalar) == "3"

    def test_plus_example(self):
        v = rational_vector([4, 6, 7, 9, 11])
        s = shorten(v, 2, 4, "+")
        assert s.base.ratios() == [4, 15, 7, 11]

    def test_log_realization(self):
        v = log_vector([2, 3, 35])
        s = shorten(v, 3, 1, "-")
        # |ln 35 - ln 2| = ln(35/2)
        assert s.base.is_log
        assert s.base.ratios() == [3, Fraction(35, 2)]

    def test_result_stays_generic(self, rng):
        """``shorten`` runs no survey of the result, so the test runs one
        for every (j, k, sign) of generic vectors in both realizations."""
        vectors = [rational_vector(random_generic_values(rng, 5)) for _ in range(4)]
        while len(vectors) < 8:
            v = log_vector(rng.sample(range(2, 40), 5))
            if check_generic(v).generic:
                vectors.append(v)
        for v in vectors:
            for j, k in itertools.permutations(range(1, 6), 2):
                for sign in ("+", "-"):
                    if sign == "-" and v.components[j - 1] == v.components[k - 1]:
                        continue
                    s = shorten(v, j, k, sign)
                    assert s.base.m == 4
                    assert check_generic(s.base).generic

    def test_builds_only_the_source_table(self, rng, monkeypatch):
        from signsum import _halves

        built = []
        init = _halves.HalfTables.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_halves.HalfTables, "__init__", counting)
        shorten(rational_vector(random_generic_values(rng, 12)), 3, 7, "-")
        assert len(built) == 1

    def test_preconditions(self):
        v = rational_vector([2, 3, 4])
        with pytest.raises(PreconditionError):
            shorten(v, 1, 1, "+")
        with pytest.raises(PreconditionError):
            shorten(v, 0, 2, "+")
        with pytest.raises(PreconditionError):
            shorten(v, 1, 2, "x")
        with pytest.raises(PreconditionError):
            shorten(rational_vector([3, 3, 5]), 1, 2, "-")  # zero component


class TestPairForValues:
    def test_finds_lowest_positions(self):
        v = rational_vector([2, 3, 2, 5])
        p = pair_for_values(v, parse_scalar("2"), parse_scalar("5"))
        assert (p.i, p.j) == (1, 4)
        p = pair_for_values(v, parse_scalar("2"), parse_scalar("2"))
        assert (p.i, p.j) == (1, 3)

    def test_missing_value(self):
        v = rational_vector([2, 3, 5])
        with pytest.raises(PreconditionError):
            pair_for_values(v, parse_scalar("7"), parse_scalar("2"))
        with pytest.raises(PreconditionError):
            pair_for_values(v, parse_scalar("2"), parse_scalar("7"))


def spread_vector(rng, m):
    """Generic vector with one small and one large component, so that the
    identity preconditions (a_k below a gap) are easy to meet."""
    while True:
        vals = [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(m - 1)]
        vals.append(Fraction(rng.randint(40, 90), rng.randint(1, 2)))
        rng.shuffle(vals)
        from conftest import is_generic_values

        if is_generic_values(vals):
            return vals


def find_count_split_instance(rng, vals):
    m = len(vals)
    options = []
    for j in range(m):
        for i in range(m):
            for k in range(m):
                if len({i, j, k}) == 3 and vals[k] + vals[i] <= vals[j]:
                    options.append((i + 1, j + 1, k + 1))
    return rng.choice(options) if options else None


class TestCountSplit:
    def test_randomized(self, rng):
        done = 0
        while done < 25:
            vals = spread_vector(rng, rng.choice([4, 5, 6]))
            inst = find_count_split_instance(rng, vals)
            if inst is None:
                continue
            i, j, k = inst
            assert verify_count_split(rational_vector(vals), i, j, k)
            done += 1

    def test_precondition_gap(self):
        v = rational_vector([4, 6, 7, 9])
        #  a_k = 7 > a_j - a_i = 5
        with pytest.raises(PreconditionError):
            verify_count_split(v, 1, 2, 3)

    def test_needs_four(self):
        with pytest.raises(PreconditionError):
            verify_count_split(rational_vector([2, 3, 4]), 1, 2, 3)


_PART = st.builds(Fraction, st.integers(1, 40), st.integers(1, 4))


@st.composite
def count_split_domain(draw):
    """(alpha, i, j, k) with distinct indices and a_k <= a_j - a_i, in
    either realization: a log component is 1 plus a part, and a_j is
    a_i a_k times one more."""
    is_log = draw(st.booleans())
    m = draw(st.integers(4, 7))
    i, j, k = draw(st.permutations(range(m)))[:3]
    vals = [draw(_PART) + (1 if is_log else 0) for _ in range(m)]
    join = operator.mul if is_log else operator.add
    vals[j] = join(join(vals[i], vals[k]), vals[j])
    alpha = (log_vector if is_log else rational_vector)(vals)
    return alpha, i + 1, j + 1, k + 1


@settings(max_examples=60, deadline=None)
@given(count_split_domain())
def test_count_split_is_the_general_split_at_j_k(case):
    """The count split's domain lies inside the general split's at
    (r, s) = (j, k), and the two agree there, holding."""
    alpha, i, j, k = case
    assume(check_generic(alpha).generic)
    assert verify_count_split(alpha, i, j, k)
    assert verify_count_split_general(alpha, i, j, j, k)


@pytest.mark.parametrize(
    "identity, alpha, indices, message",
    [
        ("count-split", "4,6,7,9", "1,2,3", "need a_k <= a_j - a_i"),
        ("count-split", "log:2,log:3,log:5,log:7", "1,2,3", "need a_k <= a_j - a_i"),
        ("signed-even", "2,3,4,8", "4,1,2", "need a_i <= a_j"),
        ("count-general", "2,3,4,8", "3,1,2,4", "need a_i <= a_j"),
        ("count-general", "2,3,5,5", "1,2,3,4", "equal shortening components"),
        ("count-general", "2,3,9,10", "3,4,1,2", "need a_r + a_s >= a_i"),
        ("count-general", "2,3,4,8", "3,4,1,2", "need |a_r - a_s| >= a_i"),
        ("signed-odd", "4,6,7,9,11", "1,2,3", "need a_k <= |a_i - a_j|"),
        ("signed-odd", "5,5,11,2,3", "1,2,3", "need a_k <= 2 a_i"),
        # degenerate (1 + 2 - 3 = 0) and outside the domain: the value
        # condition is reported, before the survey
        ("count-split", "1,2,3,4", "1,2,3", "need a_k <= a_j - a_i"),
    ],
)
def test_value_conditions_refused_before_any_table(
    identity, alpha, indices, message, no_tables
):
    result = run(
        ["verify-shortening", "--alpha", alpha, "--identity", identity,
         "--indices", indices]
    )
    assert result.exit_code == 3 and result.error["type"] == "precondition"
    assert message in result.error["message"]


class TestSignedSplitEven:
    def test_randomized(self, rng):
        done = 0
        while done < 25:
            m = rng.choice([4, 6])
            vals = random_generic_values(rng, m)
            idx = sorted(range(m), key=lambda p: vals[p])
            i = idx[0] + 1
            j = idx[-1] + 1
            ks = [p + 1 for p in range(m) if p + 1 not in (i, j)]
            assert verify_signed_split_even(rational_vector(vals), i, j, rng.choice(ks))
            done += 1

    def test_tie_drops_difference_term(self, rng):
        # a_j = a_k exercises the zero-sign branch
        done = 0
        while done < 5:
            vals = random_generic_values(rng, 4)
            vals[2] = vals[3] = max(vals) + 1
            from conftest import is_generic_values

            if not is_generic_values(vals):
                continue
            assert verify_signed_split_even(rational_vector(vals), 1, 3, 4)
            done += 1

    def test_rejects_odd_length(self):
        v = rational_vector([2, 3, 4, 8, 9])
        with pytest.raises(PreconditionError):
            verify_signed_split_even(v, 1, 2, 3)

    def test_ordering_required(self):
        v = rational_vector([2, 3, 4, 8])
        with pytest.raises(PreconditionError):
            verify_signed_split_even(v, 4, 1, 2)


class TestCountSplitGeneral:
    def test_randomized(self, rng):
        done = 0
        while done < 25:
            vals = spread_vector(rng, rng.choice([4, 5]))
            m = len(vals)
            options = []
            for i in range(m):
                for j in range(m):
                    if i == j or vals[i] > vals[j]:
                        continue
                    for r in range(m):
                        for s in range(m):
                            if len({r, s}) != 2 or i in (r, s):
                                continue
                            if vals[r] == vals[s]:
                                continue
                            if abs(vals[r] - vals[s]) >= vals[i]:
                                options.append((i + 1, j + 1, r + 1, s + 1))
            if not options:
                continue
            i, j, r, s = rng.choice(options)
            assert verify_count_split_general(rational_vector(vals), i, j, r, s)
            done += 1

    def test_shortening_pair_may_include_j(self):
        v = rational_vector([2, 3, 4, 8])
        # r = j is allowed; only i must stay clear of the shortening pair
        assert verify_count_split_general(v, 1, 2, 2, 4) in (True, False)

    def test_preconditions(self):
        v = rational_vector([2, 3, 4, 8])
        with pytest.raises(PreconditionError):
            verify_count_split_general(v, 1, 2, 1, 4)
        with pytest.raises(PreconditionError):
            verify_count_split_general(v, 3, 1, 2, 4)  # a_i > a_j
        with pytest.raises(PreconditionError):
            verify_count_split_general(v, 3, 4, 1, 2)  # |a_r - a_s| < a_i


class TestSignedSplitOdd:
    def test_randomized_orientation_stable(self, rng):
        orientations = set()
        done = 0
        while done < 25:
            vals = spread_vector(rng, 5)
            m = 5
            options = []
            for i in range(m):
                for j in range(m):
                    if i == j or vals[i] == vals[j]:
                        continue
                    for k in range(m):
                        if k in (i, j):
                            continue
                        if vals[k] <= abs(vals[i] - vals[j]):
                            options.append((i + 1, j + 1, k + 1))
            if not options:
                continue
            i, j, k = rng.choice(options)
            orientation, holds = verify_signed_split_odd(rational_vector(vals), i, j, k)
            assert holds
            orientations.add(orientation)
            done += 1
        assert orientations == {"stated"}

    def test_equal_pair_branch(self, rng):
        done = 0
        while done < 5:
            vals = random_generic_values(rng, 5)
            vals[1] = vals[3] = max(vals) + 1
            from conftest import is_generic_values

            if not is_generic_values(vals):
                continue
            ks = [1, 3, 5]
            orientation, holds = verify_signed_split_odd(
                rational_vector(vals), 2, 4, rng.choice(ks)
            )
            assert holds and orientation == "stated"
            done += 1

    def test_failure_reports_the_stated_orientation(self, monkeypatch):
        """A sign defect in the left side is a failure, not the mirror
        identity holding: the answer is ("stated", False)."""
        from signsum import forms

        g = forms.closed_form_g
        v = rational_vector([4, 6, 7, 9, 11])  # g = -2
        assert verify_signed_split_odd(v, 1, 5, 2) == ("stated", True)
        monkeypatch.setattr(forms, "closed_form_g", lambda alpha: -g(alpha))
        assert verify_signed_split_odd(v, 1, 5, 2) == ("stated", False)

    def test_rejects_even_length(self):
        v = rational_vector([2, 3, 4, 8])
        with pytest.raises(PreconditionError):
            verify_signed_split_odd(v, 1, 2, 3)

    def test_gap_precondition(self):
        v = rational_vector([4, 6, 7, 9, 11])
        with pytest.raises(PreconditionError):
            verify_signed_split_odd(v, 1, 2, 3)
