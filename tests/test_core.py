"""Scalars, vectors, sign vectors, genericity."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signsum import (
    AlphaVector,
    DegenerateVectorError,
    PairSelection,
    ParseError,
    PreconditionError,
    Scalar,
    SignVector,
    check_generic,
    compare_scalars,
    delete_pair,
    enumerate_solutions,
    format_scalar,
    log_vector,
    max_vector_length,
    minimum_gap,
    parse_scalar,
    parse_vector,
    rational_vector,
    require_generic,
    scalar_abs_diff,
    scalar_add,
    zero_sum_masks,
)

from signsum import core

from conftest import is_generic_values, random_generic_values


class TestParseScalar:
    @pytest.mark.parametrize(
        "text,ratio,is_log",
        [
            ("4", Fraction(4), False),
            ("6.25", Fraction(25, 4), False),
            ("7/2", Fraction(7, 2), False),
            ("log:3", Fraction(3), True),
            ("log:7/2", Fraction(7, 2), True),
            ("  10 ", Fraction(10), False),
            ("0.5", Fraction(1, 2), False),
        ],
    )
    def test_accepts(self, text, ratio, is_log):
        s = parse_scalar(text)
        assert s.ratio == ratio
        assert s.is_log == is_log

    @pytest.mark.parametrize(
        "text",
        ["", "abc", "4;6", "1/0", "-3", "-1/2", "log:", "log:x", "1e3x"],
    )
    def test_rejects_malformed(self, text):
        # the grammar is unsigned, so negative literals are malformed
        with pytest.raises(ParseError):
            parse_scalar(text)

    @pytest.mark.parametrize("text", ["0", "0/5"])
    def test_rejects_zero(self, text):
        with pytest.raises(PreconditionError):
            parse_scalar(text)

    def test_log_argument_at_most_one_is_a_nonpositive_value(self):
        # such scalars exist as values but cannot be vector components
        s = parse_scalar("log:1")
        assert not s.is_positive()
        with pytest.raises(PreconditionError):
            parse_vector("log:1,log:2")
        with pytest.raises(PreconditionError):
            parse_vector("log:1/2,log:2")

    def test_format_round_trip(self):
        for text in ["4", "25/4", "7/2", "log:3", "log:7/2"]:
            s = parse_scalar(text)
            assert parse_scalar(format_scalar(s)) == s


class TestParseVector:
    def test_plain(self):
        v = parse_vector("4,6,7,9,11")
        assert not v.is_log
        assert v.ratios() == [4, 6, 7, 9, 11]

    def test_log(self):
        v = parse_vector("log:2,log:3,log:5")
        assert v.is_log
        assert v.ratios() == [2, 3, 5]

    def test_mixed_realizations_rejected(self):
        with pytest.raises(ParseError):
            parse_vector("4,log:3")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_vector("")
        with pytest.raises(ParseError):
            parse_vector("4,,5")

    def test_canonical_reformat(self):
        v = parse_vector("6.25,4/2")
        assert [format_scalar(c) for c in v.components] == ["25/4", "2"]


class TestScalarArithmetic:
    def test_compare_plain(self):
        a, b = parse_scalar("7/2"), parse_scalar("4")
        assert compare_scalars(a, b) == -1
        assert compare_scalars(b, a) == 1
        assert compare_scalars(a, parse_scalar("3.5")) == 0

    def test_compare_log_uses_argument_order(self):
        assert compare_scalars(parse_scalar("log:8"), parse_scalar("log:9")) == -1

    def test_mixed_comparison_rejected(self):
        with pytest.raises(PreconditionError):
            compare_scalars(parse_scalar("2"), parse_scalar("log:2"))

    def test_add_plain_and_log(self):
        assert scalar_add(parse_scalar("7/2"), parse_scalar("1/2")).ratio == 4
        s = scalar_add(parse_scalar("log:2"), parse_scalar("log:3"))
        assert s.is_log and s.ratio == 6

    def test_abs_diff(self):
        assert scalar_abs_diff(parse_scalar("3"), parse_scalar("8")).ratio == 5
        s = scalar_abs_diff(parse_scalar("log:8"), parse_scalar("log:2"))
        assert s.is_log and s.ratio == 4
        with pytest.raises(PreconditionError):
            scalar_abs_diff(parse_scalar("3"), parse_scalar("3"))


class TestSignVector:
    def test_mask_sign_convention(self):
        sv = SignVector(3, 0b010)
        assert sv.signs() == (1, -1, 1)

    def test_coordinate_map(self):
        sv = SignVector(2, 0b01, (3, 5))
        assert sv.coordinate_map == (3, 5)

    def test_bounds(self):
        with pytest.raises(PreconditionError):
            SignVector(0, 0)
        with pytest.raises(PreconditionError):
            SignVector(2, 4)

    def test_cap_checked_on_outside_input(self, monkeypatch):
        monkeypatch.setenv("SIGNSUM_MAX_M", "4")
        with pytest.raises(PreconditionError):
            SignVector(5, 0)

    def test_solution_rows_skip_the_cap_read(self, monkeypatch):
        """Rows of a validated vector equal checked sign vectors, and
        building them does not read the cap once per row."""
        v = rational_vector([201, 199] + [2 * k + 1 for k in range(9)])
        reads = []

        def counted():
            reads.append(1)
            return 30

        monkeypatch.setattr(core, "max_vector_length", counted)
        rows = enumerate_solutions(v, PairSelection(1, 2)).solutions
        assert len(rows) > 100 and len(reads) < len(rows)
        for sv in rows:
            same = SignVector(sv.length, sv.bits, sv.coordinate_map)
            assert sv == same and hash(sv) == hash(same)


class TestPairSelection:
    def test_normalizes_order(self):
        p = PairSelection(4, 2)
        assert (p.i, p.j) == (2, 4)

    def test_rejects_equal_and_nonpositive(self):
        with pytest.raises(PreconditionError):
            PairSelection(3, 3)
        with pytest.raises(PreconditionError):
            PairSelection(0, 2)


class TestAlphaVector:
    def test_positive_components_required(self):
        with pytest.raises(PreconditionError):
            rational_vector([1, 0, 2])
        with pytest.raises(PreconditionError):
            rational_vector([Fraction(-1, 2), 1])

    def test_length_cap_env(self, monkeypatch):
        monkeypatch.setenv("SIGNSUM_MAX_M", "4")
        assert max_vector_length() == 4
        with pytest.raises(PreconditionError):
            rational_vector([1, 2, 4, 8, 16])

    def test_bad_cap_env_rejected(self, monkeypatch):
        monkeypatch.setenv("SIGNSUM_MAX_M", "zero")
        with pytest.raises(ParseError):
            max_vector_length()
        monkeypatch.setenv("SIGNSUM_MAX_M", "0")
        with pytest.raises(ParseError):
            max_vector_length()

    def test_original_index_identity(self):
        v = rational_vector([2, 3, 4])
        assert [v.original_index(p) for p in range(3)] == [1, 2, 3]

    def test_delete_pair_keeps_labels(self):
        v = rational_vector([4, 6, 7, 9, 11])
        rest = delete_pair(v, PairSelection(2, 4))
        assert rest.ratios() == [4, 7, 11]
        assert [rest.original_index(p) for p in range(3)] == [1, 3, 5]

    def test_log_vector(self):
        v = log_vector([2, 3, 5])
        assert v.is_log and v.m == 3


class TestGenericity:
    def test_degenerate_witness(self):
        v = rational_vector([1, 2, 3])
        report = check_generic(v)
        assert not report.generic
        assert report.witness.signs() == (1, 1, -1)
        with pytest.raises(DegenerateVectorError) as exc:
            require_generic(v)
        assert exc.value.witness.signs() == (1, 1, -1)

    def test_generic_gap(self):
        v = rational_vector([2, 3, 4])
        report = check_generic(v)
        assert report.generic
        # smallest |signed sum| over 2,3,4 is |2+3-4| = 1
        assert minimum_gap(v) == 1

    def test_zero_sum_masks(self):
        v = rational_vector([1, 2, 3])
        masks = zero_sum_masks(v)
        assert [SignVector(3, mk).signs() for mk in masks] == [(1, 1, -1)]

    def test_gap_matches_brute_force(self, rng):
        for _ in range(20):
            vals = random_generic_values(rng, 5)
            v = rational_vector(vals)
            best = min(
                abs(vals[0] + sum(e * x for e, x in zip(signs, vals[1:])))
                for signs in itertools.product((1, -1), repeat=4)
            )
            assert minimum_gap(v) == best

    def test_log_genericity_is_exact(self):
        # 2*3 = 6 makes ln2 + ln3 - ln6 vanish
        with pytest.raises(DegenerateVectorError):
            require_generic(log_vector([2, 3, 6]))
        require_generic(log_vector([2, 3, 5]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 8), max_value=40, max_denominator=8),
        min_size=3,
        max_size=6,
    )
)
def test_check_generic_matches_oracle(vals):
    v = rational_vector(vals)
    assert check_generic(v).generic == is_generic_values(vals)


def test_scalar_frozen_and_positive():
    with pytest.raises(PreconditionError):
        Scalar(Fraction(0), False)
    # log of 1 is zero: a legal scalar, but not a positive one
    assert not Scalar(Fraction(1), True).is_positive()
    s = Scalar(Fraction(3, 2), False)
    with pytest.raises(Exception):
        s.ratio = Fraction(2)
