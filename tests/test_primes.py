"""Prime-log vectors: direct enumeration against the divisor-count route."""

import pytest

from signsum import (
    InternalCheckError,
    PairSelection,
    PreconditionError,
    mobius_sum,
    prime_alpha,
    signed_count,
    verify_prime_example,
)
from signsum.primes import _first_primes

# Values pinned from two independent brute-force enumerations (sign-vector
# products with exact big-integer comparisons, and squarefree divisor
# counting).  The odd-length value is pair-independent.
ODD_COMMON = {3: 1, 5: -1, 7: 3, 9: -8, 11: 22, 13: -53, 15: 158}


def mobius_walk(n, i, j):
    """The Mobius sum by a pruned recursive walk over the squarefree
    products of the allowed primes, each window comparison made by
    squaring in big integers."""
    primes = _first_primes(n)
    big_p = 1
    for p in primes:
        big_p *= p
    pi = primes[i - 1]
    pi_sq = pi * pi
    allowed = [p for k, p in enumerate(primes) if k not in (i - 1, j - 1)]
    total = 0

    def extend(pos: int, t: int, factors: int) -> None:
        nonlocal total
        if t * t * pi_sq > big_p:
            total += 1 if factors % 2 == 0 else -1
        for idx in range(pos, len(allowed)):
            tq = t * allowed[idx]
            if tq * tq >= big_p:
                break  # ascending primes: every later product is larger
            extend(idx + 1, tq, factors + 1)

    extend(0, 1, 0)
    return -total if n % 2 else total


class TestPrimeAlpha:
    def test_small_examples(self):
        ex = prime_alpha(5)
        assert ex.primes == (2, 3, 5, 7, 11)
        assert ex.alpha.is_log
        assert ex.alpha.ratios() == [2, 3, 5, 7, 11]

    def test_range_checks(self):
        for bad in (2, 21):
            with pytest.raises(PreconditionError):
                prime_alpha(bad)

    def test_cap_respects_env(self, monkeypatch):
        monkeypatch.setenv("SIGNSUM_MAX_M", "6")
        with pytest.raises(PreconditionError):
            prime_alpha(7)


class TestMobiusSum:
    def test_frozen_small_values(self):
        assert mobius_sum(3, 1, 2) == 1
        assert mobius_sum(4, 1, 2) == 0
        assert mobius_sum(5, 1, 2) == -1
        assert mobius_sum(7, 3, 6) == 3

    def test_even_length_depends_on_larger_prime(self):
        # frozen slice of the length-6 table
        assert mobius_sum(6, 1, 2) == 2
        assert mobius_sum(6, 1, 4) == 0
        assert mobius_sum(6, 1, 6) == -2
        assert mobius_sum(6, 3, 6) == -2

    def test_index_validation(self):
        # the messages of PairSelection, like every other pair route
        with pytest.raises(PreconditionError, match="^pair indices must differ$"):
            mobius_sum(5, 2, 2)
        with pytest.raises(PreconditionError, match="^pair indices are 1-based$"):
            mobius_sum(5, 0, 2)
        with pytest.raises(
            PreconditionError, match="^pair index 6 exceeds vector length 5$"
        ):
            mobius_sum(5, 2, 6)

    def test_order_insensitive_arguments(self):
        assert mobius_sum(5, 3, 1) == mobius_sum(5, 1, 3)
        assert mobius_sum(6, 6, 3) == mobius_sum(6, 3, 6) == -2

    @pytest.mark.parametrize("n", range(3, 17))
    def test_window_count_matches_the_walk_on_every_pair(self, n):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert mobius_sum(n, i, j) == mobius_walk(n, i, j), (i, j)

    # spot pairs, large and small i among them, where the walk takes at
    # most about 50 ms: it visits every allowed product below sqrt(P)
    @pytest.mark.parametrize(
        "n,i,j",
        [
            (17, 1, 2), (17, 1, 17), (17, 2, 9), (17, 16, 17),
            (18, 1, 2), (18, 1, 18), (18, 2, 3), (18, 17, 18),
            (19, 1, 2), (19, 9, 18), (19, 18, 19),
            (20, 1, 2), (20, 1, 3), (20, 2, 3),
        ],
    )
    def test_window_count_matches_the_walk_at_large_n(self, n, i, j):
        assert mobius_sum(n, i, j) == mobius_walk(n, i, j)


class TestRouteAgreement:
    @pytest.mark.parametrize("n", range(3, 21))
    def test_all_pairs_agree(self, n):
        report = verify_prime_example(n)
        assert len(report.rows) == n * (n - 1) // 2
        for i, j, direct, via_mobius in report.rows:
            assert direct == via_mobius

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
    def test_odd_common_value(self, n):
        report = verify_prime_example(n)
        assert report.common == ODD_COMMON[n]
        assert report.by_larger is None

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_even_grouping(self, n):
        report = verify_prime_example(n)
        assert report.common is None
        for i, j, direct, _ in report.rows:
            assert report.by_larger[report.primes[j - 1]] == direct

    def test_direct_route_spot_check(self):
        ex = prime_alpha(7)
        assert signed_count(ex.alpha, PairSelection(2, 5)) == 3
        assert mobius_sum(7, 2, 5) == 3
