"""Integer approximation, kernel integrals, quadrature diagnostics."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from signsum import (
    AlphaVector,
    BetaApproximation,
    DegenerateVectorError,
    InternalCheckError,
    PairSelection,
    PreconditionError,
    approximate_beta,
    check_generic,
    count_solutions,
    exact_formula_value,
    integer_beta,
    integral_N_even,
    integral_N_odd,
    integral_count,
    kernel_pairing,
    kernel_pairing_quadrature,
    log_vector,
    minimum_gap,
    orient_pair,
    pair_invariants,
    prime_alpha,
    quadrature_check,
    rademacher,
    rational_vector,
    require_generic,
    signed_count,
)
from signsum.trig import (
    _PREC_CAP,
    _Q_CAP,
    _log_enclosure,
    _log_fixed,
)

from conftest import is_generic_values, random_generic_ints, random_generic_values


# ---------------------------------------------------------------------------
# Two oracles the library no longer ships: the dyadic-average identity
# behind the digit signs, and the explicit exponential expansion that the
# exact formulas sum implicitly.


def rademacher_product_identity_check(betas, x: float) -> bool:
    """Compare the dyadic-interval average with the sine-product form.

    The average of prod_k r_k(t) e^{i x sum_k b_k r_k(t)} over t in [0,1)
    is a finite sum because all k digit functions are constant on each of
    the 2^k dyadic subintervals; it must equal i^k prod_k sin(b_k x).
    """
    bs = [int(b) for b in betas]
    k = len(bs)
    if not 1 <= k <= 20:
        raise PreconditionError("between 1 and 20 components")
    if any(b < 1 for b in bs):
        raise PreconditionError("components must be positive integers")
    total = 0j
    for jmask in range(1 << k):
        dot = 0
        for pos in range(k):
            digit = (jmask >> (k - 1 - pos)) & 1
            dot += bs[pos] * (1 - 2 * digit)
        prod = -1 if jmask.bit_count() & 1 else 1
        total += prod * cmath.exp(1j * x * dot)
    lhs = total / (1 << k)
    rhs = 1j**k
    for b in bs:
        rhs *= math.sin(b * x)
    return abs(lhs - rhs) <= 1e-10


class ExponentialSum:
    """Integer-coefficient expansion of a product of sines and cosines.

    Represents scale * sum_s coeffs[s] * e^{isx} with scale equal to
    (-i)^sin_count / 2^(sin_count + cos_count).  Coefficients stay
    integers because each sine contributes e^{ibx} - e^{-ibx} and each
    cosine e^{ibx} + e^{-ibx}, the 1/(2i) and 1/2 factors being folded
    into the scale.  The dict holds up to 2^m frequencies, so this is a
    reference for small frequency sums; the exact formulas read the
    same signed total from half tables.
    """

    __slots__ = ("sin_count", "cos_count", "coeffs")

    def __init__(self, sin_freqs, cos_freqs):
        sin_fs = [int(b) for b in sin_freqs]
        cos_fs = [int(b) for b in cos_freqs]
        if any(b < 1 for b in sin_fs + cos_fs):
            raise PreconditionError("frequencies must be positive integers")
        cur = {0: 1}
        for b in sin_fs:
            nxt: dict[int, int] = {}
            for s, c in cur.items():
                nxt[s + b] = nxt.get(s + b, 0) + c
                nxt[s - b] = nxt.get(s - b, 0) - c
            cur = {s: c for s, c in nxt.items() if c}
        for b in cos_fs:
            nxt = {}
            for s, c in cur.items():
                nxt[s + b] = nxt.get(s + b, 0) + c
                nxt[s - b] = nxt.get(s - b, 0) + c
            cur = {s: c for s, c in nxt.items() if c}
        self.sin_count = len(sin_fs)
        self.cos_count = len(cos_fs)
        self.coeffs = cur

    def conjugate_symmetric(self) -> bool:
        """Coefficient symmetry forced by the integrand being real."""
        flip = -1 if self.sin_count % 2 else 1
        return all(
            self.coeffs.get(-s, 0) == flip * c for s, c in self.coeffs.items()
        )

    def signed_total(self) -> int:
        return sum(c * ((s > 0) - (s < 0)) for s, c in self.coeffs.items())

    def pairing_value(self) -> Fraction:
        """Pair every e^{isx} with i*sgn(s) and fold in the scale.

        Needs an odd sine count; then (-i)^a * i is the real number
        (-1)^((a-1)/2) and the whole pairing is rational.
        """
        a = self.sin_count
        if a % 2 == 0:
            raise PreconditionError("pairing needs an odd number of sine factors")
        factor = -1 if ((a - 1) // 2) % 2 else 1
        return Fraction(factor * self.signed_total(), 1 << (a + self.cos_count))


class TestRademacher:
    def test_first_period_of_r1(self):
        assert rademacher(1, Fraction(1, 4)) == 1
        assert rademacher(1, Fraction(3, 4)) == -1

    def test_digit_reading(self):
        # 5/16 = 0.0101 in binary: digits 0,1,0,1
        t = Fraction(5, 16)
        assert [rademacher(i, t) for i in (1, 2, 3, 4)] == [1, -1, 1, -1]

    def test_periodicity(self):
        t = Fraction(5, 16)
        assert rademacher(2, t) == rademacher(2, t + 3)

    def test_index_must_be_positive(self):
        with pytest.raises(PreconditionError):
            rademacher(0, Fraction(1, 2))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 256),
        st.fractions(max_denominator=10**6) | st.fractions(max_denominator=2**40),
    )
    @example(1, Fraction(1, 2))
    @example(3, Fraction(-3, 8))
    @example(256, Fraction(1, 3))
    def test_matches_the_power_of_two_formula(self, i, t):
        # the former formula, which builds 2^i
        t_frac = t - math.floor(t)
        digit = math.floor(t_frac * (1 << i)) & 1
        assert rademacher(i, t) == 1 - 2 * digit

    def test_huge_index(self):
        # 1/3 = 0.0101... in binary: even digits are 1; 2^i itself would
        # not fit in memory at i = 10^18
        assert rademacher(10**18, Fraction(1, 3)) == -1
        assert rademacher(10**18 + 1, Fraction(1, 3)) == 1

    def test_product_identity(self, rng):
        for _ in range(10):
            k = rng.randint(1, 5)
            betas = [rng.randint(1, 6) for _ in range(k)]
            x = rng.uniform(0.05, 0.9)
            assert rademacher_product_identity_check(betas, x)


class TestIntegerBeta:
    def test_plain_integers_pass_through(self):
        b = integer_beta([2, 3, 4])
        assert b.beta == (2, 3, 4) and b.q == 1

    def test_degenerate_rejected_with_witness(self):
        with pytest.raises(DegenerateVectorError) as exc:
            integer_beta([1, 2, 3])
        assert exc.value.witness.signs() == (1, 1, -1)

    def test_nonpositive_rejected(self):
        with pytest.raises(PreconditionError):
            integer_beta([0, 2, 5])

    @pytest.mark.parametrize(
        "call",
        [
            lambda b: exact_formula_value(b, "result"),
            lambda b: exact_formula_value(b, "result2", 1),
            integral_N_odd,
            lambda b: integral_count(b, 1),
            lambda b: quadrature_check(b, "result"),
        ],
        ids=["exact-result", "exact-result2", "N-odd", "count", "quadrature"],
    )
    def test_degenerate_beta_is_a_precondition(self, call):
        # built directly, so no integer_beta survey has refused it first
        beta = BetaApproximation((1, 2, 3), 1, 1)
        witness = check_generic(rational_vector([1, 2, 3])).witness
        with pytest.raises(DegenerateVectorError) as exc:
            call(beta)
        assert exc.value.witness == witness

    def test_degenerate_even_beta_is_a_precondition(self):
        beta = BetaApproximation((1, 2, 3, 4), 1, 1)
        with pytest.raises(DegenerateVectorError) as exc:
            integral_N_even(beta, 4)
        assert exc.value.witness == check_generic(rational_vector([1, 2, 3, 4])).witness


class TestApproximateBeta:
    def contract(self, alpha_vals, approx):
        m = len(alpha_vals)
        # closeness
        for a, b in zip(alpha_vals, approx.beta):
            assert abs(Fraction(b, 1) / approx.q - a) < approx.bound / m
        # ordering with ties
        for x in range(m):
            for y in range(m):
                if alpha_vals[x] < alpha_vals[y]:
                    assert approx.beta[x] <= approx.beta[y]
                if alpha_vals[x] == alpha_vals[y]:
                    assert approx.beta[x] == approx.beta[y]
        # exhaustive sign preservation
        import itertools

        for signs in itertools.product((1, -1), repeat=m):
            sa = sum(e * v for e, v in zip(signs, alpha_vals))
            sb = sum(e * b for e, b in zip(signs, approx.beta))
            assert (sa > 0) == (sb > 0) and (sa < 0) == (sb < 0)

    def test_plain_contract_random(self, rng):
        for _ in range(15):
            m = rng.randint(3, 6)
            vals = random_generic_values(rng, m)
            approx = approximate_beta(rational_vector(vals))
            self.contract(vals, approx)

    def test_tied_components_stay_tied(self):
        vals = [Fraction(7, 3), Fraction(7, 3), Fraction(9, 2)]
        assert is_generic_values(vals)
        approx = approximate_beta(rational_vector(vals))
        assert approx.beta[0] == approx.beta[1]

    def test_log_mode_certified(self):
        approx = approximate_beta(log_vector([2, 3, 5]))
        vals = [math.log(2), math.log(3), math.log(5)]
        # float cross-check only; the library's own check is exact
        for a, b in zip(vals, approx.beta):
            assert abs(b / float(approx.q) - a) < float(approx.bound) / 3
        import itertools

        for signs in itertools.product((1, -1), repeat=3):
            sa = sum(e * v for e, v in zip(signs, vals))
            sb = sum(e * b for e, b in zip(signs, approx.beta))
            assert (sa > 0) == (sb > 0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateVectorError):
            approximate_beta(log_vector([2, 3, 6]))


# ---------------------------------------------------------------------------
# Oracle for approximate_beta: the earlier search, one q-doubling loop per
# realization that asks mpmath again for every log component at every q.
# Its decisions are certified too, so both searches must return the same
# (beta, q, bound) and fail with the same error.


def _round_half_up(x: Fraction) -> int:
    """Nearest integer to x, ties upward."""
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def _order_preserved(keys, betas) -> bool:
    """Equal keys have equal betas and strictly ordered keys do not
    reverse, which the library's exact monotone rounding makes certain."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for a, b in zip(order, order[1:]):
        if keys[a] == keys[b]:
            if betas[a] != betas[b]:
                return False
        elif betas[a] > betas[b]:
            return False
    return True


def _certified_round(q: int, ratio: Fraction) -> int:
    """floor(q*log(ratio) + 1/2), certified by interval refinement.

    The rounding boundary is never hit: that would make log(ratio)
    rational, impossible for rational ratio != 1.  So refinement stops.
    """
    prec = 64
    while prec <= _PREC_CAP:
        lo, hi = _log_enclosure(ratio, prec)
        a = _round_half_up(q * lo)
        b = _round_half_up(q * hi)
        if a == b:
            return a
        prec *= 2
    raise InternalCheckError("rounding certification stalled")


def _log_closeness(ratios, betas, q: int, target: Fraction) -> bool:
    """Decide |b_k/q - log(r_k)| < target for every k, certified.

    Exact equality with the rational target cannot occur, so shrinking
    the enclosures settles each comparison in finitely many rounds.
    """
    prec = 64
    while prec <= _PREC_CAP:
        undecided = False
        for b, r in zip(betas, ratios):
            c = Fraction(b, q)
            lo, hi = _log_enclosure(r, prec)
            upper = max(abs(c - lo), abs(c - hi))
            if lo <= c <= hi:
                lower = Fraction(0)
            else:
                lower = min(abs(c - lo), abs(c - hi))
            if upper < target:
                continue
            if lower >= target:
                return False
            undecided = True
            break
        if not undecided:
            return True
        prec *= 2
    raise InternalCheckError("closeness certification stalled")


def _approximate_plain(alpha: AlphaVector) -> BetaApproximation:
    vals = alpha.ratios()
    m = alpha.m
    bound = minimum_gap(alpha)
    tol = bound / m
    q = 1
    while q <= _Q_CAP:
        betas = []
        ok = True
        for v in vals:
            sv = q * v
            b = _round_half_up(sv)
            if b < 1 or abs(Fraction(b, q) - v) >= tol:
                ok = False
                break
            betas.append(b)
        if ok and _order_preserved(vals, betas):
            return BetaApproximation(tuple(betas), Fraction(q), bound)
        q <<= 1
    raise InternalCheckError("scale search exceeded the safety cap")


def _approximate_log(alpha: AlphaVector) -> BetaApproximation:
    ratios = alpha.ratios()
    m = alpha.m
    gap_ratio = minimum_gap(alpha)  # smallest product ratio above 1
    prec = 64
    while True:
        mlo, mhi = _log_enclosure(gap_ratio, prec)
        if mlo > 0 and (mhi - mlo) * 16 < mhi:
            break
        prec *= 2
        if prec > _PREC_CAP:
            raise InternalCheckError("gap bound certification stalled")
    bound = mlo
    target = bound / m
    q = 1
    while q <= _Q_CAP:
        betas = [_certified_round(q, r) for r in ratios]
        if (
            min(betas) >= 1
            and _order_preserved(ratios, betas)
            and _log_closeness(ratios, betas, q, target)
        ):
            return BetaApproximation(tuple(betas), Fraction(q), bound)
        q <<= 1
    raise InternalCheckError("scale search exceeded the safety cap")


def _search_outcome(search, alpha):
    try:
        return tuple(search(alpha))
    except InternalCheckError as exc:
        return str(exc)


_numerators = st.one_of(st.integers(1, 10**6), st.integers(1, 10**18))
_denominators = st.one_of(st.integers(1, 100), st.integers(1, 10**18))


@st.composite
def _search_inputs(draw):
    """(values, is_log) of one of five shapes, m = 3-9 plain, 3-7 log."""
    kind = draw(st.sampled_from(("plain", "tied", "near-wall", "ratios", "primes")))
    if kind == "primes":
        m = draw(st.integers(3, 7))
        return list(draw(st.permutations(prime_alpha(20).primes))[:m]), True
    if kind == "ratios":  # log:p/q with q <= 9
        top = draw(st.sampled_from((1000, 10**18)))
        ratio = st.integers(2, 9).flatmap(
            lambda q: st.builds(Fraction, st.integers(q + 1, top), st.just(q))
        )
        return draw(st.lists(ratio, min_size=3, max_size=7)), True
    fracs = st.builds(Fraction, _numerators, _denominators)
    if kind == "plain":
        return draw(st.lists(fracs, min_size=3, max_size=9)), False
    if kind == "tied":
        vals = draw(st.lists(fracs, min_size=2, max_size=8))
        return vals + [vals[draw(st.integers(0, len(vals) - 1))]], False
    # one component a signed sum of the others plus 1/d, d <= 100
    rest = draw(st.lists(st.builds(Fraction, _numerators), min_size=2, max_size=8))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(rest),
                          max_size=len(rest)))
    near = abs(sum(e * v for e, v in zip(signs, rest)))
    return rest + [near + Fraction(1, draw(st.integers(2, 100)))], False


@settings(max_examples=250, deadline=None)
@given(_search_inputs())
@example(([Fraction(7, 3), Fraction(7, 3), Fraction(9, 2)], False))
@example(([2, 3, 5], True))
@example(([Fraction(7, 2), Fraction(9, 4), Fraction(5)], True))
# 2 * 3 = 6 up to a factor 1 + 10^-18: q near 2^62 needs 128-bit brackets
@example(([2, 3, Fraction(6 * 10**18 + 6, 10**18)], True))
# a 64-bit bracket cannot tell closeness at some q; refined, it fails
@example(([2, 7, Fraction(70000000000000000021, 5000000000000000000)], True))
# |beta_k/q - alpha_k| equals bound/m at some q: not close
@example(([Fraction(3, 2), 2, Fraction(17, 2), Fraction(22, 3)], False))
# gaps near 10^-30: both searches give up at the scale cap
@example(([2, 3, Fraction(6 * 10**30 + 6, 10**30)], True))
@example(([1, 2, Fraction(3 * 10**30 + 1, 10**30)], False))
def test_search_matches_the_earlier_search(inputs):
    values, is_log = inputs
    alpha = (log_vector if is_log else rational_vector)(values)
    try:
        require_generic(alpha)
    except DegenerateVectorError:
        assume(False)
    earlier = _approximate_log if is_log else _approximate_plain
    assert _search_outcome(approximate_beta, alpha) == _search_outcome(
        earlier, alpha
    )


def test_search_keeps_ties_and_order():
    """approximate_beta makes no order check: its exact rounding gives
    equal components equal betas and reverses no pair, also where two
    distinct components closer than gap/m round to one beta."""
    assert approximate_beta(rational_vector([Fraction(1001, 1000), 1, 3, 7])).beta == (
        1, 1, 3, 7
    )
    rng = random.Random(20)
    seen = {False: set(), True: set()}
    for i in range(300):
        is_log = i % 2 == 1
        m = rng.randint(3, 7)
        vals = [Fraction(rng.randint(2, 60), rng.randint(1, 9)) for _ in range(m)]
        if is_log:
            vals = [v if v > 1 else v + 2 for v in vals]
        kind = rng.choice(("tie", "near", "none"))
        if kind == "tie":
            vals.append(rng.choice(vals))
        elif kind == "near":
            vals.append(rng.choice(vals) * (1 + Fraction(1, 10 ** rng.randint(2, 6))))
        rng.shuffle(vals)
        alpha = (log_vector if is_log else rational_vector)(vals)
        try:
            require_generic(alpha)
        except DegenerateVectorError:
            continue
        keys, betas = alpha.ratios(), approximate_beta(alpha).beta
        assert _order_preserved(keys, betas), (vals, is_log, betas)
        pairs = [(x, y) for x in range(len(keys)) for y in range(x)]
        if any(keys[x] == keys[y] for x, y in pairs):
            seen[is_log].add("tie")
        if any(keys[x] != keys[y] and betas[x] == betas[y] for x, y in pairs):
            seen[is_log].add("shared")
    assert seen == {False: {"tie", "shared"}, True: {"tie", "shared"}}


@pytest.fixture
def enclosures(monkeypatch):
    """The (ratio, precision) of every enclosure the search computes."""
    from signsum import trig

    calls = []
    enclose = trig._log_enclosure

    def counting(ratio, prec):
        calls.append((ratio, prec))
        return enclose(ratio, prec)

    monkeypatch.setattr(trig, "_log_enclosure", counting)
    return calls


@pytest.mark.parametrize("m", range(3, 17))
def test_log_search_encloses_each_component_once(m, enclosures):
    approximate_beta(prime_alpha(m).alpha)
    assert len(enclosures) <= 2 * m


def test_plain_search_computes_no_enclosure(enclosures):
    approximate_beta(rational_vector([Fraction(7, 2), Fraction(9, 4), 5]))
    assert enclosures == []


# ---------------------------------------------------------------------------
# The integer log bracket against mpmath interval arithmetic at 4096 bits.

_REFERENCE_BITS = 4096


def _assert_certified(ratio, prec, ref_lo, ref_hi):
    """The fixed-point value is within its counted error of the reference
    bracket, [lo, hi] holds that bracket, its ends are dyadic with at
    most ``prec`` significant bits, and its width is within 2^(3 - prec)
    of |log(ratio)|."""
    a, b = ratio.numerator, ratio.denominator
    if a > b:
        v, err, bits = _log_fixed(a, b, prec)
        assert v - err <= ref_lo * 2**bits and ref_hi * 2**bits <= v + err, ratio
    else:
        v, err, bits = _log_fixed(b, a, prec)
        assert v - err <= -ref_hi * 2**bits and -ref_lo * 2**bits <= v + err, ratio
    lo, hi = _log_enclosure(ratio, prec)
    assert lo <= ref_lo and ref_hi <= hi, (ratio, prec)
    for end in (lo, hi):
        den = end.denominator
        assert den & (den - 1) == 0 and abs(end.numerator).bit_length() <= prec
    assert (hi - lo) * (1 << prec) <= 8 * min(abs(lo), abs(hi)), (ratio, prec)


def test_log_bracket_certified_against_mpmath():
    """2,400 ratios, each bracket at one of 64-2048 bits, hold mpmath's
    4096-bit interval: 1,600 products of prime powers (numerator and
    denominator up to about 10^60, the reference summed from 4096-bit
    prime logs), 400 ratios of random integers up to 10^60 and 400
    ratios within 10^-60 to 10^-1 of 1, on both sides of it."""
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.ctx_iv.MPIntervalContext()
    ctx.prec = _REFERENCE_BITS

    def ends(z):
        return tuple(Fraction(*mpmath.libmp.to_rational(e)) for e in z._mpi_)

    def direct(r):
        return ctx.log(ctx.mpf(r.numerator) / ctx.mpf(r.denominator))

    rng = random.Random(2400)
    precisions = (64, 128, 256, 512, 1024, 2048)
    primes = prime_alpha(20).primes
    prime_logs = {p: ctx.log(p) for p in primes}
    for case in range(1600):
        chosen = rng.sample(primes, rng.randint(1, 8))
        powers = {p: rng.randint(-8, 8) for p in chosen}
        ratio = Fraction(math.prod(Fraction(p) ** e for p, e in powers.items()))
        if ratio == 1:
            continue
        ref = sum((e * prime_logs[p] for p, e in powers.items()), ctx.mpf(0))
        _assert_certified(ratio, precisions[case % 6], *ends(ref))
    for case in range(800):
        if case % 2:
            ratio = Fraction(rng.randint(1, 10**60), rng.randint(1, 10**60))
        else:
            k = rng.randint(1, 60)
            ratio = Fraction(10**k + rng.choice((-1, 1)) * rng.randint(1, 10**6), 10**k)
        if ratio <= 0 or ratio == 1:
            continue
        _assert_certified(ratio, precisions[case % 6], *ends(direct(ratio)))


def test_log_bracket_at_the_precision_cap():
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.ctx_iv.MPIntervalContext()
    ctx.prec = _PREC_CAP + 64
    ratio = Fraction(10**60 + 7, 999983)
    z = ctx.log(ctx.mpf(ratio.numerator) / ctx.mpf(ratio.denominator))
    ref_lo, ref_hi = (Fraction(*mpmath.libmp.to_rational(e)) for e in z._mpi_)
    _assert_certified(ratio, _PREC_CAP, ref_lo, ref_hi)


@pytest.mark.parametrize(
    "beta,message",
    [
        # 4,000,120 nodes against the 3,000,000 budget
        ((1000003, 1000033, 1000037, 1000039, 7), "evaluation budget"),
        # 2^28 times a rounding error over S = 150,465 reaches about 2.5
        (tuple(range(5001, 5031)), "rounding bound"),
    ],
    ids=["budget", "rounding"],
)
def test_quadrature_refused_before_the_exact_value(
    beta, message, no_tables, integrand_calls
):
    with pytest.raises(PreconditionError, match=message):
        quadrature_check(BetaApproximation(beta, 1, 1), "result")
    assert integrand_calls == []


def test_log_bracket_signs_and_unit_ratio():
    lo, hi = _log_enclosure(Fraction(3, 2), 64)
    assert _log_enclosure(Fraction(2, 3), 64) == (-hi, -lo)
    assert _log_enclosure(Fraction(5, 5), 64) == (0, 0)


class TestExponentialSum:
    def test_conjugate_symmetric(self, rng):
        for _ in range(5):
            a = rng.randint(1, 3)
            c = rng.randint(0, 3)
            es = ExponentialSum(
                [rng.randint(1, 9) for _ in range(a)],
                [rng.randint(1, 9) for _ in range(c)],
            )
            assert es.conjugate_symmetric()

    def test_pairing_needs_odd_sine_count(self):
        es = ExponentialSum([2, 3], [4])
        with pytest.raises(PreconditionError):
            es.pairing_value()

    def test_single_sine(self):
        # sin(sx) pairs to 1 for positive s
        es = ExponentialSum([5], [])
        assert es.pairing_value() == 1


class TestKernelPairing:
    def test_sign_values(self):
        assert kernel_pairing(7) == 1
        assert kernel_pairing(-7) == -1
        assert kernel_pairing(0) == 0

    def test_oddness(self):
        for s in range(-20, 21):
            assert kernel_pairing(-s) == -kernel_pairing(s)

    def test_quadrature_small_range(self):
        for s in range(-500, 501):
            res = kernel_pairing_quadrature(s, 1e-8)
            assert res.agree, (s, res.numeric, res.exact)

    def test_quadrature_catches_a_wrong_pairing(self, monkeypatch):
        import signsum.trig as trig

        for wrong, s in ((lambda s: (s < 0) - (s > 0), 3), (lambda s: 0, -7)):
            monkeypatch.setattr(trig, "kernel_pairing", wrong)
            assert not trig.kernel_pairing_quadrature(s, 1e-8).agree, s


class TestIntegralFormulas:
    def test_frozen_odd(self):
        assert integral_N_odd(integer_beta([2, 3, 4])) == 1
        assert integral_N_odd(integer_beta([4, 6, 7, 9, 11])) == -2

    def test_frozen_even(self):
        b = integer_beta([2, 3, 4, 8])
        assert integral_N_even(b, 4) == 1
        assert integral_N_even(b, 2) == -1
        assert integral_count(b, 1) == 1

    def test_odd_matches_enumeration(self, rng):
        for _ in range(10):
            m = rng.choice([3, 5, 7])
            ints = random_generic_ints(rng, m)
            v = rational_vector(ints)
            assert integral_N_odd(integer_beta(ints)) == signed_count(
                v, PairSelection(1, 2)
            )

    def test_even_matches_enumeration(self, rng):
        for _ in range(10):
            m = rng.choice([4, 6])
            ints = random_generic_ints(rng, m)
            v = rational_vector(ints)
            b = integer_beta(ints)
            i = rng.randint(1, m - 1)
            j = rng.randint(i + 1, m)
            p = PairSelection(i, j)
            small, large = orient_pair(v, p)
            assert integral_N_even(b, large + 1) == signed_count(v, p)
            assert integral_count(b, small + 1) == count_solutions(v, p)

    def test_parity_preconditions(self):
        with pytest.raises(PreconditionError):
            integral_N_odd(integer_beta([2, 3, 4, 8]))
        with pytest.raises(PreconditionError):
            integral_N_even(integer_beta([2, 3, 4]), 2)

    def test_member_validation(self):
        b = integer_beta([2, 3, 4, 8])
        with pytest.raises(PreconditionError):
            integral_N_even(b, 1)  # global minimum cannot be the larger member
        with pytest.raises(PreconditionError):
            integral_count(b, 4)  # global maximum cannot be the smaller member

    def test_exact_formula_value_dispatch(self):
        b3 = integer_beta([2, 3, 4])
        b4 = integer_beta([2, 3, 4, 8])
        assert exact_formula_value(b3, "result") == 1
        assert exact_formula_value(b4, "result") == 0
        assert exact_formula_value(b4, "result1", 4) == 1
        assert exact_formula_value(b4, "result2", 1) == 1
        with pytest.raises(PreconditionError):
            exact_formula_value(b4, "result1")
        with pytest.raises(PreconditionError):
            exact_formula_value(b4, "nope")


class TestQuadrature:
    def test_result_odd(self):
        res = quadrature_check(integer_beta([2, 3, 4]), "result", 1e-8)
        assert res.agree and res.exact == 1

    def test_result_even_is_zero_both_ways(self):
        res = quadrature_check(integer_beta([2, 3, 4, 8]), "result", 1e-8)
        assert res.exact == 0
        assert res.agree and abs(res.numeric) < 1e-8

    def test_result1_and_result2(self):
        b = integer_beta([2, 3, 4, 8])
        r1 = quadrature_check(b, "result1", 1e-8, 4)
        assert r1.agree and r1.exact == 1
        r2 = quadrature_check(b, "result2", 1e-8, 1)
        assert r2.agree and r2.exact == 1

    def test_tolerance_validated(self):
        with pytest.raises(PreconditionError):
            quadrature_check(integer_beta([2, 3, 4]), "result", 0.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 1000), min_size=3, max_size=12), st.data())
@example([2, 3, 4], None)
@example([2, 3, 4, 8], None)
@example([920, 943, 926, 907, 973, 925, 909, 965, 987, 943, 987, 951], None)
def test_quadrature_agrees_on_generic_beta(betas, data):
    """Every formula, both parities of m: the midpoint rule on sum + 1
    nodes matches the exact value to 1e-8."""
    try:
        beta = integer_beta(betas)
    except DegenerateVectorError:
        assume(False)
    m = beta.m

    def pick(valid):
        ks = [k for k in range(1, m + 1) if valid(k)]
        return ks[0] if data is None else data.draw(st.sampled_from(ks))

    checks = [("result", None)]
    # result2 needs the smaller member of a pair, result1 the larger
    checks.append(("result2", pick(lambda k: betas[k - 1] <= max(
        b for p, b in enumerate(betas) if p != k - 1))))
    if m % 2 == 0:
        checks.append(("result1", pick(lambda k: betas[k - 1] >= min(
            b for p, b in enumerate(betas) if p != k - 1))))
    for formula, index in checks:
        res = quadrature_check(beta, formula, 1e-8, index)
        assert res.exact == exact_formula_value(beta, formula, index)
        assert res.agree, (betas, formula, index, res.numeric, res.exact)


def test_window_forms_cross_check():
    from signsum._halves import HalfTables
    from signsum.trig import _check_window_forms

    _check_window_forms(HalfTables((2, 3, 4)), 1)
    with pytest.raises(InternalCheckError):
        _check_window_forms(HalfTables((2, 3, 4)), 2)


def test_window_forms_refuse_a_partial_sum_on_the_edge():
    from signsum._halves import HalfTables
    from signsum.trig import _check_window_forms

    # 1 + 2 - 3 = 0: the partial sums over (1, 2) reach -3 and 3
    for value in range(-4, 5):
        with pytest.raises(InternalCheckError):
            _check_window_forms(HalfTables((1, 2, 3)), value)


def _random_generic_beta(rng, m, lo, hi):
    while True:
        try:
            return integer_beta([rng.randint(lo, hi) for _ in range(m)])
        except DegenerateVectorError:
            continue


def test_window_forms_cross_check_at_m20():
    from signsum._halves import HalfTables
    from signsum.trig import _check_window_forms

    tables = HalfTables(_random_generic_beta(random.Random(20), 20, 10**5, 10**6).beta)
    _check_window_forms(tables, 0)  # even length: the kernel value is 0
    with pytest.raises(InternalCheckError):
        _check_window_forms(tables, 1)


# (seed, m, entry range, formula): correct values whose numeric side is
# off by 3.2e-7, 2.8e-8 and 3.0e-6, above the 1e-8 tolerance but inside
# the rounding bound 2^(m-2) eps (...) of ``quadrature_check``, which is
# 0.032, 0.0032 and 0.22 here.
LARGE_M_QUADRATURES = [
    (24, 24, (1000, 10000), "result2"),
    (25, 24, (100, 1000), "result2"),
    (30, 30, (100, 1000), "result2"),
]


def _large_m_check(seed, m, entries, formula):
    beta = _random_generic_beta(random.Random(seed), m, *entries)
    index = None
    if formula == "result2":  # the global minimum is the smaller member of a pair
        index = min(range(m), key=beta.beta.__getitem__) + 1
    return beta, index, quadrature_check(beta, formula, 1e-8, index)


@pytest.mark.parametrize("case", LARGE_M_QUADRATURES, ids=lambda c: f"m{c[1]}-{c[0]}")
def test_quadrature_agrees_at_large_m(case):
    beta, index, res = _large_m_check(*case)
    assert res.exact == exact_formula_value(beta, case[3], index)
    assert abs(res.numeric - res.exact) > 1e-8  # the plain tolerance would fail
    assert res.agree


def test_quadrature_refused_once_rounding_reaches_one_half(integrand_calls):
    # m = 30 with entries 1000-10000: a rounding bound of 2.78, which no
    # longer tells a wrong integer from the right one
    with pytest.raises(PreconditionError, match="rounding bound 2.78 reaches 1/2"):
        _large_m_check(31, 30, (1000, 10000), "result")
    assert integrand_calls == []


def test_quadrature_at_large_m_catches_an_off_by_one(monkeypatch):
    import signsum.trig as trig

    exact = trig.exact_formula_value
    monkeypatch.setattr(trig, "exact_formula_value", lambda *a: exact(*a) + 1)
    _, _, res = _large_m_check(*LARGE_M_QUADRATURES[2])
    assert not res.agree


# ---------------------------------------------------------------------------
# The exact formulas against the exponential expansion they replaced.


def _expansion_value(betas, formula, index=None):
    """The kernel value from ``ExponentialSum``, prefactors as first stated."""
    m = len(betas)
    if formula == "result":
        es = ExponentialSum(betas, ())
        if m % 2 == 0:
            assert es.signed_total() == 0
            return 0
        pref = (-1 if ((m + 1) // 2) % 2 else 1) * (1 << (m - 2))
    elif formula == "result1":
        others = [b for k, b in enumerate(betas) if k != index - 1]
        es = ExponentialSum(others, (betas[index - 1],))
        pref = (-1 if (m // 2 - 1) % 2 else 1) * (1 << (m - 2))
    else:
        others = [b for k, b in enumerate(betas) if k != index - 1]
        es = ExponentialSum((betas[index - 1],), others)
        pref = 1 << (m - 2)
    value = pref * es.pairing_value()
    assert value.denominator == 1
    return int(value)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=3, max_size=9), st.data())
def test_exact_formulas_match_the_expansion(betas, data):
    try:
        beta = integer_beta(betas)
    except DegenerateVectorError:
        assume(False)
    m = beta.m
    assert exact_formula_value(beta, "result") == _expansion_value(betas, "result")
    if m % 2:
        assert integral_N_odd(beta) == _expansion_value(betas, "result")
    k = data.draw(st.integers(1, m))
    if betas[k - 1] <= max(b for p, b in enumerate(betas) if p != k - 1):
        expected = _expansion_value(betas, "result2", k)
        assert integral_count(beta, k) == expected
        assert exact_formula_value(beta, "result2", k) == expected
    if m % 2 == 0 and m >= 4:
        if betas[k - 1] >= min(b for p, b in enumerate(betas) if p != k - 1):
            expected = _expansion_value(betas, "result1", k)
            assert integral_N_even(beta, k) == expected
            assert exact_formula_value(beta, "result1", k) == expected


@pytest.mark.parametrize("m", [29, 30])
def test_integral_at_the_cap_matches_the_pair_scan(m):
    from signsum.cli import run

    ints = _random_generic_beta(random.Random(m), m, 10**8, 10**9 - 1).beta
    beta_arg = ",".join(map(str, ints))
    v = rational_vector(ints)
    pair = PairSelection(1, 2)
    row = pair_invariants(v, pair)
    small, large = orient_pair(v, pair)
    requests = [(["--formula", "result"], row.signed if m % 2 else 0)]
    if m % 2 == 0:
        requests += [
            (["--formula", "result1", "--pair-index", str(large + 1)], row.signed),
            (["--formula", "result2", "--pair-index", str(small + 1)], row.count),
        ]
    for argv, expected in requests:
        result = run(["integral", "--beta", beta_arg, *argv])
        assert result.exit_code == 0, result.error
        assert result.outputs["exact"] == expected
