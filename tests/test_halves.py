"""The half-table kernel against the exhaustive walks it replaced.

The functions under "Oracles" are the library's earlier 2^n walks, kept
verbatim (only the thread pool of ``_merge_chunks`` is gone), so every
route through the kernel is compared with an independent enumeration:
pair scans, the genericity survey, the sign-sum closed forms,
``integer_beta`` and the sign preservation of ``approximate_beta``.  The
last section compares each vector's one cached, restricted table with
the tables the library used to build per pair and per pinned coordinate.
"""

import math
import random
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from signsum import (
    BetaApproximation,
    DegenerateVectorError,
    InternalCheckError,
    PairInvariants,
    PairSelection,
    SignVector,
    approximate_beta,
    check_generic,
    closed_form_g,
    count_solutions,
    count_via_sign_sum,
    enumerate_solutions,
    extended_signed_count,
    integer_beta,
    log_vector,
    minimum_gap,
    orient_pair,
    pair_invariants,
    parity,
    rational_vector,
    signed_count,
    signed_count_even_via_sign_sum,
    zero_sum_masks,
)
from signsum._halves import (
    HalfTables,
    _log_moves,
    _plain_moves,
    _table,
    coordinates,
    first_zero,
)
from signsum.cli import run
from signsum.core import _half_sign_sum
from signsum.invariants import _rest_positions

from conftest import random_generic_values


# ---------------------------------------------------------------------------
# Oracles: the exhaustive walks, as the library had them.

# one walk: the count, the signed count, the extended count (0 without an
# extra sign) and the sorted solution masks (None when not materialized)
WalkScan = namedtuple("WalkScan", "count signed extended masks")


def _gray_walk(vals):
    """Yield (mask, total) over every sign mask of ``vals``.

    Starts from the all-plus assignment and flips one coordinate per step
    (Gray order), so each update costs one addition.  Mask bit k set means
    entry k is subtracted.
    """
    total = sum(vals)
    mask = 0
    yield 0, total
    for t in range(1, 1 << len(vals)):
        b = (t & -t).bit_length() - 1
        bit = 1 << b
        mask ^= bit
        if mask & bit:
            total -= 2 * vals[b]
        else:
            total += 2 * vals[b]
        yield mask, total


def _product_walk(ratios):
    """Yield (mask, x, y) over all sign masks of the log arguments.

    The signed sum of logs equals log(x/y) where x collects numerators on
    +1 coordinates and denominators on -1 coordinates, and y the reverse.
    """
    nums = [r.numerator for r in ratios]
    dens = [r.denominator for r in ratios]
    n = len(ratios)
    stack = [(0, 0, 1, 1)]
    while stack:
        pos, mask, x, y = stack.pop()
        if pos == n:
            yield mask, x, y
            continue
        stack.append((pos + 1, mask | (1 << pos), x * dens[pos], y * nums[pos]))
        stack.append((pos + 1, mask, x * nums[pos], y * dens[pos]))


def _survey(alpha):
    """Scan all signed sums with coordinate 1 fixed to +1.

    Returns (zero_masks, gap): the full-length bitmasks of vanishing sums
    (bit 0 clear, one representative per negation class), and the closest
    nonzero approach to zero.  The gap is min |sum| as a Fraction in the
    plain realization; in the log realization it is the smallest product
    ratio above 1, so the actual minimum is its logarithm.
    """
    m = alpha.m
    zeros = []
    if alpha.is_log:
        best = None  # (x, y) with x > y minimizing x/y
        first = alpha.components[0].ratio
        n0, d0 = first.numerator, first.denominator
        for mask, x, y in _product_walk([c.ratio for c in alpha.components[1:]]):
            x, y = x * n0, y * d0
            if x == y:
                zeros.append(mask << 1)
                continue
            if x < y:
                x, y = y, x
            if best is None or x * best[1] < best[0] * y:
                best = (x, y)
        gap = Fraction(best[0], best[1])
    else:
        den = math.lcm(*[c.ratio.denominator for c in alpha.components])
        ints = [int(c.ratio * den) for c in alpha.components]
        a0, rest = ints[0], ints[1:]
        best = None
        for mask, total in _gray_walk(rest):
            s = a0 + total
            if s == 0:
                zeros.append(mask << 1)
                continue
            s = -s if s < 0 else s
            if best is None or s < best:
                best = s
        gap = Fraction(best, den)
    zeros.sort()
    return zeros, gap


def _scan_rational(alpha, i0, j0, materialize, h1):
    den = math.lcm(*[c.ratio.denominator for c in alpha.components])
    ints = [int(c.ratio * den) for c in alpha.components]
    rest = [ints[pos] for pos in _rest_positions(alpha.m, i0, j0)]
    lo_bound = abs(ints[i0] - ints[j0])
    hi_bound = ints[i0] + ints[j0]
    m2 = len(rest)
    total = 1 << m2

    def run(t_lo, t_hi):
        mask = t_lo ^ (t_lo >> 1)
        s = sum(-v if (mask >> k) & 1 else v for k, v in enumerate(rest))
        count = signed = ext = 0
        masks = [] if materialize else None
        t = t_lo
        while t < t_hi:
            if t != t_lo:
                b = (t & -t).bit_length() - 1
                bit = 1 << b
                mask ^= bit
                if mask & bit:
                    s -= 2 * rest[b]
                else:
                    s += 2 * rest[b]
            if lo_bound < s < hi_bound:
                prod = -1 if mask.bit_count() & 1 else 1
                count += 1
                signed += prod
                if h1 is not None:
                    ext += -prod if (mask >> h1) & 1 else prod
                if masks is not None:
                    masks.append(mask)
            elif s == lo_bound or s == hi_bound:
                raise InternalCheckError(
                    "boundary equality on a generic vector"
                )
            t += 1
        return count, signed, ext, masks

    return _merge_chunks(run, total, materialize)


def _scan_log(alpha, i0, j0, materialize, h1):
    ratios = alpha.ratios()
    rest_pos = _rest_positions(alpha.m, i0, j0)
    nums = [ratios[p].numerator for p in rest_pos]
    dens = [ratios[p].denominator for p in rest_pos]
    ui, uj = ratios[i0], ratios[j0]
    lo = max(ui, uj) / min(ui, uj)
    hi = ui * uj
    lo_n, lo_d = lo.numerator, lo.denominator
    hi_n, hi_d = hi.numerator, hi.denominator
    m2 = len(rest_pos)
    total = 1 << m2
    full = total - 1

    # Subset-product tables: one big-integer multiply per entry.  The
    # denominator table is skipped when every argument is an integer.
    pn = [1] * total
    for s in range(1, total):
        low = (s & -s).bit_length() - 1
        pn[s] = pn[s & (s - 1)] * nums[low]
    if all(d == 1 for d in dens):
        pd = None
    else:
        pd = [1] * total
        for s in range(1, total):
            low = (s & -s).bit_length() - 1
            pd[s] = pd[s & (s - 1)] * dens[low]

    def run(lo_mask, hi_mask):
        count = signed = ext = 0
        masks = [] if materialize else None
        for mask in range(lo_mask, hi_mask):
            comp = full ^ mask
            if pd is None:
                x = pn[comp]
                y = pn[mask]
            else:
                x = pn[comp] * pd[mask]
                y = pd[comp] * pn[mask]
            # membership: lo < x/y < hi, decided by cross-multiplication
            a = x * lo_d
            b = y * lo_n
            if a > b:
                c = x * hi_d
                d = y * hi_n
                if c < d:
                    prod = -1 if mask.bit_count() & 1 else 1
                    count += 1
                    signed += prod
                    if h1 is not None:
                        ext += -prod if (mask >> h1) & 1 else prod
                    if masks is not None:
                        masks.append(mask)
                elif c == d:
                    raise InternalCheckError(
                        "boundary equality on a generic vector"
                    )
            elif a == b:
                raise InternalCheckError("boundary equality on a generic vector")
        return count, signed, ext, masks

    return _merge_chunks(run, total, materialize)


def _merge_chunks(run, total, materialize):
    count, signed, ext, masks = run(0, total)
    if masks is not None:
        masks = tuple(sorted(masks))
    return WalkScan(count, signed, ext, masks)


def _half_sign_terms(alpha, fixed_pos: int):
    """Yield (full_mask, sign) over sign vectors with ``fixed_pos`` at +1.

    full_mask is an m-bit mask with the fixed bit clear; sign is the exact
    sign of the signed sum.  Exactly 2^(m-1) terms.
    """
    m = alpha.m
    free = [pos for pos in range(m) if pos != fixed_pos]
    if alpha.is_log:
        fixed = alpha.components[fixed_pos].ratio
        n0, d0 = fixed.numerator, fixed.denominator
        for mask, x, y in _product_walk([alpha.components[p].ratio for p in free]):
            x, y = x * n0, y * d0
            full = 0
            for k, pos in enumerate(free):
                if (mask >> k) & 1:
                    full |= 1 << pos
            yield full, (x > y) - (x < y)
    else:
        den = math.lcm(*[c.ratio.denominator for c in alpha.components])
        ints = [int(c.ratio * den) for c in alpha.components]
        base = ints[fixed_pos]
        rest = [ints[p] for p in free]
        for mask, total in _gray_walk(rest):
            s = base + total
            full = 0
            for k, pos in enumerate(free):
                if (mask >> k) & 1:
                    full |= 1 << pos
            yield full, (s > 0) - (s < 0)


def integer_beta_walk(values) -> BetaApproximation:
    """``integer_beta`` by a full walk, validation omitted: a degenerate
    vector is reported with its smallest vanishing mask."""
    bs = tuple(int(v) for v in values)
    best = None
    zeros = []
    for mask, total in _gray_walk(list(bs)):
        if mask & 1:
            continue  # one representative per negation class
        if total == 0:
            zeros.append(mask)
            continue
        a = -total if total < 0 else total
        if best is None or a < best:
            best = a
    if zeros:
        raise DegenerateVectorError(
            "vector has a vanishing signed sum", SignVector(len(bs), min(zeros))
        )
    return BetaApproximation(bs, Fraction(1), Fraction(best))


def _signs_preserved_plain(vals, betas) -> bool:
    den = math.lcm(*(v.denominator for v in vals))
    ints = [int(v * den) for v in vals]
    for (_, ta), (_, tb) in zip(_gray_walk(ints), _gray_walk(list(betas))):
        if (ta > 0) - (ta < 0) != (tb > 0) - (tb < 0):
            return False
    return True


def _signs_preserved_log(ratios, betas) -> bool:
    """Compare every signed-sum sign of log components against the ints.

    The sign of a signed sum of logs is the sign of log(x/y) for the
    cross-multiplied products x and y, decided in big integers.  Subset
    products are tabulated once; the beta side rides a Gray-code walk.
    """
    m = len(ratios)
    nums = [r.numerator for r in ratios]
    dens = [r.denominator for r in ratios]
    pn = [1] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        pn[mask] = pn[mask ^ low] * nums[low.bit_length() - 1]
    pd = None
    if any(d != 1 for d in dens):
        pd = [1] * (1 << m)
        for mask in range(1, 1 << m):
            low = mask & -mask
            pd[mask] = pd[mask ^ low] * dens[low.bit_length() - 1]
    full = (1 << m) - 1
    for mask, tb in _gray_walk(list(betas)):
        comp = full ^ mask
        if pd is None:
            x, y = pn[comp], pn[mask]
        else:
            x, y = pn[comp] * pd[mask], pn[mask] * pd[comp]
        sa = (x > y) - (x < y)
        if sa == 0:
            raise InternalCheckError("generic vector produced a zero signed sum")
        if sa != (tb > 0) - (tb < 0):
            return False
    return True


# Closed-form routes on the oracle terms, as the library computed them.


def closed_form_g_oracle(alpha):
    if alpha.m % 2 == 0:
        return 0
    total = 0
    for full, sign in _half_sign_terms(alpha, 0):
        prod = -1 if full.bit_count() & 1 else 1
        total += sign * prod
    return -total // 2


def count_via_sign_sum_oracle(alpha, pair):
    small, _ = orient_pair(alpha, pair)
    return sum(sign for _, sign in _half_sign_terms(alpha, small)) // 2


def signed_count_even_oracle(alpha, pair):
    _, large = orient_pair(alpha, pair)
    total = 0
    for full, sign in _half_sign_terms(alpha, 0):
        prod = -1 if full.bit_count() & 1 else 1
        ej = -1 if (full >> large) & 1 else 1
        total += ej * sign * prod
    return total // 2


# ---------------------------------------------------------------------------
# Inputs.  Small values make degenerate vectors common; big ones stress the
# integer arithmetic (numerators up to 10^18, denominators up to 10^6).

_small_plain = st.fractions(min_value=Fraction(1, 4), max_value=12, max_denominator=4)
_big_plain = st.builds(
    Fraction, st.integers(1, 10**18), st.integers(1, 10**6)
)
_small_log = st.builds(
    lambda d, e: Fraction(d + e, d), st.integers(1, 3), st.integers(1, 9)
)
_big_log = st.builds(
    lambda d, e: Fraction(d + e, d), st.integers(1, 10**6), st.integers(1, 10**18)
)


def _vectors(min_size, max_size):
    """Plain or log vectors; m - 2 in {1, 2, 3} gives the uneven splits."""
    plain = st.lists(
        st.one_of(_small_plain, _big_plain), min_size=min_size, max_size=max_size
    ).map(rational_vector)
    ints = st.lists(
        st.integers(1, 7), min_size=min_size, max_size=max_size
    ).map(rational_vector)
    logs = st.lists(
        st.one_of(_small_log, _big_log), min_size=min_size, max_size=max_size
    ).map(log_vector)
    return st.one_of(plain, ints, logs)


def _outcome(fn, *args):
    """Result of a call, or the error type and witness mask it raised."""
    try:
        return "ok", fn(*args)
    except DegenerateVectorError as exc:
        return "degenerate", exc.witness.bits, exc.witness.length
    except InternalCheckError as exc:
        return "internal", str(exc)


def _generic_by_oracle(alpha):
    return not _survey(alpha)[0]


def _pair_and_extra(data, m):
    i, j = sorted(data.draw(st.lists(st.integers(1, m), min_size=2, max_size=2, unique=True)))
    others = [k for k in range(1, m + 1) if k not in (i, j)]
    return PairSelection(i, j), data.draw(st.sampled_from(others))


def _check_scans(alpha, pair, h):
    i0, j0 = pair.i - 1, pair.j - 1
    if not _generic_by_oracle(alpha):
        witness = _survey(alpha)[0][0]
        for fn in (count_solutions, signed_count, parity, enumerate_solutions):
            assert _outcome(fn, alpha, pair) == ("degenerate", witness, alpha.m)
        if alpha.m >= 4:
            assert _outcome(extended_signed_count, alpha, pair, h) == (
                "degenerate", witness, alpha.m
            )
        return
    walk = _scan_log if alpha.is_log else _scan_rational
    rest = _rest_positions(alpha.m, i0, j0)
    h1 = rest.index(h - 1) if alpha.m >= 4 else None
    expected = walk(alpha, i0, j0, True, h1)
    assert count_solutions(alpha, pair) == expected.count
    assert signed_count(alpha, pair) == expected.signed
    assert parity(alpha, pair) == expected.count & 1
    sols = enumerate_solutions(alpha, pair).solutions
    assert tuple(sv.bits for sv in sols) == expected.masks
    if h1 is not None:
        assert extended_signed_count(alpha, pair, h) == expected.extended


def _check_survey(alpha):
    zeros, gap = _survey(alpha)
    assert list(zero_sum_masks(alpha)) == zeros
    assert minimum_gap(alpha) == gap
    report = check_generic(alpha)
    assert report.generic == (not zeros)
    if zeros:
        assert report.witness.bits == zeros[0]


def _check_closed_forms(alpha, pair):
    if not _generic_by_oracle(alpha):
        for fn, args in (
            (closed_form_g, (alpha,)),
            (count_via_sign_sum, (alpha, pair)),
        ):
            assert _outcome(fn, *args)[0] == "degenerate"
        return
    assert closed_form_g(alpha) == closed_form_g_oracle(alpha)
    assert count_via_sign_sum(alpha, pair) == count_via_sign_sum_oracle(alpha, pair)
    if alpha.m % 2 == 0:
        assert signed_count_even_via_sign_sum(alpha, pair) == (
            signed_count_even_oracle(alpha, pair)
        )


# ---------------------------------------------------------------------------
# Kernel against oracles.


@settings(max_examples=150, deadline=None)
@given(_vectors(3, 9), st.data())
def test_pair_scans_match_walks(alpha, data):
    pair, h = _pair_and_extra(data, alpha.m)
    _check_scans(alpha, pair, h)


@pytest.mark.parametrize("is_log", [False, True], ids=["plain", "log"])
@pytest.mark.parametrize("m", range(4, 13))
def test_extended_count_matches_walk_without_a_window(m, is_log, monkeypatch):
    """The extended count is a sign sum: with the pair window gone it
    still equals the walk on every pair and extra index."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the extended count opened a pair window")

    monkeypatch.setattr(HalfTables, "window", forbidden)
    rng = random.Random(m)
    while True:
        if is_log:
            draws = [(rng.randint(1, 3), rng.randint(1, 9)) for _ in range(m)]
            alpha = log_vector([Fraction(d + e, d) for d, e in draws])
        else:
            alpha = rational_vector(random_generic_values(rng, m))
        if _generic_by_oracle(alpha):
            break
    walk = _scan_log if is_log else _scan_rational
    for pair in _pairs(m):
        i0, j0 = pair.i - 1, pair.j - 1
        for h1, pos in enumerate(_rest_positions(m, i0, j0)):
            expected = walk(alpha, i0, j0, False, h1).extended
            assert extended_signed_count(alpha, pair, pos + 1) == expected


@settings(max_examples=150, deadline=None)
@given(_vectors(1, 9))
@example(rational_vector([5]))
@example(rational_vector([1, 2, 3]))
@example(rational_vector([Fraction(7, 2), Fraction(9, 4), 5]))
@example(log_vector([2, 3]))
@example(log_vector([3, 2, 7]))
@example(log_vector([2, 3, 6]))
@example(log_vector(["7/2", "9/4", "5/3", 11]))
def test_survey_matches_walk(alpha):
    _check_survey(alpha)


@settings(max_examples=120, deadline=None)
@given(_vectors(3, 9), st.data())
def test_closed_forms_match_walks(alpha, data):
    pair, _ = _pair_and_extra(data, alpha.m)
    _check_closed_forms(alpha, pair)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(1, 9), st.integers(1, 10**18)), min_size=1, max_size=10
    )
)
def test_integer_beta_matches_walk(values):
    got = _outcome(integer_beta, values)
    assert got == _outcome(integer_beta_walk, values)


def test_integer_beta_witness_is_the_smallest_vanishing_mask():
    # 1-2+2-1 (0b1010) and 1+2-2-1 (0b1100) vanish; a Gray-order walk
    # meets 0b1100 first, but the witness is the smaller mask, as in core
    values = [1, 2, 2, 1]
    with pytest.raises(DegenerateVectorError) as exc:
        integer_beta(values)
    assert exc.value.witness.bits == 0b1010
    assert exc.value.witness.bits == zero_sum_masks(rational_vector(values))[0]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=3, max_size=8),
    st.data(),
)
def test_vectors_just_off_a_wall(values, data):
    """Vectors a delta < gap/2 from a degenerate one, as wall crossing
    builds them, keep every route equal to its walk."""
    wall = rational_vector(values)
    gap = minimum_gap(wall)
    l0 = data.draw(st.integers(0, len(values) - 1))
    frac = data.draw(
        st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(499, 1000))
    )
    sign = data.draw(st.sampled_from((-1, 1)))
    moved = [Fraction(v) for v in values]
    moved[l0] += sign * frac * gap
    assume(moved[l0] > 0)  # wall crossing rejects such a delta too
    alpha = rational_vector(moved)
    pair, h = _pair_and_extra(data, alpha.m)
    _check_survey(alpha)
    _check_scans(alpha, pair, h)
    _check_closed_forms(alpha, pair)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.one_of(_small_plain, _big_plain), min_size=2, max_size=7)
)
def test_approximate_beta_preserves_signs_plain(vals):
    alpha = rational_vector(vals)
    if not check_generic(alpha).generic:
        return
    approx = approximate_beta(alpha)
    assert _signs_preserved_plain(vals, approx.beta)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.one_of(_small_log, _big_log), min_size=2, max_size=6))
def test_approximate_beta_preserves_signs_log(ratios):
    alpha = log_vector(ratios)
    if not check_generic(alpha).generic:
        return
    approx = approximate_beta(alpha)
    assert _signs_preserved_log(ratios, approx.beta)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=0, max_size=7),
    st.integers(-20, 20),
    st.integers(1, 20),
)
def test_window_counts_and_boundary_hits(values, lo, width):
    """Any window, boundary hits included: the count and the parity-signed
    count cover the open window, and ``touched`` reports a sum on either
    bound."""
    hi = lo + width
    tables = HalfTables(values)
    count, signed, masks, touched = tables.window(lo, hi, materialize=True)
    inside, on_bound = [], False
    for mask, s in _gray_walk(values):
        if lo < s < hi:
            inside.append(mask)
        on_bound = on_bound or s in (lo, hi)
    assert sorted(masks) == sorted(inside) and count == len(inside)
    assert signed == sum(-1 if mk.bit_count() & 1 else 1 for mk in inside)
    assert touched == on_bound


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(_small_log, _big_log), min_size=0, max_size=6),
    st.one_of(_small_log, _big_log, st.just(Fraction(1))),
    st.one_of(_small_log, _big_log),
)
def test_log_window_counts_and_boundary_hits(ratios, lo, step):
    """The log window compares products exactly, bounds hit or not."""
    hi = lo * step
    tables = HalfTables(ratios, is_log=True)
    count, _, masks, touched = tables.window(lo, hi, materialize=True)
    inside, on_bound = [], False
    for mask, x, y in _product_walk(ratios):
        r = Fraction(x, y)
        if lo < r < hi:
            inside.append(mask)
        on_bound = on_bound or r in (lo, hi)
    assert sorted(masks) == sorted(inside) and count == len(inside)
    assert touched == on_bound


def test_log_boundary_hit_is_exact():
    # 2 * 3 / 5 = 6/5 sits exactly on the lower bound
    tables = HalfTables([Fraction(2), Fraction(3), Fraction(5)], is_log=True)
    *_, touched = tables.window(Fraction(6, 5), Fraction(100))
    assert touched
    *_, touched = tables.window(Fraction(6, 5) + Fraction(1, 10**30), Fraction(100))
    assert not touched


def test_coordinates_scale_to_common_denominator():
    values, den = coordinates([Fraction(1, 2), Fraction(2, 3), Fraction(5)], False)
    assert (values, den) == ([3, 4, 30], 6)


# ---------------------------------------------------------------------------
# Large m: sizes the walks could not reach.  No timing is asserted.

_ODD_29 = [2 * k + 1 for k in range(29)]  # odd sums of odd terms never vanish
_PRIMES_29 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109,
]


@pytest.mark.parametrize(
    "alpha",
    [rational_vector(_ODD_29), log_vector(_PRIMES_29)],
    ids=["plain", "log"],
)
def test_cross_routes_at_m29(alpha):
    parities = set()
    for pair in (PairSelection(1, 2), PairSelection(7, 19), PairSelection(28, 29)):
        assert closed_form_g(alpha) == signed_count(alpha, pair)
        assert count_via_sign_sum(alpha, pair) == count_solutions(alpha, pair)
        parities.add(parity(alpha, pair))
    assert len(parities) == 1


@pytest.mark.parametrize(
    "alpha", [",".join(map(str, _ODD_29 + [100])),
              ",".join(f"log:{p}" for p in _PRIMES_29 + [113])],
    ids=["plain", "log"],
)
def test_compute_at_m30(alpha):
    result = run(["compute", "--alpha", alpha, "--pair", "3,30"])
    assert result.exit_code == 0 and result.error is None
    assert set(result.outputs) == {"N", "count", "parity"}


@pytest.mark.parametrize(
    "values", [[1] * 30, list(range(1, 25)), list(range(1, 29))],
    ids=["ones30", "1..24", "1..28"],
)
def test_integer_beta_degenerate_at_large_m(values):
    # C(29,15) vanishing sums for the ones: the witness must come without
    # listing them, and it is the genericity survey's own
    with pytest.raises(DegenerateVectorError) as exc:
        integer_beta(values)
    assert exc.value.witness == check_generic(rational_vector(values)).witness



def test_survey_witness_is_first_zero_without_the_list():
    alpha = rational_vector([1] * 24)
    # 1.35M vanishing sums; the genericity test takes the first from the
    # zero groups, the sorted list is built only on request
    witness = check_generic(alpha).witness.bits
    assert witness == zero_sum_masks(alpha)[0]


def test_verify_thirty_ones_is_degenerate():
    # C(29,15) ~ 77.6M vanishing sums, none of them listed
    result = run(["verify", "--alpha", ",".join(["1"] * 30)])
    assert result.exit_code == 3
    assert result.error["type"] == "degenerate"
    witness = result.error["witness"]
    assert len(witness) == 30 and sum(witness) == 0


# ---------------------------------------------------------------------------
# One cached table per vector against the tables the library used to build
# for every call: the pinned survey and sign-sum tables and the per-pair
# scan tables, their constructor copied as it was.  Mask bits are given per
# coordinate, and ``fixed`` starts the first half at the pinned value.


class _PerCallTables(HalfTables):
    def __init__(self, values, bits, fixed=None, is_log=False):
        self.is_log = is_log
        self.den = 1  # the survey's gap stays in the integer units
        values, bits = list(values), list(bits)
        half = len(values) // 2
        width = max((b.bit_length() for b in bits), default=0)
        if is_log:
            x0 = p = 1
            if fixed is not None:
                x0, p = fixed.numerator, fixed.numerator * fixed.denominator
            for r in values:
                p *= r.numerator * r.denominator
            moves = [_log_moves(r, bit, width) for r, bit in zip(values, bits)]
            xa, self.a_masks = _table(moves[:half], x0, width)
            xb, self.b_masks = _table(moves[half:], 1, width)
            self.p = p
            self.a_keys = [x * x for x in xa]
            self.b_keys = [2 * x * x for x in xb]
            self._zero = Fraction(1)
        else:
            base = 0 if fixed is None else fixed
            moves = [_plain_moves(v, bit, width) for v, bit in zip(values, bits)]
            self.a_keys, self.a_masks = _table(moves[:half], base, width)
            self.b_keys, self.b_masks = _table(moves[half:], 0, width)
            self._zero = 0
        self.a_signs = [-1 if a.bit_count() & 1 else 1 for a in self.a_masks]
        self.b_signs = [-1 if b.bit_count() & 1 else 1 for b in self.b_masks]
        self.free = sum(bits)


def pinned(values, fixed_pos, is_log=False):
    free = [k for k in range(len(values)) if k != fixed_pos]
    return _PerCallTables(
        [values[k] for k in free],
        [1 << k for k in free],
        fixed=values[fixed_pos],
        is_log=is_log,
    )


def per_pair_scan(alpha, pair, h1=None):
    """The pair scan on its own tables over the m-2 rest coordinates.

    The extended count, with ``h1`` the rest position of the extra sign,
    weights the materialized masks."""
    i0, j0 = pair.i - 1, pair.j - 1
    rest = _rest_positions(alpha.m, i0, j0)
    values, _ = coordinates(alpha.ratios(), alpha.is_log)
    vi, vj = values[i0], values[j0]
    if alpha.is_log:
        lo, hi = max(vi, vj) / min(vi, vj), vi * vj
    else:
        lo, hi = abs(vi - vj), vi + vj
    tables = _PerCallTables(
        [values[p] for p in rest],
        [1 << k for k in range(len(rest))],
        is_log=alpha.is_log,
    )
    count, signed, masks, touched = tables.window(lo, hi, True)
    assert not touched
    ext = 0
    if h1 is not None:
        char = ((1 << len(rest)) - 1) ^ (1 << h1)
        ext = sum(-1 if (mk & char).bit_count() & 1 else 1 for mk in masks)
    return WalkScan(count, signed, ext, tuple(sorted(masks)))


def _pairs(m):
    return [PairSelection(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def _check_against_per_call_tables(alpha):
    """Every pair, survey and sign sum of ``alpha`` against per-call tables.

    The first m // 2 coordinates form the first half of the cached table,
    so the pairs cover both pair bits in one half and one in each.
    """
    values, den = coordinates(alpha.ratios(), alpha.is_log)
    survey = pinned(values, 0, alpha.is_log)
    groups, gap = survey.survey()
    assert minimum_gap(alpha) == (gap if alpha.is_log else Fraction(gap, den))
    report = check_generic(alpha)
    expected_witness = first_zero(groups)
    assert report.generic == (expected_witness is None)
    if not report.generic:
        assert report.witness.bits == expected_witness
        return
    full = (1 << alpha.m) - 1
    for pos in range(alpha.m):
        for char in {0, full, full ^ 1, full ^ (1 << (alpha.m - 1))}:
            got = alpha.half_tables().restrict(1 << pos).sign_sum(char)
            assert got == pinned(values, pos, alpha.is_log).sign_sum(char)
            if pos == 0 and alpha.m > 1:
                assert 2 * _half_sign_sum(alpha.half_tables(), char) == got[0]
    if alpha.m < 3:
        return
    for pair in _pairs(alpha.m):
        i0, j0 = pair.i - 1, pair.j - 1
        expected = per_pair_scan(alpha, pair)
        row = pair_invariants(alpha, pair)
        assert (row.count, row.parity, row.signed) == (
            expected.count,
            expected.count & 1,
            expected.signed,
        )
        sols = enumerate_solutions(alpha, pair).solutions
        assert tuple(sv.bits for sv in sols) == expected.masks
        rest = _rest_positions(alpha.m, i0, j0)
        for h1, pos in enumerate(rest):
            if alpha.m >= 4:
                assert extended_signed_count(alpha, pair, pos + 1) == (
                    per_pair_scan(alpha, pair, h1).extended
                )


@settings(max_examples=120, deadline=None)
@given(_vectors(1, 9))
@example(rational_vector([3, 5, 7]))
@example(rational_vector([3, 5, 7, 11]))
@example(rational_vector([3, 5, 7, 11, 13]))
@example(log_vector([2, 3, 5]))
@example(log_vector([2, 3, 5, 7]))
@example(log_vector(["7/2", "9/4", "5/3", 11, 13]))
def test_cached_table_matches_per_call_tables(alpha):
    _check_against_per_call_tables(alpha)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=3, max_size=8),
    st.sampled_from((1, 10**17)),
    st.data(),
)
def test_cached_table_matches_per_call_tables_off_a_wall(values, scale, data):
    """Plain vectors a delta < gap/2 from a degenerate one, small or
    scaled to 18-digit numerators."""
    wall = rational_vector([v * scale for v in values])
    gap = minimum_gap(wall)
    l0 = data.draw(st.integers(0, len(values) - 1))
    frac = data.draw(
        st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(499, 1000))
    )
    sign = data.draw(st.sampled_from((-1, 1)))
    moved = list(wall.ratios())
    moved[l0] += sign * frac * gap
    assume(moved[l0] > 0)
    _check_against_per_call_tables(rational_vector(moved))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 12), min_size=3, max_size=7),
    st.integers(0, 6),
    st.integers(1, 10**6),
    st.sampled_from((-1, 1)),
)
def test_log_cached_table_matches_per_call_tables_off_a_wall(ratios, l0, spread, sign):
    """Log vectors whose l-th ratio moves by a factor f with f^2 below the
    wall's gap ratio, i.e. by less than half the gap of the logs."""
    wall = log_vector(ratios)
    gap = minimum_gap(wall)
    l0 %= len(ratios)
    f = 1 + Fraction(1, math.ceil(2 / (gap - 1)) * (1 + spread) + 1)
    assert f * f < gap
    moved = list(wall.ratios())
    moved[l0] = moved[l0] * f if sign > 0 else moved[l0] / f
    assume(moved[l0] > 1)
    _check_against_per_call_tables(log_vector(moved))


@pytest.mark.parametrize(
    "make",
    [
        lambda: rational_vector([3, 5, 7, 11, 13, 17, 19]),
        lambda: rational_vector([2, 3, 4, 8, Fraction(7, 3), 10**18 + 1]),
        lambda: log_vector([2, 3, 5, 7, 11, 13, 17]),
        lambda: log_vector(["7/2", "9/4", "5/3", 11, 13, 17]),
    ],
    ids=["plain-odd", "plain-even", "log-odd", "log-even"],
)
def test_routes_agree_whichever_builds_the_table_first(make):
    """The closed forms and the pair scans read one cached table; their
    results do not depend on which of them ran first, and no route
    changes the cached table."""

    def closed_forms(alpha):
        return [closed_form_g(alpha)] + [
            (count_via_sign_sum(alpha, p), signed_count_even_via_sign_sum(alpha, p))
            if alpha.m % 2 == 0
            else count_via_sign_sum(alpha, p)
            for p in _pairs(alpha.m)
        ]

    def scans(alpha):
        return [pair_invariants(alpha, p) for p in _pairs(alpha.m)]

    forms_first = make()
    before = closed_forms(forms_first)
    table = forms_first.half_tables()
    snapshot = {k: v[:] if isinstance(v, list) else v for k, v in vars(table).items()}
    rows_after = scans(forms_first)

    scans_first = make()
    rows_before = scans(scans_first)
    after = closed_forms(scans_first)

    assert rows_after == rows_before and before == after
    assert forms_first.half_tables() is table and vars(table) == snapshot
    for row in rows_after:
        expected = per_pair_scan(forms_first, row.pair)
        assert row == PairInvariants(
            row.pair, expected.count, expected.count & 1, expected.signed
        )
