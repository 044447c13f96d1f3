"""Independent expected answers for the benchmark's requests.

Nothing here imports signsum.  Plain vectors are scaled to integers and
every signed sum is tabulated at once in a numpy int64 array indexed by
sign mask (bit k set means coordinate k is subtracted), which is an exact
brute force over all sign tuples.  Log vectors use a float table to decide
each sign and fall back to exact big-integer products for every sum that
lands within ``_EPS`` of a boundary, so their decisions are exact too.
High-precision logarithms for the approx-beta checks come from mpmath,
with the precision raised until each comparison is settled.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np

# Float log sums have absolute error far below this for the vector sizes
# used here; anything closer to a boundary is re-decided exactly.
_EPS = 1e-9
_INT64_SAFE = 1 << 62


class OracleError(Exception):
    """The oracle itself cannot decide: bad generator input, not bad output."""


@functools.lru_cache(maxsize=None)
def sign_products(n: int) -> np.ndarray:
    """prod of signs for every mask over n coordinates."""
    table = np.ones(1, dtype=np.int64)
    for _ in range(n):
        table = np.concatenate([table, -table])
    return table


def _sum_table(values) -> np.ndarray:
    """Signed sum for every mask; int64 for ints, float64 for floats."""
    if values and isinstance(values[0], float):
        table = np.zeros(1, dtype=np.float64)
    else:
        if max((abs(v) for v in values), default=0) * (len(values) + 1) >= _INT64_SAFE:
            raise OracleError("integer sums would overflow int64")
        table = np.zeros(1, dtype=np.int64)
    for v in values:
        table = np.concatenate([table + v, table - v])
    return table


def scaled_ints(values: list[Fraction]) -> list[int]:
    scale = math.lcm(*(v.denominator for v in values))
    return [int(v * scale) for v in values]


def _logs(ratios: list[Fraction]) -> list[float]:
    return [math.log(r.numerator) - math.log(r.denominator) for r in ratios]


def _ratio_product(ratios, mask: int) -> Fraction:
    out = Fraction(1)
    for k, r in enumerate(ratios):
        out = out / r if (mask >> k) & 1 else out * r
    return out


# ---------------------------------------------------------------------------
# Pair invariants


class PairResult(NamedTuple):
    count: int
    signed: int
    masks: list[int] | None  # ascending, when rows were asked for


def pair_plain(values: list[Fraction], i0: int, j0: int, rows=False) -> PairResult:
    ints = scaled_ints(values)
    rest = [v for p, v in enumerate(ints) if p not in (i0, j0)]
    sums = _sum_table(rest)
    lo, hi = abs(ints[i0] - ints[j0]), ints[i0] + ints[j0]
    if np.any((sums == lo) | (sums == hi)):
        raise OracleError("signed sum on a pair boundary")
    inside = (sums > lo) & (sums < hi)
    return _pair_result(inside, len(rest), rows)


def pair_log(ratios: list[Fraction], i0: int, j0: int, rows=False) -> PairResult:
    logs = _logs(ratios)
    rest_pos = [p for p in range(len(ratios)) if p not in (i0, j0)]
    sums = _sum_table([logs[p] for p in rest_pos])
    lo, hi = abs(logs[i0] - logs[j0]), logs[i0] + logs[j0]
    near = (np.abs(sums - lo) < _EPS) | (np.abs(sums - hi) < _EPS)
    inside = (sums > lo) & (sums < hi) & ~near
    ri, rj = ratios[i0], ratios[j0]
    lo_exact, hi_exact = max(ri, rj) / min(ri, rj), ri * rj
    rest = [ratios[p] for p in rest_pos]
    for mask in np.flatnonzero(near):
        prod = _ratio_product(rest, int(mask))
        if prod in (lo_exact, hi_exact):
            raise OracleError("signed sum on a pair boundary")
        inside[mask] = lo_exact < prod < hi_exact
    return _pair_result(inside, len(rest), rows)


def _pair_result(inside, n, rows) -> PairResult:
    count = int(inside.sum())
    signed = int(sign_products(n)[inside].sum())
    masks = [int(x) for x in np.flatnonzero(inside)] if rows else None
    return PairResult(count, signed, masks)


def pair(vec, i0: int, j0: int, rows=False) -> PairResult:
    if vec.is_log:
        return pair_log(vec.values, i0, j0, rows)
    return pair_plain(vec.values, i0, j0, rows)


# ---------------------------------------------------------------------------
# Genericity: every signed sum nonzero, coordinate 0 fixed to +1


def zero_masks_plain(values: list[Fraction]) -> list[int]:
    """Full-length masks (bit 0 clear) of vanishing signed sums, ascending."""
    ints = scaled_ints(values)
    sums = ints[0] + _sum_table(ints[1:])
    return [int(x) << 1 for x in np.flatnonzero(sums == 0)]


def min_gap_plain(values: list[Fraction]) -> Fraction:
    ints = scaled_ints(values)
    sums = np.abs(ints[0] + _sum_table(ints[1:]))
    scale = math.lcm(*(v.denominator for v in values))
    return Fraction(int(sums[sums != 0].min()), scale)


def is_generic_log(ratios: list[Fraction]) -> bool:
    logs = _logs(ratios)
    sums = logs[0] + _sum_table(logs[1:])
    for mask in np.flatnonzero(np.abs(sums) < _EPS):
        if _ratio_product(ratios[1:], int(mask)) * ratios[0] == 1:
            return False
    return True


def is_generic(vec) -> bool:
    if vec.is_log:
        return is_generic_log(vec.values)
    return not zero_masks_plain(vec.values)


def min_gap_ratio_log(ratios: list[Fraction]) -> Fraction:
    """Smallest product ratio above 1 over all signed sums (exact)."""
    best = None
    for mask in range(1 << (len(ratios) - 1)):
        r = ratios[0] * _ratio_product(ratios[1:], mask)
        if r < 1:
            r = 1 / r
        if best is None or r < best:
            best = r
    return best


def signs_agree_plain(values: list[Fraction], betas: list[int]) -> bool:
    """Every signed sum of ``values`` has the sign of the same sum of betas."""
    sa = _sum_table(scaled_ints(values))
    sb = _sum_table(betas)
    return bool((np.sign(sa) == np.sign(sb)).all())


def signs_agree_log(ratios: list[Fraction], betas: list[int]) -> bool:
    """Same for log components, each sign decided by exact products."""
    for mask in range(1 << len(ratios)):
        prod = _ratio_product(ratios, mask)
        tb = sum(-b if (mask >> k) & 1 else b for k, b in enumerate(betas))
        if (prod > 1) - (prod < 1) != (tb > 0) - (tb < 0):
            return False
    return True


# ---------------------------------------------------------------------------
# Certified comparisons against real logarithms


def _log_minus(ratio: Fraction, rational: Fraction, prec: int):
    with mpmath.workprec(prec):
        return mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator) - (
            mpmath.mpf(rational.numerator) / rational.denominator
        )


def log_exceeds(ratio: Fraction, rational: Fraction) -> bool:
    """Exact truth of log(ratio) > rational for rational ratio != 1.

    log of a rational other than 1 is irrational, so the difference is
    never 0 and enough precision always separates it from 0.
    """
    prec = 256
    while prec <= 1 << 16:
        diff = _log_minus(ratio, rational, prec)
        if abs(diff) > mpmath.mpf(2) ** (-(prec // 2)):
            return diff > 0
        prec *= 2
    raise OracleError("log comparison did not settle")


def log_within(ratio: Fraction, centre: Fraction, radius: Fraction) -> bool:
    """|centre - log(ratio)| < radius, decided exactly."""
    return log_exceeds(ratio, centre - radius) and not log_exceeds(
        ratio, centre + radius
    )


# ---------------------------------------------------------------------------
# Kernel expansion size


def expansion_terms(sin_freqs, cos_freqs) -> int:
    """Nonzero coefficients of prod (e^{ibx} -+ e^{-ibx}) over the factors."""
    cur = {0: 1}
    for freqs, sign in ((sin_freqs, -1), (cos_freqs, 1)):
        for b in freqs:
            nxt: dict[int, int] = {}
            for s, c in cur.items():
                nxt[s + b] = nxt.get(s + b, 0) + c
                nxt[s - b] = nxt.get(s - b, 0) + sign * c
            cur = {s: c for s, c in nxt.items() if c}
    return len(cur)
