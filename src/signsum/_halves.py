"""Meet-in-the-middle half tables of signed sums.

Every signed-sum question in the package ranges over the 2^n sign
vectors of some n coordinates.  Splitting the coordinates into halves A
and B writes each full sum as a + b, with a from A's table and b from
B's, each of about 2^(n/2) entries.  With B sorted, the full sums that
one entry a forms lie below, on and above a bound in three consecutive
runs of B, found by two bisections, and prefix sums over B turn a
weighted total over a run into two lookups.  Windows, weighted sign
totals, vanishing sums and the closest approach to zero thus cost
O(2^(n/2) n) instead of O(2^n).  Reference: Horowitz and Sahni,
"Computing partitions with applications to the knapsack problem",
J. ACM 21(2), 1974.

Plain coordinates are integers (see ``coordinates``).  A log coordinate
is a rational r > 1 standing for log r.  A log table entry is the
integer x collecting the numerator of every plus coordinate and the
denominator of every minus coordinate.  The opposite collection is P/x,
with P the product of every numerator and denominator in the table, so
the entry's signed sum is log(x^2/P), increasing in x.  Keys, bounds and
thresholds are integers in both realizations, and every decision is an
exact integer comparison.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from itertools import accumulate, groupby, repeat
from operator import add


def coordinates(ratios, is_log: bool):
    """(values, den): the kernel form of a vector's components.

    Plain: the rationals as integers over their least common denominator
    ``den``.  Log: the ratios themselves, with den 1.
    """
    if is_log:
        return list(ratios), 1
    den = math.lcm(*(r.denominator for r in ratios))
    return [r.numerator * (den // r.denominator) for r in ratios], den


def _table(moves, base, width):
    """(keys, masks) of every sign choice over one half, ascending by key.

    An entry is packed as key * 2^width + mask, so sorting the packed
    integers sorts by key.  ``moves`` holds, per coordinate, the pair of
    increasing maps that take a packed entry to its plus and its minus
    successor.  Each doubling step appends the minus run to the plus
    run; both are ascending, so the sort is a linear merge.
    """
    cur = [base << width]
    for plus, minus in moves:
        cur = [*map(plus, cur), *map(minus, cur)]
        cur.sort()
    low = (1 << width) - 1
    return [e >> width for e in cur], [e & low for e in cur]


def _plain_moves(value, bit, width):
    """Add or subtract ``value``; subtracting sets ``bit``."""
    step = value << width
    return partial(add, step), partial(add, bit - step)


def _log_moves(ratio, bit, width):
    """Multiply x by the numerator or, setting ``bit``, the denominator."""
    low = (1 << width) - 1

    def scale(factor, flag):
        return lambda e: ((e >> width) * factor) << width | (e & low) | flag

    return scale(ratio.numerator, 0), scale(ratio.denominator, bit)


_SIGNS = (1, -1)


class HalfTables:
    """The signed sums over ``values``, with ``fixed`` pinned to plus.

    ``bits[k]`` is the mask bit that marks coordinate k as minus; the
    mask of a full sum is the OR of its two halves' masks.  Values and
    ``fixed`` come from ``coordinates``.  B, the second half, takes the
    larger share of an odd split.
    """

    def __init__(self, values, bits, fixed=None, is_log=False):
        self.is_log = is_log
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
            # full sum a + b = log(x_a^2 x_b^2 / P); B keys are doubled so
            # that an inexact threshold can sit strictly between two keys
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

    def _thresholds(self, bound):
        """Per A entry, the B key t at which the full sum meets ``bound``.

        The full sum is below, on or above the bound exactly when the B
        key is below, equal to or above t.  Plain bounds are integers;
        log bounds are Fractions standing for their logarithm.  In the
        log realization t = 2q or 2q+1 with q the floor of the bound's
        square-ratio quotient, odd exactly when no key can meet it.
        """
        if self.is_log:
            num, den = bound.numerator * self.p, bound.denominator
            return [
                2 * q + (r > 0)
                for q, r in (divmod(num, den * a) for a in self.a_keys)
            ]
        return [bound - a for a in self.a_keys]

    def _runs(self, bound):
        """(thresholds, lt, gt, touched): per A entry, B[:lt] is below the
        bound, B[lt:gt] on it and B[gt:] above it.  ``touched`` tells
        whether any full sum meets the bound."""
        ts = self._thresholds(bound)
        keys = self.b_keys
        lt = list(map(bisect_left, repeat(keys), ts))
        gt = list(map(bisect_right, repeat(keys), ts))
        return ts, lt, gt, lt != gt

    def _weights(self, char):
        """A weights and B prefix sums of (-1)^popcount(mask & char)."""
        wa = [_SIGNS[(a & char).bit_count() & 1] for a in self.a_masks]
        prefix = list(
            accumulate(
                (_SIGNS[(b & char).bit_count() & 1] for b in self.b_masks),
                initial=0,
            )
        )
        return wa, prefix

    def window(self, lo, hi, chars, materialize=False):
        """Weighted counts of the full sums strictly between lo < hi.

        Returns (totals, masks, touched).  ``totals`` has one entry per
        character mask c in ``chars``, each full sum weighted by
        (-1)^popcount(mask & c); c = 0 counts.  ``masks`` lists the masks
        inside the window, unordered, when ``materialize`` is set, else
        None.  ``touched`` tells whether some full sum equals lo or hi.
        """
        _, _, starts, lo_touched = self._runs(lo)
        _, ends, _, hi_touched = self._runs(hi)
        totals = []
        for c in chars:
            wa, prefix = self._weights(c)
            totals.append(
                sum(w * (prefix[e] - prefix[s]) for w, s, e in zip(wa, starts, ends))
            )
        masks = None
        if materialize:
            bm = self.b_masks
            masks = [
                a | b for a, s, e in zip(self.a_masks, starts, ends) for b in bm[s:e]
            ]
        return totals, masks, lo_touched or hi_touched

    def sign_sum(self, char):
        """Weighted total of the sign of every full sum.

        Returns (total, touched): each sign weighted by
        (-1)^popcount(mask & char), as in ``window``, and whether some
        full sum vanishes.
        """
        _, lt, gt, touched = self._runs(self._zero)
        wa, prefix = self._weights(char)
        top = prefix[-1]
        # weight above the zero bound minus weight below it
        total = sum(w * (top - prefix[g] - prefix[l]) for w, l, g in zip(wa, lt, gt))
        return total, touched

    def zero_groups(self):
        """The vanishing full sums as (a_masks, b_masks) groups.

        Every A mask of a group vanishes with every B mask of it, and each
        vanishing sum lies in exactly one group.  A entries of equal key
        are adjacent and share one run of B, so listing the groups costs
        O(2^(n/2)) however many sums vanish.
        """
        _, lt, gt, _ = self._runs(self._zero)
        bm = self.b_masks
        groups = []
        rows = zip(self.a_masks, lt, gt)
        for (l, g), run in groupby(rows, key=lambda row: row[1:]):
            if l < g:
                groups.append(([a for a, _, _ in run], bm[l:g]))
        return groups

    def gap(self):
        """The closest approach of a nonvanishing full sum to zero.

        Plain: the smallest nonzero |sum| as an integer.  Log: the
        smallest ratio above 1 among exp(|sum|), as a Fraction.  The
        nearest nonzero sums of an A entry are the B keys just outside
        its run on the zero bound.
        """
        ts, lt, gt, _ = self._runs(self._zero)
        keys = self.b_keys
        n = len(keys)
        if self.is_log:
            # a * key = 2 x_a^2 x_b^2, the full ratio times 2P
            two_p = 2 * self.p
            above = min(
                (a * keys[g] for a, g in zip(self.a_keys, gt) if g < n), default=None
            )
            below = max(
                (a * keys[l - 1] for a, l in zip(self.a_keys, lt) if l), default=None
            )
            gaps = []
            if above is not None:
                gaps.append(Fraction(above, two_p))
            if below is not None:
                gaps.append(Fraction(two_p, below))
            return min(gaps)
        above = min((keys[g] - t for t, g in zip(ts, gt) if g < n), default=None)
        below = min((t - keys[l - 1] for t, l in zip(ts, lt) if l), default=None)
        return min(d for d in (above, below) if d is not None)


def first_zero(groups):
    """The smallest vanishing mask among ``zero_groups``, or None.

    Every mask bit of A lies below every mask bit of B (as in ``pinned``),
    so a full mask orders by its B part first and a group's smallest mask
    joins the smallest mask of each side.
    """
    return min((min(am) | min(bm) for am, bm in groups), default=None)


def zero_masks(groups):
    """Every vanishing mask among ``zero_groups``, ascending."""
    return sorted(a | b for am, bm in groups for a in am for b in bm)


def pinned(values, fixed_pos, is_log=False) -> HalfTables:
    """Half tables over every coordinate of ``values`` but ``fixed_pos``,
    which is pinned to plus: one sign vector per negation class.  Mask
    bit k marks coordinate k as minus, so every mask bit of A lies below
    every mask bit of B."""
    free = [k for k in range(len(values)) if k != fixed_pos]
    return HalfTables(
        [values[k] for k in free],
        [1 << k for k in free],
        fixed=values[fixed_pos],
        is_log=is_log,
    )
