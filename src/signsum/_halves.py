"""Meet-in-the-middle half tables of signed sums.

Every signed-sum question in the package ranges over the 2^n sign
vectors of some n coordinates.  Splitting the coordinates into halves A
and B writes each full sum as a + b, with a from A's table and b from
B's, each of about 2^(n/2) entries.  With B sorted, the full sums that
one entry a forms lie at or below and above a bound in two consecutive
runs of B, split by one bisection; a sum on the bound shows as a B key
beside the cut equal to the threshold.  Prefix sums over B turn a
weighted total over a run into two lookups.  Windows, weighted sign
totals, the degree-1 moments of the sums above zero, vanishing sums and
the closest approach to zero thus cost O(2^(n/2) n) instead of O(2^n).
Reference: Horowitz and Sahni, "Computing partitions with applications to the knapsack problem",
J. ACM 21(2), 1974.

A plain coordinate is a rational, scaled with the others to an integer
over their least common denominator.  A log coordinate is a rational
r > 1 standing for log r.  A log table entry is the integer x
collecting the numerator of every plus coordinate and the denominator
of every minus coordinate.  The opposite collection is P/x, with P the
product of every numerator and denominator in the table, so the entry's
signed sum is log(x^2/P), increasing in x.  Both halves key an entry by
2 x^2, so A and B trade places unchanged.  Keys, bounds and thresholds
are integers in both realizations, and every decision is an exact
integer comparison.

A vector's tables are built once, over all of its coordinates, and its
callers ask them questions; the key form, the bounds and the pinned
coordinates stay in this module:

- ``survey()``: the vanishing sums and the closest approach to zero;
- ``pair_window(i, j, materialize)``: a pair's solution count, signed
  count and masks over the other n - 2 coordinates;
- ``sign_sum(char)``: a quarter of the character-weighted sign sum;
- ``moments()``: the degree-0 and degree-1 moments above zero;
- ``edge_window()``: the parity-signed count of |t| < B, with B the
  last coordinate.

All but the survey cut the tables at a bound that no full sum of a
generic vector meets; ``_cut`` raises ``InternalCheckError`` when one
does.  Internally a question ``restrict``s the tables to the sums with
one or two coordinates pinned to plus, which still carry the pinned
values, so it moves its bounds by them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from itertools import accumulate, compress, groupby, repeat
from operator import add, eq

from .core import InternalCheckError


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


def char_signs(masks, char=-1):
    """(-1)^popcount(mask & char) per mask; by default the parity sign."""
    return [_SIGNS[(m & char).bit_count() & 1] for m in masks]


def _kept(mask, masks, *columns):
    """``masks`` and each column, keeping the entries whose mask has every
    bit of ``mask`` clear; the order, and so the sorting, is kept."""
    keep = [not m & mask for m in masks]
    return [list(compress(col, keep)) for col in (masks, *columns)]


def _coordinate_moments(by_mask, width):
    """[sum of by_mask[x] (-1)^(bit k of x) over x, for k < width].

    ``by_mask`` holds one value per mask 0 .. 2^width - 1.  From the top
    bit down, the moment of a bit is the total minus twice the upper
    half, and folding the upper half onto the lower drops the bit.
    """
    total = sum(by_mask)
    moments = []
    for _ in range(width):
        half = len(by_mask) >> 1
        low, high = by_mask[:half], by_mask[half:]
        moments.append(total - 2 * sum(high))
        by_mask = list(map(add, low, high))
    return moments[::-1]


class HalfTables:
    """The signed sums over the components ``ratios``, one per sign mask.

    Mask bit k marks coordinate k as minus.  A holds the first n // 2
    coordinates and B the rest, so every mask bit of A lies below every
    mask bit of B.  Plain components are scaled to the integers
    ``values`` over their least common denominator ``den``; log ones
    are kept as they are, with den 1.
    """

    def __init__(self, ratios, is_log=False):
        self.is_log = is_log
        ratios = list(ratios)
        n = len(ratios)
        half = n // 2
        if is_log:
            self.den, self.values = 1, ratios
            p = 1
            for r in ratios:
                p *= r.numerator * r.denominator
            moves = [_log_moves(r, 1 << k, n) for k, r in enumerate(ratios)]
            xa, self.a_masks = _table(moves[:half], 1, n)
            xb, self.b_masks = _table(moves[half:], 1, n)
            # full sum a + b = log(x_a^2 x_b^2 / P); keys are doubled, so
            # even, and an inexact threshold, odd, sits between two keys
            self.p = p
            self.a_keys = [2 * x * x for x in xa]
            self.b_keys = [2 * x * x for x in xb]
            self._zero = Fraction(1)
        else:
            self.den = den = math.lcm(*(r.denominator for r in ratios))
            self.values = [r.numerator * (den // r.denominator) for r in ratios]
            moves = [_plain_moves(v, 1 << k, n) for k, v in enumerate(self.values)]
            self.a_keys, self.a_masks = _table(moves[:half], 0, n)
            self.b_keys, self.b_masks = _table(moves[half:], 0, n)
            self._zero = 0
        self.a_signs = char_signs(self.a_masks)
        self.b_signs = char_signs(self.b_masks)
        self.a_bits = (1 << half) - 1
        self.free = (1 << n) - 1

    def restrict(self, mask):
        """The tables of the sums with every coordinate in ``mask`` at plus.

        A filtered copy: each half keeps the entries whose mask has those
        bits clear, still sorted, with their keys, masks and parity signs
        as they were, so a bound on the result is a bound on the whole
        sum, pinned coordinates included.  A half that holds none of the
        bits is shared, not copied.
        """
        view = object.__new__(HalfTables)
        vars(view).update(vars(self))
        view.free = self.free & ~mask
        if mask & self.a_bits:
            view.a_masks, view.a_keys, view.a_signs = _kept(
                mask, self.a_masks, self.a_keys, self.a_signs
            )
        if mask & ~self.a_bits:
            view.b_masks, view.b_keys, view.b_signs = _kept(
                mask, self.b_masks, self.b_keys, self.b_signs
            )
        return view

    def _swapped(self):
        """The same sums with the roles of A and B exchanged.

        ``window`` runs one bisection of B per entry of A, so it
        iterates over the smaller half.  Both halves share one key form,
        so the lists just trade places.  A's mask bits no longer lie
        below B's, which ``window`` does not need.
        """
        view = object.__new__(HalfTables)
        vars(view).update(vars(self))
        view.a_masks, view.b_masks = self.b_masks, self.a_masks
        view.a_keys, view.b_keys = self.b_keys, self.a_keys
        view.a_signs, view.b_signs = self.b_signs, self.a_signs
        return view

    def _thresholds(self, bound):
        """Per A entry, the B key t at which the full sum meets ``bound``.

        The full sum is below, on or above the bound exactly when the B
        key is below, equal to or above t.  Plain bounds are integers;
        log bounds are Fractions standing for their logarithm.  In the
        log realization the keys multiply to 4 x_a^2 x_b^2, so t = 2q or
        2q+1 with q the floor of num P / (den x_a^2), odd exactly when no
        key can meet it.
        """
        if self.is_log:
            num, den = 2 * bound.numerator * self.p, bound.denominator
            return [
                2 * q + (r > 0)
                for q, r in (divmod(num, den * a) for a in self.a_keys)
            ]
        return [bound - a for a in self.a_keys]

    def _cut(self, bound, side):
        """Per A entry, where ``bound`` cuts B.

        ``side`` is ``bisect_right``, leaving B[end:] above the bound, or
        ``bisect_left``, leaving B[:end] below it.  A full sum equal to
        the bound shows in the B key beside an end: the one before it
        for ``bisect_right``, the one at it for ``bisect_left``.  Index
        -1 (end 0) and the wrap of end n to 0 read a key beyond the
        bound, which never matches.  Every bound a question cuts at is
        met only by a vanishing signed sum of the whole vector, which a
        generic vector does not have, so a sum on it raises
        ``InternalCheckError``, the one refusal of a sum on a bound.
        """
        ts = self._thresholds(bound)
        keys = self.b_keys
        ends = list(map(side, repeat(keys), ts))
        shift = 1 if side is bisect_right else len(keys)
        beside = map(keys.__getitem__, [e - shift for e in ends])
        if any(map(eq, beside, ts)):
            raise InternalCheckError("a signed sum sits on a table bound")
        return ends

    def window(self, lo, hi, materialize=False):
        """Counts of the full sums strictly between lo < hi.

        Returns (count, signed, masks).  ``signed`` weights each sum by
        its stored parity sign, (-1)^popcount(mask).  ``masks`` lists
        the masks inside the window, unordered, when ``materialize`` is
        set, else None.  One cut per bound: per A entry the window is
        B[start:end].
        """
        if len(self.a_keys) > len(self.b_keys):
            return self._swapped().window(lo, hi, materialize)
        starts = self._cut(lo, bisect_right)
        ends = self._cut(hi, bisect_left)
        # lo < hi, so no run is reversed
        count = sum(ends) - sum(starts)
        prefix = list(accumulate(self.b_signs, initial=0))
        runs = zip(self.a_signs, starts, ends)
        signed = sum(w * (prefix[e] - prefix[s]) for w, s, e in runs)
        masks = None
        if materialize:
            bm = self.b_masks
            masks = [
                a | b for a, s, e in zip(self.a_masks, starts, ends) for b in bm[s:e]
            ]
        return count, signed, masks

    def pair_window(self, i, j, materialize=False):
        """(count, signed, masks) of the sums s over the coordinates
        other than i < j with |v_i - v_j| < s < v_i + v_j.

        ``signed`` weights each by its parity sign; ``masks`` lists the
        masks over the n - 2 other coordinates, ascending, when
        ``materialize`` is set, else None.  The sums with i and j at
        plus hold s as s + v_i + v_j, so the window is 2 max(v_i, v_j) <
        s + v_i + v_j < 2 (v_i + v_j); in the log realization, where the
        bounds are ratios and sums multiply, both bounds are multiplied
        by r_i r_j, giving max(r_i, r_j)^2 and (r_i r_j)^2.  The pair
        bits are clear in every entry, so the parity signs are those of
        the rest, and dropping them keeps the other bits in order.
        """
        vi, vj = self.values[i], self.values[j]
        if self.is_log:
            lo, hi = max(vi, vj) ** 2, (vi * vj) ** 2
        else:
            lo, hi = 2 * max(vi, vj), 2 * (vi + vj)
        pinned = self.restrict(1 << i | 1 << j)
        count, signed, masks = pinned.window(lo, hi, materialize)
        if materialize:
            low, top = (1 << i) - 1, -1 << (j - 1)
            mid = ~(low | top)
            masks = tuple(sorted(x & low | x >> 1 & mid | x >> 2 & top for x in masks))
        return count, signed, masks

    def edge_window(self):
        """The parity-signed count of the sums t over every coordinate
        but the last, B, with |t| < B.

        The sums with B at plus hold t as t + B, so the window is
        0 < t + B < 2B; in the log realization 1 < ... < r^2 for the
        last ratio r.  t = -B and t = B are full sums at zero.
        """
        n, last = len(self.values), self.values[-1]
        hi = last * last if self.is_log else 2 * last
        return self.restrict(1 << (n - 1)).window(self._zero, hi)[1]

    def sign_sum(self, char):
        """A quarter of the sum of (-1)^popcount(mask(e) & char) sgn(<e,v>)
        over all sign vectors e.

        Every closed form and kernel integral is plus or minus this
        number.  For a character of odd weight each term is even under
        e -> -e, so the sum over the vectors with coordinate 0 at plus
        is half of it.  That half is a sum of 2^(n-1) signs, so for
        n > 1 it is even, and an odd one raises ``InternalCheckError``.
        """
        total, odd = divmod(self.restrict(1)._sign_total(char), 2)
        if odd:
            raise InternalCheckError("half sign sum must be even")
        return total

    def _sign_total(self, char):
        """Weighted total of the sign of every full sum, each weighted by
        (-1)^popcount(mask & char).

        A char that covers every free coordinate reads the stored parity
        signs; any other takes its signs from ``char_signs``.  One cut at
        zero: per A entry, B[g:] is above zero and B[:g] below it, giving
        the entry w * (top - 2 prefix[g]).  It scans A whatever the
        sizes: ``sign_sum`` pins coordinate 0, so A is no larger than B
        there, and the order of the scan does not change the total.
        """
        gt = self._cut(self._zero, bisect_right)
        if (char & self.free) == self.free:
            wa, wb = self.a_signs, self.b_signs
        else:
            wa, wb = char_signs(self.a_masks, char), char_signs(self.b_masks, char)
        prefix = list(accumulate(wb, initial=0))
        top = prefix[-1]
        # weight above the zero bound minus weight below it
        return sum(w * (top - 2 * prefix[g]) for w, g in zip(wa, gt))

    def moments(self):
        """Degree-0 and degree-1 moments of the sums above zero, read
        from unrestricted tables.

        Returns (ones, chis).  For w = 1 and for w = chi, the parity
        sign, ``ones`` and ``chis`` are [T, T_0, ..., T_(n-1)]: T sums
        w(e) over the full sums above zero and T_k sums w(e) e_k, with
        e_k = -1 where mask bit k is set.  One cut at zero: an A entry a
        sees B[gt_a:] above zero and contributes c_a = w_a * (the weight
        of that run) with its A coordinates' signs; a B entry at index j
        sees the A entries with gt_a <= j and contributes
        d_j = w_j * (their weight) with its B coordinates' signs.  The
        thresholds fall as the A keys rise, so those A entries are a
        suffix of A, read off by bisection.  O(n 2^(n/2)) in all.
        """
        gt = self._cut(self._zero, bisect_right)
        rising = gt[::-1]
        # per B index, how many A entries from the end see it above zero
        seen = list(map(bisect_right, repeat(rising), range(len(self.b_keys))))
        half = self.a_bits.bit_length()
        a_order = sorted(range(len(self.a_masks)), key=self.a_masks.__getitem__)
        b_order = sorted(range(len(self.b_masks)), key=self.b_masks.__getitem__)
        out = []
        for wa, wb in (
            ([1] * len(self.a_keys), [1] * len(self.b_keys)),
            (self.a_signs, self.b_signs),
        ):
            prefix = list(accumulate(wb, initial=0))
            top = prefix[-1]
            c = [w * (top - prefix[g]) for w, g in zip(wa, gt)]
            suffix = list(accumulate(reversed(wa), initial=0))
            d = [w * suffix[r] for w, r in zip(wb, seen)]
            out.append(
                [sum(c)]
                + _coordinate_moments(list(map(c.__getitem__, a_order)), half)
                + _coordinate_moments(
                    list(map(d.__getitem__, b_order)), len(self.values) - half
                )
            )
        return out[0], out[1]

    def survey(self):
        """(zero_groups, gap): the vanishing full sums and the closest
        approach of a nonvanishing one to zero, up to global negation.

        Coordinate 0 is pinned to plus, so the restricted tables hold
        one sum of each pair s, -s (see ``_survey``).
        """
        return self.restrict(1)._survey()

    def _survey(self):
        """(zero_groups, gap) of these tables' full sums, from one pass.

        ``zero_groups`` lists the vanishing sums as (a_masks, b_masks)
        groups: every A mask of a group vanishes with every B mask of it,
        and each vanishing sum lies in exactly one group.  A entries of
        equal key are adjacent and share one run of B, so listing the
        groups costs O(2^(n/2)) however many sums vanish.

        ``gap`` is, plain, the smallest nonzero |sum| divided by ``den``,
        so in the units of the vector's own components; log, the smallest
        ratio above 1 among exp(|sum|).  Both are Fractions.  The nearest
        nonzero sums of an A entry are the B keys just outside its run
        on the zero bound, so the survey bisects on both sides of zero
        rather than taking one ``_cut``.  A log key product a * key is
        4 x_a^2 x_b^2, the full ratio times 4P.
        """
        ts = self._thresholds(self._zero)
        keys, bm = self.b_keys, self.b_masks
        lt = list(map(bisect_left, repeat(keys), ts))
        gt = list(map(bisect_right, repeat(keys), ts))
        groups = []
        rows = zip(self.a_masks, lt, gt)
        for (l, g), run in groupby(rows, key=lambda row: row[1:]):
            if l < g:
                groups.append(([a for a, _, _ in run], bm[l:g]))
        n = len(keys)
        if self.is_log:
            four_p = 4 * self.p
            above = min(
                (a * keys[g] for a, g in zip(self.a_keys, gt) if g < n), default=None
            )
            below = max(
                (a * keys[l - 1] for a, l in zip(self.a_keys, lt) if l), default=None
            )
            gaps = []
            if above is not None:
                gaps.append(Fraction(above, four_p))
            if below is not None:
                gaps.append(Fraction(four_p, below))
            return groups, min(gaps)
        above = min((keys[g] - t for t, g in zip(ts, gt) if g < n), default=None)
        below = min((t - keys[l - 1] for t, l in zip(ts, lt) if l), default=None)
        gap = min(d for d in (above, below) if d is not None)
        return groups, Fraction(gap, self.den)


def first_zero(groups):
    """The smallest vanishing mask among the zero groups, or None.

    Every mask bit of A lies below every mask bit of B, so a full mask
    orders by its B part first and a group's smallest mask joins the
    smallest mask of each side.
    """
    return min((min(am) | min(bm) for am, bm in groups), default=None)


def zero_masks(groups):
    """Every vanishing mask among the zero groups, ascending."""
    return sorted(a | b for am, bm in groups for a in am for b in bm)
