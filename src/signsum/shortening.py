"""Shortened vectors and the splitting identities they satisfy.

Shortening replaces component j by |a_j + a_k| or |a_j - a_k| and deletes
component k, producing a vector one shorter whose signed sums are all
signed sums of the original.  The verifier operations check the exact
splitting identities that relate solution counts and signed counts across
a shortening, with every precondition enforced as stated.

Pairs on shortened vectors are selected by component value, taking the
lowest-index occurrence (the first two occurrences when the two values
coincide).  The by-value dependence laws make this choice immaterial, and
the test suite confirms it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AlphaVector,
    InternalCheckError,
    PairSelection,
    PreconditionError,
    Scalar,
    check_generic,
    compare_scalars,
    delete_pair,
    require_generic,
    scalar_abs_diff,
    scalar_add,
)
from .invariants import closed_form_g, count_solutions, signed_count

__all__ = [
    "ShortenedVector",
    "ORIENTATION_RESOLVED",
    "shorten",
    "pair_for_values",
    "verify_count_split",
    "verify_signed_split_even",
    "verify_count_split_general",
    "verify_signed_split_odd",
]

# The odd-length signed split admits two readings of which shortened vector
# pairs with which bound value; this build resolves to the reading whose
# minus sign sits on the sum-value term.  Frozen after exhaustive checks.
ORIENTATION_RESOLVED = "stated"


@dataclass(frozen=True)
class ShortenedVector:
    """Result of one shortening step.

    ``replaced_index`` and ``deleted_index`` are 1-based indices into the
    source vector; the base vector keeps original index labels, with the
    replaced slot retaining index j.
    """

    base: AlphaVector
    replaced_index: int
    deleted_index: int
    sign: str

    @property
    def new_scalar(self) -> Scalar:
        for pos in range(self.base.m):
            if self.base.original_index(pos) == self.replaced_index:
                return self.base.components[pos]
        raise InternalCheckError("replaced slot missing from shortened vector")


def shorten(alpha: AlphaVector, j: int, k: int, sign: str) -> ShortenedVector:
    """Replace a_j by |a_j +- a_k| and delete a_k.

    Requires a generic source; the result is generic automatically because
    each of its signed sums is a signed sum of the source (with the k sign
    slaved to the j sign), which is asserted rather than re-derived.
    """
    m = alpha.m
    if m < 3:
        raise PreconditionError("shortening requires at least 3 components")
    if not (1 <= j <= m and 1 <= k <= m):
        raise PreconditionError("shortening indices out of range")
    if j == k:
        raise PreconditionError("shortening indices must differ")
    if sign not in ("+", "-"):
        raise PreconditionError("shortening sign must be '+' or '-'")
    require_generic(alpha)

    cj, ck = alpha.components[j - 1], alpha.components[k - 1]
    if sign == "+":
        new = scalar_add(cj, ck)
    else:
        if compare_scalars(cj, ck) == 0:
            raise PreconditionError(
                "components are equal, the shortened entry would be zero"
            )
        new = scalar_abs_diff(cj, ck)

    comps = []
    imap = []
    for pos in range(m):
        if pos == k - 1:
            continue
        comps.append(new if pos == j - 1 else alpha.components[pos])
        imap.append(alpha.original_index(pos))
    base = AlphaVector(comps, index_map=imap)
    if not check_generic(base).generic:
        raise InternalCheckError("shortened vector lost genericity")
    return ShortenedVector(
        base=base,
        replaced_index=alpha.original_index(j - 1),
        deleted_index=alpha.original_index(k - 1),
        sign=sign,
    )


def pair_for_values(alpha: AlphaVector, va: Scalar, vb: Scalar) -> PairSelection:
    """Pair of the lowest-index positions holding the two values."""
    first = None
    for pos, c in enumerate(alpha.components):
        if c == va:
            first = pos
            break
    if first is None:
        raise PreconditionError("first value not present in the vector")
    for pos, c in enumerate(alpha.components):
        if pos != first and c == vb:
            return PairSelection(first + 1, pos + 1)
    raise PreconditionError("second value not present in the vector")


def _distinct(*indices) -> None:
    if len(set(indices)) != len(indices):
        raise PreconditionError("indices must be pairwise distinct")


def _count_split_rhs(alpha: AlphaVector, ai: Scalar, r: int, s: int) -> int:
    """Right side of both count splits: the counts of the pair (a_i, new
    value) on the two shortenings of component r by component s."""
    total = 0
    for sign in ("-", "+"):
        shortened = shorten(alpha, r, s, sign)
        pair = pair_for_values(shortened.base, ai, shortened.new_scalar)
        total += count_solutions(shortened.base, pair)
    return total


def verify_count_split(alpha: AlphaVector, i: int, j: int, k: int) -> bool:
    """Count split across one shortening of component j by component k.

    Requires a_k <= a_j - a_i exactly.  The right side pairs a_i with the
    shortened values on the two shortened vectors.
    """
    m = alpha.m
    if m < 4:
        raise PreconditionError("count split requires at least 4 components")
    for idx in (i, j, k):
        if not 1 <= idx <= m:
            raise PreconditionError("index out of range")
    _distinct(i, j, k)
    require_generic(alpha)
    ai, aj, ak = (alpha.components[t - 1] for t in (i, j, k))
    # a_k <= a_j - a_i, stated with a sum to stay inside positive scalars
    if compare_scalars(scalar_add(ak, ai), aj) > 0:
        raise PreconditionError("need a_k <= a_j - a_i")

    lhs = count_solutions(alpha, PairSelection(i, j))
    return lhs == _count_split_rhs(alpha, ai, j, k)


def verify_signed_split_even(alpha: AlphaVector, i: int, j: int, k: int) -> bool:
    """Even-length signed split: N equals a signed combination of the two
    shortenings of j by k, whose odd length makes their N pair-free.

    When a_j = a_k the difference term carries a zero sign factor and is
    dropped (the difference vector would have a zero entry).
    """
    m = alpha.m
    if m < 4 or m % 2:
        raise PreconditionError("signed split requires even length >= 4")
    for idx in (i, j, k):
        if not 1 <= idx <= m:
            raise PreconditionError("index out of range")
    _distinct(i, j, k)
    require_generic(alpha)
    ai, aj, ak = (alpha.components[t - 1] for t in (i, j, k))
    if compare_scalars(ai, aj) > 0:
        raise PreconditionError("need a_i <= a_j")

    lhs = signed_count(alpha, PairSelection(i, j))
    sgn = compare_scalars(aj, ak)
    plus_term = closed_form_g(shorten(alpha, j, k, "+").base)
    if sgn == 0:
        rhs = -plus_term
    else:
        minus_term = closed_form_g(shorten(alpha, j, k, "-").base)
        rhs = sgn * minus_term - plus_term
    return lhs == rhs


def verify_count_split_general(
    alpha: AlphaVector, i: int, j: int, r: int, s: int
) -> bool:
    """Count split through any shortening pair (r, s) avoiding i.

    Requires a_r + a_s >= a_i and |a_r - a_s| >= a_i, both exact.  The
    first condition is implied by the second for positive components; it is
    still checked because it is part of the stated contract.
    """
    m = alpha.m
    if m < 4:
        raise PreconditionError("count split requires at least 4 components")
    for idx in (i, j, r, s):
        if not 1 <= idx <= m:
            raise PreconditionError("index out of range")
    if i == j:
        raise PreconditionError("pair indices must differ")
    if r == s:
        raise PreconditionError("shortening indices must differ")
    if i in (r, s):
        raise PreconditionError("shortening indices must avoid i")
    require_generic(alpha)
    ai, aj = alpha.components[i - 1], alpha.components[j - 1]
    ar, as_ = alpha.components[r - 1], alpha.components[s - 1]
    if compare_scalars(ai, aj) > 0:
        raise PreconditionError("need a_i <= a_j")
    if compare_scalars(ar, as_) == 0:
        raise PreconditionError("equal shortening components, difference is zero")
    if compare_scalars(scalar_add(ar, as_), ai) < 0:
        raise PreconditionError("need a_r + a_s >= a_i")
    if compare_scalars(scalar_abs_diff(ar, as_), ai) < 0:
        raise PreconditionError("need |a_r - a_s| >= a_i")

    lhs = count_solutions(alpha, PairSelection(i, j))
    return lhs == _count_split_rhs(alpha, ai, r, s)


def verify_signed_split_odd(
    alpha: AlphaVector, i: int, j: int, k: int
) -> tuple[str, bool]:
    """Odd-length signed split through shortening the pair (i, j).

    Two variants share the operation.  With a_i != a_j and a_k <= |a_i - a_j|,
    the pair-free N of the source splits over both shortenings, each paired
    by value with a_k.  With a_i = a_j and a_k <= 2 a_i, only the sum
    shortening exists and a doubled pair-deleted term replaces the other.

    Returns (orientation, holds).  Both placements of the minus sign are
    tested; the one that holds is reported, and the build's resolved reading
    is the "stated" placement (minus on the sum-value term).
    """
    m = alpha.m
    if m < 5 or m % 2 == 0:
        raise PreconditionError("odd signed split requires odd length >= 5")
    for idx in (i, j, k):
        if not 1 <= idx <= m:
            raise PreconditionError("index out of range")
    _distinct(i, j, k)
    require_generic(alpha)
    ai, aj, ak = (alpha.components[t - 1] for t in (i, j, k))
    lhs = closed_form_g(alpha)

    if compare_scalars(ai, aj) == 0:
        if compare_scalars(ak, scalar_add(ai, aj)) > 0:
            raise PreconditionError("need a_k <= 2 a_i")
        g_plus = shorten(alpha, i, j, "+")
        plus_term = signed_count(
            g_plus.base, pair_for_values(g_plus.base, ak, g_plus.new_scalar)
        )
        core = delete_pair(alpha, PairSelection(i, j))
        holds = lhs == -plus_term - 2 * closed_form_g(core)
        return "stated", holds

    if compare_scalars(ak, scalar_abs_diff(ai, aj)) > 0:
        raise PreconditionError("need a_k <= |a_i - a_j|")
    g_minus = shorten(alpha, i, j, "-")
    g_plus = shorten(alpha, i, j, "+")
    minus_term = signed_count(
        g_minus.base, pair_for_values(g_minus.base, ak, g_minus.new_scalar)
    )
    plus_term = signed_count(
        g_plus.base, pair_for_values(g_plus.base, ak, g_plus.new_scalar)
    )
    if lhs == minus_term - plus_term:
        return "stated", True
    if lhs == plus_term - minus_term:
        return "swapped", True
    raise InternalCheckError("odd signed split fails in both orientations")
