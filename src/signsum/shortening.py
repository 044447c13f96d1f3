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

from collections import namedtuple

from . import _SOURCES
from .core import (
    AlphaVector,
    InternalCheckError,
    PairSelection,
    ParseError,
    PreconditionError,
    Scalar,
    _format_vector,
    _parse_int_list,
    format_scalar,
    parse_vector,
    require_generic,
)

# The verifiers import what they need from ``invariants`` and ``forms``
# when they run, so that ``shorten`` alone does not load them.

__all__ = list(_SOURCES["shortening"])


def compare_scalars(a: Scalar, b: Scalar) -> int:
    """Exact three-way comparison of values: -1, 0, or +1."""
    b = a._other(b)
    if a.ratio == b.ratio:
        return 0
    return -1 if a.ratio < b.ratio else 1


def scalar_add(a: Scalar, b: Scalar) -> Scalar:
    """Value a + b; in log form the arguments multiply."""
    b = a._other(b)
    if a.is_log:
        return Scalar(a.ratio * b.ratio, True)
    return Scalar(a.ratio + b.ratio, False)


def scalar_abs_diff(a: Scalar, b: Scalar) -> Scalar:
    """Value |a - b|; rejects a == b, which would produce a zero component."""
    b = a._other(b)
    if a.ratio == b.ratio:
        raise PreconditionError("difference of equal components is zero")
    if a.is_log:
        hi, lo = (a.ratio, b.ratio) if a.ratio > b.ratio else (b.ratio, a.ratio)
        return Scalar(hi / lo, True)
    return Scalar(abs(a.ratio - b.ratio), False)


class ShortenedVector(
    namedtuple("ShortenedVector", "base replaced_index deleted_index sign")
):
    """Result of one shortening step.

    ``replaced_index`` and ``deleted_index`` are 1-based indices into the
    source vector; the base vector keeps original index labels, with the
    replaced slot retaining index j.
    """

    __slots__ = ()

    @property
    def new_scalar(self) -> Scalar:
        for pos in range(self.base.m):
            if self.base.original_index(pos) == self.replaced_index:
                return self.base.components[pos]
        raise InternalCheckError("replaced slot missing from shortened vector")


def shorten(alpha: AlphaVector, j: int, k: int, sign: str) -> ShortenedVector:
    """Replace a_j by |a_j +- a_k| and delete a_k.

    Requires a generic source.  The result is then generic without a
    survey of its own: each of its signed sums is a signed sum of the
    source (with the k sign slaved to the j sign), so none vanishes.
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
    return ShortenedVector(
        base=AlphaVector(comps, index_map=imap),
        replaced_index=alpha.original_index(j - 1),
        deleted_index=alpha.original_index(k - 1),
        sign=sign,
    )


def delete_pair(alpha: AlphaVector, pair: PairSelection) -> AlphaVector:
    """Drop the pair's two coordinates, keeping original index labels."""
    if alpha.m < 3:
        raise PreconditionError("pair deletion requires at least 3 components")
    pair.validate(alpha.m)
    skip = (pair.i - 1, pair.j - 1)
    comps = []
    imap = []
    for pos, c in enumerate(alpha.components):
        if pos in skip:
            continue
        comps.append(c)
        imap.append(alpha.original_index(pos))
    return AlphaVector(comps, index_map=imap)


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


def _components(alpha: AlphaVector, *indices: int) -> list[Scalar]:
    """The components at the 1-based ``indices``, each checked in range."""
    for idx in indices:
        if not 1 <= idx <= alpha.m:
            raise PreconditionError("index out of range")
    return [alpha.components[idx - 1] for idx in indices]


def _distinct(*indices) -> None:
    if len(set(indices)) != len(indices):
        raise PreconditionError("indices must be pairwise distinct")


# Each verifier checks its indices and value conditions before the
# genericity survey, so a refused request builds no table.


def verify_count_split(alpha: AlphaVector, i: int, j: int, k: int) -> bool:
    """Count split across one shortening of component j by component k.

    Requires a_k <= a_j - a_i exactly.  This is the general split
    (``verify_count_split_general``) at (r, s) = (j, k), whose domain
    holds: the indices are distinct, and with positive components
    a_k <= a_j - a_i implies a_i <= a_j, a_j != a_k, a_j + a_k >= a_i
    and |a_j - a_k| >= a_i.
    """
    if alpha.m < 4:
        raise PreconditionError("count split requires at least 4 components")
    ai, aj, ak = _components(alpha, i, j, k)
    _distinct(i, j, k)
    # a_k <= a_j - a_i, stated with a sum to stay inside positive scalars
    if compare_scalars(scalar_add(ak, ai), aj) > 0:
        raise PreconditionError("need a_k <= a_j - a_i")
    return verify_count_split_general(alpha, i, j, j, k)


def verify_signed_split_even(alpha: AlphaVector, i: int, j: int, k: int) -> bool:
    """Even-length signed split: N equals a signed combination of the two
    shortenings of j by k, whose odd length makes their N pair-free.

    When a_j = a_k the difference term carries a zero sign factor and is
    dropped (the difference vector would have a zero entry).
    """
    m = alpha.m
    if m < 4 or m % 2:
        raise PreconditionError("signed split requires even length >= 4")
    ai, aj, ak = _components(alpha, i, j, k)
    _distinct(i, j, k)
    if compare_scalars(ai, aj) > 0:
        raise PreconditionError("need a_i <= a_j")
    require_generic(alpha)

    from .forms import closed_form_g
    from .invariants import signed_count

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
    still checked because it is part of the stated contract.  The right
    side pairs a_i with the shortened value on each of the two
    shortenings of r by s.
    """
    if alpha.m < 4:
        raise PreconditionError("count split requires at least 4 components")
    ai, aj, ar, as_ = _components(alpha, i, j, r, s)
    if i == j:
        raise PreconditionError("pair indices must differ")
    if r == s:
        raise PreconditionError("shortening indices must differ")
    if i in (r, s):
        raise PreconditionError("shortening indices must avoid i")
    if compare_scalars(ai, aj) > 0:
        raise PreconditionError("need a_i <= a_j")
    if compare_scalars(ar, as_) == 0:
        raise PreconditionError("equal shortening components, difference is zero")
    if compare_scalars(scalar_add(ar, as_), ai) < 0:
        raise PreconditionError("need a_r + a_s >= a_i")
    if compare_scalars(scalar_abs_diff(ar, as_), ai) < 0:
        raise PreconditionError("need |a_r - a_s| >= a_i")
    require_generic(alpha)

    from .invariants import count_solutions

    rhs = 0
    for sign in ("-", "+"):
        shortened = shorten(alpha, r, s, sign)
        pair = pair_for_values(shortened.base, ai, shortened.new_scalar)
        rhs += count_solutions(shortened.base, pair)
    return count_solutions(alpha, PairSelection(i, j)) == rhs


def verify_signed_split_odd(
    alpha: AlphaVector, i: int, j: int, k: int
) -> tuple[str, bool]:
    """Odd-length signed split through shortening the pair (i, j).

    Two variants share the operation.  With a_i != a_j and a_k <= |a_i - a_j|,
    the pair-free N of the source splits over both shortenings, each paired
    by value with a_k.  With a_i = a_j and a_k <= 2 a_i, only the sum
    shortening exists and a doubled pair-deleted term replaces the other.

    Returns (orientation, holds): the stated placement of the minus sign,
    on the sum-value term, and whether the identity holds with it.
    """
    m = alpha.m
    if m < 5 or m % 2 == 0:
        raise PreconditionError("odd signed split requires odd length >= 5")
    ai, aj, ak = _components(alpha, i, j, k)
    _distinct(i, j, k)
    tied = compare_scalars(ai, aj) == 0
    if tied and compare_scalars(ak, scalar_add(ai, aj)) > 0:
        raise PreconditionError("need a_k <= 2 a_i")
    if not tied and compare_scalars(ak, scalar_abs_diff(ai, aj)) > 0:
        raise PreconditionError("need a_k <= |a_i - a_j|")
    require_generic(alpha)

    from .forms import closed_form_g
    from .invariants import signed_count

    lhs = closed_form_g(alpha)
    g_plus = shorten(alpha, i, j, "+")
    plus_term = signed_count(
        g_plus.base, pair_for_values(g_plus.base, ak, g_plus.new_scalar)
    )
    if tied:
        core = delete_pair(alpha, PairSelection(i, j))
        return "stated", lhs == -plus_term - 2 * closed_form_g(core)
    g_minus = shorten(alpha, i, j, "-")
    minus_term = signed_count(
        g_minus.base, pair_for_values(g_minus.base, ak, g_minus.new_scalar)
    )
    return "stated", lhs == minus_term - plus_term


def _cmd_shorten(args, inputs):
    alpha = parse_vector(args.alpha)
    inputs.update(alpha=_format_vector(alpha), j=args.j, k=args.k, sign=args.sign)
    shortened = shorten(alpha, args.j, args.k, args.sign)
    base = shortened.base
    return {
        "gamma": _format_vector(base),
        "coordinates": [base.original_index(p) for p in range(base.m)],
        "replaced_index": shortened.replaced_index,
        "deleted_index": shortened.deleted_index,
        "sign": shortened.sign,
        "new_component": format_scalar(shortened.new_scalar),
    }


# each identity that verify-shortening takes: its index count and its
# verifier; the command line's --identity choices list the same names
_IDENTITIES = {
    "count-split": (3, verify_count_split),
    "signed-even": (3, verify_signed_split_even),
    "count-general": (4, verify_count_split_general),
    "signed-odd": (3, verify_signed_split_odd),
}


def _cmd_verify_shortening(args, inputs):
    alpha = parse_vector(args.alpha)
    indices = _parse_int_list(args.indices, "indices")
    arity, verifier = _IDENTITIES[args.identity]
    if len(indices) != arity:
        raise ParseError(f"identity {args.identity} takes {arity} indices")
    inputs.update(
        alpha=_format_vector(alpha), identity=args.identity, indices=indices
    )
    holds = verifier(alpha, *indices)
    outputs = {"identity": args.identity, "holds": holds}
    if isinstance(holds, tuple):  # signed-odd also names its orientation
        outputs["orientation"], outputs["holds"] = holds
    return outputs
