"""The sign-sum closed forms of the pair invariants.

Each form is plus or minus a quarter of the sum over all sign vectors e
of chi(e) sgn(<e, a>), chi a product of signs, read from the vector's
half tables by one ``HalfTables.sign_sum`` call: the closed form g (the
signed count at odd m), the count, the signed count at even m and the
extended count with one extra sign factor.
"""

from __future__ import annotations

from . import _SOURCES
from .core import (
    AlphaVector,
    PairSelection,
    PreconditionError,
    _format_vector,
    _parse_pair,
    orient_pair,
    parse_vector,
    require_generic,
)

__all__ = list(_SOURCES["forms"])


def closed_form_g(alpha: AlphaVector) -> int:
    """The sign-sum closed form: -(1/4) sum over all e of sgn(<e,a>) prod e.

    Equals the signed count for every pair when m is odd.  For even m the
    e and -e terms cancel pairwise, so the value is identically 0.
    """
    if alpha.m < 3:
        raise PreconditionError("closed form requires at least 3 components")
    require_generic(alpha)
    if alpha.m % 2 == 0:
        return 0
    return -alpha.half_tables().sign_sum((1 << alpha.m) - 1)


def count_via_sign_sum(alpha: AlphaVector, pair: PairSelection) -> int:
    """Solution count as (1/4) sum of e_i sgn(<e,a>) over all e, with i the
    smaller pair coordinate."""
    small, _ = orient_pair(alpha, pair)
    require_generic(alpha)
    return alpha.half_tables().sign_sum(1 << small)


def signed_count_even_via_sign_sum(alpha: AlphaVector, pair: PairSelection) -> int:
    """Signed count for even m as (1/4) sum of e_j sgn(<e,a>) prod e, with j
    the larger pair coordinate."""
    if alpha.m % 2:
        raise PreconditionError("this route requires even length")
    _, large = orient_pair(alpha, pair)
    require_generic(alpha)
    # e_j times the sign product is the sign product without e_j
    return alpha.half_tables().sign_sum(((1 << alpha.m) - 1) ^ (1 << large))


def extended_signed_count(
    alpha: AlphaVector, pair: PairSelection, h: int
) -> int:
    """Signed count with one extra sign factor at the coordinate holding
    component h: the sum of e_h prod_k e_k over the pair's solutions,
    k running over the m - 2 coordinates outside the pair.

    A sign-sum closed form.  Let T_c sum c(e) over the sign vectors e
    with <e, a> > 0, for a product c of signs, chi be the product of all
    m signs and I the larger pair member (``orient_pair``).  The window
    step of ``invariants.verify_invariance`` with chi e_h in place of chi
    (h avoids the pair, so e_h rides along) gives ext = (T_{chi e_h e_I} -
    T_{chi e_h}) / 2.  Negating e maps the sums above zero onto the sums below
    it, none vanishing on a generic vector, and multiplies a product of
    k signs by (-1)^k.  So T_c = 0 for a nonempty c of even size, and
    for odd size T_c is half of sum_e c(e) sgn(<e, a>), i.e. twice
    ``HalfTables.sign_sum``.  chi e_h has m - 1 signs and chi e_h e_I has
    m - 2, hence:

    - even m: ext = -sign_sum(chi e_h), the same for every pair
      avoiding h;
    - odd m: ext = sign_sum(chi e_h e_I), the same for every pair
      with larger member I.
    """
    if alpha.m < 4:
        raise PreconditionError("extended count requires at least 4 components")
    _, large = orient_pair(alpha, pair)
    if not 1 <= h <= alpha.m:
        raise PreconditionError("extra index out of range")
    if h in (pair.i, pair.j):
        raise PreconditionError("extra index must avoid the pair")
    require_generic(alpha)
    char = ((1 << alpha.m) - 1) ^ (1 << (h - 1))
    if alpha.m % 2:
        return alpha.half_tables().sign_sum(char ^ (1 << large))
    return -alpha.half_tables().sign_sum(char)


def _cmd_closed_form(args, inputs):
    alpha = parse_vector(args.alpha)
    pair = _parse_pair(args.pair) if args.pair else None
    inputs.update(alpha=_format_vector(alpha))
    if pair is not None:
        inputs["pair"] = [pair.i, pair.j]
        pair.validate(alpha.m)  # refused before the survey builds a table
    outputs = {"g": closed_form_g(alpha)}
    if pair is not None:
        outputs["count_via_sign_sum"] = count_via_sign_sum(alpha, pair)
        if alpha.m % 2 == 0:
            outputs["N_via_sign_sum"] = signed_count_even_via_sign_sum(
                alpha, pair
            )
    return outputs
