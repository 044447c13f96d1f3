"""Logarithms of primes as a worked input family, computed two ways.

For the vector of logs of the first n primes, unique factorization keeps
every signed sum away from zero, so the enumeration machinery applies
with exact big-integer comparisons.  The signed count has a second form:
a Mobius sum over smooth numbers in a square-root window around the
primorial.  Both routes are implemented and checked against each other.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate
from math import isqrt, prod

from . import _SOURCES
from .core import (
    InternalCheckError,
    PairSelection,
    PreconditionError,
    _parse_pair,
    check_generic,
    log_vector,
    max_vector_length,
)
from .invariants import signed_count, verify_invariance

__all__ = [*_SOURCES["primes"], "PRIMES_MAX_N"]

PRIMES_MAX_N = 20


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _check_n(n: int) -> int:
    n = int(n)
    cap = min(PRIMES_MAX_N, max_vector_length())
    if not 3 <= n <= cap:
        raise PreconditionError(f"prime count must satisfy 3 <= n <= {cap}")
    return n


class PrimeExample(namedtuple("PrimeExample", "n primes alpha")):
    """The first n primes and their logs as a vector."""

    __slots__ = ()


def prime_alpha(n: int) -> PrimeExample:
    """First n primes as a log-realization vector.

    Genericity holds automatically by unique factorization; it is still
    asserted, and a failure would mean a bug rather than bad input.
    """
    n = _check_n(n)
    ps = _first_primes(n)
    alpha = log_vector(ps)
    if not check_generic(alpha).generic:
        raise InternalCheckError("prime logs must have no vanishing signed sum")
    return PrimeExample(n, tuple(ps), alpha)


def mobius_sum(n: int, i: int, j: int) -> int:
    """Signed count via a Mobius sum over smooth numbers.

    The pair is normalized to i < j, as ``PairSelection`` does.  Sums
    the Mobius value over squarefree integers d whose prime factors all
    lie among the first n primes, coprime to p_i * p_j, with
    sqrt(P)/p_i < d < sqrt(P) for P the primorial, then flips the sign
    for odd n.  P is squarefree, so sqrt(P) is irrational and, with
    r = isqrt(P), the window is exactly the integers r // p_i < d <= r
    (nested floors: floor(floor(x) / k) = floor(x / k) for a positive
    integer k).  The allowed primes go alternately to two halves, each
    listing its squarefree products with their Mobius signs.  A first
    half product d_A then adds mu(d_A) times the second half's Mobius
    sum over (r // p_i) // d_A < d_B <= r // d_A, two bisections into
    the sorted second half's prefix sums.
    """
    n = _check_n(n)
    pair = PairSelection(i, j)
    pair.validate(n)
    i, j = pair
    primes = _first_primes(n)
    root = isqrt(prod(primes))
    low = root // primes[i - 1]
    allowed = [p for k, p in enumerate(primes) if k not in (i - 1, j - 1)]
    halves = ([(1, 1)], [(1, 1)])
    for k, p in enumerate(allowed):
        half = halves[k % 2]
        half.extend([(d * p, -mu) for d, mu in half])
    keys, signs = zip(*sorted(halves[1]))
    sums = list(accumulate(signs, initial=0))
    total = sum(
        mu * (sums[bisect_right(keys, root // d)] - sums[bisect_right(keys, low // d)])
        for d, mu in halves[0]
    )
    return -total if n % 2 else total


class PrimeReport(namedtuple("PrimeReport", "n primes rows common by_larger")):
    """Both routes for every pair, plus the cross-pair grouping.

    ``rows`` holds (i, j, direct, mobius) per pair.  ``common`` is the
    shared value for odd n; ``by_larger`` keys the value by the larger
    prime of the pair for even n.
    """

    __slots__ = ()


def verify_prime_example(n: int) -> PrimeReport:
    """Run both routes over every pair and check the invariance pattern.

    The direct route and the cross-pair laws come from
    ``verify_invariance``.  Any disagreement between the routes, or any
    violated law, is an implementation bug and raises.
    """
    example = prime_alpha(n)
    n = example.n
    report = verify_invariance(example.alpha)
    if report.violations:
        raise InternalCheckError("; ".join(report.violations))
    rows = []
    for row in report.rows:
        i, j = row.pair
        via_mobius = mobius_sum(n, i, j)
        if row.signed != via_mobius:
            raise InternalCheckError(
                f"routes disagree at pair ({i},{j}): "
                f"direct {row.signed}, mobius {via_mobius}"
            )
        rows.append((i, j, row.signed, via_mobius))
    by_larger = None
    if report.n_by_max_omitted is not None:
        by_larger = {int(k.ratio): v for k, v in report.n_by_max_omitted.items()}
    return PrimeReport(n, example.primes, tuple(rows), report.signed, by_larger)


def _cmd_primes(args, inputs):
    pair = _parse_pair(args.pair)
    inputs.update(n=args.n, pair=[pair.i, pair.j], method=args.method)

    # one refusal for every method, before prime_alpha's survey
    pair.validate(_check_n(args.n))
    direct = via_mobius = None
    if args.method in ("direct", "both"):
        example = prime_alpha(args.n)
        direct = signed_count(example.alpha, pair)
    if args.method in ("moebius", "both"):
        via_mobius = mobius_sum(args.n, pair.i, pair.j)
    agree = None
    if direct is not None and via_mobius is not None:
        agree = direct == via_mobius
    return {
        "n": args.n,
        "pair": [pair.i, pair.j],
        "N_direct": direct,
        "N_moebius": via_mobius,
        "agree": agree,
    }
