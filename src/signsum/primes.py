"""Logarithms of primes as a worked input family, computed two ways.

For the vector of logs of the first n primes, unique factorization keeps
every signed sum away from zero, so the enumeration machinery applies
with exact big-integer comparisons.  The signed count has a second form:
a Mobius sum over smooth numbers in a square-root window around the
primorial.  Both routes are implemented and checked against each other.
"""

from __future__ import annotations

from collections import namedtuple

from .core import (
    InternalCheckError,
    PreconditionError,
    check_generic,
    log_vector,
    max_vector_length,
)
from .invariants import verify_invariance

__all__ = [
    "PRIMES_MAX_N",
    "PrimeExample",
    "PrimeReport",
    "prime_alpha",
    "mobius_sum",
    "verify_prime_example",
]

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

    Sums the Mobius value over squarefree integers whose prime factors
    all lie among the first n primes, coprime to p_i * p_j, strictly
    between sqrt(P)/p_i and sqrt(P) with P the primorial, then flips the
    sign for odd n.  Every window comparison is done by squaring in big
    integers; P is squarefree, so neither boundary can be hit and the
    open window is decided exactly.  Non-squarefree integers contribute
    nothing and are never generated.
    """
    n = _check_n(n)
    i, j = int(i), int(j)
    if i == j:
        raise PreconditionError("pair indices must differ")
    if not 1 <= i < j <= n:
        raise PreconditionError("pair indices must satisfy 1 <= i < j <= n")
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
