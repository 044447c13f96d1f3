"""Shared oracles and generators for the test suite.

The brute-force oracle below is deliberately written in the most naive
style possible (itertools over sign tuples, Fraction arithmetic, no
bit tricks) so that it shares no code path with the library it checks.
"""

import itertools
import math
import os
import random
from fractions import Fraction

import pytest

import signsum
from signsum import rational_vector

# the directory holding the signsum package under test, for child processes
SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(signsum.__file__)))


def child_env():
    """This environment with the package under test first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SOURCE_ROOT, env.get("PYTHONPATH")) if p
    )
    return env


def brute_force_pair(values, i0, j0):
    """Solution tuples, count, signed count, and parity for a 0-based pair.

    ``values`` are Fractions; solutions are sign tuples over the non-pair
    positions in ascending position order.
    """
    m = len(values)
    rest = [p for p in range(m) if p != i0 and p != j0]
    lo = abs(values[i0] - values[j0])
    hi = values[i0] + values[j0]
    sols = []
    for signs in itertools.product((1, -1), repeat=len(rest)):
        s = sum(e * values[p] for e, p in zip(signs, rest))
        if lo < s < hi:
            sols.append(signs)
    count = len(sols)
    signed = sum(math.prod(sg) for sg in sols)
    return sols, count, signed, count % 2


def is_generic_values(values):
    """True when no full-length signed sum vanishes."""
    for signs in itertools.product((1, -1), repeat=len(values) - 1):
        if values[0] + sum(e * v for e, v in zip(signs, values[1:])) == 0:
            return False
    return True


def random_generic_values(rng, m, max_num=60, max_den=8):
    """Random generic positive Fractions, retrying degenerate draws."""
    while True:
        vals = [
            Fraction(rng.randint(1, max_num), rng.randint(1, max_den))
            for _ in range(m)
        ]
        if is_generic_values(vals):
            return vals


def random_generic_vector(rng, m, max_num=60, max_den=8):
    return rational_vector(random_generic_values(rng, m, max_num, max_den))


def random_generic_ints(rng, m, max_val=20):
    """Random generic positive integer components as plain ints."""
    while True:
        vals = [rng.randint(1, max_val) for _ in range(m)]
        if is_generic_values([Fraction(v) for v in vals]):
            return vals


@pytest.fixture
def rng():
    return random.Random(0x5153)


@pytest.fixture
def integrand_calls(monkeypatch):
    """The points at which the quadrature evaluates its integrand."""
    from signsum import trig

    calls = []
    build = trig._build_integrand

    def counting(sin_freqs, cos_freqs):
        f = build(sin_freqs, cos_freqs)
        return lambda x: calls.append(x) or f(x)

    monkeypatch.setattr(trig, "_build_integrand", counting)
    return calls


@pytest.fixture
def no_tables(monkeypatch):
    """Any half-table build fails the test: a cheap refusal must come
    before it.  Every sign sum is a question to a built table."""
    from signsum import _halves

    def forbidden(*args, **kwargs):
        raise AssertionError("table work before a cheap precondition")

    monkeypatch.setattr(_halves, "HalfTables", forbidden)
