"""The package's record types: immutable named tuples with checked
constructors.

Every record is a ``collections.namedtuple`` subclass with empty
``__slots__``; the ones that validate or normalize their fields do so in
``__new__``.  These tests pin the behaviour callers rely on: fields by
name, keyword and positional construction alike, value equality and
hashing, a ``Name(field=...)`` repr, no assignment, and the checks.
"""

from fractions import Fraction

import pytest

from signsum import (
    BetaApproximation,
    GenericityReport,
    InvariantReport,
    PairInvariants,
    PairSelection,
    PreconditionError,
    PrimeExample,
    PrimeReport,
    QuadratureResult,
    Scalar,
    ShortenedVector,
    SignVector,
    SolutionSet,
    WallCrossing,
    WeightFunction,
    rational_vector,
)
from signsum.cli import CommandResult
from signsum.invariants import ScanResult

_ALPHA = rational_vector([2, 3, 4, 8])
_PAIR = PairSelection(1, 2)
_SV = SignVector(2, 1, (3, 4))

# one instance per record type, given by already normalized field values
SAMPLES = [
    (Scalar, dict(ratio=Fraction(7, 2), is_log=True)),
    (SignVector, dict(length=2, bits=1, coordinate_map=(3, 4))),
    (GenericityReport, dict(generic=False, witness=_SV)),
    (PairSelection, dict(i=1, j=2)),
    (SolutionSet, dict(pair=_PAIR, solutions=(_SV,), source=_ALPHA, signed=-1)),
    (ScanResult, dict(count=1, signed=-1, masks=(1,))),
    (PairInvariants, dict(pair=_PAIR, count=1, parity=1, signed=-1)),
    (
        InvariantReport,
        dict(
            m=4,
            rows=[PairInvariants(_PAIR, 1, 1, -1)],
            parity_invariant=True,
            parity=1,
            n_invariant=None,
            signed=None,
            n_by_max_omitted={Scalar(3): -1},
            count_by_min_omitted={Scalar(2): 1},
            abs_n_invariant=True,
            violations=[],
        ),
    ),
    (
        WallCrossing,
        dict(
            pair=_PAIR,
            perturbed=3,
            delta=Fraction(1, 4),
            jump_signed=0,
            jump_count=0,
            predicted_signed=0,
            predicted_count=0,
            wall_masks=(),
        ),
    ),
    (
        CommandResult,
        dict(command="verify", inputs={"alpha": "2,3"}, outputs=None,
             error={"type": "parse"}, exit_code=2),
    ),
    (BetaApproximation, dict(beta=(2, 3, 5), q=Fraction(4), bound=Fraction(1, 3))),
    (QuadratureResult, dict(numeric=1.0, exact=1, agree=True)),
    (
        ShortenedVector,
        dict(base=_ALPHA, replaced_index=2, deleted_index=5, sign="-"),
    ),
    (WeightFunction, dict(m=3, table=(Fraction(1), Fraction(-1)))),
    (PrimeExample, dict(n=3, primes=(2, 3, 5), alpha=_ALPHA)),
    (
        PrimeReport,
        dict(n=4, primes=(2, 3, 5, 7), rows=((1, 2, 1, 1),), common=None,
             by_larger={3: 1}),
    ),
]


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls,fields", SAMPLES, ids=[c.__name__ for c, _ in SAMPLES])
def test_record_behaviour(cls, fields):
    record = cls(**fields)
    assert record._fields == tuple(fields)
    for name, value in fields.items():
        assert getattr(record, name) == value
    positional = cls(*fields.values())
    assert positional == record and type(positional) is cls
    if _hashable(fields.values()):
        assert hash(positional) == hash(record)
        assert len({record, positional}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({body})"
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dictionary
    assert getattr(record, first) == fields[first]


def test_scalar_checks_and_normalizes():
    for bad in (0, -1, Fraction(-1, 2)):
        with pytest.raises(PreconditionError):
            Scalar(bad)
    s = Scalar(7)
    assert s == Scalar(ratio=Fraction(7), is_log=False)
    assert type(s.ratio) is Fraction and s.is_log is False
    assert Scalar("7/2").ratio == Fraction(7, 2)
    assert Scalar(2, True) != Scalar(2, False)


def test_sign_vector_checks_and_normalizes(monkeypatch):
    with pytest.raises(PreconditionError):
        SignVector(0, 0)
    with pytest.raises(PreconditionError):
        SignVector(3, 8)
    with pytest.raises(PreconditionError):
        SignVector(3, -1)
    with pytest.raises(PreconditionError):
        SignVector(2, 0, (1, 2, 3))
    sv = SignVector(2, 1, [3, 4])
    assert sv.coordinate_map == (3, 4)
    assert SignVector(length=2, bits=1).coordinate_map is None
    # the unchecked constructor builds the same record
    assert SignVector._bounded(2, 1, (3, 4)) == sv
    assert type(SignVector._bounded(2, 1, None)) is SignVector
    monkeypatch.setenv("SIGNSUM_MAX_M", "4")
    SignVector(4, 0)
    with pytest.raises(PreconditionError):
        SignVector(5, 0)


def test_pair_selection_orders_and_checks():
    assert PairSelection(3, 1) == PairSelection(i=1, j=3)
    assert PairSelection("2", 1) == (1, 2)
    with pytest.raises(PreconditionError):
        PairSelection(2, 2)
    with pytest.raises(PreconditionError):
        PairSelection(0, 2)


def test_weight_function_checks_and_normalizes():
    wf = WeightFunction(3, [1, "1/2"])
    assert wf.table == (Fraction(1), Fraction(1, 2))
    with pytest.raises(PreconditionError):
        WeightFunction(3, [1])
    with pytest.raises(PreconditionError):
        WeightFunction(4, [1, 2])
    with pytest.raises(PreconditionError):
        WeightFunction(2, [1])


def test_beta_approximation_checks_and_normalizes():
    approx = BetaApproximation([2, 3], 4, "1/3")
    assert approx.beta == (2, 3) and approx.m == 2
    assert approx.q == Fraction(4) and approx.bound == Fraction(1, 3)
    for args in (([], 1, 1), ([0, 2], 1, 1), ([2], 0, 1), ([2], 1, 0)):
        with pytest.raises(PreconditionError):
            BetaApproximation(*args)
