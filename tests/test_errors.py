"""The errors that report numbers: each keeps every field its message prints."""

import inspect
import string

import pytest

from probrep import errors
from probrep.errors import (
    DimensionOverflow,
    IllConditionedReference,
    MeasuredError,
    NotHermitian,
    NotInformationallyComplete,
    NotPositive,
    NotRankOne,
    ProbrepError,
    SingularNormalizer,
    SumNotIdentity,
    TraceNotOne,
    TrialFailed,
    WrongOutcomeCount,
)

CAUSE = NotPositive(-0.125, what="POVM element 1")

# (error as its raise sites construct it, its message, its fields)
MEASURED = [
    (NotHermitian(2.5e-7, what="density matrix"),
     "density matrix is not Hermitian: max |M - M^dag| = 2.500e-07",
     {"deviation": 2.5e-7, "what": "density matrix"}),
    (NotPositive(-0.125, what="POVM element 1"),
     "POVM element 1 is not positive semidefinite: min eigenvalue = -1.250e-01",
     {"min_eigenvalue": -0.125, "what": "POVM element 1"}),
    (TraceNotOne(1.5, 1e-10),
     "trace = 1.5, expected 1 within 1e-10",
     {"trace": 1.5, "tolerance": 1e-10}),
    (SumNotIdentity(3.5e-3),
     "POVM elements do not sum to identity: max deviation = 3.500e-03",
     {"deviation": 3.5e-3}),
    (DimensionOverflow(16, 8),
     "product dimension 16 exceeds the dimension cap 8",
     {"dim": 16, "cap": 8}),
    (SingularNormalizer(float("inf")),
     "POVM normalizer is numerically singular: condition number = inf",
     {"condition_number": float("inf")}),
    (NotRankOne(2, 0.25),
     "reference element 2 is not rank 1: second eigenvalue = 2.500e-01",
     {"index": 2, "second_eigenvalue": 0.25}),
    (NotInformationallyComplete(gram_rank=3, needed=9),
     "reference elements span only a rank-3 operator subspace, need 9",
     {"gram_rank": 3, "needed": 9}),
    (IllConditionedReference(5e8, 28147497.671065602),
     "reference transfer matrix is ill-conditioned: condition number 5.000e+08, "
     "limit 2.81475e+07",
     {"condition_number": 5e8, "cap": 28147497.671065602}),
    (WrongOutcomeCount(got=4, expected=9),
     "reference measurement needs 9 outcomes, got 4",
     {"got": 4, "expected": 9}),
    (TrialFailed(3, 17, CAUSE),
     "trial 3 (seed 17): POVM element 1 is not positive semidefinite: "
     "min eigenvalue = -1.250e-01",
     {"trial": 3, "seed": 17, "cause": CAUSE}),
]

CLASSES = {name: obj for name, obj in vars(errors).items()
           if inspect.isclass(obj) and obj.__module__ == errors.__name__}


@pytest.mark.parametrize("err,message,fields", MEASURED,
                         ids=[type(err).__name__ for err, _, _ in MEASURED])
def test_error_prints_its_message_and_keeps_its_fields(err, message, fields):
    assert str(err) == message
    assert err.args == (message,)
    assert type(err).FIELDS == tuple(fields)
    assert {name: getattr(err, name) for name in fields} == fields


def test_the_table_holds_every_measured_error():
    measured = {name for name, cls in CLASSES.items()
                if issubclass(cls, MeasuredError) and cls is not MeasuredError}
    assert measured == {type(err).__name__ for err, _, _ in MEASURED}
    assert len(CLASSES) == 1 + 1 + 11 + 9  # ProbrepError, MeasuredError, the eleven, the nine
    assert all(issubclass(cls, ProbrepError) for cls in CLASSES.values())


def test_only_the_shared_base_defines_a_constructor():
    assert [name for name, cls in CLASSES.items() if "__init__" in vars(cls)] == ["MeasuredError"]


@pytest.mark.parametrize("cls", [type(err) for err, _, _ in MEASURED],
                         ids=[type(err).__name__ for err, _, _ in MEASURED])
def test_a_message_prints_exactly_the_declared_fields(cls):
    printed = {field for _, field, _, _ in string.Formatter().parse(cls.MESSAGE) if field}
    assert printed == set(cls.FIELDS)


@pytest.mark.parametrize("args,kwargs", [
    ((1.0,), {}),                                   # a field missing
    ((1.0, "matrix", 2.0), {}),                     # one argument too many
    ((1.0,), {"what": "matrix", "extra": 2.0}),     # a field it does not declare
    ((1.0, "matrix"), {"deviation": 1.0}),          # a field given twice
], ids=["missing", "too-many", "undeclared", "twice"])
def test_arguments_that_do_not_match_the_fields_are_refused(args, kwargs):
    with pytest.raises(TypeError, match="^NotHermitian takes the fields deviation, what$"):
        NotHermitian(*args, **kwargs)
