"""Every record owns read-only copies of its arrays, compares by identity and stores
no number that its other fields determine.

Each record type is declared with operators._record. A record built by a
public producer, or directly from the caller's arrays and dicts, holds
read-only copies: a write through the record raises, and the caller's
arrays stay writable, unchanged and apart from the record's. A record
that pickle or copy.deepcopy duplicates is built again by its constructor,
so the duplicate's arrays are read-only too. A record equals only itself and
hashes, so it can be a dict key. MeasurementFamily and
FiducialCandidate hold only records and scalars, so they are covered
through the records they hold.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from probrep import sic
from probrep.born import (
    CondProbMatrix,
    ReferenceMeasurement,
    make_cond_prob,
    make_reference,
    random_reference,
    reference_from_fiducial,
    sic_reference,
)
from probrep.correlations import (
    CorrelationTable,
    SteeringReport,
    angle_family,
    canonical_chsh_table,
    correlation_table,
    phi_plus,
    singlet,
    steering_ensembles,
)
from probrep.errors import NO_STEERING_TOL
from probrep.operators import (
    DensityOperator,
    Ket,
    Povm,
    ProbVector,
    make_ket,
    make_povm,
    make_prob_vector,
    projector_povm,
    random_density,
    random_povm,
    random_pure_state,
    validate_density,
)
from probrep.sampling import DataTable, OutcomeCounts, data_table_sim, sample_outcomes
from probrep.sic import FiducialCandidate, known_fiducial, sic_search, wh_orbit

HADAMARD_BASIS = np.array([[1, 1], [1, -1]]) / np.sqrt(2)

# (build, arguments): the record is build(*arguments()); the arrays and dicts among
# the arguments are the caller's.
PRODUCERS = {
    "make_ket": (make_ket, lambda: [np.array([1, 1j]) / np.sqrt(2)]),
    "validate_density": (validate_density, lambda: [np.eye(2, dtype=complex) / 2]),
    "make_povm": (make_povm, lambda: [np.array([np.diag([1, 0]), np.diag([0, 1])],
                                               dtype=complex)]),
    "make_prob_vector": (make_prob_vector, lambda: [np.array([0.25, 0.75])]),
    "make_cond_prob": (make_cond_prob, lambda: [np.array([[0.5, 0.5], [1.0, 0.0]])]),
    "make_reference": (make_reference, lambda: [make_povm(wh_orbit(known_fiducial(2)) / 2)]),
    "sic_reference": (sic_reference, lambda: [2]),
    "random_reference": (random_reference, lambda: [3, 1]),
    "reference_from_fiducial": (reference_from_fiducial, lambda: [known_fiducial(3)]),
    "random_density": (random_density, lambda: [3, 2, 1]),
    "random_povm": (random_povm, lambda: [2, 3, 1]),
    "random_pure_state": (random_pure_state, lambda: [3, 1]),
    "correlation_table": (correlation_table,
                          lambda: [singlet(), angle_family([0.0, 1.0]), angle_family([0.5])]),
    "steering_ensembles": (steering_ensembles, lambda: [
        phi_plus(), projector_povm(np.eye(2)), projector_povm(HADAMARD_BASIS)]),
    "sample_outcomes": (sample_outcomes, lambda: [np.array([0.25, 0.75]), 10, 1]),
    "data_table_sim": (data_table_sim, lambda: [canonical_chsh_table(), 10, 1]),
    "sic_search": (sic_search, lambda: [2, 1, 3]),
}

DIRECT = {
    "Ket": (Ket, lambda: [2, np.array([1, 0], dtype=complex)]),
    "DensityOperator": (DensityOperator, lambda: [2, np.eye(2, dtype=complex) / 2]),
    "Povm": (Povm, lambda: [2, np.array([np.diag([1, 0]), np.diag([0, 1])], dtype=complex)]),
    "ProbVector": (ProbVector, lambda: [np.array([0.25, 0.75])]),
    "CondProbMatrix": (CondProbMatrix, lambda: [np.array([[0.5, 0.5], [1.0, 0.0]])]),
    "ReferenceMeasurement": (ReferenceMeasurement, lambda: [
        2, sic_reference(2).elements, np.ones((4, 2, 2)), np.eye(4), np.eye(4), 1.0, False]),
    "CorrelationTable": (CorrelationTable,
                         lambda: [("a",), ("b", "c"), {("a", "b"): np.eye(2) / 2,
                                                       ("a", "c"): np.full((2, 2), 0.25)}]),
    "SteeringReport": (SteeringReport, lambda: [
        ([(1.0, DensityOperator(2, np.eye(2) / 2))], []),
        (DensityOperator(2, np.eye(2) / 2), DensityOperator(2, np.eye(2) / 2)),
        np.ones((1, 0))]),
    "OutcomeCounts": (OutcomeCounts, lambda: [np.array([3, 7]), 10, 1]),
    "DataTable": (DataTable, lambda: [("a",), ("b",), {("a", "b"): np.array([[3, 0], [0, 7]])},
                                      10, 1]),
}


def arrays_in(value):
    """Every array reachable from value: through record fields, tuples, lists and dict values."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from arrays_in(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from arrays_in(item)


EVERY_RECORD = pytest.mark.parametrize(
    "build,arguments", [*PRODUCERS.values(), *DIRECT.values()],
    ids=[*PRODUCERS, *(f"direct-{name}" for name in DIRECT)])


@EVERY_RECORD
def test_a_record_owns_read_only_copies_of_its_arrays(build, arguments):
    arguments = arguments()
    given = [a for a in arguments if isinstance(a, (np.ndarray, dict))]
    shallow = [dict(a) if isinstance(a, dict) else a for a in given]
    deep = copy.deepcopy(given)
    record = build(*arguments)

    held = list(arrays_in(record))
    assert held
    for array in held:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0

    for value, entries, before in zip(given, shallow, deep):
        if isinstance(value, dict):
            assert all(value is not field for field in vars(record).values())
            assert list(value) == list(entries)
            assert all(value[key] is entries[key] for key in value)
        for mine, old in zip(arrays_in(value), arrays_in(before)):
            assert mine.flags.writeable
            np.testing.assert_array_equal(mine, old)
            assert not any(np.shares_memory(mine, array) for array in held)


@pytest.mark.parametrize("duplicate", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("producer", ["sic_search", "steering_ensembles", "data_table_sim",
                                      "random_reference"])
def test_a_duplicated_record_is_read_only_too(producer, duplicate):
    build, arguments = PRODUCERS[producer]
    record = build(*arguments())
    again = duplicate(record)
    assert type(again) is type(record)
    for array, original in zip(arrays_in(again), arrays_in(record), strict=True):
        assert not array.flags.writeable
        np.testing.assert_array_equal(array, original)


def test_a_dict_field_keeps_its_key_order():
    probs = {("a", "c"): np.full((2, 2), 0.25), ("a", "b"): np.eye(2) / 2}
    table = CorrelationTable(("a",), ("b", "c"), probs)
    assert list(table.probs) == [("a", "c"), ("a", "b")]
    np.testing.assert_array_equal(table.probs[("a", "b")], np.eye(2) / 2)


@EVERY_RECORD
def test_a_record_equals_only_itself_and_hashes(build, arguments):
    record = build(*arguments())
    again = copy.deepcopy(record)
    assert record == record and not record != record
    assert record != again and not record == again
    assert hash(record) == object.__hash__(record)
    assert {record: 1, again: 2}[record] == 1


def test_derived_numbers_are_properties_not_fields():
    assert [f.name for f in dataclasses.fields(FiducialCandidate)] == [
        "vector", "seed", "restarts_used", "restart_index"]
    assert [f.name for f in dataclasses.fields(SteeringReport)] == [
        "ensembles", "marginals", "cross_fidelities"]


@pytest.mark.parametrize("dim,seed,restarts,tol", [(2, 1, 3, 1e-8), (3, 0, 5, 1e-8),
                                                    (5, 1, 1, 1e-8), (4, 2, 3, 1e-300)])
def test_a_candidate_reports_the_sic_functions_of_its_vector(dim, seed, restarts, tol):
    candidate = sic_search(dim, seed, restarts, tol)
    assert repr(candidate.frame_potential) == repr(sic.frame_potential(candidate.vector))
    assert repr(candidate.max_sic_deviation) == repr(sic.max_sic_deviation(candidate.vector))


@pytest.mark.parametrize("psi,basis_2", [
    (phi_plus(), HADAMARD_BASIS), (singlet(), np.eye(2)),
    (random_pure_state(4, 3), HADAMARD_BASIS), (random_pure_state(6, 1), np.eye(2))],
    ids=["phi+-x", "singlet-z", "random-d4-x", "random-d6-z"])
def test_a_steering_report_derives_its_overlap_and_marginal_deviation(psi, basis_2):
    report = steering_ensembles(psi, projector_povm(np.eye(2)), projector_povm(basis_2))
    first, second = (m.matrix for m in report.marginals)
    assert repr(report.overlap) == repr(float(report.cross_fidelities.max()))
    assert repr(report.marginal_deviation) == repr(float(np.max(np.abs(first - second))))
    assert report.no_steering == (report.overlap > 1.0 - NO_STEERING_TOL)
