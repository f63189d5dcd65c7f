"""Every record owns read-only copies of its arrays and containers, compares by identity
and stores no number that its other fields determine.

Each record type is declared with operators._record. A record built by a
public producer, or directly from the caller's arrays, lists and dicts, holds
read-only copies: an array as a read-only array, a list or tuple as a tuple, and
a dict as a read-only MappingProxyType view in the same key order. A write
through the record raises, and the caller's arrays stay writable, unchanged and
apart from the record's. A record that pickle or copy.deepcopy duplicates is
built again by its constructor, so the duplicate's arrays and dicts are
read-only too. A record equals only itself and hashes, so it can be a dict key.
MeasurementFamily and FiducialCandidate hold only records, scalars and
containers of them, so their arrays are covered through the records they hold.

What each record stores, and what it derives, is pinned by RECORDS:
- Ket stores amplitudes, DensityOperator matrix and Povm elements; each
  derives dim from its array's shape. ProbVector stores values and
  CondProbMatrix rows (n_reference is their count).
- ReferenceMeasurement stores elements and derives dim from them. It is the
  one exception to the rule: it also stores projectors, transfer,
  transfer_inverse, condition_number and sic_certified, which make_reference
  computes to accept a reference.
- MeasurementFamily stores povms, a map from setting label to POVM; settings is
  its key order and dim the POVMs'.
- CorrelationTable stores probs, DataTable counts and seed; settings_a and
  settings_b are the row-major key order of the block map, and a DataTable's
  n_trials is a block's total.
- OutcomeCounts stores counts and seed; n_trials is the counts' total.
- SteeringReport stores ensembles and marginals; cross_fidelities, overlap,
  marginal_deviation and no_steering are derived from them.
- FiducialCandidate stores vector, seed, restarts_used and restart_index;
  frame_potential and max_sic_deviation are functions of vector.
"""

import copy
import dataclasses
import pickle
from collections.abc import Mapping
from types import MappingProxyType

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
    MeasurementFamily,
    SteeringReport,
    angle_family,
    canonical_chsh_table,
    correlation_table,
    direction_povm,
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
    _traces,
    check_dim,
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
    "Ket": (Ket, lambda: [np.array([1, 0], dtype=complex)]),
    "DensityOperator": (DensityOperator, lambda: [np.eye(2, dtype=complex) / 2]),
    "Povm": (Povm, lambda: [np.array([np.diag([1, 0]), np.diag([0, 1])], dtype=complex)]),
    "ProbVector": (ProbVector, lambda: [np.array([0.25, 0.75])]),
    "CondProbMatrix": (CondProbMatrix, lambda: [np.array([[0.5, 0.5], [1.0, 0.0]])]),
    "ReferenceMeasurement": (ReferenceMeasurement, lambda: [
        sic_reference(2).elements, np.ones((4, 2, 2)), np.eye(4), np.eye(4), 1.0, False]),
    "CorrelationTable": (CorrelationTable,
                         lambda: [{("a", "b"): np.eye(2) / 2, ("a", "c"): np.full((2, 2), 0.25)}]),
    "SteeringReport": (SteeringReport, lambda: [
        ([(1.0, DensityOperator(np.eye(2) / 2))], [(1.0, DensityOperator(np.eye(2) / 2))]),
        (DensityOperator(np.eye(2) / 2), DensityOperator(np.eye(2) / 2))]),
    "OutcomeCounts": (OutcomeCounts, lambda: [np.array([3, 7]), 1]),
    "DataTable": (DataTable, lambda: [{("a", "b"): np.array([[3, 0], [0, 7]])}, 1]),
}

# record type: (its fields, in order; the properties derived from them)
RECORDS = {
    Ket: (["amplitudes"], ["dim"]),
    DensityOperator: (["matrix"], ["dim"]),
    Povm: (["elements"], ["dim"]),
    ProbVector: (["values"], []),
    CondProbMatrix: (["rows"], ["n_reference"]),
    ReferenceMeasurement: (["elements", "projectors", "transfer", "transfer_inverse",
                            "condition_number", "sic_certified"], ["dim", "n_outcomes"]),
    MeasurementFamily: (["povms"], ["settings", "dim"]),
    CorrelationTable: (["probs"], ["settings_a", "settings_b"]),
    SteeringReport: (["ensembles", "marginals"],
                     ["cross_fidelities", "overlap", "marginal_deviation", "no_steering"]),
    OutcomeCounts: (["counts", "seed"], ["n_trials"]),
    DataTable: (["counts", "seed"], ["settings_a", "settings_b", "n_trials"]),
    FiducialCandidate: (["vector", "seed", "restarts_used", "restart_index"],
                        ["frame_potential", "max_sic_deviation"]),
}


# producer: (record, *arguments) -> [(a derived number of the record, the expression the
# producer stored in that number's field before it became a property)]
STORED_BEFORE = {
    "make_ket": lambda r, v: [(r.dim, check_dim(v.shape[0]))],
    "validate_density": lambda r, m: [(r.dim, check_dim(m.shape[0]))],
    "make_povm": lambda r, els: [(r.dim, check_dim(els.shape[1]))],
    "make_prob_vector": lambda r, values: [],
    "make_cond_prob": lambda r, rows: [],
    "make_reference": lambda r, povm: [(r.dim, check_dim(povm.elements.shape[1]))],
    "sic_reference": lambda r, d: [(r.dim, check_dim(d)), (r.elements.dim, check_dim(d))],
    "random_reference": lambda r, d, seed: [(r.dim, check_dim(d)),
                                            (r.elements.dim, check_dim(d))],
    "reference_from_fiducial": lambda r, ket: [
        (r.dim, check_dim(ket.amplitudes.shape[0])),
        (r.elements.dim, check_dim(ket.amplitudes.shape[0]))],
    "random_density": lambda r, d, rank, seed: [(r.dim, check_dim(d))],
    "random_povm": lambda r, d, n, seed: [(r.dim, check_dim(d))],
    "random_pure_state": lambda r, d, seed: [(r.dim, check_dim(d))],
    "correlation_table": lambda r, psi, fam_a, fam_b: [(r.settings_a, tuple(fam_a.settings)),
                                                       (r.settings_b, tuple(fam_b.settings))],
    "steering_ensembles": lambda r, psi, basis_1, basis_2: [
        (r.cross_fidelities, _traces(*(np.array([rho.matrix for _, rho in members])
                                       for members in r.ensembles))),
        *((rho.dim, psi.dim // basis_1.dim) for members in r.ensembles for _, rho in members),
        *((rho.dim, psi.dim // basis_1.dim) for rho in r.marginals)],
    "sample_outcomes": lambda r, q, n, seed: [(r.n_trials, n)],
    "data_table_sim": lambda r, table, n, seed: [(r.n_trials, int(n)),
                                                 (r.settings_a, table.settings_a),
                                                 (r.settings_b, table.settings_b)],
    "sic_search": lambda r, d, seed, restarts: [(r.vector.dim, check_dim(d))],
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
    elif isinstance(value, Mapping):
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
    table = CorrelationTable(probs)
    assert list(table.probs) == [("a", "c"), ("a", "b")]
    assert (table.settings_a, table.settings_b) == (("a",), ("c", "b"))
    np.testing.assert_array_equal(table.probs[("a", "b")], np.eye(2) / 2)


def phi_plus_z_x():
    return steering_ensembles(phi_plus(), projector_povm(np.eye(2)),
                              projector_povm(HADAMARD_BASIS))


# name: (the record, a write to a container it holds, a number derived from the record)
WRITES = {
    "ensemble-clear": (phi_plus_z_x, lambda r: r.ensembles[0].clear(), lambda r: r.no_steering),
    "ensemble-append": (phi_plus_z_x, lambda r: r.ensembles[0].append(r.ensembles[1][0]),
                        lambda r: r.no_steering),
    "table-probs-pop": (canonical_chsh_table, lambda r: r.probs.pop(next(iter(r.probs))),
                        lambda r: r.settings_a),
    "table-probs-set": (canonical_chsh_table, lambda r: r.probs.__setitem__(("x", "y"), None),
                        lambda r: r.settings_a),
    "data-table-counts-clear": (lambda: data_table_sim(canonical_chsh_table(), 10, 1),
                                lambda r: r.counts.clear(), lambda r: r.n_trials),
    "family-povms-set": (lambda: MeasurementFamily({"a": direction_povm(0.0)}),
                         lambda r: r.povms.__setitem__("b", direction_povm(1.0)),
                         lambda r: r.settings),
    "family-settings-append": (lambda: MeasurementFamily({"a": direction_povm(0.0)}),
                               lambda r: r.settings.append("b"), lambda r: r.settings),
}


@pytest.mark.parametrize("build,write,derived", WRITES.values(), ids=WRITES)
def test_a_write_to_a_records_container_raises(build, write, derived):
    record = build()
    before = repr(derived(record))
    with pytest.raises((AttributeError, TypeError)):
        write(record)
    assert repr(derived(record)) == before


@pytest.mark.parametrize("duplicate", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("build", [canonical_chsh_table,
                                   lambda: data_table_sim(canonical_chsh_table(), 10, 1),
                                   lambda: angle_family([0.0, 1.0])],
                         ids=["CorrelationTable", "DataTable", "MeasurementFamily"])
def test_a_duplicated_dict_field_is_a_read_only_view_in_key_order(build, duplicate):
    record = build()
    again = duplicate(record)
    names = [f.name for f in dataclasses.fields(record)
             if isinstance(getattr(record, f.name), Mapping)]
    assert names
    for name in names:
        mine, original = getattr(again, name), getattr(record, name)
        assert type(mine) is MappingProxyType and type(original) is MappingProxyType
        assert list(mine) == list(original)
        with pytest.raises(TypeError):
            mine[next(iter(mine))] = None


@EVERY_RECORD
def test_a_record_equals_only_itself_and_hashes(build, arguments):
    record = build(*arguments())
    again = copy.deepcopy(record)
    assert record == record and not record != record
    assert record != again and not record == again
    assert hash(record) == object.__hash__(record)
    assert {record: 1, again: 2}[record] == 1


@pytest.mark.parametrize("record_type", RECORDS, ids=[t.__name__ for t in RECORDS])
def test_a_record_stores_its_fields_and_derives_the_rest(record_type):
    fields, derived = RECORDS[record_type]
    assert [f.name for f in dataclasses.fields(record_type)] == fields
    for name in derived:
        assert isinstance(getattr(record_type, name), property), name


@pytest.mark.parametrize("producer", PRODUCERS)
def test_a_derived_number_is_the_number_once_stored(producer):
    build, arguments = PRODUCERS[producer]
    arguments = arguments()
    record = build(*arguments)
    for now, before in STORED_BEFORE[producer](record, *arguments):
        if isinstance(before, np.ndarray):
            assert (now.dtype, now.shape) == (before.dtype, before.shape)
            assert now.tobytes() == before.tobytes()
            assert not now.flags.writeable
        else:
            assert repr(now) == repr(before)


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
