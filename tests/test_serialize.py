import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from probrep import (
    make_ket,
    random_density,
    random_povm,
    random_pure_state,
    random_reference,
    reference_from_fiducial,
    sic_search,
)
from probrep import serialize
from probrep.correlations import canonical_chsh_table
from probrep.sampling import data_table_sim


def test_ket_round_trip():
    ket = random_pure_state(3, seed=1)
    payload = serialize.ket_payload(ket)
    back = serialize.ket_from_payload(json.loads(serialize.dumps(payload)))
    assert_allclose(back.amplitudes, ket.amplitudes, atol=1e-15)


def test_density_round_trip():
    rho = random_density(4, 2, seed=2)
    payload = serialize.operator_payload(rho)
    back = serialize.density_from_payload(json.loads(serialize.dumps(payload)))
    assert_allclose(back.matrix, rho.matrix, atol=1e-12)


def test_povm_round_trip():
    povm = random_povm(2, 3, seed=3)
    back = serialize.povm_from_payload(serialize.povm_payload(povm))
    assert_allclose(back.elements, povm.elements, atol=1e-12)


def test_reference_round_trip_keeps_certification_flag():
    ref = random_reference(2, seed=4)
    payload = serialize.reference_payload(ref)
    assert payload["sic_certified"] is False
    back = serialize.reference_from_payload(payload)
    assert_allclose(back.transfer, ref.transfer, atol=1e-10)


def test_fiducial_round_trip():
    # a sic-search result reads back as the reference on its fiducial's orbit, bit for bit
    cand = sic_search(3, seed=1, restarts=20)
    back = serialize.reference_from_payload(
        json.loads(serialize.dumps(serialize.fiducial_payload(cand))))
    ref = reference_from_fiducial(cand.vector)
    assert back.sic_certified and back.dim == ref.dim == 3
    assert back.condition_number == ref.condition_number
    np.testing.assert_array_equal(back.elements.elements, ref.elements.elements)
    for field in ("projectors", "transfer", "transfer_inverse"):
        np.testing.assert_array_equal(getattr(back, field), getattr(ref, field))


def test_table_csv():
    table = canonical_chsh_table()
    csv = serialize.table_csv(table, {"command": "bell"})
    lines = csv.strip().split("\n")
    assert lines[0].startswith("# manifest=")
    assert lines[1] == "a,b,x,y,p"
    assert len(lines) == 2 + 4 * 4  # 4 setting pairs x 4 outcomes
    # every probability cell must parse back as a plain float
    parsed = [float(line.rsplit(",", 1)[1]) for line in lines[2:]]
    assert abs(sum(parsed) - 4.0) < 1e-12


def test_data_table_csv_and_payload():
    dt = data_table_sim(canonical_chsh_table(), 100, seed=0)
    payload = serialize.data_table_payload(dt)
    assert payload["seed"] == 0 and "sampling_mode" not in payload
    total = sum(sum(map(sum, blk["counts"])) for blk in payload["blocks"])
    assert total == 400
    csv = serialize.data_table_csv(dt, {"params": {"seed": 0}, "command": "bell"})
    manifest_line, rest = csv.split("\n", 1)
    assert manifest_line == '# manifest={"command":"bell","params":{"seed":0}}'
    assert rest.startswith("a,b,x,y,count\n")


def test_from_pairs_rejects_flat_lists():
    # a TypeError, so that cli._read reports a malformed input file
    with pytest.raises(TypeError, match="nested 2 deep, got 1 deep"):
        serialize.from_pairs([1.0, 2.0, 3.0], 1)
    with pytest.raises(TypeError, match=r"expected \[re, im\] pairs, got lists of 3 numbers"):
        serialize.from_pairs([[1.0, 0.0, 0.0]], 1)


@pytest.mark.parametrize("bad", [True, "0.5", None])
def test_payload_numbers_must_be_json_numbers(bad):
    with pytest.raises(TypeError, match="expected a JSON number"):
        serialize.from_pairs([[1, 0], [bad, 0]], 1)
    with pytest.raises(TypeError, match="expected a JSON number"):
        serialize.prob_values_from_payload({"values": [0.5, bad]})
    fiducial = serialize.fiducial_payload(sic_search(2, seed=1, restarts=1))
    with pytest.raises(TypeError, match="expected a JSON number"):
        serialize.reference_from_payload({**fiducial, "vector": [[1, 0], [bad, 0]]})
    # the search's own fields have no reader: a reference is built from the vector alone
    searched = {key: bad for key in ("frame_potential", "max_sic_deviation", "seed",
                                     "restarts_used", "restart_index", "certified")}
    assert serialize.reference_from_payload({**fiducial, **searched}).sic_certified


def test_ragged_lists_are_a_type_error():
    # numpy's own ValueError would escape cli._read's malformed-input report
    with pytest.raises(TypeError, match="ragged list"):
        serialize.prob_values_from_payload({"values": [[0.5], 0.5]})
    with pytest.raises(TypeError, match="ragged list"):
        serialize.from_pairs([[0.7071067811865476, 0], 0.7071067811865476], 1)


def test_dumps_is_deterministic():
    payload = serialize.ket_payload(make_ket(np.array([1.0, 1.0]) / np.sqrt(2)))
    assert serialize.dumps(payload) == serialize.dumps(dict(reversed(list(payload.items()))))


def test_dumps_rejects_non_finite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            serialize.dumps({"gap": bad})
