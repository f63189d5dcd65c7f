"""The exit-code contract, checked over generated input files.

Every file-fed flag (each input flag of cli.COMMANDS but rerun's) is given a
valid file, written by the serialize.*_payload writers from a random object,
with one or two fields then kept, zeroed or mutated: a huge or non-finite
number, a bool, a string, deep nesting, a ragged or mixed-shape list, or
another depth. Whole files are broken too: bytes that are not
UTF-8, a top level that is not an object, an empty file. Whatever the input,
cli.main returns 0, 1 (input error) or 2 (numerical failure), never raises,
prints an `error:` line with any non-zero exit, writes no file when it
exits 1, and lets no numpy RuntimeWarning reach stderr. Each whole broken file
exits 1 with an `error: malformed input file FILE: ...` line naming that file.

The examples are derandomized and not stored, so every run checks the same
inputs.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probrep import (random_density, random_povm, random_pure_state, random_reference,
                     serialize, sic_reference)
from probrep.cli import COMMANDS, main
from probrep.operators import projector_povm


def _probs(seed):
    return {"values": random_density(3, 3, seed).matrix.diagonal().real.tolist()}


def _steer_basis(seed):
    g = np.random.default_rng(seed).standard_normal((2, 2, 2))
    return serialize.povm_payload(projector_povm(np.linalg.qr(g[0] + 1j * g[1])[0]))


def _reference(seed):
    ref = sic_reference(2) if seed % 2 else random_reference(2, seed)
    return serialize.reference_payload(ref)


# Each file-fed flag: the payload of a valid file from a seed, and the argv that reads it
# from "in.json" beside valid state.json and povm.json; every output goes to "out.*".
FLAGS = {
    "simulate --probs": (_probs, ["simulate", "--probs", "in.json", "--n", "10",
                                  "--out", "out.json"]),
    "steer --state": (lambda seed: serialize.ket_payload(random_pure_state(4, seed)),
                      ["steer", "--state", "in.json", "--report", "out.json"]),
    "steer --basis-a": (_steer_basis, ["steer", "--basis-a", "in.json", "--report", "out.json"]),
    "steer --basis-b": (_steer_basis, ["steer", "--basis-b", "in.json", "--report", "out.json"]),
    "classical-gap --state": (
        lambda seed: serialize.operator_payload(random_density(2, 1 + seed % 2, seed)),
        ["classical-gap", "--state", "in.json", "--povm", "povm.json", "--report", "out.json"]),
    "classical-gap --povm": (
        lambda seed: serialize.povm_payload(random_povm(2, 2 + seed % 3, seed)),
        ["classical-gap", "--state", "state.json", "--povm", "in.json", "--report", "out.json"]),
    "classical-gap --reference": (
        _reference, ["classical-gap", "--state", "state.json", "--povm", "povm.json",
                     "--reference", "in.json", "--report", "out.json"]),
    "born-check --reference": (_reference, ["born-check", "--dim", "2", "--trials", "3",
                                            "--reference", "in.json", "--report", "out.json"]),
    "bell --state": (lambda seed: serialize.ket_payload(random_pure_state(4, seed)),
                     ["bell", "--state", "in.json", "--table-csv", "out.csv",
                      "--report", "out.json"]),
}


def test_every_file_fed_flag_has_a_generator():
    # rerun's file is also its output, so it is fed only whole broken files (test_cli)
    table = {command + (f" {flag.name}" if flag.name.startswith("-") else "")
             for command, spec in COMMANDS.items() for flag in spec.flags if flag.role == "input"}
    assert set(FLAGS) == table - {"rerun"}


DEEP = "deep nesting"  # stands in for a value nested too deeply for json.dumps to write
DEPTH = 100_000


def _paths(node, path=()):
    """Every position in a JSON tree, the root's own fields and list items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


MUTATIONS = {
    "kept": lambda old: old,
    "zero": lambda old: 0,
    "huge": lambda old: 1e308,
    "huge-int": lambda old: 10**400,
    "inf": lambda old: float("inf"),
    "nan": lambda old: float("nan"),
    "bool": lambda old: True,
    "numeric-string": lambda old: "0.5",
    "null": lambda old: None,
    "object": lambda old: {"value": old},
    "deep": lambda old: DEEP,
    "deeper": lambda old: [old],
    "shallower": lambda old: old[0] if isinstance(old, list) and old else 0.5,
    "empty": lambda old: [],
    "ragged": lambda old: [old, [old]],
    "mixed-shape": lambda old: (old[:-1] + [[old[-1], old[-1]]] if isinstance(old, list) and old
                                else [[old], [old, old]]),
}

WHOLE_FILES = [b"", b"\xff\xfe\x00{", b"[1, 2]", b'"text"', b"5", b"null", b"{"]


@st.composite
def mutated_inputs(draw):
    """(flag, file bytes): a valid file with one or two fields mutated, or a whole broken
    file. A second field is drawn from the file as the first mutation left it."""
    flag = draw(st.sampled_from(sorted(FLAGS)))
    if draw(st.integers(0, 9)) == 0:
        return flag, draw(st.sampled_from(WHOLE_FILES))
    payload = FLAGS[flag][0](draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(payload))))
        kind = draw(st.sampled_from(sorted(MUTATIONS)))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = MUTATIONS[kind](parent[path[-1]])
    text = json.dumps(payload).replace(json.dumps(DEEP), "[" * DEPTH + "]" * DEPTH)
    return flag, text.encode()


def _main_on(tmp, flag, data):
    """(exit code, stderr) of cli.main on flag's argv in the directory tmp, with data as
    in.json beside a valid state.json and povm.json."""
    with open(os.path.join(tmp, "state.json"), "w") as fh:
        fh.write(serialize.dumps(serialize.operator_payload(random_density(2, 2, 0))))
    with open(os.path.join(tmp, "povm.json"), "w") as fh:
        fh.write(serialize.dumps(serialize.povm_payload(random_povm(2, 3, 0))))
    with open(os.path.join(tmp, "in.json"), "wb") as fh:
        fh.write(data)
    argv = [os.path.join(tmp, arg) if arg.endswith((".json", ".csv")) else arg
            for arg in FLAGS[flag][1]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would reach stderr
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=mutated_inputs())
# two fields at 1e308: each validator's sum overflows
@example(case=("simulate --probs", b'{"values": [1e308, 1e308]}'))
@example(case=("classical-gap --state",
               b'{"dim": 2, "matrix": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]}'))
@example(case=("classical-gap --povm", b'{"dim": 2, "elements": ['
                                       b'[[[1e308, 0], [0, 0]], [[0, 0], [0, 0]]], '
                                       b'[[[1e308, 0], [0, 0]], [[0, 0], [0, 0]]]]}'))
def test_every_run_keeps_the_exit_code_contract(case):
    flag, data = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _main_on(tmp, flag, data)
        assert code in (0, 1, 2)
        if code:
            assert any(line.startswith("error: ") for line in err.splitlines())
        if code == 1:
            assert sorted(os.listdir(tmp)) == ["in.json", "povm.json", "state.json"]


@pytest.mark.parametrize("data", WHOLE_FILES, ids=repr)
@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_a_whole_broken_file_is_refused_by_name(tmp_path, flag, data):
    # undecodable bytes, broken JSON and a top level that is not an object alike
    code, err = _main_on(str(tmp_path), flag, data)
    assert code == 1
    assert err.startswith(f"error: malformed input file {tmp_path / 'in.json'}: ")
    assert sorted(os.listdir(tmp_path)) == ["in.json", "povm.json", "state.json"]
