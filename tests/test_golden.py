"""Golden CLI outputs: each command's result files against committed copies.

Every case runs the CLI in a fresh directory holding copies of
tests/golden/inputs, with relative file names, so the manifests record no
machine paths. Output files are compared field by field: integers,
strings, booleans and nulls exactly, floats to within 1e-12 (relative
above magnitude 1). CSV files are compared cell by cell under the same
rule, their `# manifest=` line as JSON. A JSON file's top-level
`environment` block (the Python, numpy and BLAS that wrote it) must have
the fixture's fields, but its values are not compared.

Regenerate the fixtures (only when a change is meant to move output
bytes, together with an artifact_version bump):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import shutil
from pathlib import Path

import pytest

from probrep.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
FLOAT_TOL = 1e-12

# (case id, argv, output files the command writes)
CASES = (
    ("born-sic-d2",
     ["born-check", "--dim", "2", "--trials", "30", "--seed", "7",
      "--reference", "sic", "--report", "born_sic_d2.json"],
     ["born_sic_d2.json"]),
    ("born-sic-d4",
     ["born-check", "--dim", "4", "--trials", "20", "--seed", "3",
      "--reference", "sic", "--report", "born_sic_d4.json"],
     ["born_sic_d4.json"]),
    ("born-sic-d8",
     ["born-check", "--dim", "8", "--trials", "10", "--seed", "11",
      "--reference", "sic", "--report", "born_sic_d8.json"],
     ["born_sic_d8.json"]),
    ("born-random-d3",
     ["born-check", "--dim", "3", "--trials", "30", "--seed", "1",
      "--reference", "random", "--report", "born_random_d3.json"],
     ["born_random_d3.json"]),
    ("born-file-d3",
     ["born-check", "--dim", "3", "--trials", "20", "--seed", "4",
      "--reference", "reference_random_d3.json", "--report", "born_file_d3.json"],
     ["born_file_d3.json"]),
    ("gap-sic",
     ["classical-gap", "--state", "plus.json", "--povm", "x_povm.json",
      "--reference", "sic", "--report", "gap_sic.json"],
     ["gap_sic.json"]),
    ("gap-file",
     ["classical-gap", "--state", "plus.json", "--povm", "x_povm.json",
      "--reference", "reference_random_d2.json", "--report", "gap_file.json"],
     ["gap_file.json"]),
    ("bell-simulate",
     ["bell", "--state", "singlet", "--chsh", "--simulate", "200", "--seed", "3",
      "--table-csv", "bell_table.csv", "--counts-csv", "bell_counts.csv",
      "--report", "bell_summary.json"],
     ["bell_table.csv", "bell_counts.csv", "bell_summary.json"]),
    ("steer",
     ["steer", "--state", "phi+", "--basis-a", "z", "--basis-b", "x",
      "--report", "steering.json"],
     ["steering.json"]),
    ("simulate",
     ["simulate", "--probs", "probs.json", "--n", "1000", "--seed", "7",
      "--out", "counts.json"],
     ["counts.json"]),
    ("simulate-blocks",
     ["simulate", "--probs", "probs.json", "--n", "200003", "--seed", "5",
      "--out", "counts_200003.json"],
     ["counts_200003.json"]),
    ("bell-simulate-blocks",
     ["bell", "--state", "singlet", "--simulate", "70000", "--seed", "5",
      "--table-csv", "bell_table_70000.csv", "--counts-csv", "bell_counts_70000.csv",
      "--report", "bell_summary_70000.json"],
     ["bell_counts_70000.csv", "bell_summary_70000.json"]),
    ("interval",
     ["interval", "10000", "0.5", "4900", "5100", "--out", "interval.json"],
     ["interval.json"]),
    ("sic-search-d2",
     ["sic-search", "--dim", "2", "--restarts", "5", "--seed", "1",
      "--out", "fiducial_d2.json"],
     ["fiducial_d2.json"]),
    ("sic-search-d3",
     ["sic-search", "--dim", "3", "--restarts", "3", "--seed", "2",
      "--out", "fiducial_d3.json"],
     ["fiducial_d3.json"]),
)


def run_case(argv, workdir: Path, monkeypatch) -> int:
    for source in INPUTS.iterdir():
        shutil.copy(source, workdir / source.name)
    monkeypatch.chdir(workdir)
    return main(list(argv))


def _same(got, want, where: str) -> None:
    if isinstance(want, float) and type(got) is float:
        assert abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)), (
            f"{where}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), (
            f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"
            f" != {sorted(want)}"
        )
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (
            f"{where}: {got!r} != {want!r}"
        )
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse_csv(text: str):
    lines = text.splitlines()
    manifest = None
    if lines and lines[0].startswith("# manifest="):
        manifest = json.loads(lines.pop(0)[len("# manifest="):])
    return {"manifest": manifest, "rows": [[_cell(c) for c in line.split(",")] for line in lines]}


def _parse(path: Path):
    text = path.read_text(encoding="utf-8")
    return _parse_csv(text) if path.suffix == ".csv" else json.loads(text)


@pytest.mark.parametrize("argv,outputs", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(argv, outputs, tmp_path, monkeypatch):
    assert run_case(argv, tmp_path, monkeypatch) == 0
    for name in outputs:
        got, want = _parse(tmp_path / name), _parse(GOLDEN / name)
        if name.endswith(".json"):  # the environment is recorded, not compared
            assert sorted(got.pop("environment")) == sorted(want.pop("environment"))
        _same(got, want, name)


def test_comparison_rule():
    _same({"a": [1, "x", 0.5, None, True]}, {"a": [1, "x", 0.5 + 1e-13, None, True]}, "ok")
    _same(1000.0 + 1e-10, 1000.0, "relative above 1")
    for got, want in ((0.5 + 1e-11, 0.5), (1, 1.0), (True, 1), ("1", 1), ([1], [1, 2]),
                      ({"a": 1}, {"b": 1})):
        with pytest.raises(AssertionError):
            _same(got, want, "bad")


def _write_inputs() -> None:
    """Write the fixed input files the cases read."""
    import numpy as np

    from probrep import random_reference, serialize, validate_density
    from probrep.correlations import direction_povm

    INPUTS.mkdir(parents=True, exist_ok=True)
    plus = validate_density(np.full((2, 2), 0.5, dtype=complex))
    files = {
        "plus.json": serialize.operator_payload(plus),
        "x_povm.json": serialize.povm_payload(direction_povm(0.0)),
        "reference_random_d2.json": serialize.reference_payload(random_reference(2, 5)),
        "reference_random_d3.json": serialize.reference_payload(random_reference(3, 0)),
        "probs.json": {"values": [0.7, 0.2, 0.1, 0.0]},
    }
    for name, payload in files.items():
        (INPUTS / name).write_text(serialize.dumps(payload), encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    _write_inputs()
    for case_id, argv, outputs in CASES:
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            if run_case(argv, Path(tmp), mp) != 0:
                raise SystemExit(f"{case_id} did not exit 0")
            for name in outputs:
                shutil.copy(Path(tmp) / name, GOLDEN / name)
        print(f"{case_id}: {', '.join(outputs)}")
