"""The public-name table and the loading contract of the package.

`import probrep` registers every layer module without running it; a
layer's code runs when one of its attributes is first read. A layer has
run when its sys.modules entry is a plain types.ModuleType (before that it
is a subclass). Every subprocess here starts from a fresh interpreter, so
no layer has run in it yet. `errors` uses the standard library only, and
every other layer imports numpy, so numpy is loaded exactly when a layer
past `errors` has run.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import probrep

INPUTS = Path(__file__).parent / "golden" / "inputs"

LAYERS = ("errors", "operators", "sic", "born", "correlations", "sampling", "serialize")

# The package's public names: those of artifact_version 0.6.0 and reference_from_fiducial,
# less sic_certify and SicCertificate (max_sic_deviation is the one SIC check).
PUBLIC = [
    "__version__", "CondProbMatrix", "CorrelationTable", "DataTable", "DensityOperator",
    "FiducialCandidate", "Ket", "MeasurementFamily", "OutcomeCounts", "Povm", "ProbVector",
    "ReferenceMeasurement", "SteeringReport", "binomial_interval_prob",
    "born_probabilities", "chsh_value", "classical_law", "classicality_gap",
    "correlation_table", "data_table_sim", "displacement", "embedded_correlation_table",
    "frame_potential", "known_fiducial", "make_ket", "make_povm", "make_prob_vector",
    "make_reference", "max_sic_deviation", "no_signalling_check", "povm_to_cond",
    "prob_to_state", "random_density", "random_povm", "random_pure_state",
    "random_reference", "reference_from_fiducial", "sample_outcomes",
    "sic_reference", "sic_search", "spin32_embedding", "state_to_prob", "steering_ensembles",
    "tensor", "urgleichung_general", "urgleichung_sic", "validate_density", "wh_orbit",
]

# Prints the exit code, the sorted names of the layers that have run and
# whether numpy is loaded, after running the CLI on the given arguments
# (none: only `import probrep.cli`).
RAN = """
import json, sys, types
import probrep.cli
code = probrep.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
ran = sorted(name.split(".")[1] for name, module in list(sys.modules.items())
             if name.startswith("probrep.") and name != "probrep.cli"
             and type(module) is types.ModuleType)
print(json.dumps({"code": code, "ran": ran, "numpy": "numpy" in sys.modules}))
"""


def python(code, *args, cwd=None, timeout=60):
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestPublicNames:
    def test_all_is_unchanged(self):
        assert probrep.__all__ == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC[1:])
    def test_name_is_the_object_its_layer_defines(self, name):
        layer = probrep._LAYER_OF[name]
        obj = getattr(probrep, name)
        assert obj is getattr(sys.modules[f"probrep.{layer}"], name)
        assert getattr(obj, "__module__", None) == f"probrep.{layer}"

    def test_star_import_and_dir_list_every_name(self):
        namespace = {}
        exec("from probrep import *", namespace)
        assert set(PUBLIC) <= set(namespace)
        assert set(PUBLIC) <= set(dir(probrep))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            probrep.no_such_name

    def test_layers_are_registered_modules(self):
        for layer in LAYERS:
            assert getattr(probrep, layer) is sys.modules[f"probrep.{layer}"]

    def test_import_probrep_runs_no_layer(self):
        result = python(
            "import json, sys, types, probrep\n"
            "mods = {n: m for n, m in sys.modules.items() if n.startswith('probrep.')}\n"
            "print(json.dumps({'registered': sorted(mods), 'ran': sorted(n for n, m in"
            " mods.items() if type(m) is types.ModuleType)}))")
        assert result == {"registered": sorted(f"probrep.{x}" for x in LAYERS), "ran": []}

    def test_an_attribute_set_or_deleted_before_first_use_stays_so(self):
        # The write runs the layer's code first, so the code cannot rebind the name.
        result = python(
            "import json\nfrom probrep import born, sic\n"
            "born.CONDITION_CAP = 5.0\ndel sic.SEARCH_PROVENANCE\n"
            "print(json.dumps([born.CONDITION_CAP, hasattr(sic, 'SEARCH_PROVENANCE')]))")
        assert result == [5.0, False]


@pytest.fixture
def inputs(tmp_path):
    for path in INPUTS.iterdir():
        shutil.copy(path, tmp_path)
    (tmp_path / "nan.json").write_text('{"values": [NaN, 1.0]}')
    (tmp_path / "truncated.json").write_text('{"dim": 2, "matrix": [[')
    return tmp_path


NO_NUMPY = ["errors"]
BASE = ["errors", "operators"]

# (command kind, argv, exit code, the layers it runs). Parsing flags, --version,
# a flag error and a file that is not a JSON object run no layer but `errors`,
# and so load no numpy.
COMMANDS = [
    ("import", [], 0, NO_NUMPY),
    ("version", ["--version"], 0, NO_NUMPY),
    ("bad-flag", ["sic-search", "--dim", "x"], 1, NO_NUMPY),
    ("simulate-nan-file", ["simulate", "--probs", "nan.json", "--n", "5"], 1, NO_NUMPY),
    ("classical-gap-truncated-file", ["classical-gap", "--state", "truncated.json",
                                      "--povm", "x_povm.json"], 1, NO_NUMPY),
    ("interval", ["interval", "10", "0.5", "2", "5", "--out", "i.json"], 0,
     BASE + ["sampling", "serialize"]),
    ("interval-no-out", ["interval", "10", "0.5", "2", "5"], 0, BASE + ["sampling"]),
    ("simulate", ["simulate", "--probs", "probs.json", "--n", "100", "--out", "c.json"], 0,
     BASE + ["sampling", "serialize"]),
    ("bell-simulate", ["bell", "--chsh", "--simulate", "100"], 0,
     BASE + ["correlations", "sampling", "serialize"]),
    ("steer", ["steer"], 0, BASE + ["correlations", "serialize"]),
    ("sic-search", ["sic-search", "--dim", "2", "--restarts", "2"], 0,
     BASE + ["sic", "serialize"]),
    ("born-check", ["born-check", "--dim", "2", "--trials", "3", "--reference", "sic"], 0,
     BASE + ["born", "sic", "serialize"]),
    ("classical-gap-file", ["classical-gap", "--state", "plus.json", "--povm", "x_povm.json",
                            "--reference", "reference_random_d2.json"], 0,
     BASE + ["born", "serialize"]),
]


@pytest.mark.parametrize("argv,code,ran", [c[1:] for c in COMMANDS], ids=[c[0] for c in COMMANDS])
def test_command_runs_only_the_layers_it_calls(inputs, argv, code, ran):
    assert python(RAN, *argv, cwd=inputs) == {
        "code": code, "ran": sorted(ran), "numpy": ran != NO_NUMPY}


def test_rerun_runs_the_layers_of_the_command_it_reruns(inputs):
    python(RAN, "simulate", "--probs", "probs.json", "--n", "100", "--out", "c.json", cwd=inputs)
    assert python(RAN, "rerun", "c.json", cwd=inputs) == {
        "code": 0, "ran": sorted(BASE + ["sampling", "serialize"]), "numpy": True}


def test_rerun_of_another_version_runs_no_layer_but_errors(inputs):
    python(RAN, "simulate", "--probs", "probs.json", "--n", "100", "--out", "c.json", cwd=inputs)
    result = json.loads((inputs / "c.json").read_text())
    result["manifest"]["artifact_version"] = "0.0.0"
    (inputs / "c.json").write_text(json.dumps(result))
    assert python(RAN, "rerun", "c.json", cwd=inputs) == {
        "code": 1, "ran": NO_NUMPY, "numpy": False}


# Eight threads read an attribute of the layer `born` for the first time at
# once, half through the layer and half through the package, while the
# interpreter switches threads as often as it can. Prints, per thread, the
# id of what it got or the exception it raised.
FIRST_USE_RACE = """
import json, sys, threading
sys.setswitchinterval(1e-6)
import probrep
barrier = threading.Barrier(8)
results = [None] * 8
def touch(i):
    barrier.wait(timeout=30)
    try:
        obj = probrep.born.make_reference if i % 2 else probrep.make_reference
        results[i] = id(obj)
    except Exception as err:
        results[i] = repr(err)
threads = [threading.Thread(target=touch, args=(i,), daemon=True) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=30)
print(json.dumps({"results": results, "alive": sum(t.is_alive() for t in threads),
                  "final": id(probrep.born.make_reference)}))
"""


def test_first_use_from_eight_threads_is_safe():
    for _ in range(20):
        result = python(FIRST_USE_RACE, timeout=60)
        assert result["alive"] == 0
        assert result["results"] == [result["final"]] * 8
