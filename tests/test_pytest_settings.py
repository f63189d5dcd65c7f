"""The pytest settings in pyproject.toml let a run report every test.

filterwarnings turns each warning into an error. When a Hypothesis test fails,
Hypothesis imports libcst to write a patch of its failing example, and that
import warns (mypy_extensions.TypedDict is deprecated). As an error the warning
escaped the report hook, so pytest stopped with INTERNALERROR and every later
test went unreported. The probe below is one failing Hypothesis test and one
passing test, run under the repository's settings in a subprocess.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
