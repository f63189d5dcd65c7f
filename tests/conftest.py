import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def absolute_pythonpath():
    """Put the absolute source directory first on PYTHONPATH for subprocesses.

    pytest itself finds the package through `pythonpath` in pyproject.toml,
    which subprocesses do not inherit. Other entries are resolved against the
    directory pytest started in, since a relative entry stops resolving in a
    subprocess that a test starts from a temporary working directory.
    """
    entries = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    absolute = [str(SRC)] + [os.path.abspath(p) for p in entries if p]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(absolute))
        yield
