import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def absolute_pythonpath():
    """Resolve PYTHONPATH entries against the directory pytest started in.

    The suite is run as `PYTHONPATH=src python -m pytest`; a relative entry
    stops resolving in subprocesses that a test starts from a temporary
    working directory.
    """
    entries = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as mp:
        if entries:
            absolute = (os.path.abspath(p) for p in entries.split(os.pathsep))
            mp.setenv("PYTHONPATH", os.pathsep.join(absolute))
        yield
