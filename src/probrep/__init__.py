"""Probability representation of quantum measurements.

Reference measurements (SIC-POVMs found by numerical search, or any rank-1
informationally complete POVM) turn states and measurements into ordinary
probability vectors; this package rewrites the Born rule in those terms,
measures how far it sits from the classical law of total probability, and
drives correlation, steering and sampling experiments from a seeded CLI.

Importing the package runs none of its layer modules. Each one is
registered in sys.modules and as an attribute of the package, and its code
runs when one of its attributes is first read, set or deleted, under one
re-entrant lock, so a thread that reads it while another runs it waits for
the whole module. A command therefore compiles and runs only the layers it
calls. `errors` (the exception types and the tolerance table) uses the
standard library alone, and every other layer imports numpy, so
`import probrep.cli`, which runs only `errors`, imports no numpy.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.9.0"

#: Every public name, by the layer module that defines it.
_PUBLIC = {
    "operators": (
        "DensityOperator", "Ket", "Povm", "ProbVector", "born_probabilities", "make_ket",
        "make_povm", "make_prob_vector", "random_density", "random_povm",
        "random_pure_state", "tensor", "validate_density",
    ),
    "sic": (
        "FiducialCandidate", "displacement", "frame_potential", "known_fiducial",
        "max_sic_deviation", "sic_search", "wh_orbit",
    ),
    "born": (
        "CondProbMatrix", "ReferenceMeasurement", "classical_law", "classicality_gap",
        "make_reference", "povm_to_cond", "prob_to_state", "random_reference",
        "reference_from_fiducial", "sic_reference", "state_to_prob", "urgleichung_general",
        "urgleichung_sic",
    ),
    "correlations": (
        "CorrelationTable", "MeasurementFamily", "SteeringReport", "chsh_value",
        "correlation_table", "embedded_correlation_table", "no_signalling_check",
        "spin32_embedding", "steering_ensembles",
    ),
    "sampling": (
        "DataTable", "OutcomeCounts", "binomial_interval_prob", "data_table_sim",
        "sample_outcomes",
    ),
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}

_LAYERS = ("errors", "operators", "sic", "born", "correlations", "sampling", "serialize")

__all__ = ["__version__", *sorted(_LAYER_OF)]

_LOCK = threading.RLock()
_running = set()  # ids of the layers whose code the thread holding _LOCK is running


class _Pending(types.ModuleType):
    """A registered layer whose code has not run; reading, setting or deleting
    any attribute runs it first, so the code cannot undo an earlier write.

    The class switches to types.ModuleType only once the code has run, so
    another thread never sees a half-built module. A read or write from
    inside the running code (a circular import) sees the module as built so
    far.
    """

    def __getattribute__(self, name):
        _run(self)
        return types.ModuleType.__getattribute__(self, name)

    def __setattr__(self, name, value):
        _run(self)
        types.ModuleType.__setattr__(self, name, value)

    def __delattr__(self, name):
        _run(self)
        types.ModuleType.__delattr__(self, name)


def _run(module: types.ModuleType) -> None:
    """Run a pending layer's code, unless it has run or this thread is running it."""
    with _LOCK:
        if type(module) is _Pending and id(module) not in _running:
            _running.add(id(module))
            try:
                spec = types.ModuleType.__getattribute__(module, "__spec__")
                spec.loader.exec_module(module)
            finally:
                _running.discard(id(module))
            types.ModuleType.__setattr__(module, "__class__", types.ModuleType)


def _register(layer: str) -> types.ModuleType:
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Pending
    sys.modules[spec.name] = module
    return module


for _layer in _LAYERS:
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *_LAYER_OF})
