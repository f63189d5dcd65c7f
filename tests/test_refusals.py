"""Each validator refuses what its docstring says it refuses, with the error class and
the exact message below.

The rank rows: a validator refuses an array of the wrong number of axes, naming its
shape, where it once reshaped it or let it through to fail later. The record rows: a
record whose derived numbers (a table's settings and trial count, a steering report's
cross fidelities) would be undefined or inconsistent is refused when it is built. The
other rows are refusals that no other test reaches.
"""

import re

import numpy as np
import pytest

from probrep.born import classical_law, make_cond_prob, povm_to_cond, sic_reference, state_to_prob
from probrep.correlations import (
    CorrelationTable,
    SteeringReport,
    _projective_rank1_vectors,
    angle_family,
    direction_povm,
    embedded_correlation_table,
    family,
    make_table,
    phi_plus,
    steering_ensembles,
)
from probrep.errors import DimensionMismatch, ShapeMismatch, WrongArity
from probrep.operators import (
    DensityOperator,
    make_ket,
    make_povm,
    make_prob_vector,
    projector_povm,
    random_pure_state,
    tensor,
    validate_density,
)
from probrep.sampling import DataTable, binomial_interval_prob
from probrep.sic import sic_search

HALVES = np.full((2, 2), 0.25)
MIXED = DensityOperator(np.eye(2) / 2)

# name: (the refused call, its error class, its message)
REFUSALS = {
    "make_ket-2d": (lambda: make_ket([[1, 0], [0, 0]]),
                    ValueError, "expected a 1-d array, got shape (2, 2)"),
    "make_ket-scalar": (lambda: make_ket(1.0), ValueError, "expected a 1-d array, got shape ()"),
    "make_prob_vector-2d": (lambda: make_prob_vector([[0.5], [0.5]]),
                            ValueError, "expected a 1-d array, got shape (2, 1)"),
    "make_prob_vector-scalar": (lambda: make_prob_vector(1.0),
                                ValueError, "expected a 1-d array, got shape ()"),
    "projector_povm-1d": (lambda: projector_povm([1, 0]),
                          ValueError, "expected a 2-d array, got shape (2,)"),
    "make_table-1d": (lambda: make_table({("a", "b"): [0.5, 0.5]}),
                      ValueError, "block ('a', 'b'): expected a 2-d array, got shape (2,)"),
    "make_cond_prob-range": (lambda: make_cond_prob([[1.5, -0.5], [0.5, 0.5]]), ValueError,
                             "conditional probabilities outside [0, 1]: range "
                             "[-5.000e-01, 1.500e+00]"),
    "make_cond_prob-sums": (lambda: make_cond_prob([[0.5, 0.4], [0.5, 0.5]]),
                            ValueError, "conditional rows must sum to 1, worst deviation 1.000e-01"),
    "make_cond_prob-1d": (lambda: make_cond_prob([0.5, 0.5]),
                          ValueError, "expected a 2-d array, got shape (2,)"),
    "make_povm-2d": (lambda: make_povm(np.eye(2)),
                     ValueError, "expected shape (n, d, d), got (2, 2)"),
    "state_to_prob-dim": (lambda: state_to_prob(sic_reference(2), validate_density(np.eye(3) / 3)),
                          DimensionMismatch, "state dim 3 != reference dim 2"),
    "povm_to_cond-dim": (lambda: povm_to_cond(sic_reference(2), projector_povm(np.eye(3))),
                         DimensionMismatch, "POVM dim 3 != reference dim 2"),
    "classical_law-rows": (lambda: classical_law(make_prob_vector([0.5, 0.5]),
                                                 make_cond_prob(np.full((3, 2), 0.5))),
                           ShapeMismatch, "p has 2 entries, r has 3 rows"),
    "family-count": (lambda: family(["a", "b"], [direction_povm(0.0)]),
                     ValueError, "one POVM per setting label required"),
    "family-dims": (lambda: family(["a", "b"], [direction_povm(0.0), projector_povm(np.eye(3))]),
                    DimensionMismatch, "family mixes dimensions [2, 3]"),
    "correlator-arity": (lambda: make_table({("a", "b"): np.full((1, 3), 1 / 3)})
                         .correlator("a", "b"),
                         WrongArity, "correlator needs a 2x2 block, got (1, 3)"),
    "rank1-count": (lambda: _projective_rank1_vectors(make_povm([np.eye(2)])),
                    ValueError, "projective basis in dimension 2 needs 2 elements"),
    "steering-dims": (lambda: steering_ensembles(phi_plus(), projector_povm(np.eye(2)),
                                                 projector_povm(np.eye(3))),
                      DimensionMismatch, "both steering bases must act on subsystem A"),
    "embedded-dim": (lambda: embedded_correlation_table(random_pure_state(3, 0),
                                                        angle_family([0.0]), angle_family([0.0])),
                     DimensionMismatch, "state dim 3 != joint dim 4"),
    "direction_povm-plane": (lambda: direction_povm(0.0, "yz"),
                             ValueError, "unknown plane 'yz'"),
    "family-empty": (lambda: family([], []), ValueError, "a family needs at least one setting"),
    "tensor-ket-operator": (lambda: tensor(np.array([1, 0]), np.eye(2)), ValueError,
                            "tensor takes two kets (1-d) or two operators (2-d), "
                            "got shapes (2,) and (2, 2)"),
    "tensor-3d": (lambda: tensor(np.ones((2, 2, 2)), np.eye(2)), ValueError,
                  "tensor takes two kets (1-d) or two operators (2-d), "
                  "got shapes (2, 2, 2) and (2, 2)"),
    "family-repeated": (lambda: family(["a", "a"], [direction_povm(0.0), direction_povm(1.0)]),
                        ValueError, "setting labels must be distinct, got ['a', 'a']"),
    "make_table-empty": (lambda: make_table({}),
                         ValueError, "a table needs at least one setting pair"),
    "make_table-partial": (
        lambda: make_table({("a", "b"): HALVES, ("a", "c"): HALVES, ("d", "b"): HALVES}),
        ValueError, "block keys [('a', 'b'), ('a', 'c'), ('d', 'b')] are not the row-major "
        "product of settings ['a', 'd'] and ['b', 'c']"),
    "make_table-extra": (lambda: make_table({("a", "b"): HALVES, ("x", "y"): "junk"}), ValueError,
                         "block ('x', 'y'): could not convert string to float: 'junk'"),
    "sic_search-tol-bool": (lambda: sic_search(2, 0, 1, tol=True),
                            ValueError, "tol must be a finite number > 0, got True"),
    "binomial_interval_prob-p-bool": (lambda: binomial_interval_prob(10, True, 10, 10),
                                      ValueError, "p must be a probability, got True"),
    "CorrelationTable-empty": (lambda: CorrelationTable({}),
                               ValueError, "a table needs at least one setting pair"),
    "CorrelationTable-not-product": (
        lambda: CorrelationTable({("a", "b"): HALVES, ("c", "d"): HALVES}), ValueError,
        "block keys [('a', 'b'), ('c', 'd')] are not the row-major product of settings "
        "['a', 'c'] and ['b', 'd']"),
    "CorrelationTable-column-major": (
        lambda: CorrelationTable({("a", "b"): HALVES, ("c", "b"): HALVES,
                                  ("a", "d"): HALVES, ("c", "d"): HALVES}), ValueError,
        "block keys [('a', 'b'), ('c', 'b'), ('a', 'd'), ('c', 'd')] are not the row-major "
        "product of settings ['a', 'c'] and ['b', 'd']"),
    "DataTable-empty": (lambda: DataTable({}, 1),
                        ValueError, "a table needs at least one setting pair"),
    "DataTable-not-product": (
        lambda: DataTable({("a", "b"): np.eye(2, dtype=int), ("c", "d"): np.eye(2, dtype=int)},
                          1), ValueError,
        "block keys [('a', 'b'), ('c', 'd')] are not the row-major product of settings "
        "['a', 'c'] and ['b', 'd']"),
    "DataTable-totals": (
        lambda: DataTable({("a", "b"): np.array([[3, 0], [0, 7]]),
                           ("a", "c"): np.ones((2, 2), dtype=int)}, 1), ValueError,
        "every block must total the same number of trials, got [10, 4]"),
    "SteeringReport-empty": (lambda: SteeringReport(([], [(1.0, MIXED)]), (MIXED, MIXED)),
                             ValueError, "each steering ensemble needs at least one member"),
}


@pytest.mark.parametrize("call,error,message", REFUSALS.values(), ids=REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
