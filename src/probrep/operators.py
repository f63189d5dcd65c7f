"""Finite-dimensional operator algebra: validated domain types, tensor
products, the Born rule, and seeded random generators.

All types are immutable value objects; every operation is a pure function
of its inputs (randomness always flows through an explicit integer seed,
fed to numpy's PCG64 generator). Complex matrices are dense numpy arrays
with the row-major tensor index convention (i_A, i_B) -> i_A * dim_B + i_B.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRank,
    DimensionMismatch,
    DimensionOverflow,
    InvalidDimension,
    NotHermitian,
    NotPositive,
    SingularNormalizer,
    SumNotIdentity,
    TraceNotOne,
)

#: Cap on Hilbert-space dimension (d^2 = 64 reference outcomes at most).
DIM_CAP = 8

# ---------------------------------------------------------------------------
# Every tolerance and threshold of the package. A "contract" is a chosen limit
# that inputs and results are held to; a "derived" entry follows from others.
# Each module imports its entries from here, under the same names.
# ---------------------------------------------------------------------------

#: contract: largest |A - A^dag| entry of a state, a POVM element or a POVM's sum - I.
HERMITIAN_TOL = 1e-10
#: contract: lowest eigenvalue of a positive operator, and the slack of a projector's 0 and 1.
EIGENVALUE_TOL = 1e-10
#: contract: largest |tr rho - 1| of a density operator.
TRACE_TOL = 1e-10
#: contract: largest |norm - 1| of a ket.
NORM_TOL = 1e-12
#: contract: lowest probability accepted; entries in [PROB_FLOOR, 0) are clipped to 0.
PROB_FLOOR = -1e-12
#: contract: largest |sum - 1| of a distribution or a conditional row.
PROB_SUM_TOL = 1e-10
#: contract: largest condition number of the normalizer S that _whiten inverts.
NORMALIZER_COND_CAP = 1e12
#: contract: largest distance of a certified SIC's overlaps from 1/(d+1) (sic.sic_search,
#: born.make_reference), and sic-search's default --tol.
CERT_TOL = 1e-8
#: contract: the tighter CERT_TOL every registry fiducial meets (sic.known_fiducial).
REGISTRY_CERT_TOL = 1e-10
#: contract: projected-gradient norm at which a sic_search restart has converged.
GRAD_TOL = 1e-10
#: contract: largest SIC residual at which a sic_search restart stops.
SEARCH_RESIDUAL_TARGET = 1e-12
#: contract: largest second eigenvalue of a rank-1 reference element (born.make_reference).
RANK_ONE_TOL = 1e-10
#: contract: singular values of a transfer matrix below this times its largest are zero
#: when its informationally-complete rank is counted (born.make_reference).
GRAM_RANK_FACTOR = 1e-10
#: contract: largest max_j |q_general(j) - tr(rho F_j)| born-check passes.
BORN_CHECK_TOL = 1e-9
#: derived: c of the forward-error bound max_j |q_general(j) - tr(rho F_j)| <= c eps cond(M)
#: (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 7): the largest
#: ratio, 0.152, over random references at d = 2..8, seeds 0..399, 300 born-check trials
#: each, with cond(M) >= 1e4, rounded up. Below 1e4 the deviation is the output's own
#: rounding, at most 6.2e-14.
BORN_ERROR_CONSTANT = 0.16
#: derived: largest cond(M) of a reference's transfer matrix M (born.make_reference); the
#: bound above then keeps every accepted reference within BORN_CHECK_TOL.
CONDITION_CAP = BORN_CHECK_TOL / (BORN_ERROR_CONSTANT * float(np.finfo(float).eps))
#: contract: two steering ensembles whose largest fidelity exceeds 1 minus this share a state
#: (correlations.SteeringReport.no_steering).
NO_STEERING_TOL = 1e-9
#: contract: a conditional outcome of probability at or below this is left out of its
#: steering ensemble (correlations.steering_ensembles).
SUPPORT_CUT = 1e-12


def check_dim(d: int) -> int:
    """Validate a Hilbert-space dimension: an integer with 2 <= d <= DIM_CAP."""
    try:
        whole = int(d) == d
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise InvalidDimension(f"dimension {d!r} is not an integer")
    d = int(d)
    if d < 2 or d > DIM_CAP:
        raise InvalidDimension(f"dimension {d} outside supported range 2..{DIM_CAP}")
    return d


def _is_int(value) -> bool:
    """True for Python and numpy integers, not for bools or floats."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_draw_args(n, n_name: str, seed) -> None:
    """Refuse a count not an int in 1..2**63-1 (numpy's int64 counts) or a seed not an int >= 0."""
    if not _is_int(n) or not 1 <= n < 2**63:
        raise ValueError(f"{n_name} must be an integer in 1..2**63-1, got {n!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _require_finite(a: np.ndarray, what: str) -> None:
    """Reject NaN and infinite entries, which every tolerance comparison lets through."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has non-finite entries")


def _require_positive(value, what: str) -> None:
    """Reject a tolerance that is not a finite real number > 0."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be a finite number > 0, got {value!r}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Ket:
    """Unit vector in a d-dimensional complex Hilbert space."""

    dim: int
    amplitudes: np.ndarray

    def density(self) -> "DensityOperator":
        """The rank-1 state |psi><psi|."""
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(self.dim, _freeze(0.5 * (m + m.conj().T)))


def make_ket(amplitudes) -> Ket:
    """Validate and wrap a complex amplitude vector (unit norm within NORM_TOL)."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    d = check_dim(v.shape[0])
    _require_finite(v, "ket")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"ket norm {norm!r} differs from 1 by more than {NORM_TOL}")
    return Ket(d, _freeze(v.copy()))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator."""

    dim: int
    matrix: np.ndarray


@dataclass(frozen=True)
class Povm:
    """Finite measurement: positive operators summing to identity.

    ``elements`` has shape (n_outcomes, d, d); outcome j indexes axis 0.
    """

    dim: int
    elements: np.ndarray

    def __len__(self) -> int:
        return self.elements.shape[0]

    def __getitem__(self, j: int) -> np.ndarray:
        return self.elements[j]


@dataclass(frozen=True)
class ProbVector:
    """Probability distribution over outcome labels.

    Entries in [PROB_FLOOR, 0) are clipped to zero on construction; anything
    more negative, or a total off 1 by more than PROB_SUM_TOL, is rejected.
    """

    values: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])


def make_prob_vector(values) -> ProbVector:
    v = np.asarray(values, dtype=float).reshape(-1)
    return ProbVector(_freeze(_check_prob_rows(v[None])[0]))


def _check_prob_rows(rows: np.ndarray) -> np.ndarray:
    """Validate each row of a (stack, n) array as a distribution.

    Returns the rows with entries in [PROB_FLOOR, 0) clipped to zero. The
    error describes the first failing row.
    """
    _require_finite(rows, "probability vector")
    lowest = rows.min(axis=1, initial=0.0)
    rows = np.where(rows < 0.0, 0.0, rows)
    totals = rows.sum(axis=1)
    bad = (lowest < PROB_FLOOR) | (np.abs(totals - 1.0) > PROB_SUM_TOL)
    if bad.any():
        b = int(np.argmax(bad))
        if lowest[b] < PROB_FLOOR:
            raise ValueError(
                f"probability {lowest[b]:.3e} below the tolerance floor {PROB_FLOOR}"
            )
        total = float(totals[b])
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}")
    return rows


def prob_values(p) -> np.ndarray:
    """Entries of a ProbVector, or of a raw array validated by make_prob_vector."""
    return (p if isinstance(p, ProbVector) else make_prob_vector(p)).values


def hermitian_deviation(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def validate_density(matrix) -> DensityOperator:
    """Validate a matrix as a density operator.

    Checks Hermiticity, positivity and unit trace at HERMITIAN_TOL,
    EIGENVALUE_TOL and TRACE_TOL. Eigenvalues in [-EIGENVALUE_TOL, 0) are
    floating error: they are clipped to 0 and the operator renormalized.

    Raises NotHermitian, NotPositive or TraceNotOne, each reporting the
    measured deviation.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    d = check_dim(m.shape[0])
    _require_finite(m, "density matrix")
    dev = hermitian_deviation(m)
    if dev > HERMITIAN_TOL:
        raise NotHermitian(dev, what="density matrix")
    m = 0.5 * (m + m.conj().T)
    trace = float(np.real(np.trace(m)))
    if abs(trace - 1.0) > TRACE_TOL:
        raise TraceNotOne(trace, TRACE_TOL)
    w, v = np.linalg.eigh(m)
    if w[0] < -EIGENVALUE_TOL:
        raise NotPositive(float(w[0]), what="density matrix")
    if w[0] < 0.0:
        w = np.where(w < 0.0, 0.0, w)
        m = (v * w) @ v.conj().T
        m = 0.5 * (m + m.conj().T)
        m = m / np.real(np.trace(m))
    return DensityOperator(d, _freeze(m))


def make_povm(elements) -> Povm:
    """Validate a list of matrices as a POVM (the invariants of the type).

    All elements are checked with one stacked eigenvalue call; the error
    names the first failing element, Hermiticity before positivity.
    """
    els = np.asarray(elements, dtype=complex)
    if els.ndim != 3 or els.shape[1] != els.shape[2]:
        raise ValueError(f"expected shape (n, d, d), got {els.shape}")
    d = check_dim(els.shape[1])
    _check_povm_stack(els[None])
    return Povm(d, _freeze(els.copy()))


def _check_povm_stack(els: np.ndarray) -> None:
    """Validate a (stack, n, d, d) array of POVMs with one eigenvalue call.

    The error describes the first failing POVM: its first failing element,
    Hermiticity before positivity, and then its sum to identity.
    """
    _require_finite(els, "POVM")
    adjoint = els.conj().swapaxes(-1, -2)
    devs = np.max(np.abs(els - adjoint), axis=(-2, -1))
    lowest = np.linalg.eigvalsh(0.5 * (els + adjoint))[..., 0]
    sum_devs = np.max(np.abs(els.sum(axis=1) - np.eye(els.shape[-1])), axis=(-2, -1))
    bad = (devs > HERMITIAN_TOL) | (lowest < -EIGENVALUE_TOL)
    failed = bad.any(axis=1) | (sum_devs > HERMITIAN_TOL)
    if failed.any():
        b = int(np.argmax(failed))
        if bad[b].any():
            j = int(np.argmax(bad[b]))
            if devs[b, j] > HERMITIAN_TOL:
                raise NotHermitian(float(devs[b, j]), what=f"POVM element {j}")
            raise NotPositive(float(lowest[b, j]), what=f"POVM element {j}")
        raise SumNotIdentity(float(sum_devs[b]))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the (i_A, i_B) -> i_A * dim_B + i_B convention.

    Accepts operators (2-d) or kets (1-d). Raises DimensionOverflow when the
    product dimension exceeds DIM_CAP.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > DIM_CAP:
        raise DimensionOverflow(out_dim, DIM_CAP)
    return np.kron(a, b)


def born_probabilities(rho: DensityOperator, povm: Povm) -> ProbVector:
    """Outcome distribution q(j) = tr(rho F_j).

    This is the ground-truth oracle the probability-only rewriting is
    checked against.
    """
    if rho.dim != povm.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != POVM dim {povm.dim}")
    return make_prob_vector(_traces(rho.matrix[None], povm.elements)[0])


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A_x B_y) for (..., X, d, d) and (..., Y, d, d) stacks, as C-ordered (..., X, Y).

    One product of flattened A_x and flattened B_y^T per leading index, so an index has
    the same bits alone as in a stack; C order, since the rules round differently on strides.
    """
    flat = a.shape[-2] * a.shape[-1]
    rows = a.reshape(*a.shape[:-2], flat)
    cols = b.swapaxes(-1, -2).reshape(*b.shape[:-2], flat)
    return np.ascontiguousarray((rows @ cols.swapaxes(-1, -2)).real)


def random_pure_state(dim: int, seed: int) -> Ket:
    """Haar-distributed pure state: normalized complex standard normals."""
    d = check_dim(dim)
    x = np.random.default_rng(seed).standard_normal((2, d))
    v = x[0] + 1j * x[1]
    v /= np.linalg.norm(v)
    return Ket(d, _freeze(v))


def random_density(dim: int, rank: int, seed: int) -> DensityOperator:
    """Random state rho = G G^dag / tr(G G^dag), G a d x rank complex normal."""
    d = check_dim(dim)
    if not 1 <= rank <= d:
        raise BadRank(f"rank {rank} outside 1..{d}")
    x = np.random.default_rng(seed).standard_normal((1, 2, d, rank))
    return DensityOperator(d, _freeze(_unit_trace(_grams(x))[0]))


def random_povm(dim: int, n_outcomes: int, seed: int) -> Povm:
    """Random POVM from n Wishart factors, whitened to sum to identity.

    Draws A_k = G_k G_k^dag, S = sum_k A_k and returns
    {S^{-1/2} A_k S^{-1/2}}. Raises SingularNormalizer when S has
    condition number above NORMALIZER_COND_CAP.
    """
    d = check_dim(dim)
    if n_outcomes < 2:
        raise ValueError(f"need at least 2 outcomes, got {n_outcomes}")
    x = np.random.default_rng(seed).standard_normal((1, n_outcomes, 2, d, d))
    return Povm(d, _freeze(_whiten(_grams(x))[0]))


def _grams(x: np.ndarray) -> np.ndarray:
    """Hermitized G G^dag for each G = X_0 + i X_1 of a real (..., 2, d, r) array of
    draws; one matmul per leading index, so an index has the same bits alone as in a stack."""
    g = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    a = g @ g.conj().swapaxes(-1, -2)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _unit_trace(m: np.ndarray) -> np.ndarray:
    """Divide each (d, d) matrix of a stack by its real trace, in place."""
    m /= np.real(np.trace(m, axis1=-2, axis2=-1))[..., None, None]
    return m


def _whiten(parts: np.ndarray) -> np.ndarray:
    """POVMs {S^{-1/2} A_k S^{-1/2}}, S = sum_k A_k, from a (stack, n, d, d) array of parts.

    The error describes the first POVM in the stack that fails: SingularNormalizer
    when cond(S) > NORMALIZER_COND_CAP, then the checks of make_povm.
    """
    s = np.sum(parts, axis=1)
    w, v = np.linalg.eigh(s)
    cond = np.divide(w[:, -1], w[:, 0], out=np.full(len(w), np.inf), where=w[:, 0] > 0)
    singular = cond > NORMALIZER_COND_CAP
    if singular.any():
        raise SingularNormalizer(float(cond[np.argmax(singular)]))
    inv_sqrt = (v / np.sqrt(w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    els = inv_sqrt[:, None] @ parts @ inv_sqrt[:, None]
    els = 0.5 * (els + els.conj().swapaxes(-1, -2))
    _check_povm_stack(els)
    return els


def projector_povm(vectors) -> Povm:
    """Projective measurement onto an orthonormal basis given as row vectors."""
    vecs = np.asarray(vectors, dtype=complex)
    return make_povm(vecs[:, :, None] * vecs.conj()[:, None, :])
