"""Reference measurements and the probability-only form of the Born rule.

A reference measurement is a minimal informationally complete POVM of
d^2 rank-1 elements E_i with projectors Pi_i = E_i / tr(E_i). Any state
maps to the probability vector p(i) = tr(rho E_i) and any measurement
{F_j} to the conditional matrix r(j|i) = tr(F_j Pi_i); the transfer
matrix M_{ik} = tr(E_i Pi_k) converts p back into operator-expansion
weights, which turns the Born rule into pure probability arithmetic.
The classical law of total probability uses the same (p, r) and in
general disagrees; the gap between the two is a direct nonclassicality
metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import sic
from .errors import (
    DimensionMismatch,
    IllConditionedReference,
    NotAValidState,
    NotInformationallyComplete,
    NotPositive,
    NotRankOne,
    ShapeMismatch,
    WrongOutcomeCount,
)
from .operators import (
    DensityOperator,
    Povm,
    ProbVector,
    _freeze,
    check_dim,
    make_povm,
    make_prob_vector,
    prob_values,
    random_density,
    random_povm,
    validate_density,
)

RANK_ONE_TOL = 1e-10
GRAM_RANK_FACTOR = 1e-10
CONDITION_CAP = 1e10
INVERSE_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class ReferenceMeasurement:
    """Rank-1 IC reference with its transfer machinery precomputed."""

    dim: int
    elements: Povm
    projectors: np.ndarray
    transfer: np.ndarray
    transfer_inverse: np.ndarray
    condition_number: float
    sic_certified: bool

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class CondProbMatrix:
    """Conditional probabilities r(j|i); row i is a distribution over j."""

    rows: np.ndarray

    @property
    def n_reference(self) -> int:
        return self.rows.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.rows.shape[1]


def make_cond_prob(rows) -> CondProbMatrix:
    r = np.asarray(rows, dtype=float)
    if r.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {r.shape}")
    if r.min() < -1e-12 or r.max() > 1.0 + 1e-12:
        raise ValueError(
            f"conditional probabilities outside [0, 1]: range "
            f"[{r.min():.3e}, {r.max():.3e}]"
        )
    row_sums = r.sum(axis=1)
    worst = float(np.max(np.abs(row_sums - 1.0)))
    if worst > 1e-10:
        raise ValueError(f"conditional rows must sum to 1, worst deviation {worst:.3e}")
    return CondProbMatrix(_freeze(r.copy()))


def make_reference(povm: Povm) -> ReferenceMeasurement:
    """Validate a POVM as a reference measurement and build its transfer maps.

    Requires exactly d^2 elements, each rank 1 (second eigenvalue below
    1e-10), spanning the full operator space. The projectors are the
    dominant eigenvector projectors of the elements. ``sic_certified``
    holds when d^2 tr(E_i E_j) is within sic.CERT_TOL of the SIC values
    1 (i = j) and 1/(d+1) (i != j), the overlaps sic.sic_certify checks. Raises
    WrongOutcomeCount, NotRankOne, NotInformationallyComplete or
    IllConditionedReference.
    """
    d = povm.dim
    n = len(povm)
    if n != d * d:
        raise WrongOutcomeCount(got=n, expected=d * d)

    w, v = np.linalg.eigh(povm.elements)
    bad = (w[:, -2] > RANK_ONE_TOL) | (w[:, -1] <= RANK_ONE_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise NotRankOne(i, float(w[i, -2]))
    top = v[:, :, -1]
    projectors = top[:, :, None] * top.conj()[:, None, :]

    flat = povm.elements.reshape(n, d * d)
    gram = np.real(flat @ flat.conj().T)
    svals = np.linalg.svd(gram, compute_uv=False)
    rank = int(np.sum(svals > GRAM_RANK_FACTOR * svals[0]))
    if rank < d * d:
        raise NotInformationallyComplete(gram_rank=rank, needed=d * d)
    sic_gram = (d * np.eye(n) + 1.0) / (d + 1)
    sic_certified = bool(np.max(np.abs(d * d * gram - sic_gram)) < sic.CERT_TOL)

    transfer = np.real(np.einsum("iab,kba->ik", povm.elements, projectors))
    svals = np.linalg.svd(transfer, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    if cond > CONDITION_CAP:
        raise IllConditionedReference(cond)
    inverse = np.linalg.inv(transfer)
    check = float(np.max(np.abs(transfer @ inverse - np.eye(n))))
    if check > INVERSE_CHECK_TOL:
        raise IllConditionedReference(cond)

    return ReferenceMeasurement(
        dim=d,
        elements=povm,
        projectors=_freeze(projectors),
        transfer=_freeze(transfer),
        transfer_inverse=_freeze(inverse),
        condition_number=cond,
        sic_certified=sic_certified,
    )


@lru_cache(maxsize=None)
def sic_reference(dim: int) -> ReferenceMeasurement:
    """Certified SIC reference for any supported dimension (2..8).

    The reference {Pi_i / d} is the displacement orbit of the registry
    fiducial (sic.known_fiducial), which is certified on first access; no
    search runs. Raises InvalidDimension outside the supported range.
    """
    d = check_dim(dim)
    return make_reference(make_povm(sic.wh_orbit(sic.known_fiducial(d)) / d))


def random_reference(dim: int, seed: int) -> ReferenceMeasurement:
    """Random rank-1 IC reference: d^2 whitened random rank-1 operators."""
    rng = np.random.default_rng(seed)
    n = dim * dim
    vecs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    parts = np.einsum("ai,aj->aij", vecs, vecs.conj())
    s = parts.sum(axis=0)
    w, v = np.linalg.eigh(s)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    els = np.einsum("ab,kbc,cd->kad", inv_sqrt, parts, inv_sqrt)
    els = 0.5 * (els + els.conj().transpose(0, 2, 1))
    return make_reference(make_povm(els))


def _transfer_weights(ref: ReferenceMeasurement, values: np.ndarray) -> np.ndarray:
    """Solve M w = values with one step of iterative refinement.

    The explicit inverse alone loses ~cond(M) * eps, which random references
    can push past the output tolerances; the refinement step brings the
    residual back to machine level.
    """
    w = ref.transfer_inverse @ values
    w += ref.transfer_inverse @ (values - ref.transfer @ w)
    return w


def state_to_prob(ref: ReferenceMeasurement, rho: DensityOperator) -> ProbVector:
    """p(i) = tr(rho E_i): the state as a probability vector."""
    if rho.dim != ref.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != reference dim {ref.dim}")
    p = np.real(np.einsum("ij,aji->a", rho.matrix, ref.elements.elements))
    return make_prob_vector(p)


def prob_to_state(ref: ReferenceMeasurement, p: ProbVector) -> DensityOperator:
    """Solve p(i) = tr(rho E_i) for the state.

    Expands rho over the reference projectors with weights M^{-1} p and
    validates the result; raises NotAValidState when the reconstruction
    fails positivity, which signals that p lies outside the quantum state
    space.
    """
    values = prob_values(p)
    if values.shape[0] != ref.n_outcomes:
        raise ShapeMismatch(
            f"probability vector has {values.shape[0]} entries, "
            f"reference has {ref.n_outcomes} outcomes"
        )
    weights = _transfer_weights(ref, values)
    m = np.einsum("k,kij->ij", weights, ref.projectors)
    m = 0.5 * (m + m.conj().T)
    try:
        return validate_density(m)
    except NotPositive as err:
        raise NotAValidState(
            f"reconstructed operator has eigenvalue {err.min_eigenvalue:.6e}; "
            "the probability vector lies outside the quantum state space"
        ) from err


def povm_to_cond(ref: ReferenceMeasurement, povm: Povm) -> CondProbMatrix:
    """r(j|i) = tr(F_j Pi_i): the measurement as conditional probabilities.

    Pi_i is the post-measurement state after reference outcome i, so row i
    is the outcome distribution of {F_j} on that update.
    """
    if povm.dim != ref.dim:
        raise DimensionMismatch(f"POVM dim {povm.dim} != reference dim {ref.dim}")
    rows = np.real(np.einsum("jab,iba->ij", povm.elements, ref.projectors))
    return make_cond_prob(rows)


def _check_shapes(ref_outcomes: int, p, r: CondProbMatrix) -> np.ndarray:
    values = prob_values(p)
    if values.shape[0] != ref_outcomes or r.n_reference != ref_outcomes:
        raise ShapeMismatch(
            f"expected {ref_outcomes} reference outcomes, got p with "
            f"{values.shape[0]} and r with {r.n_reference} rows"
        )
    return values


def urgleichung_general(
    ref: ReferenceMeasurement, p: ProbVector, r: CondProbMatrix
) -> ProbVector:
    """Born rule on probabilities: q(j) = sum_k r(j|k) (M^{-1} p)_k.

    The transfer-inverse weights are quasi-probabilities (they may go
    negative); only the output is validated as a distribution. Agrees with
    tr(rho F_j) whenever p and r come from an actual state and POVM.
    """
    values = _check_shapes(ref.n_outcomes, p, r)
    weights = _transfer_weights(ref, values)
    return make_prob_vector(weights @ r.rows)


def urgleichung_sic(dim: int, p: ProbVector, r: CondProbMatrix) -> ProbVector:
    """SIC form of the rule: q(j) = sum_i ((d+1) p(i) - 1/d) r(j|i)."""
    values = _check_shapes(dim * dim, p, r)
    weights = (dim + 1) * values - 1.0 / dim
    return make_prob_vector(weights @ r.rows)


def classical_law(p: ProbVector, r: CondProbMatrix) -> ProbVector:
    """Law of total probability q(j) = sum_i p(i) r(j|i).

    The prediction of an agent who treats the counterfactual reference
    measurement as if it had actually been performed.
    """
    values = prob_values(p)
    if values.shape[0] != r.n_reference:
        raise ShapeMismatch(
            f"p has {values.shape[0]} entries, r has {r.n_reference} rows"
        )
    return make_prob_vector(values @ r.rows)


def classicality_gap(
    ref: ReferenceMeasurement, rho: DensityOperator, povm: Povm
) -> float:
    """max_j |quantum - classical| on the (p, r) induced by rho and the POVM."""
    p = state_to_prob(ref, rho)
    r = povm_to_cond(ref, povm)
    quantum = urgleichung_general(ref, p, r)
    classical = classical_law(p, r)
    return float(np.max(np.abs(quantum.values - classical.values)))


def random_ic_inputs(dim: int, seed: int):
    """Deterministic (rho, povm) pair for sweep tests; plumbing helper."""
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, dim + 1))
    n = int(rng.integers(2, dim + 3))
    rho = random_density(dim, rank, seed + 1)
    povm = random_povm(dim, n, seed + 2)
    return rho, povm
