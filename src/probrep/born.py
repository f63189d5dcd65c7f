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
    ProbrepError,
    ShapeMismatch,
    TrialFailed,
    WrongOutcomeCount,
)
from .operators import (
    CERT_TOL,
    CONDITION_CAP,
    GRAM_RANK_FACTOR,
    PROB_FLOOR,
    PROB_SUM_TOL,
    RANK_ONE_TOL,
    DensityOperator,
    Ket,
    Povm,
    ProbVector,
    _check_prob_rows,
    _freeze,
    _grams,
    _require_finite,
    _traces,
    _unit_trace,
    _whiten,
    check_dim,
    make_povm,
    make_prob_vector,
    prob_values,
    validate_density,
)

#: Most trials x outcomes x d^2 entries in one check_trials stack: 8 x 10 x 64 at d = 8.
STACK_ENTRIES = 8 * 10 * 64


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
    _check_cond_stack(r[None])
    return CondProbMatrix(_freeze(r.copy()))


def _check_cond_stack(r: np.ndarray) -> None:
    """Validate a (stack, m, n) array of conditional matrices r(j|i).

    The error describes the first failing matrix, its range before its
    row sums.
    """
    _require_finite(r, "conditional probabilities")
    lo = r.min(axis=(1, 2))
    hi = r.max(axis=(1, 2))
    worst = np.max(np.abs(r.sum(axis=2) - 1.0), axis=1)
    outside = (lo < PROB_FLOOR) | (hi > 1.0 - PROB_FLOOR)
    bad = outside | (worst > PROB_SUM_TOL)
    if bad.any():
        b = int(np.argmax(bad))
        if outside[b]:
            raise ValueError(
                f"conditional probabilities outside [0, 1]: range "
                f"[{lo[b]:.3e}, {hi[b]:.3e}]"
            )
        raise ValueError(
            f"conditional rows must sum to 1, worst deviation {worst[b]:.3e}"
        )


def make_reference(povm: Povm) -> ReferenceMeasurement:
    """Validate a POVM as a reference measurement and build its transfer maps.

    Requires d^2 elements, each rank 1 (second eigenvalue <= RANK_ONE_TOL).
    With G_ik = tr(E_i E_k) and Pi_k = E_k / tr E_k, the transfer matrix is
    M = G diag(tr E)^-1. One SVD of M gives its rank, which must be d^2 at
    GRAM_RANK_FACTOR, and ``condition_number``, its 2-norm condition, which
    must be <= CONDITION_CAP so the rule stays within BORN_CHECK_TOL; M^-1 is
    one LU inverse. ``sic_certified`` holds when d^2 tr(E_i E_j) is within
    CERT_TOL of the SIC overlaps 1 (i = j) and 1/(d+1) (i != j). Raises
    WrongOutcomeCount, NotRankOne, NotInformationallyComplete or
    IllConditionedReference.
    """
    d = povm.dim
    n = len(povm)
    if n != d * d:
        raise WrongOutcomeCount(got=n, expected=d * d)

    w = np.linalg.eigvalsh(povm.elements)
    bad = (w[:, -2] > RANK_ONE_TOL) | (w[:, -1] <= RANK_ONE_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise NotRankOne(i, float(w[i, -2]))
    traces = np.real(np.trace(povm.elements, axis1=1, axis2=2))

    flat = povm.elements.reshape(n, d * d)
    gram = np.real(flat @ flat.conj().T)
    transfer = gram / traces
    svals = np.linalg.svd(transfer, compute_uv=False)
    rank = int(np.sum(svals > GRAM_RANK_FACTOR * svals[0]))
    if rank < n:
        raise NotInformationallyComplete(gram_rank=rank, needed=n)
    cond = float(svals[0] / svals[-1])
    if cond > CONDITION_CAP:
        raise IllConditionedReference(cond, CONDITION_CAP)
    sic_certified = bool(np.max(np.abs(d * d * gram - (d * np.eye(n) + 1) / (d + 1))) < CERT_TOL)

    return ReferenceMeasurement(
        dim=d,
        elements=povm,
        projectors=_freeze(povm.elements / traces[:, None, None]),
        transfer=_freeze(transfer),
        transfer_inverse=_freeze(np.linalg.inv(transfer)),
        condition_number=cond,
        sic_certified=sic_certified,
    )


@lru_cache(maxsize=None)
def sic_reference(dim: int) -> ReferenceMeasurement:
    """Certified SIC reference for any supported dimension (2..8): reference_from_fiducial
    of the registry fiducial (sic.known_fiducial), certified on first access, so no search
    runs. Raises InvalidDimension outside the supported range."""
    return reference_from_fiducial(sic.known_fiducial(check_dim(dim)))


def reference_from_fiducial(fiducial: Ket) -> ReferenceMeasurement:
    """The reference {Pi_i / d} on a ket's displacement orbit (sic.wh_orbit); any ket
    whose orbit make_reference accepts, certified as a SIC or not."""
    return make_reference(make_povm(sic.wh_orbit(fiducial) / fiducial.dim))


def random_reference(dim: int, seed: int) -> ReferenceMeasurement:
    """Random rank-1 IC reference: d^2 random rank-1 operators, whitened as random_povm's."""
    d = check_dim(dim)
    x = np.random.default_rng(seed).standard_normal((2, d * d, d))
    vecs = x[0] + 1j * x[1]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    parts = vecs[:, :, None] * vecs.conj()[:, None, :]
    return make_reference(Povm(d, _freeze(_whiten(parts[None])[0])))


def _transfer_weights(ref: ReferenceMeasurement, values: np.ndarray) -> np.ndarray:
    """Solve M w = values, for one vector or a (stack, m) array of them, by the
    LU inverse and one step of iterative refinement.

    The inverse alone loses ~cond(M) eps: without the step, accepted random
    references near CONDITION_CAP (d = 5, seed 107) fail PROB_SUM_TOL. Each
    vector is one matrix-vector product, so a stack gives the same bits as
    its rows one at a time.
    """
    w = _matvec(ref.transfer_inverse, values)
    w += _matvec(ref.transfer_inverse, values - _matvec(ref.transfer, w))
    return w


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (a @ v[..., None])[..., 0]


def _weighted_rows(weights: np.ndarray, r: np.ndarray) -> np.ndarray:
    """q(j) = sum_i weights(i) r(j|i), for one (m,) vector or a stack."""
    return (weights[..., None, :] @ r)[..., 0, :]


def _general_rule(ref: ReferenceMeasurement, p: np.ndarray, r: np.ndarray) -> np.ndarray:
    return _weighted_rows(_transfer_weights(ref, p), r)


def _sic_rule(dim: int, p: np.ndarray, r: np.ndarray) -> np.ndarray:
    return _weighted_rows((dim + 1) * p - 1.0 / dim, r)


def state_to_prob(ref: ReferenceMeasurement, rho: DensityOperator) -> ProbVector:
    """p(i) = tr(rho E_i): the state as a probability vector."""
    if rho.dim != ref.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != reference dim {ref.dim}")
    return make_prob_vector(_traces(rho.matrix[None], ref.elements.elements)[0])


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
    return make_cond_prob(_traces(ref.projectors, povm.elements))


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
    return make_prob_vector(_general_rule(ref, values, r.rows))


def urgleichung_sic(dim: int, p: ProbVector, r: CondProbMatrix) -> ProbVector:
    """SIC form of the rule: q(j) = sum_i ((d+1) p(i) - 1/d) r(j|i)."""
    values = _check_shapes(dim * dim, p, r)
    return make_prob_vector(_sic_rule(dim, values, r.rows))


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
    return _gap_rules(ref, rho, povm)[0]


def _gap_rules(ref, rho, povm) -> tuple[float, ProbVector, ProbVector]:
    """classicality_gap with the quantum and classical q it compares."""
    p = state_to_prob(ref, rho)
    r = povm_to_cond(ref, povm)
    quantum = urgleichung_general(ref, p, r)
    classical = classical_law(p, r)
    return float(np.max(np.abs(quantum.values - classical.values))), quantum, classical


def random_ic_inputs(dim: int, seed: int):
    """Deterministic (rho, povm) pair for sweep tests, drawn from default_rng(seed)."""
    d = check_dim(dim)
    ((_, rhos, parts),) = _stacks(d, [seed])
    return DensityOperator(d, _freeze(rhos[0])), Povm(d, _freeze(_whiten(parts)[0]))


def check_trials(ref: ReferenceMeasurement, seeds) -> tuple[float, float | None]:
    """Check the probability rule on random_ic_inputs(ref.dim, s) for each seed.

    Returns the largest max_j |q_general(j) - tr(rho F_j)| over the trials,
    and, when ref is a SIC, the largest max_j |q_sic(j) - q_general(j)|
    (None otherwise). Trials with one outcome count n are evaluated in stacks
    of up to STACK_ENTRIES // (n d^2); every value is bit-identical to
    evaluating the trials one at a time with the public functions. When a
    stack fails, the trials are checked again one at a time in seed order,
    and the first that fails raises TrialFailed, with its error as the cause.
    """
    worst_general = worst_sic = 0.0
    for _, rhos, parts in _stacks(ref.dim, seeds):
        try:
            general, sic_dev = _stack_deviations(ref, rhos, parts)
        except (ProbrepError, ValueError):
            for t, seed in enumerate(seeds):
                ((_, rhos, parts),) = _stacks(ref.dim, [seed])
                try:
                    _stack_deviations(ref, rhos, parts)
                except (ProbrepError, ValueError) as err:
                    raise TrialFailed(t, seed, err) from err
            raise
        worst_general = max(worst_general, general)
        worst_sic = max(worst_sic, sic_dev)
    return worst_general, (worst_sic if ref.sic_certified else None)


def _stacks(dim: int, seeds):
    """(trials, rhos, parts) stacks of up to STACK_ENTRIES // (n d^2) trials with one n.

    default_rng(seeds[t]) draws trial t's rank and n; a pending (t, seed, rank, rng) trial
    keeps its Generator, and draws its state's normals and then its POVM's when its stack
    is full, the stream order of random_density and random_povm.
    """
    pending: dict[int, list] = {}
    for t, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, dim + 1))
        n = int(rng.integers(2, dim + 3))
        trials = pending.setdefault(n, [])
        trials.append((t, seed, rank, rng))
        if len(trials) == STACK_ENTRIES // (n * dim * dim):
            yield _stack_inputs(dim, n, pending.pop(n))
    for n, trials in pending.items():
        yield _stack_inputs(dim, n, trials)


def _stack_inputs(dim: int, n: int, trials: list):
    """(trials, rhos, parts) of a stack: each trial draws its state's normals, then its POVM's."""
    rhos = np.empty((len(trials), dim, dim), dtype=complex)
    draws = np.empty((len(trials), n, 2, dim, dim))
    for rho, row, (_, _, rank, rng) in zip(rhos, draws, trials):
        rho[...] = _grams(rng.standard_normal((2, dim, rank)))
        rng.standard_normal(out=row)
    return trials, _unit_trace(rhos), _grams(draws)


def _stack_deviations(ref: ReferenceMeasurement, rhos, parts) -> tuple[float, float]:
    """Largest general-rule and SIC-rule deviations over a (k, d, d) stack of
    states and a (k, n, d, d) stack of POVM parts with one n."""
    rhos = rhos[:, None]
    povms = _whiten(parts)
    p = _check_prob_rows(_traces(rhos, ref.elements.elements)[:, 0])
    r = _traces(ref.projectors, povms)
    _check_cond_stack(r)
    q = _check_prob_rows(_general_rule(ref, p, r))
    q_true = _check_prob_rows(_traces(rhos, povms)[:, 0])
    general = float(np.max(np.abs(q - q_true)))
    if not ref.sic_certified:
        return general, 0.0
    q_sic = _check_prob_rows(_sic_rule(ref.dim, p, r))
    return general, float(np.max(np.abs(q_sic - q)))
