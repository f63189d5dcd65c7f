"""Weyl-Heisenberg displacements, frame potential, and the multi-start
numerical search for SIC fiducial vectors.

Conventions, fixed once for reproducible serialized fiducials:
omega = exp(2*pi*i/d), tau = -exp(i*pi/d), and
D_{jk} = tau^{jk} X^j Z^k with X|m> = |m+1 mod d>, Z|m> = omega^m |m>.
Displacement index (j, k) maps to flat position j*d + k.

A unit vector phi is a SIC fiducial when |<phi|D_{jk}|phi>|^2 = 1/(d+1)
for every nonzero (j, k); the frame potential
P(phi) = sum_{(j,k) != 0} |<phi|D_{jk}|phi>|^4 is bounded below by
(d-1)/(d+1) with equality exactly on SIC fiducials, which makes it the
search objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import NoConvergence
from .operators import (CERT_TOL, GRAD_TOL, REGISTRY_CERT_TOL, SEARCH_HANDOFF_GRAD,
                        SEARCH_RESIDUAL_TARGET, Ket, _check_draw_args, _freeze, _require_positive,
                        check_dim, make_ket)

MAX_ITERATIONS = 10_000


def sic_target(dim: int) -> float:
    """Global minimum of the frame potential, (d-1)/(d+1)."""
    return (dim - 1) / (dim + 1)


@lru_cache(maxsize=None)
def displacement_stack(dim: int) -> np.ndarray:
    """All d^2 displacement operators as a read-only (d^2, d, d) array."""
    d = check_dim(dim)
    omega = np.exp(2j * np.pi / d)
    tau = -np.exp(1j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)  # X|m> = |m+1 mod d>
    clock = np.diag(omega ** np.arange(d))
    out = np.empty((d * d, d, d), dtype=complex)
    for j in range(d):
        xj = np.linalg.matrix_power(shift, j)
        for k in range(d):
            out[j * d + k] = tau ** (j * k) * (xj @ np.linalg.matrix_power(clock, k))
    return _freeze(out)


def displacement(dim: int, j: int, k: int) -> np.ndarray:
    """Single displacement D_{jk}; indices are taken mod d."""
    d = check_dim(dim)
    return displacement_stack(d)[(j % d) * d + (k % d)]


def wh_orbit(fiducial: Ket) -> np.ndarray:
    """Rank-1 projectors D_{jk} |phi><phi| D_{jk}^dag, shape (d^2, d, d).

    Dividing by d gives a POVM: the displacement orbit of any projector
    averages to tr(P) * I, so the elements sum to the identity.
    """
    d = fiducial.dim
    stack = displacement_stack(d)
    vecs = stack @ fiducial.amplitudes
    orbit = np.einsum("ai,aj->aij", vecs, vecs.conj())
    return 0.5 * (orbit + orbit.conj().transpose(0, 2, 1))


def _overlaps(phi: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """|<phi|D_a|phi>|^2 for every displacement, index a = j*d + k."""
    vecs = stack @ phi
    c = vecs @ phi.conj()
    return c.real**2 + c.imag**2


def frame_potential(fiducial: Ket) -> float:
    """Fourth-moment overlap sum over the nonzero displacements."""
    c2 = _overlaps(fiducial.amplitudes, displacement_stack(fiducial.dim))
    return float(np.sum(c2[1:] ** 2))


def max_sic_deviation(fiducial: Ket) -> float:
    """max over nonzero (j,k) of | |<phi|D_{jk}|phi>|^2 - 1/(d+1) |."""
    c2 = _overlaps(fiducial.amplitudes, displacement_stack(fiducial.dim))
    return float(np.max(np.abs(c2[1:] - 1.0 / (fiducial.dim + 1))))


@dataclass(frozen=True)
class FiducialCandidate:
    """Best unit vector found by a search, with its certification numbers.

    ``restarts_used`` is the search's restart budget and ``restart_index``
    the index i of the restart that won (its start seed is seed + i); a
    certified winner means restarts 0..i ran. All three are None for
    hand-supplied vectors that never went through the search.
    """

    dim: int
    vector: Ket
    frame_potential: float
    max_sic_deviation: float
    seed: Optional[int]
    restarts_used: Optional[int]
    restart_index: Optional[int]


@dataclass(frozen=True)
class SicCertificate:
    candidate: FiducialCandidate
    passed: bool
    tolerance: float


def sic_certify(fiducial: Ket, tolerance: float = CERT_TOL) -> SicCertificate:
    """Check every nonzero displacement overlap against 1/(d+1)."""
    _require_positive(tolerance, "tolerance")
    dev = max_sic_deviation(fiducial)
    cand = FiducialCandidate(
        dim=fiducial.dim,
        vector=fiducial,
        frame_potential=frame_potential(fiducial),
        max_sic_deviation=dev,
        seed=None,
        restarts_used=None,
        restart_index=None,
    )
    return SicCertificate(candidate=cand, passed=dev < tolerance, tolerance=tolerance)


# ---------------------------------------------------------------------------
# frame-potential minimization
# ---------------------------------------------------------------------------


def _terms(x, stack, adjoint):
    """D_a x, D_a^dag x and c_a = <x|D_a|x> for every displacement a."""
    dx = stack @ x
    return dx, adjoint @ x, dx @ x.conj()


def _potential_and_gradient(dx, ddx, c):
    """P(x) and its gradient in the ambient real parametrization, from _terms.

    The gradient is packed as a complex vector g = dP/dx + i dP/dy for
    x + i y; it matches central finite differences to ~1e-9 relative
    (checked in the test suite).
    """
    w = (c.real**2 + c.imag**2)[1:]
    pot = float(np.sum(w**2))
    grad = 4.0 * ((w * c[1:].conj()) @ dx[1:] + (w * c[1:]) @ ddx[1:])
    return pot, grad


def _tangent(x, g):
    """Project the ambient gradient onto the unit sphere's tangent space.

    The ambient gradient cannot vanish at a constrained minimum, so
    convergence is measured on this projected gradient.
    """
    return g - np.real(np.vdot(x, g)) * x


def _residuals(c, target):
    """SIC residuals f_a = |c_a|^2 - 1/(d+1) over the nonzero a."""
    return (c.real**2 + c.imag**2)[1:] - target


def _restart(dim, seed, gtol):
    """One local minimization from the start default_rng(seed) draws.

    Projected gradient descent with Barzilai-Borwein steps, then a
    Levenberg-Marquardt polish of the SIC residuals: on the unit sphere
    sum_a |c_a|^2 is constant, so minimizing the frame potential is the same
    problem as driving the residuals to zero, and the least-squares form
    converges quadratically where line searches on the potential stall at
    float precision. Returns (potential, unit vector, projected gradient norm).
    """
    stack = displacement_stack(dim)
    adjoint = stack.conj().transpose(0, 2, 1)
    target = 1.0 / (dim + 1)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    pot, g = _potential_and_gradient(*_terms(x, stack, adjoint))
    r = _tangent(x, g)
    alpha = 1e-2
    prev = None  # (x, r) before the last accepted step
    for _ in range(MAX_ITERATIONS):
        rnorm2 = float(np.real(np.vdot(r, r)))
        if np.sqrt(rnorm2) < SEARCH_HANDOFF_GRAD:
            break
        if prev is not None:
            # Barzilai-Borwein initial step for the backtracking search
            s = x - prev[0]
            sy = abs(float(np.real(np.vdot(s, r - prev[1]))))
            if sy > 1e-300:
                alpha = min(max(float(np.real(np.vdot(s, s))) / sy, 1e-10), 1e2)
        step = alpha
        for _ in range(50):
            xn = x - step * r
            xn /= np.linalg.norm(xn)
            pot_n, g_n = _potential_and_gradient(*_terms(xn, stack, adjoint))
            if pot_n < pot and pot_n - pot <= -1e-4 * step * rnorm2:
                break
            step *= 0.5
        else:
            break  # decrease below float resolution: hand over to the polish
        prev = (x, r)
        x, pot, r = xn, pot_n, _tangent(xn, g_n)

    # Levenberg-Marquardt steps on the SIC residuals, renormalizing each move
    mu = 1e-12
    eye = np.eye(2 * dim)
    for _ in range(80):
        dx, ddx, c = _terms(x, stack, adjoint)
        pot, g = _potential_and_gradient(dx, ddx, c)
        rnorm = float(np.linalg.norm(_tangent(x, g)))
        f = _residuals(c, target)
        if rnorm < gtol and float(np.max(np.abs(f))) < SEARCH_RESIDUAL_TARGET:
            return pot, x, rnorm
        ga = c[1:, None].conj() * dx[1:] + c[1:, None] * ddx[1:]
        jac = np.concatenate([2.0 * ga.real, 2.0 * ga.imag], axis=1)
        jtj, jtf, fnorm2 = jac.T @ jac, jac.T @ f, float(f @ f)
        for _ in range(40):
            step = np.linalg.solve(jtj + mu * eye, -jtf)
            xn = x + step[:dim] + 1j * step[dim:]
            xn /= np.linalg.norm(xn)
            fn = _residuals(_terms(xn, stack, adjoint)[2], target)
            if float(fn @ fn) < fnorm2:
                break
            mu *= 10.0
        else:
            return pot, x, rnorm  # no damping lowers the residuals
        x = xn
        mu = max(mu * 0.25, 1e-14)
    pot, g = _potential_and_gradient(*_terms(x, stack, adjoint))
    return pot, x, float(np.linalg.norm(_tangent(x, g)))


def sic_search(dim: int, seed: int, restarts: int, gtol: float = GRAD_TOL,
               tol: float = CERT_TOL) -> FiducialCandidate:
    """Multi-start minimization of the frame potential over unit vectors.

    Restart i draws its start from a generator seeded with seed + i, and the
    restarts run in index order. The first one that converges (projected
    gradient norm < gtol) and certifies (max SIC deviation < tol) wins, and
    no later restart runs, so the result is a deterministic function of
    (dim, seed, gtol, tol) and of restarts only through the budget. When no
    restart certifies, the converged restart with the lowest potential is
    returned uncertified (exact ties go to the lowest index). Raises
    ValueError unless restarts >= 1 and seed >= 0 are integers and gtol and
    tol are finite and > 0, and NoConvergence when no restart converges
    within the iteration cap.
    """
    d = check_dim(dim)
    _check_draw_args(restarts, "restarts", seed)
    _require_positive(gtol, "gtol")
    _require_positive(tol, "tol")
    best = None  # (potential, restart index, ket) of the best converged restart
    closest = None  # (projected gradient norm, restart index) over all restarts
    for i in range(restarts):
        pot, x, rnorm = _restart(d, seed + i, gtol)
        if rnorm < gtol:
            ket = make_ket(x)
            if max_sic_deviation(ket) < tol:
                best = (pot, i, ket)
                break
            if best is None or pot < best[0]:
                best = (pot, i, ket)
        if closest is None or rnorm < closest[0]:
            closest = (rnorm, i)
    if best is None:
        raise NoConvergence(
            f"no restart of {restarts} reached gradient norm < {gtol} in dimension {d}; "
            f"the closest reached {closest[0]:.3e} (restart seed {seed + closest[1]})"
        )
    _, winner, ket = best
    return FiducialCandidate(
        dim=d,
        vector=ket,
        frame_potential=frame_potential(ket),
        max_sic_deviation=max_sic_deviation(ket),
        seed=seed,
        restarts_used=restarts,
        restart_index=winner,
    )



# ---------------------------------------------------------------------------
# known fiducials
# ---------------------------------------------------------------------------

#: How the d = 4..8 registry vectors were produced:
#: sic_search(d, **SEARCH_PROVENANCE) returns exactly these amplitudes. Its
#: restart 0 certifies in each of these dimensions, so the budget is 1.
SEARCH_PROVENANCE = {"seed": 1, "restarts": 1}

# Amplitudes (re, im) of the search results above, written so that each
# float literal reads back to the identical double.
_SEARCHED = {
    4: (
        (0.10406906735472064, 0.17218152209948998),
        (0.37906233880220963, 0.13035020571176795),
        (0.41568296584262343, -0.2512449538314045),
        (-0.690676237290037, 0.2930762702190887),
    ),
    5: (
        (0.03589756919385381, 0.2389981606422251),
        (0.3678578205578667, -0.19447624758497875),
        (0.19964026495779874, 0.01087720165718831),
        (-0.6905214801875976, 0.12603501148406435),
        (0.485048210927283, 0.022356255566614268),
    ),
    6: (
        (0.01966958737741734, -0.26309281363844833),
        (0.4372406022239162, 0.01705726958931907),
        (0.19421949578879777, 0.06535341989598288),
        (-0.668754336327389, 0.012881065908166655),
        (0.4229632347055241, 0.1432580269670181),
        (0.01835117157614779, 0.22310735557528819),
    ),
    7: (
        (0.0563432344759395, 0.12105717640901949),
        (0.39849415836233687, 0.2273564276212019),
        (0.19225673855576328, -0.038131586541707715),
        (-0.4280927168602996, -0.18524499569898278),
        (0.596173249774758, 0.16545880679744815),
        (0.14166180540078271, -0.14807642298187954),
        (-0.23259034328461942, 0.19181810141600525),
    ),
    8: (
        (0.3089833395296419, -0.04460654413569462),
        (0.15374684620104312, 0.16482435693791883),
        (0.18759130501125806, -0.023149613057625484),
        (-0.3819340249118448, 0.25538415175317225),
        (0.48375381002079365, -0.3556970235694237),
        (0.06703319280289571, 0.02738593350288468),
        (-0.043950644757781085, -0.41353359720715827),
        (0.16869063894079775, 0.19425122307747245),
    ),
}

# Registry of fiducial vectors: closed forms for d = 2, 3 and the stored
# search results for d = 4..8. Each is re-certified on first access, so
# downstream code never depends on search stochasticity.
_KNOWN = {
    2: np.array(
        [
            np.cos(0.5 * np.arccos(1 / np.sqrt(3))),
            np.exp(1j * np.pi / 4) * np.sin(0.5 * np.arccos(1 / np.sqrt(3))),
        ]
    ),
    3: np.array([0.0, 1.0, -1.0]) / np.sqrt(2),
    **{d: np.array([complex(re, im) for re, im in pairs]) for d, pairs in _SEARCHED.items()},
}


@lru_cache(maxsize=None)
def known_fiducial(dim: int) -> Ket:
    """Registry fiducial for d = 2..8, certified to REGISTRY_CERT_TOL on first access.

    d = 2 and 3 are closed forms; d = 4..8 are the vectors this package's
    own sic_search returns for SEARCH_PROVENANCE (the first certified
    restart at seed 1), stored bit-exact. Raises
    KeyError for a dimension outside the registry.
    """
    if dim not in _KNOWN:
        raise KeyError(f"no registry fiducial for dimension {dim}")
    ket = make_ket(_KNOWN[dim])
    cert = sic_certify(ket, tolerance=REGISTRY_CERT_TOL)
    if not cert.passed:
        raise AssertionError(
            f"registry fiducial for d={dim} failed certification: "
            f"deviation {cert.candidate.max_sic_deviation:.3e}"
        )
    return ket


def registry_dims() -> tuple:
    return tuple(sorted(_KNOWN))
