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
search objective. Each restart of the search minimizes it as the
least-squares problem of the SIC residuals f = |<phi|D_{jk}|phi>|^2 - 1/(d+1),
by Levenberg-Marquardt steps from a random unit vector. Convergence is the
potential's gradient projected onto the sphere's tangent space, formed from
the residuals' Jacobian J: on the unit sphere
sum_{(j,k) != 0} |<phi|D_{jk}|phi>|^2 = (d-1)|phi|^4, so
grad P = 2 J^T (f + 1/(d+1)), the constant's part is radial, and the
projected gradient is P_T(2 J^T f) with P_T(g) = g - Re<phi, g> phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoConvergence
from .operators import (CERT_TOL, GRAD_TOL, REGISTRY_CERT_TOL, SEARCH_RESIDUAL_TARGET, Ket,
                        _check_draw_args, _freeze, _require_positive, check_dim, make_ket)


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
    """Best unit vector found by sic_search, with its certification numbers.

    ``restarts_used`` is the search's restart budget and ``restart_index``
    the index i of the restart that won (its start seed is seed + i); a
    certified winner means restarts 0..i ran.
    """

    vector: Ket
    frame_potential: float
    max_sic_deviation: float
    seed: int
    restarts_used: int
    restart_index: int


# ---------------------------------------------------------------------------
# frame-potential minimization
# ---------------------------------------------------------------------------


def _residuals_and_jacobian(x, stack, adjoint, target):
    """SIC residuals f_a = |c_a|^2 - 1/(d+1), c_a = <x|D_a|x>, over the nonzero a,
    and their Jacobian J in the real parametrization (Re x, Im x)."""
    dx = stack @ x
    c = dx @ x.conj()
    f = (c.real**2 + c.imag**2)[1:] - target
    ga = c[1:, None].conj() * dx[1:] + c[1:, None] * (adjoint @ x)[1:]
    return f, np.concatenate([2.0 * ga.real, 2.0 * ga.imag], axis=1)


def _restart(dim, seed):
    """One local minimization from the start default_rng(seed) draws.

    Levenberg-Marquardt steps on the SIC residuals f, from the random start:
    on the unit sphere sum_a |c_a|^2 is constant, so minimizing the frame
    potential is the same problem as driving the residuals to zero, and the
    least-squares form converges quadratically where line searches on the
    potential stall at float precision. Each step is renormalized onto the
    sphere; the damping starts at 1e-12, grows tenfold per refused step and
    shrinks fourfold after an accepted one. The projected gradient is read
    off the step's own J^T f: P_T(grad P) = P_T(2 J^T f), because on the
    sphere grad P = 2 J^T (f + 1/(d+1)) and the constant's part is radial.
    Returns (unit vector, projected gradient norm) once that norm is below
    GRAD_TOL and every residual below SEARCH_RESIDUAL_TARGET, when no
    damping lowers the residuals, or after 80 steps.
    """
    stack = displacement_stack(dim)
    adjoint = stack.conj().transpose(0, 2, 1)
    target = 1.0 / (dim + 1)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    mu = 1e-12
    eye = np.eye(2 * dim)
    for steps in range(81):
        f, jac = _residuals_and_jacobian(x, stack, adjoint, target)
        jtf = jac.T @ f
        g = 2.0 * (jtf[:dim] + 1j * jtf[dim:])
        rnorm = float(np.linalg.norm(g - np.real(np.vdot(x, g)) * x))
        if steps == 80 or (rnorm < GRAD_TOL
                           and float(np.max(np.abs(f))) < SEARCH_RESIDUAL_TARGET):
            return x, rnorm
        jtj, fnorm2 = jac.T @ jac, float(f @ f)
        for _ in range(40):
            step = np.linalg.solve(jtj + mu * eye, -jtf)
            xn = x + step[:dim] + 1j * step[dim:]
            xn /= np.linalg.norm(xn)
            fn = _overlaps(xn, stack)[1:] - target
            if float(fn @ fn) < fnorm2:
                break
            mu *= 10.0
        else:
            return x, rnorm  # no damping lowers the residuals
        x = xn
        mu = max(mu * 0.25, 1e-14)


def sic_search(dim: int, seed: int, restarts: int, tol: float = CERT_TOL) -> FiducialCandidate:
    """Multi-start minimization of the frame potential over unit vectors.

    Restart i draws its start from a generator seeded with seed + i, and the
    restarts run in index order. The first one that converges (projected
    gradient norm < GRAD_TOL) and certifies (max SIC deviation < tol) wins,
    and no later restart runs, so the result is a deterministic function of
    (dim, seed, tol) and of restarts only through the budget. When no
    restart certifies, the converged restart with the lowest potential is
    returned uncertified (exact ties go to the lowest index). Raises
    ValueError unless restarts >= 1 and seed >= 0 are integers and tol is
    finite and > 0, and NoConvergence when no restart converges within its
    80 Levenberg-Marquardt steps.
    """
    d = check_dim(dim)
    _check_draw_args(restarts, "restarts", seed)
    _require_positive(tol, "tol")
    best = lowest = None  # (restart index, ket) of the winner so far, and its potential
    closest = None  # (projected gradient norm, restart index) over all restarts
    for i in range(restarts):
        x, rnorm = _restart(d, seed + i)
        if rnorm < GRAD_TOL:
            ket = make_ket(x)
            if max_sic_deviation(ket) < tol:
                best = (i, ket)
                break
            pot = frame_potential(ket)
            if lowest is None or pot < lowest:
                best, lowest = (i, ket), pot
        if closest is None or rnorm < closest[0]:
            closest = (rnorm, i)
    if best is None:
        raise NoConvergence(
            f"no restart of {restarts} reached gradient norm < {GRAD_TOL} in dimension {d}; "
            f"the closest reached {closest[0]:.3e} (restart seed {seed + closest[1]})"
        )
    winner, ket = best
    return FiducialCandidate(
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
        (0.3525271160339077, 0.6623080834351114),
        (0.2867368928442012, 0.39204375929159524),
        (0.09659961895261784, -0.3890346339922956),
        (-0.16238984214231153, 0.11877030984878904),
    ),
    5: (
        (-0.058419757987933384, 0.19121108959700683),
        (0.39016643280266256, -0.2890358521022491),
        (0.1694293823171834, 0.3800448281818866),
        (-0.6434750997002346, 0.28043632929147855),
        (0.21208939871093202, 0.11587425606611979),
    ),
    6: (
        (0.014935691763376457, -0.2634039604245644),
        (0.4374766212799396, 0.00919241602923377),
        (0.19536322619066818, 0.06185056094272914),
        (-0.6684145993982115, 0.024903966088918598),
        (0.42547079880844574, 0.1356294937111412),
        (0.022359935055127872, 0.22274130940251088),
    ),
    7: (
        (0.11253399027843136, 0.131210953316157),
        (0.1727486494482781, -0.006173925162647441),
        (0.18799449640834962, 0.13694949104456353),
        (-0.4926364273655191, -0.2067126167783258),
        (0.5335393273415753, -0.027505302810959146),
        (0.17274864944827914, -0.0061739251626373596),
        (-0.46876822010718433, 0.2562754598481149),
    ),
    8: (
        (0.30804125440041297, -0.050705359421282056),
        (0.15697481421981246, 0.16175311143039434),
        (0.18709706630724898, -0.0268531204847326),
        (-0.3768113436704234, 0.2628837682956682),
        (0.4766283975116836, -0.36518966575089046),
        (0.06756142110180802, 0.02605556888413808),
        (-0.052116184649312426, -0.4125840502143712),
        (0.1724973545015418, 0.1908788412143478),
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
    dev = max_sic_deviation(ket)
    if not dev < REGISTRY_CERT_TOL:
        raise AssertionError(
            f"registry fiducial for d={dim} failed certification: deviation {dev:.3e}"
        )
    return ket
