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
from .operators import (CERT_TOL, Ket, _check_draw_args, _freeze, _require_positive, check_dim,
                        make_ket)

GRAD_TOL = 1e-10
MAX_ITERATIONS = 10_000
_GD_SWITCH = 1e-5          # hand over to the least-squares polish below this
_RESIDUAL_TARGET = 1e-12   # polish until every SIC residual is this small


def sic_target(dim: int) -> float:
    """Global minimum of the frame potential, (d-1)/(d+1)."""
    return (dim - 1) / (dim + 1)


@lru_cache(maxsize=None)
def displacement_stack(dim: int) -> np.ndarray:
    """All d^2 displacement operators as a read-only (d^2, d, d) array."""
    d = check_dim(dim)
    omega = np.exp(2j * np.pi / d)
    tau = -np.exp(1j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    for m in range(d):
        shift[(m + 1) % d, m] = 1.0
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

    ``seed``/``restarts_used`` are None for hand-supplied vectors that never
    went through the search.
    """

    dim: int
    vector: Ket
    frame_potential: float
    max_sic_deviation: float
    seed: Optional[int]
    restarts_used: Optional[int]


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
    )
    return SicCertificate(candidate=cand, passed=dev < tolerance, tolerance=tolerance)


# ---------------------------------------------------------------------------
# frame-potential minimization
# ---------------------------------------------------------------------------

#: Restarts of one search that are live at once. A search steps its live
#: restarts in lockstep, so the window bounds the stacked intermediates
#: whatever the number of restarts.
SEARCH_WINDOW = 32


class _Evaluator:
    """The search's evaluations over a stack of points, one row per point.

    Each row gets exactly the bits the same evaluation of that point alone
    gives: D_a x is one mat-vec of the flattened displacement stack per
    point, D_a^dag x one mat-vec per displacement, and the dots, norms,
    normal equations and solves run the same BLAS and LAPACK call per row
    as they do on a single point. (Flattening the adjoint product, or
    turning per-row dots into one matrix product, changes the last bits.)
    """

    def __init__(self, dim: int):
        stack = displacement_stack(dim)
        self.dim = dim
        self.flat = stack.reshape(-1, dim)
        self.adjoint = stack.conj().transpose(0, 2, 1)
        self.target = 1.0 / (dim + 1)
        self.eye = np.eye(2 * dim)

    def overlaps(self, xs):
        """D_a x and c_a = <x|D_a|x> for every row x of a (B, d) stack."""
        b, d = xs.shape
        dx = np.matmul(self.flat, xs[:, :, None]).reshape(b, d * d, d)
        return dx, np.matmul(dx, xs.conj()[:, :, None])[..., 0]

    def terms(self, xs):
        """D_a x, D_a^dag x and c_a for every row x."""
        dx, c = self.overlaps(xs)
        return dx, np.matmul(self.adjoint, xs[:, None, :, None])[..., 0], c

    def residuals(self, c):
        """SIC residuals f_a = |c_a|^2 - 1/(d+1) over the nonzero a."""
        return (c.real**2 + c.imag**2)[:, 1:] - self.target


def _potential_and_gradient(dx, ddx, c):
    """P(x) and its gradient per row, from the terms of _Evaluator.terms.

    The gradient is packed as a complex vector g = dP/dx + i dP/dy for
    x + i y; it matches central finite differences to ~1e-9 relative
    (checked in the test suite).
    """
    c2 = c.real**2 + c.imag**2
    w = c2[:, 1:]
    pot = np.sum(w**2, axis=1)
    grad = 4.0 * (
        _rowvec_mat(w * c[:, 1:].conj(), dx[:, 1:]) + _rowvec_mat(w * c[:, 1:], ddx[:, 1:])
    )
    return pot, grad


def _rowvec_mat(v, m):
    """v_b @ m_b for (B, n) rows and (B, n, k) matrices."""
    return np.matmul(v[:, None, :], m)[:, 0]


def _dot(u, v):
    """u_b . v_b without conjugation, one BLAS dot per row."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _re_vdot(u, v):
    """Re <u_b|v_b> per row."""
    return _dot(u.conj(), v).real


def _norm(xs):
    """Euclidean norm per row, formed as np.linalg.norm forms it."""
    return np.sqrt(_dot(xs.real, xs.real) + _dot(xs.imag, xs.imag))


def _tangent(xs, g):
    """Project ambient gradients onto the unit sphere's tangent space.

    The ambient gradient cannot vanish at a constrained minimum, so
    convergence is measured on this projected gradient.
    """
    return g - _re_vdot(xs, g)[:, None] * xs


def _descend(ev, x, r, step):
    """Evaluate the descent points x - step * r, normalized.

    Per row: the point, its potential, its projected gradient r' and
    <r'|r'>, and for the Barzilai-Borwein step |<s|y>| and <s|s> with
    s = x' - x and y = r' - r.
    """
    xn = x - step[:, None] * r
    xn /= _norm(xn)[:, None]
    pot, g = _potential_and_gradient(*ev.terms(xn))
    rn = _tangent(xn, g)
    s = xn - x
    sy = np.abs(_re_vdot(s, rn - r))
    return zip(xn, pot.tolist(), rn, _re_vdot(rn, rn).tolist(), sy.tolist(),
               _re_vdot(s, s).tolist())


def _least_squares(ev, x):
    """Evaluate the Levenberg-Marquardt system at x.

    On the unit sphere sum_a |c_a|^2 is constant, so minimizing the frame
    potential is the same problem as driving the SIC residuals f to zero;
    the least-squares form converges quadratically where line searches on
    the potential stall at float precision. Per row: the potential, the
    projected gradient norm, f.f, max |f|, and J^T J and J^T f for the real
    Jacobian J of f.
    """
    dx, ddx, c = ev.terms(x)
    pot, g = _potential_and_gradient(dx, ddx, c)
    f = ev.residuals(c)
    ga = c[:, 1:, None].conj() * dx[:, 1:] + c[:, 1:, None] * ddx[:, 1:]
    jac = np.concatenate([2.0 * ga.real, 2.0 * ga.imag], axis=2)
    jac_t = jac.transpose(0, 2, 1)
    return zip(pot.tolist(), _norm(_tangent(x, g)).tolist(), _dot(f, f).tolist(),
               np.max(np.abs(f), axis=1).tolist(), jac_t @ jac, (jac_t @ f[:, :, None])[..., 0])


def _lm_step(ev, x, jtj, jtf, mu):
    """Take the damped Gauss-Newton step from x, renormalized.

    Per row: the new point and f.f there.
    """
    d = ev.dim
    step = np.linalg.solve(jtj + mu[:, None, None] * ev.eye, -jtf[:, :, None])[..., 0]
    xn = x + step[:, :d] + 1j * step[:, d:]
    xn /= _norm(xn)[:, None]
    f = ev.residuals(ev.overlaps(xn)[1])
    return zip(xn, _dot(f, f).tolist())


def _restart(dim, seed, gtol):
    """One local minimization: projected gradient descent, then polish.

    A generator: it yields every point it needs evaluated as (evaluation,
    arguments) and is sent back that evaluation's row, so that sic_search
    can evaluate the points of many restarts together. Returns (potential,
    unit vector, projected gradient norm).
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    # the start is the descent point x - 0 * 0, which is x exactly
    x, pot, r, rnorm2, _, _ = yield _descend, (x, np.zeros(dim, dtype=complex), 0.0)
    alpha = 1e-2
    last = None  # (|<s|y>|, <s|s>) of the last accepted step
    for _ in range(MAX_ITERATIONS):
        if np.sqrt(rnorm2) < _GD_SWITCH:
            break
        if last is not None:
            # Barzilai-Borwein initial step for the backtracking search
            sy, ss = last
            if sy > 1e-300:
                alpha = min(max(ss / sy, 1e-10), 1e2)
        step = alpha
        for _ in range(50):
            xn, pot_n, r_n, rnorm2_n, sy, ss = yield _descend, (x, r, step)
            if pot_n < pot and pot_n - pot <= -1e-4 * step * rnorm2:
                break
            step *= 0.5
        else:
            break  # decrease below float resolution: hand over to the polish
        x, pot, r, rnorm2, last = xn, pot_n, r_n, rnorm2_n, (sy, ss)

    # Levenberg-Marquardt steps on the SIC residuals, renormalizing each move
    mu = 1e-12
    for _ in range(80):
        pot, rnorm, fnorm2, fmax, jtj, jtf = yield _least_squares, (x,)
        if rnorm < gtol and fmax < _RESIDUAL_TARGET:
            return pot, x, rnorm
        for _ in range(40):
            xn, fn2 = yield _lm_step, (x, jtj, jtf, mu)
            if fn2 < fnorm2:
                break
            mu *= 10.0
        else:
            return pot, x, rnorm  # no damping lowers the residuals
        x = xn
        mu = max(mu * 0.25, 1e-14)
    pot, rnorm, *_ = yield _least_squares, (x,)
    return pot, x, rnorm


def _lockstep(dim, seed, restarts, gtol):
    """Run restarts seed, seed + 1, ... in lockstep; yield (i, result) as each ends.

    At most SEARCH_WINDOW restarts are live; one that ends hands its place
    to the next. Each round evaluates the pending points of one kind for
    all live restarts in one stacked call.
    """
    ev = _Evaluator(dim)
    live = []  # (restart index, generator, pending request)
    started = 0
    while live or started < restarts:
        while len(live) < SEARCH_WINDOW and started < restarts:
            run = _restart(dim, seed + started, gtol)
            live.append((started, run, next(run)))
            started += 1
        by_kind = {}
        for entry in live:
            by_kind.setdefault(entry[2][0], []).append(entry)
        live = []
        for evaluate, entries in by_kind.items():
            columns = zip(*(request[1] for _, _, request in entries))
            replies = evaluate(ev, *(np.array(column) for column in columns))
            for (i, run, _), reply in zip(entries, replies):
                try:
                    live.append((i, run, run.send(reply)))
                except StopIteration as end:
                    yield i, end.value


def sic_search(
    dim: int,
    seed: int,
    restarts: int,
    gtol: float = GRAD_TOL,
) -> FiducialCandidate:
    """Multi-start minimization of the frame potential over unit vectors.

    Restart i draws its start from a generator seeded with seed + i, so the
    result is a deterministic function of (dim, seed, restarts) regardless
    of evaluation order. The best (lowest-potential) converged restart wins;
    exact ties go to the lowest restart index. Raises ValueError unless
    restarts >= 1 and seed >= 0 are integers and gtol is finite and > 0, and
    NoConvergence when no restart reaches projected gradient norm < gtol
    within the iteration cap.
    """
    d = check_dim(dim)
    _check_draw_args(restarts, "restarts", seed)
    _require_positive(gtol, "gtol")
    best = None  # (potential, restart index, vector) of the best converged restart
    closest = None  # (projected gradient norm, restart index) over all restarts
    for i, (pot, x, rnorm) in _lockstep(d, seed, restarts, gtol):
        if rnorm < gtol and (best is None or (pot, i) < best[:2]):
            best = (pot, i, x)
        if closest is None or (rnorm, i) < closest:
            closest = (rnorm, i)
    if best is None:
        raise NoConvergence(
            f"no restart of {restarts} reached gradient norm < {gtol} in dimension {d}; "
            f"the closest reached {closest[0]:.3e} (restart seed {seed + closest[1]})"
        )
    ket = make_ket(best[2])
    return FiducialCandidate(
        dim=d,
        vector=ket,
        frame_potential=frame_potential(ket),
        max_sic_deviation=max_sic_deviation(ket),
        seed=seed,
        restarts_used=restarts,
    )


# ---------------------------------------------------------------------------
# known fiducials
# ---------------------------------------------------------------------------

#: How the d = 4..8 registry vectors were produced:
#: sic_search(d, seed=SEARCH_PROVENANCE["seed"],
#: restarts=SEARCH_PROVENANCE["restarts"][d]) returns exactly these amplitudes.
SEARCH_PROVENANCE = {"seed": 1, "restarts": {4: 50, 5: 60, 6: 80, 7: 100, 8: 100}}

# Amplitudes (re, im) of the search results above, written so that each
# float literal reads back to the identical double.
_SEARCHED = {
    4: (
        (-0.1964888402604903, 0.043231735862316614),
        (0.48973314794564177, -0.5684090153453965),
        (0.10437064304373365, 0.4743660230118332),
        (0.3976149507288864, -0.050811256471248345),
    ),
    5: (
        (-0.28069542198036607, -0.27226125177854604),
        (0.13040036078934808, 0.11122508191290305),
        (-0.7064502628679715, -0.02920273942033176),
        (-0.47329054387124836, 0.026925776941950336),
        (-0.20153885525534207, -0.2289912606702225),
    ),
    6: (
        (-0.3075719807711451, 0.3237595355314689),
        (-0.5977977902670545, 0.30006013758488803),
        (-0.14143300695202188, 0.14828683886655128),
        (0.37898188248569453, -0.21873049039086445),
        (-0.13993635572786267, -0.2236571876810558),
        (-0.08766833762454386, -0.20598038787255316),
    ),
    7: (
        (0.6145215852222098, -0.07184971669952211),
        (0.2642229474956375, -0.1451850055510631),
        (-0.2546979897344802, -0.38159857632709693),
        (-0.013834552381633806, -0.4662485258107099),
        (0.11721610561989583, 0.16809247078865516),
        (-0.04043577189508421, -0.12725701702672504),
        (0.16735470362813867, -0.10202487238825608),
    ),
    8: (
        (-0.2188272660288187, 0.3536330341413978),
        (0.06845016773074099, -0.02362229516379759),
        (0.2818105281851711, 0.5302084000558636),
        (0.27619368781452186, -0.3671671433604264),
        (-0.15902645761788237, -0.10216157828681667),
        (0.16266010128503158, -0.15603478075961658),
        (-0.25912706784366535, -0.17410804288534293),
        (0.18458664779079575, 0.17921450496741875),
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
    """Registry fiducial for d = 2..8, certified to 1e-10 on first access.

    d = 2 and 3 are closed forms; d = 4..8 are the vectors this package's
    own sic_search returns for SEARCH_PROVENANCE, stored bit-exact. Raises
    KeyError for a dimension outside the registry.
    """
    if dim not in _KNOWN:
        raise KeyError(f"no registry fiducial for dimension {dim}")
    ket = make_ket(_KNOWN[dim])
    cert = sic_certify(ket, tolerance=1e-10)
    if not cert.passed:
        raise AssertionError(
            f"registry fiducial for d={dim} failed certification: "
            f"deviation {cert.candidate.max_sic_deviation:.3e}"
        )
    return ket


def registry_dims() -> tuple:
    return tuple(sorted(_KNOWN))
