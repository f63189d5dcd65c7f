import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from probrep import (
    displacement,
    frame_potential,
    known_fiducial,
    make_ket,
    make_povm,
    max_sic_deviation,
    random_density,
    random_pure_state,
    sic_search,
    wh_orbit,
)
from probrep import sic
from probrep.errors import NoConvergence
from probrep.operators import CERT_TOL, DIM_CAP
from probrep.sic import (
    GRAD_TOL,
    SEARCH_PROVENANCE,
    _residuals_and_jacobian,
    displacement_stack,
    sic_target,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def tetrahedron_fiducial():
    """Bloch vector (1,1,1)/sqrt(3) as a ket."""
    theta = np.arccos(1 / np.sqrt(3))
    return make_ket([np.cos(theta / 2), np.exp(1j * np.pi / 4) * np.sin(theta / 2)])


class TestDisplacement:
    def test_qubit_z(self):
        assert_allclose(displacement(2, 0, 1), np.diag([1.0, -1.0]), atol=1e-15)

    def test_qubit_x(self):
        assert_allclose(displacement(2, 1, 0), PAULI_X, atol=1e-15)

    def test_indices_mod_d(self):
        assert_allclose(displacement(3, 4, 5), displacement(3, 1, 2), atol=0)

    def test_unitary_all_dims(self):
        for d in range(2, 9):
            stack = displacement_stack(d)
            prods = np.einsum("aij,akj->aik", stack, stack.conj())
            assert np.max(np.abs(prods - np.eye(d))) < 1e-12

    def test_group_average_identity(self):
        # sum_jk D rho D^dag / d^2 = tr(rho) I / d
        for d in (2, 3, 4, 5):
            rho = random_density(d, d, seed=d).matrix
            stack = displacement_stack(d)
            avg = np.einsum("aij,jk,alk->il", stack, rho, stack.conj()) / d**2
            assert np.max(np.abs(avg - np.eye(d) / d)) < 1e-10


class TestWhOrbit:
    def test_orbit_sums_to_identity(self):
        for d in (2, 3, 4, 5):
            psi = random_pure_state(d, seed=d + 10)
            orbit = wh_orbit(psi)
            assert np.max(np.abs(orbit.sum(axis=0) / d - np.eye(d))) < 1e-10

    def test_orbit_of_basis_state(self):
        orbit = wh_orbit(make_ket([1.0, 0.0]))
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        n0 = sum(np.max(np.abs(el - p0)) < 1e-12 for el in orbit)
        n1 = sum(np.max(np.abs(el - p1)) < 1e-12 for el in orbit)
        assert (n0, n1) == (2, 2)

    def test_rank_one_unit_trace(self):
        psi = random_pure_state(4, seed=3)
        for el in wh_orbit(psi):
            w = np.linalg.eigvalsh(el)
            assert abs(w[-1] - 1.0) < 1e-10
            assert np.max(np.abs(w[:-1])) < 1e-10


class TestFramePotential:
    def test_basis_state_qubit(self):
        # hand oracle with explicit Paulis: only the Z overlap survives
        psi = np.array([1.0, 0.0])
        by_hand = sum(
            abs(psi.conj() @ op @ psi) ** 4 for op in (PAULI_X, PAULI_Y, PAULI_Z)
        )
        assert by_hand == pytest.approx(1.0)
        assert frame_potential(make_ket(psi)) == pytest.approx(1.0, abs=1e-14)

    def test_tetrahedron_value(self):
        assert frame_potential(tetrahedron_fiducial()) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_two_design_lower_bound(self):
        for d in range(2, 9):
            bound = sic_target(d)
            for seed in range(1000):
                psi = random_pure_state(d, seed)
                assert frame_potential(psi) >= bound - 1e-9

    def test_phase_invariance(self):
        psi = random_pure_state(3, seed=2)
        rotated = make_ket(np.exp(1j * 0.7) * psi.amplitudes)
        assert abs(frame_potential(psi) - frame_potential(rotated)) < 1e-12

    def test_jacobian_matches_finite_differences(self):
        # central differences of the residuals, step 1e-6, 1e-5 relative agreement
        for d in (2, 3, 5):
            stack = displacement_stack(d)
            adjoint = stack.conj().transpose(0, 2, 1)
            target = 1.0 / (d + 1)
            x = random_pure_state(d, seed=d).amplitudes
            _, jac = _residuals_and_jacobian(x, stack, adjoint, target)
            eps = 1e-6
            for m in range(d):
                for comp, column in ((1.0, jac[:, m]), (1j, jac[:, d + m])):
                    e = np.zeros(d, dtype=complex)
                    e[m] = comp * eps
                    hi, _ = _residuals_and_jacobian(x + e, stack, adjoint, target)
                    lo, _ = _residuals_and_jacobian(x - e, stack, adjoint, target)
                    num = (hi - lo) / (2 * eps)
                    assert np.all(np.abs(column - num) <= 1e-5 * np.maximum(np.abs(num), 1.0))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_projected_jacobian_product_is_the_projected_potential_gradient(self, d):
        # on the unit sphere grad P = 2 J^T (f + 1/(d+1)), and the constant's part is radial
        stack = displacement_stack(d)
        adjoint = stack.conj().transpose(0, 2, 1)
        for seed in range(50):
            x = random_pure_state(d, seed=seed).amplitudes
            f, jac = _residuals_and_jacobian(x, stack, adjoint, 1.0 / (d + 1))
            jtf = jac.T @ f
            _, grad = loop_potential_and_gradient(x, stack, adjoint)
            want = loop_tangent(x, grad)
            got = loop_tangent(x, 2.0 * (jtf[:d] + 1j * jtf[d:]))
            assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(grad))


class TestSicSearch:
    def test_dimension_two(self):
        cand = sic_search(2, seed=1, restarts=10)
        assert abs(cand.frame_potential - 1.0 / 3.0) < 1e-9
        assert cand.max_sic_deviation < 1e-8
        assert cand.restarts_used == 10

    def test_dimension_three(self):
        cand = sic_search(3, seed=1, restarts=20)
        assert abs(cand.frame_potential - 0.5) < 1e-9

    def test_dimension_four(self):
        cand = sic_search(4, seed=1, restarts=50)
        assert abs(cand.frame_potential - 0.6) < 1e-8

    def test_deterministic(self):
        a = sic_search(3, seed=4, restarts=5)
        b = sic_search(3, seed=4, restarts=5)
        assert_allclose(a.vector.amplitudes, b.vector.amplitudes, atol=0)
        assert a.frame_potential == b.frame_potential

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            sic_search(2, seed=0, restarts=0)

    def test_no_convergence_reported(self, monkeypatch):
        # an unreachable gradient target exhausts every restart; at d = 2 the
        # residuals can round to exactly 0, and with them the norm
        monkeypatch.setattr(sic, "GRAD_TOL", 0.0)
        with pytest.raises(NoConvergence, match="gradient norm < 0.0"):
            sic_search(2, seed=0, restarts=2)


# ---------------------------------------------------------------------------
# oracle: the search as one Levenberg-Marquardt loop per restart, evaluating
# one point per call.
# sic_search must return exactly the bits of the first restart here that
# converges and certifies.
# ---------------------------------------------------------------------------


def loop_potential_and_gradient(phi, stack, stack_dag):
    dphi = stack @ phi
    ddphi = stack_dag @ phi
    c = dphi @ phi.conj()
    c2 = c.real**2 + c.imag**2
    pot = float(np.sum(c2[1:] ** 2))
    w = c2[1:]
    grad = 4.0 * ((w * c[1:].conj()) @ dphi[1:] + (w * c[1:]) @ ddphi[1:])
    return pot, grad


def loop_tangent(x, g):
    return g - np.real(np.vdot(x, g)) * x


def loop_residual_and_jacobian(phi, stack, stack_dag, target):
    dphi = stack @ phi
    ddphi = stack_dag @ phi
    c = dphi @ phi.conj()
    f = (c.real**2 + c.imag**2)[1:] - target
    ga = c[1:, None].conj() * dphi[1:] + c[1:, None] * ddphi[1:]
    jac = np.concatenate([2.0 * ga.real, 2.0 * ga.imag], axis=1)
    return f, jac


def loop_projected_gradient_norm(x, jac, f):
    """||P_T(2 J^T f)||, the norm of the potential's projected gradient."""
    d = x.shape[0]
    jtf = jac.T @ f
    return float(np.linalg.norm(loop_tangent(x, 2.0 * (jtf[:d] + 1j * jtf[d:]))))


def loop_polish(x, stack, stack_dag, target, gtol, max_iterations=80):
    d = x.shape[0]
    mu = 1e-12
    eye = np.eye(2 * d)
    for _ in range(max_iterations):
        f, jac = loop_residual_and_jacobian(x, stack, stack_dag, target)
        fnorm2 = float(f @ f)
        rnorm = loop_projected_gradient_norm(x, jac, f)
        if rnorm < gtol and float(np.max(np.abs(f))) < 1e-12:
            return x, loop_potential_and_gradient(x, stack, stack_dag)[0], rnorm
        a = jac.T @ jac
        b = jac.T @ f
        moved = False
        for _ in range(40):
            step = np.linalg.solve(a + mu * eye, -b)
            xn = x + step[:d] + 1j * step[d:]
            xn /= np.linalg.norm(xn)
            fn, _ = loop_residual_and_jacobian(xn, stack, stack_dag, target)
            if float(fn @ fn) < fnorm2:
                moved = True
                break
            mu *= 10.0
        if not moved:
            break
        x = xn
        mu = max(mu * 0.25, 1e-14)
    f, jac = loop_residual_and_jacobian(x, stack, stack_dag, target)
    pot = loop_potential_and_gradient(x, stack, stack_dag)[0]
    return x, pot, loop_projected_gradient_norm(x, jac, f)


def loop_minimize_restart(dim, rng, gtol):
    """(potential, unit vector, projected gradient norm) of one restart."""
    stack = displacement_stack(dim)
    stack_dag = stack.conj().transpose(0, 2, 1)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    x, pot, rnorm = loop_polish(x, stack, stack_dag, 1.0 / (dim + 1), gtol)
    return pot, x, rnorm


def loop_restarts(dim, seed, restarts, gtol):
    """Results of restarts seed, seed + 1, ..., one after another, each run when asked for."""
    return (loop_minimize_restart(dim, np.random.default_rng(seed + i), gtol)
            for i in range(restarts))


def loop_search(dim, seed, restarts, gtol=GRAD_TOL, tol=CERT_TOL):
    """What sic_search(dim, seed, restarts, gtol, tol) should return or raise.

    The first restart that converges and certifies wins; failing that, the
    converged one with the lowest potential.
    """
    best = closest = None
    for i, (pot, x, rnorm) in enumerate(loop_restarts(dim, seed, restarts, gtol)):
        if rnorm < gtol:
            ket = make_ket(x)
            if max_sic_deviation(ket) < tol:
                best = (pot, ket, i)
                break
            if best is None or pot < best[0]:
                best = (pot, ket, i)
        if closest is None or rnorm < closest[0]:
            closest = (rnorm, seed + i)
    if best is None:
        return (
            f"no restart of {restarts} reached gradient norm < {gtol} in dimension {dim}; "
            f"the closest reached {closest[0]:.3e} (restart seed {closest[1]})"
        )
    _, ket, i = best
    return (dim, ket.amplitudes.tobytes(), repr(frame_potential(ket)),
            repr(max_sic_deviation(ket)), seed, restarts, i)


def search_outcome(dim, seed, restarts, tol=CERT_TOL):
    """sic_search's candidate fields as bytes and reprs, or its NoConvergence message."""
    try:
        cand = sic_search(dim, seed, restarts, tol)
    except NoConvergence as err:
        return str(err)
    return (cand.vector.dim, cand.vector.amplitudes.tobytes(), repr(cand.frame_potential),
            repr(cand.max_sic_deviation), cand.seed, cand.restarts_used, cand.restart_index)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2**31))
def test_search_returns_the_first_certified_restart_run_alone(d, seed):
    want = loop_search(d, seed, 100)
    assert isinstance(want, tuple) and float(want[3]) < CERT_TOL
    assert search_outcome(d, seed, 100) == want


class TestLockstepSearch:
    """sic_search against the per-restart loop above.

    The class name is kept so that its test ids stay stable; the restarts
    run one at a time.
    """

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_per_restart_loop_bit_for_bit(self, d):
        for seed in (0, 7, 1000):
            for restarts in (1, 2, 5, 100):
                want = loop_search(d, seed, restarts)
                assert isinstance(want, tuple), (d, seed, restarts)
                assert search_outcome(d, seed, restarts) == want, (d, seed, restarts)

    @pytest.mark.parametrize("seed, winner", [(602634, 1), (185, 2)])
    def test_a_later_restart_wins_when_restart_zero_does_not_certify(self, seed, winner):
        want = loop_search(6, seed, 100)
        assert want[-1] == winner
        assert search_outcome(6, seed, 100) == want

    @pytest.mark.parametrize("d", range(2, 9))
    def test_no_certification_returns_the_lowest_converged_potential(self, d):
        # an unattainable tolerance: every restart runs
        for seed in (0, 7):
            want = loop_search(d, seed, 5, tol=1e-300)
            assert isinstance(want, tuple), (d, seed)
            assert search_outcome(d, seed, 5, tol=1e-300) == want, (d, seed)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_no_convergence_matches_loop_and_names_closest_restart(self, d, monkeypatch):
        # an unreachable target: every restart polishes until it stalls
        monkeypatch.setattr(sic, "GRAD_TOL", 0.0)
        for seed in (0, 7):
            for restarts in (1, 3):
                want = loop_search(d, seed, restarts, 0.0)
                assert isinstance(want, str)
                assert search_outcome(d, seed, restarts) == want, (d, seed, restarts)

    def test_exact_ties_go_to_the_lowest_restart(self, monkeypatch):
        # Starts x0 and -x0 run through exactly negated arithmetic, so their
        # restarts tie exactly on the potential with opposite vectors. With
        # no restart certified, the lowest-potential one wins.
        d = 3
        draws = np.random.default_rng(3).standard_normal((2, d))

        class SignedStart:
            def __init__(self, seed):
                self.sign = -1.0 if seed % 2 else 1.0
                self.draws = iter(draws)

            def standard_normal(self, n):
                return self.sign * next(self.draws)

        monkeypatch.setattr(np.random, "default_rng", SignedStart)
        restarts = 4
        for seed in (4, 5):
            results = list(loop_restarts(d, seed, restarts, GRAD_TOL))
            assert len({pot for pot, _, _ in results}) == 1
            assert all(rnorm < GRAD_TOL for _, _, rnorm in results)
            assert not np.array_equal(results[0][1], results[1][1])
            found = sic_search(d, seed, restarts, tol=1e-300)
            assert found.max_sic_deviation >= 1e-300
            assert found.restart_index == 0
            assert found.vector.amplitudes.tobytes() == results[0][1].tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            {"restarts": 2.5},
            {"restarts": True},
            {"restarts": -1},
            {"restarts": "3"},
            {"seed": -1},
            {"seed": 1.0},
            {"seed": None},
            {"restarts": 0},
            {"restarts": 2**63},
            {"restarts": np.float64(3.0)},
            {"seed": True},
            {"seed": "0"},
            {"tol": 0.0},
            {"tol": -1.0},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": "1e-8"},
        ],
    )
    def test_bad_inputs_rejected_before_any_restart(self, bad, monkeypatch):
        def no_restart(*args):
            raise AssertionError("a restart ran")

        monkeypatch.setattr(sic, "_restart", no_restart)
        with pytest.raises(ValueError):
            sic_search(**{"dim": 2, "seed": 0, "restarts": 3, **bad})


class TestSicCertify:
    def test_tetrahedron_passes(self):
        assert max_sic_deviation(tetrahedron_fiducial()) < 1e-10

    def test_basis_state_fails_with_two_thirds(self):
        # hand oracle: the Z overlap is 1, target 1/3
        assert max_sic_deviation(make_ket([1.0, 0.0])) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_certified_orbit_overlaps_and_povm(self):
        for d in range(2, DIM_CAP + 1):
            fid = known_fiducial(d)
            orbit = wh_orbit(fid)
            vecs = displacement_stack(d) @ fid.amplitudes
            gram = np.abs(vecs @ vecs.conj().T) ** 2
            off = gram[~np.eye(d * d, dtype=bool)]
            assert np.max(np.abs(off - 1.0 / (d + 1))) < 1e-8
            make_povm(orbit / d)

    def test_certified_potential_matches_target(self):
        cand = sic_search(2, seed=1, restarts=10)
        assert abs(cand.frame_potential - sic_target(2)) < 1e-8


class TestRegistry:
    def test_recertified_on_access(self):
        for d in range(2, DIM_CAP + 1):
            fid = known_fiducial(d)
            assert max_sic_deviation(fid) < 1e-10

    def test_missing_dimension(self):
        with pytest.raises(KeyError):
            known_fiducial(9)

    def test_vector_off_the_sic_fails_certification(self, monkeypatch):
        # hand oracle: the basis vector's Z overlap is 1, target 1/3
        monkeypatch.setitem(sic._KNOWN, 2, np.array([1.0, 0.0]))
        known_fiducial.cache_clear()
        try:
            with pytest.raises(AssertionError,
                               match=r"d=2 failed certification: deviation 6\.667e-01$"):
                known_fiducial(2)
        finally:
            known_fiducial.cache_clear()

    def test_stored_vectors_are_the_search_results(self):
        # the search stays the oracle for every stored (non-closed-form) vector
        for d in range(4, 9):
            found = sic_search(d, **SEARCH_PROVENANCE)
            assert found.restart_index == 0
            assert known_fiducial(d).amplitudes.tobytes() == found.vector.amplitudes.tobytes()
