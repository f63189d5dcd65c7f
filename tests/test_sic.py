import numpy as np
import pytest
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
    sic_certify,
    sic_search,
    wh_orbit,
)
from probrep.errors import NoConvergence
from probrep.sic import (
    SEARCH_PROVENANCE,
    _potential_and_gradient,
    displacement_stack,
    registry_dims,
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

    def test_gradient_matches_finite_differences(self):
        # central differences, step 1e-6, 1e-5 relative agreement
        for d in (2, 3, 5):
            stack = displacement_stack(d)
            stack_dag = stack.conj().transpose(0, 2, 1)
            x = random_pure_state(d, seed=d).amplitudes
            _, grad = _potential_and_gradient(x, stack, stack_dag)
            eps = 1e-6
            for m in range(d):
                for comp, part in ((1.0, grad.real), (1j, grad.imag)):
                    e = np.zeros(d, dtype=complex)
                    e[m] = comp * eps
                    hi, _ = _potential_and_gradient(x + e, stack, stack_dag)
                    lo, _ = _potential_and_gradient(x - e, stack, stack_dag)
                    num = (hi - lo) / (2 * eps)
                    assert abs(part[m] - num) <= 1e-5 * max(abs(num), 1.0)


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

    def test_no_convergence_reported(self):
        # an unreachable gradient target exhausts every restart
        with pytest.raises(NoConvergence):
            sic_search(2, seed=0, restarts=2, gtol=1e-30)


class TestSicCertify:
    def test_tetrahedron_passes(self):
        cert = sic_certify(tetrahedron_fiducial(), tolerance=1e-8)
        assert cert.passed
        assert cert.candidate.max_sic_deviation < 1e-10

    def test_basis_state_fails_with_two_thirds(self):
        # hand oracle: the Z overlap is 1, target 1/3
        cert = sic_certify(make_ket([1.0, 0.0]), tolerance=1e-8)
        assert not cert.passed
        assert cert.candidate.max_sic_deviation == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_vacuous_tolerance(self):
        cert = sic_certify(random_pure_state(3, seed=0), tolerance=10.0)
        assert cert.passed

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            sic_certify(make_ket([1.0, 0.0]), tolerance=0.0)

    def test_certified_orbit_overlaps_and_povm(self):
        for d in registry_dims():
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
    def test_shipped_dimensions(self):
        assert registry_dims() == (2, 3, 4, 5, 6, 7, 8)

    def test_recertified_on_access(self):
        for d in registry_dims():
            fid = known_fiducial(d)
            assert max_sic_deviation(fid) < 1e-10

    def test_missing_dimension(self):
        with pytest.raises(KeyError):
            known_fiducial(9)

    def test_stored_vectors_are_the_search_results(self):
        # the search stays the oracle for every stored (non-closed-form) vector
        seed = SEARCH_PROVENANCE["seed"]
        for d, restarts in SEARCH_PROVENANCE["restarts"].items():
            found = sic_search(d, seed=seed, restarts=restarts)
            assert np.array_equal(known_fiducial(d).amplitudes, found.vector.amplitudes)
