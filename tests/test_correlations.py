import numpy as np
import pytest
from numpy.testing import assert_allclose

from probrep import (
    chsh_value,
    correlation_table,
    embedded_correlation_table,
    make_ket,
    make_povm,
    no_signalling_check,
    random_povm,
    random_pure_state,
    spin32_embedding,
    steering_ensembles,
    tensor,
)
from probrep.born import make_cond_prob, classical_law
from probrep.correlations import (
    CANONICAL_CHSH_ANGLES,
    EIGENVALUE_TOL,
    _projective_rank1_vectors,
    angle_family,
    canonical_chsh_table,
    direction_povm,
    family,
    lhv_chsh_bound,
    make_table,
    phi_plus,
    singlet,
)
from probrep.errors import (
    DimensionMismatch,
    NotBipartite,
    WrongArity,
    WrongDimension,
)
from probrep.operators import projector_povm


def z_family(label="z"):
    return family([label], [direction_povm(0.0, plane="zx")])


def random_qubit_family(n_settings, seed):
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0, 2 * np.pi, size=n_settings)
    planes = rng.choice(["xy", "zx"], size=n_settings)
    return family(
        [f"s{i}" for i in range(n_settings)],
        [direction_povm(t, plane=pl) for t, pl in zip(thetas, planes)],
    )


class TestCorrelationTable:
    def test_phi_plus_zz_perfect_correlations(self):
        # oracle: direct inner products <psi| P_x (x) P_y |psi>
        psi = phi_plus()
        table = correlation_table(psi, z_family("a"), z_family("b"))
        block = table.block("a", "b")
        amp = psi.amplitudes
        e = np.eye(2)
        oracle = np.empty((2, 2))
        for x in range(2):
            for y in range(2):
                proj = tensor(np.outer(e[x], e[x]), np.outer(e[y], e[y]))
                oracle[x, y] = np.real(amp.conj() @ proj @ amp)
        assert_allclose(oracle, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)
        assert_allclose(block, oracle, atol=1e-12)

    def test_product_state_factorizes(self):
        amp = tensor(
            np.array([1.0, 0.0], dtype=complex),
            np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
        )
        psi = make_ket(amp)
        fam_a = random_qubit_family(2, seed=0)
        fam_b = random_qubit_family(2, seed=1)
        table = correlation_table(psi, fam_a, fam_b)
        rho_a = np.outer([1, 0], [1, 0])
        rho_b = np.outer([1, 1], [1, 1]) / 2
        for a, pa in zip(fam_a.settings, fam_a.povms):
            for b, pb in zip(fam_b.settings, fam_b.povms):
                px = np.real(np.einsum("ij,xji->x", rho_a, pa.elements))
                py = np.real(np.einsum("ij,yji->y", rho_b, pb.elements))
                assert_allclose(table.block(a, b), np.outer(px, py), atol=1e-12)

    def test_blocks_sum_to_one(self):
        psi = random_pure_state(4, seed=11)
        table = correlation_table(
            psi, random_qubit_family(3, seed=2), random_qubit_family(2, seed=3)
        )
        for a in table.settings_a:
            for b in table.settings_b:
                assert abs(table.block(a, b).sum() - 1.0) < 1e-10

    def test_make_table_refuses_nan_block(self):
        probs = {("a", "b"): [[np.nan, 1.0], [0.0, 0.0]]}
        with pytest.raises(ValueError, match=r"^block \('a', 'b'\): .*non-finite"):
            make_table(("a",), ("b",), probs)

    def test_make_table_refuses_negative_entry(self):
        probs = {("a", "b"): [[0.0, 0.3], [0.7, 0.0]], ("a", "c"): [[-0.5, 0.8], [0.7, 0.0]]}
        with pytest.raises(ValueError, match=r"^block \('a', 'c'\): probability -5"):
            make_table(("a",), ("b", "c"), probs)

    def test_make_table_clips_rounding_negatives(self):
        blk = np.array([[0.5, -1e-17], [1e-17, 0.5]])
        table = make_table(("a",), ("b",), {("a", "b"): blk})
        assert table.block("a", "b").tolist() == [[0.5, 0.0], [1e-17, 0.5]]
        assert blk[0, 1] == -1e-17

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            correlation_table(
                random_pure_state(3, 0),
                random_qubit_family(1, 0),
                random_qubit_family(1, 1),
            )


class TestChsh:
    def test_singlet_canonical_angles(self):
        # oracle: E(a, b) = -cos(theta_a - theta_b) for the singlet with
        # equatorial measurements, combined per the CHSH formula
        angles_a, angles_b = CANONICAL_CHSH_ANGLES
        e = [[-np.cos(ta - tb) for tb in angles_b] for ta in angles_a]
        oracle = abs(e[0][0] + e[0][1] + e[1][0] - e[1][1])
        assert oracle == pytest.approx(2 * np.sqrt(2), abs=1e-12)

        table = canonical_chsh_table()
        assert chsh_value(table) == pytest.approx(2 * np.sqrt(2), abs=1e-9)
        for (ta, a) in zip(angles_a, table.settings_a):
            for (tb, b) in zip(angles_b, table.settings_b):
                assert table.correlator(a, b) == pytest.approx(
                    -np.cos(ta - tb), abs=1e-12
                )

    def test_product_state_below_classical_bound(self):
        bound = lhv_chsh_bound()
        assert bound == pytest.approx(2.0, abs=1e-12)
        for seed in range(20):
            amp = tensor(
                random_pure_state(2, seed).amplitudes,
                random_pure_state(2, seed + 100).amplitudes,
            )
            table = correlation_table(
                make_ket(amp),
                random_qubit_family(2, seed + 200),
                random_qubit_family(2, seed + 300),
            )
            assert chsh_value(table) <= bound + 1e-10

    def test_classical_law_tables_respect_lhv_bound(self):
        # shared p(i) with product response functions stays inside the
        # polytope whose vertices the oracle enumerates
        bound = lhv_chsh_bound()
        rng = np.random.default_rng(42)
        for _ in range(20):
            n_hidden = rng.integers(2, 6)
            p = rng.dirichlet(np.ones(n_hidden))
            r_a = rng.dirichlet(np.ones(2), size=(2, n_hidden))
            r_b = rng.dirichlet(np.ones(2), size=(2, n_hidden))
            probs = {}
            for ia, a in enumerate(("a1", "a2")):
                for ib, b in enumerate(("b1", "b2")):
                    joint = np.einsum("ix,iy->ixy", r_a[ia], r_b[ib]).reshape(
                        n_hidden, 4
                    )
                    q = classical_law(p, make_cond_prob(joint))
                    probs[(a, b)] = q.values.reshape(2, 2)
            table = make_table(("a1", "a2"), ("b1", "b2"), probs)
            assert chsh_value(table) <= bound + 1e-10

    def test_tsirelson_sweep(self):
        for seed in range(1000):
            psi = random_pure_state(4, seed)
            table = correlation_table(
                psi,
                random_qubit_family(2, seed + 1000),
                random_qubit_family(2, seed + 2000),
            )
            assert chsh_value(table) <= 2 * np.sqrt(2) + 1e-9

    def test_wrong_arity(self):
        psi = phi_plus()
        table = correlation_table(psi, z_family("a"), z_family("b"))
        with pytest.raises(WrongArity):
            chsh_value(table)


class TestNoSignalling:
    def test_quantum_tables_pass(self):
        for seed in range(50):
            psi = random_pure_state(4, seed + 500)
            table = correlation_table(
                psi,
                random_qubit_family(2, seed + 600),
                random_qubit_family(2, seed + 700),
            )
            assert no_signalling_check(table) < 1e-10

    def test_signalling_table_detected(self):
        # Alice's marginal shifts by 0.2 when Bob changes setting
        probs = {
            ("a", "b1"): np.array([[0.5, 0.0], [0.0, 0.5]]),
            ("a", "b2"): np.array([[0.3, 0.0], [0.2, 0.5]]),
        }
        table = make_table(("a",), ("b1", "b2"), probs)
        assert no_signalling_check(table) == pytest.approx(0.2, abs=1e-12)

    def test_uniform_table(self):
        probs = {("a", "b"): np.full((2, 2), 0.25)}
        assert no_signalling_check(make_table(("a",), ("b",), probs)) == 0.0


class TestSteering:
    def test_phi_plus_z_and_x(self):
        z = projector_povm(np.eye(2))
        x = projector_povm(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        report = steering_ensembles(phi_plus(), z, x)

        for members, expected in zip(
            report.ensembles,
            (
                [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                [np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])],
            ),
        ):
            assert len(members) == 2
            for (prob, rho), want in zip(members, expected):
                assert prob == pytest.approx(0.5, abs=1e-12)
                assert_allclose(rho.matrix, want, atol=1e-12)

        # every cross-fidelity is 1/2
        assert report.cross_fidelities.shape == (2, 2)
        for k, (_, rho1) in enumerate(report.ensembles[0]):
            for l, (_, rho2) in enumerate(report.ensembles[1]):
                fid = np.real(np.trace(rho1.matrix @ rho2.matrix))
                assert fid == pytest.approx(0.5, abs=1e-10)
                assert report.cross_fidelities[k, l] == pytest.approx(fid, abs=1e-15)
        assert report.overlap == report.cross_fidelities.max()
        assert report.overlap == pytest.approx(0.5, abs=1e-10)
        assert not report.no_steering

    def test_marginals_equal(self):
        z = projector_povm(np.eye(2))
        y = projector_povm(np.array([[1, 1j], [1, -1j]]) / np.sqrt(2))
        for seed in range(10):
            psi = random_pure_state(4, seed + 50)
            report = steering_ensembles(psi, z, y)
            gap = np.max(np.abs(report.marginals[0].matrix - report.marginals[1].matrix))
            assert gap < 1e-10

    def test_phi_plus_marginals_maximally_mixed(self):
        z = projector_povm(np.eye(2))
        x = projector_povm(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        report = steering_ensembles(phi_plus(), z, x)
        for marg in report.marginals:
            assert_allclose(marg.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_no_steering(self):
        psi_b = random_pure_state(2, seed=77)
        amp = tensor(np.array([1.0, 0.0], dtype=complex), psi_b.amplitudes)
        z = projector_povm(np.eye(2))
        x = projector_povm(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        report = steering_ensembles(make_ket(amp), z, x)
        assert report.no_steering
        target = np.outer(psi_b.amplitudes, psi_b.amplitudes.conj())
        for members in report.ensembles:
            for _, rho in members:
                assert_allclose(rho.matrix, target, atol=1e-12)

    def test_not_bipartite(self):
        z = projector_povm(np.eye(2))
        with pytest.raises(NotBipartite):
            steering_ensembles(random_pure_state(2, 0), z, z)
        with pytest.raises(NotBipartite):
            steering_ensembles(random_pure_state(5, 0), z, z)

    def test_rejects_non_projective_basis(self):
        noisy = random_povm(2, 2, seed=0)
        z = projector_povm(np.eye(2))
        with pytest.raises(ValueError):
            steering_ensembles(phi_plus(), noisy, z)


def _basis_vectors_one_by_one(povm):
    """The per-element eigh loop that the stacked basis check replaced: its oracle."""
    d = povm.dim
    if len(povm) != d:
        raise ValueError(f"projective basis in dimension {d} needs {d} elements")
    vecs = np.empty((d, d), dtype=complex)
    for k, el in enumerate(povm.elements):
        w, v = np.linalg.eigh(el)
        if abs(w[-1] - 1.0) > EIGENVALUE_TOL or (d > 1 and w[-2] > EIGENVALUE_TOL):
            raise ValueError(f"element {k} is not a rank-1 projector")
        vecs[k] = v[:, -1]
    return vecs


@pytest.mark.parametrize("d", range(2, 9))
def test_stacked_basis_check_matches_per_element_loop(d):
    for seed in range(5):
        rng = np.random.default_rng(1000 * d + seed)
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        basis = projector_povm(np.linalg.qr(raw)[0].T)
        stacked = _projective_rank1_vectors(basis)
        assert stacked.tobytes() == _basis_vectors_one_by_one(basis).tobytes()
    noisy = random_povm(d, d, seed=d)
    with pytest.raises(ValueError) as loop_err:
        _basis_vectors_one_by_one(noisy)
    with pytest.raises(ValueError, match="is not a rank-1 projector") as stacked_err:
        _projective_rank1_vectors(noisy)
    assert str(stacked_err.value) == str(loop_err.value)


class TestSpin32Embedding:
    def test_matches_two_qubit_table(self):
        for seed in range(10):
            psi = random_pure_state(4, seed + 900)
            fam_a = random_qubit_family(2, seed + 910)
            fam_b = random_qubit_family(2, seed + 920)
            two_qubit = correlation_table(psi, fam_a, fam_b)
            embedded = embedded_correlation_table(psi, fam_a, fam_b)
            for a in fam_a.settings:
                for b in fam_b.settings:
                    assert np.max(
                        np.abs(two_qubit.block(a, b) - embedded.block(a, b))
                    ) < 1e-12

    def test_embedded_chsh_at_optimum(self):
        fam_a = angle_family(CANONICAL_CHSH_ANGLES[0])
        fam_b = angle_family(CANONICAL_CHSH_ANGLES[1])
        table = embedded_correlation_table(singlet(), fam_a, fam_b)
        assert chsh_value(table) == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_joint_povms_valid(self):
        joint = spin32_embedding(
            random_qubit_family(2, seed=5), random_qubit_family(2, seed=6)
        )
        assert joint.dim == 4
        for povm in joint.povms:
            make_povm(povm.elements)

    def test_wrong_dimension(self):
        triple = family(["t"], [random_povm(3, 3, seed=0)])
        with pytest.raises(WrongDimension):
            spin32_embedding(triple, random_qubit_family(1, seed=1))
