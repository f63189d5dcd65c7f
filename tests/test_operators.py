import numpy as np
import pytest
from numpy.testing import assert_allclose

from probrep import (
    born_probabilities,
    make_ket,
    make_povm,
    make_prob_vector,
    random_density,
    random_povm,
    random_pure_state,
    tensor,
    validate_density,
)
from probrep.born import make_cond_prob
from probrep.errors import (
    BadRank,
    DimensionMismatch,
    DimensionOverflow,
    InvalidDimension,
    NotHermitian,
    NotPositive,
    SumNotIdentity,
    TraceNotOne,
)
from probrep import operators
from probrep.operators import (
    DIM_CAP,
    EIGENVALUE_TOL,
    HERMITIAN_TOL,
    check_dim,
    hermitian_deviation,
    projector_povm,
)


# Per-element loops that the stacked numpy code replaced; the stacked code
# must give the same bytes and raise for the same element.


def loop_make_povm(elements):
    els = np.asarray(elements, dtype=complex)
    d = els.shape[1]
    for j, el in enumerate(els):
        dev = hermitian_deviation(el)
        if dev > HERMITIAN_TOL:
            raise NotHermitian(dev, what=f"POVM element {j}")
        w = np.linalg.eigvalsh(0.5 * (el + el.conj().T))
        if w[0] < -EIGENVALUE_TOL:
            raise NotPositive(float(w[0]), what=f"POVM element {j}")
    dev = float(np.max(np.abs(els.sum(axis=0) - np.eye(d))))
    if dev > HERMITIAN_TOL:
        raise SumNotIdentity(dev)
    return els.copy()


def loop_random_povm(dim, n_outcomes, seed):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = g @ g.conj().T
        parts.append(0.5 * (a + a.conj().T))
    s = np.sum(parts, axis=0)
    w, v = np.linalg.eigh(s)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    els = np.array([inv_sqrt @ a @ inv_sqrt for a in parts])
    return 0.5 * (els + els.conj().transpose(0, 2, 1))


def old_random_density(dim, rank, seed):
    """random_density's draw as it was before it took a generator."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    m /= np.real(np.trace(m))
    return m


def outcome(fn, *args):
    """Result bytes, or the raised class with its message and measured values."""
    try:
        result = fn(*args)
    except (NotHermitian, NotPositive, SumNotIdentity) as err:
        return type(err), str(err), vars(err)
    return np.asarray(getattr(result, "elements", result)).tobytes()


class TestCheckDim:
    def test_accepts_integers(self):
        assert check_dim(3) == 3
        assert check_dim(np.int64(4)) == 4
        assert check_dim(5.0) == 5

    def test_rejects_non_integers(self):
        for d in (2.7, np.float64(3.5), np.nan, np.inf, "3", None):
            with pytest.raises(InvalidDimension):
                check_dim(d)

    def test_rejects_out_of_range(self):
        for d in (1, DIM_CAP + 1):
            with pytest.raises(InvalidDimension):
                check_dim(d)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_validator(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            make_prob_vector([1.0, bad])
        with pytest.raises(ValueError, match="non-finite"):
            make_ket([1.0, bad])
        with pytest.raises(ValueError, match="non-finite"):
            validate_density(np.array([[1.0, 0.0], [0.0, bad]]))
        els = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        els[1, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            make_povm(els)
        with pytest.raises(ValueError, match="non-finite"):
            make_cond_prob([[bad, 1.0], [0.5, 0.5]])

    def test_complex_nan_part(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_ket([1.0, complex(0.0, np.nan)])


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(2) / 2)
        assert rho.dim == 2
        assert_allclose(rho.matrix, np.eye(2) / 2)

    def test_pure_projector(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        assert_allclose(rho.matrix, np.diag([1.0, 0.0]))
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive) as exc:
            validate_density(np.diag([1.5, -0.5]))
        assert exc.value.min_eigenvalue == pytest.approx(-0.5)

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(NotHermitian):
            validate_density(m)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.eye(2))

    def test_trace_error_quotes_the_tolerance_in_force(self, monkeypatch):
        monkeypatch.setattr(operators, "TRACE_TOL", 1e-3)
        with pytest.raises(TraceNotOne, match=r"expected 1 within 0\.001$"):
            validate_density(np.eye(2) * 0.51)

    def test_small_negative_eigenvalue_clipped(self):
        eps = 5e-11
        m = np.diag([1.0 + eps, -eps])
        rho = validate_density(m)
        w = np.linalg.eigvalsh(rho.matrix)
        assert w.min() >= 0.0
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            validate_density(np.ones((2, 3)))


class TestTensor:
    def test_identity_product(self):
        assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_index_convention(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        # (i_A, i_B) -> i_A * dim_B + i_B puts |0>|1> at flat index 1
        assert_allclose(tensor(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_mixed_product_property(self):
        # oracle: direct matrix multiplication on both sides
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c, d = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)
            )
            lhs = tensor(a, b) @ tensor(c, d)
            rhs = tensor(a @ c, b @ d)
            assert_allclose(lhs, rhs, atol=1e-12)

    def test_associative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b, c = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(3)
            )
            assert_allclose(
                tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=1e-12
            )

    def test_overflow(self):
        with pytest.raises(DimensionOverflow):
            tensor(np.eye(4), np.eye(4))


class TestBornProbabilities:
    def test_x_eigenstate_in_z_basis(self):
        plus = make_ket(np.array([1.0, 1.0]) / np.sqrt(2))
        z = projector_povm(np.eye(2))
        q = born_probabilities(plus.density(), z)
        assert_allclose(q.values, [0.5, 0.5], atol=1e-15)

    def test_maximally_mixed(self):
        rho = validate_density(np.eye(3) / 3)
        povm = random_povm(3, 4, seed=0)
        q = born_probabilities(rho, povm)
        expected = [np.trace(el).real / 3 for el in povm.elements]
        assert_allclose(q.values, expected, atol=1e-12)

    def test_eigenstate_certainty(self):
        rho = make_ket([1.0, 0.0]).density()
        q = born_probabilities(rho, projector_povm(np.eye(2)))
        assert_allclose(q.values, [1.0, 0.0], atol=1e-15)

    def test_dimension_mismatch(self):
        rho = validate_density(np.eye(2) / 2)
        povm = random_povm(3, 3, seed=1)
        with pytest.raises(DimensionMismatch):
            born_probabilities(rho, povm)

    def test_completeness_sweep(self):
        # sum_j tr(rho F_j) = 1 within 1e-10 and each term >= -1e-12
        for seed in range(30):
            d = 2 + seed % 4
            rho = random_density(d, 1 + seed % d, seed)
            povm = random_povm(d, 2 + seed % 3, seed + 1000)
            q = born_probabilities(rho, povm)
            assert abs(q.values.sum() - 1.0) < 1e-10
            assert q.values.min() >= 0.0


class TestRandomPureState:
    def test_deterministic(self):
        a = random_pure_state(2, seed=1)
        b = random_pure_state(2, seed=1)
        assert_allclose(a.amplitudes, b.amplitudes, atol=0)

    def test_unit_norm(self):
        for seed in range(100):
            psi = random_pure_state(3, seed)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_invariant_measure_moment(self):
        # oracle: E[<psi|P|psi>] = tr(P)/d = 1/2; for d=2 the overlap is
        # uniform on [0,1], so Var = 1/12
        n = 10_000
        proj = np.diag([1.0, 0.0])
        vals = np.empty(n)
        for seed in range(n):
            psi = random_pure_state(2, seed).amplitudes
            vals[seed] = np.real(psi.conj() @ proj @ psi)
        sigma = np.sqrt(1.0 / 12.0 / n)
        assert abs(vals.mean() - 0.5) < 5 * sigma


class TestRandomDensity:
    def test_rank1_is_pure(self):
        for seed in range(20):
            rho = random_density(3, 1, seed)
            assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-10

    def test_full_rank_valid(self):
        rho = random_density(2, 2, seed=5)
        validate_density(rho.matrix)

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            random_density(2, 0, seed=0)
        with pytest.raises(BadRank):
            random_density(2, 3, seed=0)

    def test_mean_is_maximally_mixed(self):
        # symmetry of the construction: E[rho] = I/d; 5 sigma on the
        # componentwise sample standard error
        n = 10_000
        d = 2
        samples = np.empty((n, d, d), dtype=complex)
        for seed in range(n):
            samples[seed] = random_density(d, d, seed).matrix
        mean = samples.mean(axis=0)
        err = np.abs(mean - np.eye(d) / d)
        se_re = samples.real.std(axis=0) / np.sqrt(n)
        se_im = samples.imag.std(axis=0) / np.sqrt(n)
        bound = 5 * np.hypot(se_re, se_im) + 1e-12
        assert np.all(err <= bound)

    def test_matches_old_draw(self):
        for d in (2, 3, 5, 8):
            for rank in sorted({1, 2, d}):
                for seed in (0, 1, 17):
                    got = random_density(d, rank, seed).matrix
                    assert got.tobytes() == old_random_density(d, rank, seed).tobytes()

    def test_validate_never_errors_across_seeds(self):
        for d in range(2, DIM_CAP + 1):
            for rank in range(1, d + 1):
                for seed in range(1000):
                    validate_density(random_density(d, rank, seed).matrix)


class TestRandomPovm:
    def test_output_passes_invariants(self):
        for seed in range(10):
            povm = random_povm(3, 4, seed)
            make_povm(povm.elements)  # revalidates all invariants

    def test_single_outcome_rejected(self):
        with pytest.raises(ValueError):
            random_povm(2, 1, seed=0)

    def test_completeness_on_mixed_state(self):
        rho = validate_density(np.eye(4) / 4)
        q = born_probabilities(rho, random_povm(4, 5, seed=3))
        assert abs(q.values.sum() - 1.0) < 1e-10

    def test_deterministic(self):
        a = random_povm(2, 3, seed=9)
        b = random_povm(2, 3, seed=9)
        assert_allclose(a.elements, b.elements, atol=0)

    def test_matches_per_outcome_loop(self):
        for d in (2, 3, 5, 8):
            for n in (2, 3, d + 2, d * d):
                for seed in (0, 1, 17):
                    stacked = random_povm(d, n, seed).elements
                    assert stacked.tobytes() == loop_random_povm(d, n, seed).tobytes()


class TestProbVector:
    def test_tiny_negative_clipped(self):
        p = make_prob_vector([1.0 + 1e-13, -1e-13])
        assert p.values[1] == 0.0

    def test_too_negative_rejected(self):
        with pytest.raises(ValueError):
            make_prob_vector([1.0, -1e-11])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            make_prob_vector([0.6, 0.6])


class TestMakePovm:
    def test_sum_not_identity(self):
        els = np.array([np.eye(2) / 2, np.eye(2) / 3])
        with pytest.raises(SumNotIdentity):
            make_povm(els)

    def test_element_not_positive(self):
        els = np.array([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])])
        with pytest.raises(NotPositive):
            make_povm(els)

    def test_first_failing_element_reported(self):
        # element 1 is not positive and element 2 not Hermitian: the loop
        # stops at element 1, and so must the stacked check
        els = random_povm(3, 4, seed=2).elements.copy()
        els[1] -= 0.5 * np.eye(3)
        els[2, 0, 1] += 1e-6
        with pytest.raises(NotPositive, match="POVM element 1"):
            make_povm(els)
        assert outcome(make_povm, els) == outcome(loop_make_povm, els)

    def test_matches_per_element_loop(self):
        # random stacks with random defects: same bytes, or the same
        # exception class, element index and measured deviation
        rng = np.random.default_rng(11)
        for d in (2, 3, 4, 6, 8):
            for n in (2, 5, d * d):
                for seed in range(4):
                    els = random_povm(d, n, seed).elements.copy()
                    for j in rng.choice(n, size=rng.integers(0, 3), replace=False):
                        kind = rng.integers(3)
                        if kind in (0, 2):
                            els[j, 0, d - 1] += 10.0 ** rng.uniform(-12, -6)
                        if kind in (1, 2):
                            els[j] -= 10.0 ** rng.uniform(-11, -1) * np.eye(d)
                    assert outcome(make_povm, els) == outcome(loop_make_povm, els)

    def test_projector_povm_matches_outer_products(self):
        for d in (2, 4, 8):
            q, _ = np.linalg.qr(
                np.random.default_rng(d).standard_normal((d, d))
                + 1j * np.random.default_rng(d + 1).standard_normal((d, d))
            )
            expected = np.array([np.outer(v, v.conj()) for v in q])
            assert projector_povm(q).elements.tobytes() == expected.tobytes()
