import math
import time
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probrep import (
    binomial_interval_prob,
    chsh_value,
    data_table_sim,
    sample_outcomes,
    sampling,
)
from probrep.correlations import canonical_chsh_table, make_table
from probrep.sampling import DRAW_BLOCK


def exact_binomial_interval(n: int, p: float, lo: int, hi: int) -> Fraction:
    """Independent oracle: exact rational sum at the exact float value of p."""
    pf = Fraction(p)
    return sum(comb(n, k) * pf**k * (1 - pf) ** (n - k) for k in range(lo, hi + 1))


def mpmath_interval(n: int, p: float, lo: int, hi: int):
    """Oracle for any n: the sum at 40 digits, walked outward from the term
    nearest the mode until a term falls below 1e-45 of the sum."""
    mpmath = pytest.importorskip("mpmath")
    if p in (0.0, 1.0):
        return mpmath.mpf(lo <= n * p <= hi)
    with mpmath.workdps(40):
        pf = mpmath.mpf(p)
        ratio = pf / (1 - pf)
        start = min(max(int((n + 1) * p), lo), hi)
        first = mpmath.exp(
            mpmath.loggamma(n + 1) - mpmath.loggamma(start + 1) - mpmath.loggamma(n - start + 1)
            + start * mpmath.log(pf) + (n - start) * mpmath.log1p(-pf)
        )
        total = first
        for step, stop in ((1, hi), (-1, lo)):
            term, k = first, start
            while k != stop and term >= total * mpmath.mpf(10) ** -45:
                term *= (n - k) * ratio / (k + 1) if step == 1 else k / ((n - k + 1) * ratio)
                k += step
                total += term
        return total


def interval_tolerance(exact) -> float:
    """1e-14 relative, widened below ~1e-5 to 4 eps ln(1/P), the rounding a
    log of that size carries into its exp, and at least 1e-300 absolute
    (subnormal results)."""
    exact = float(exact)
    if exact < 1e-300:
        return 1e-300
    return max(1e-14, 4 * 2.0**-52 * math.log(1 / exact)) * exact


class TestSampleOutcomes:
    def test_certain_outcome(self):
        counts = sample_outcomes([1.0, 0.0], 100, seed=0)
        assert tuple(counts.counts) == (100, 0)

    def test_deterministic(self):
        a = sample_outcomes([0.3, 0.7], 500, seed=9)
        b = sample_outcomes([0.3, 0.7], 500, seed=9)
        assert tuple(a.counts) == tuple(b.counts)

    def test_counts_sum_to_trials(self):
        for seed in range(20):
            counts = sample_outcomes([0.2, 0.3, 0.5], 1000, seed)
            assert counts.counts.sum() == counts.n_trials == 1000

    def test_needs_a_trial(self):
        with pytest.raises(ValueError):
            sample_outcomes([1.0, 0.0], 0, seed=0)

    def test_raw_array_must_be_a_distribution(self):
        for bad in ([0.2, 0.2], [1.5, -0.5], [0.5, float("nan")]):
            with pytest.raises(ValueError):
                sample_outcomes(bad, 1000, seed=0)

    def test_trailing_zero_outcome_never_drawn(self):
        # numpy's multinomial gives its last outcome whatever the others
        # leave; passed the zero too, it gets ~100 of 2**62 draws
        for seed in range(20):
            counts = sample_outcomes([0.7, 0.2, 0.1, 0.0], 2**62, seed).counts
            assert counts[3] == 0 and counts.sum() == 2**62

    def test_cdf_that_steps_down_gives_no_negative_count(self):
        # a -4e-17 entry (as a rounded quantum probability may be) steps the
        # cumsum down by one ulp; it is clipped to 0 and gets no counts
        probs = [0.3, -4e-17, 0.4, 0.3 + 4e-17]
        assert np.cumsum(probs)[1] < np.cumsum(probs)[0]
        for seed in range(50):
            counts = sample_outcomes(probs, 1000, seed).counts
            assert counts.min() >= 0 and counts[1] == 0 and counts.sum() == 1000

    def test_huge_count_takes_constant_work(self):
        # the work is O(outcomes): 10**12 draws one at a time would take hours
        start = time.perf_counter()
        counts = sample_outcomes([0.1, 0.2, 0.3, 0.4], 10**12, seed=0)
        assert time.perf_counter() - start < 1.0
        assert counts.counts.sum() == 10**12
        assert np.all(np.abs(counts.counts / counts.n_trials - [0.1, 0.2, 0.3, 0.4]) < 1e-5)

    def test_frequencies_within_binomial_error(self):
        n = 100_000
        q = np.array([0.1, 0.2, 0.3, 0.4])
        freqs = sample_outcomes(q, n, seed=123).counts / n
        bounds = 5 * np.sqrt(q * (1 - q) / n)
        assert np.all(np.abs(freqs - q) <= bounds)

    def test_coin_toss_concentration(self):
        # 30 <= h <= 70 in at least 99.9% of 1000 seeded runs
        hits = sum(
            30 <= sample_outcomes([0.5, 0.5], 100, seed).counts[0] <= 70
            for seed in range(1000)
        )
        assert hits / 1000 >= 0.999

    def test_mean_frequency_converges(self):
        # 5 sigma on the mean of the head frequency over 1000 seeds
        n, seeds = 100, 1000
        freqs = np.array(
            [sample_outcomes([0.5, 0.5], n, s).counts[0] / n for s in range(seeds)]
        )
        sigma = np.sqrt(0.25 / n / seeds)
        assert abs(freqs.mean() - 0.5) <= 5 * sigma

    def test_observed_57_heads_exists_and_is_unremarkable(self):
        # seed 10 happens to give h = 57; its exact probability is ~0.0301,
        # and that is all there is to say about it
        counts = sample_outcomes([0.5, 0.5], 100, seed=10)
        assert counts.counts[0] == 57
        pmf = binomial_interval_prob(100, 0.5, 57, 57)
        assert abs(pmf - 0.0301) < 1e-4


class TestBinomialInterval:
    def test_thirty_seventy_window(self):
        value = binomial_interval_prob(100, 0.5, 30, 70)
        assert value == pytest.approx(0.999968, abs=1e-6)
        oracle = float(exact_binomial_interval(100, 0.5, 30, 70))
        assert value == pytest.approx(oracle, rel=1e-12)

    def test_full_range(self):
        assert binomial_interval_prob(57, 0.3, 0, 57) == pytest.approx(1.0, rel=1e-12)

    def test_single_trial(self):
        assert binomial_interval_prob(1, 0.5, 1, 1) == pytest.approx(0.5, rel=1e-14)

    def test_against_exact_oracle_grid(self):
        # 1e-10 relative agreement with exact rational summation, n <= 1000
        cases = [
            (10, 0.5, 2, 7),
            (100, 0.25, 10, 40),
            (317, 0.9, 260, 300),
            (1000, 0.5, 450, 550),
            (1000, 0.01, 0, 3),
        ]
        for n, p, lo, hi in cases:
            oracle = float(exact_binomial_interval(n, p, lo, hi))
            assert binomial_interval_prob(n, p, lo, hi) == pytest.approx(
                oracle, rel=1e-10
            )

    def test_mpmath_oracle_matches_exact_sum(self):
        for n, p, lo, hi in ((0, 0.5, 0, 0), (1, 0.3, 1, 1), (317, 0.9, 260, 300),
                             (1000, 0.01, 0, 3), (1000, 0.5, 0, 1000), (1000, 0.5, 900, 950)):
            mantissa, exponent = mpmath_interval(n, p, lo, hi).man_exp
            exact = exact_binomial_interval(n, p, lo, hi)
            assert abs(mantissa * Fraction(2) ** exponent - exact) <= Fraction(1, 10**35) * exact

    def test_degenerate_probabilities(self):
        assert binomial_interval_prob(10, 0.0, 0, 0) == 1.0
        assert binomial_interval_prob(10, 0.0, 1, 10) == 0.0
        assert binomial_interval_prob(10, 1.0, 10, 10) == 1.0
        assert binomial_interval_prob(10, 1.0, 0, 9) == 0.0

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            binomial_interval_prob(10, 0.5, 5, 3)
        with pytest.raises(ValueError):
            binomial_interval_prob(10, 0.5, -1, 3)
        with pytest.raises(ValueError):
            binomial_interval_prob(10, 0.5, 0, 11)
        with pytest.raises(ValueError):
            binomial_interval_prob(10, 1.5, 0, 10)
        for n, lo, hi in ((10.0, 0, 3), (10, 0.5, 3), (10, 0, 3.0), (True, 0, 1)):
            with pytest.raises(ValueError):
                binomial_interval_prob(n, 0.5, lo, hi)

    @pytest.mark.parametrize("n,p,lo,hi", [
        # n >= 1e4, where lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) cancels to ~1e-10
        (100_000, 0.3, 29_800, 30_200),
        (1_000_000, 0.5, 499_000, 501_000),
        (10_000, 0.5, 4_900, 5_100),
        (1_000_000, 0.5, 20, 999_980),
        # full ranges give exactly 1.0; the unclamped sum at n = 613 is
        # 1.0000000000000002
        (100_000, 0.5, 0, 100_000),
        (1_000_000, 0.5, 0, 1_000_000),
        (613, 0.5, 0, 613),
        # terms at |v| ~ 0.1, where bd0's closed form cancels to ~3e-14
        (288, 0.5, 176, 176),
        (337, 0.5, 215, 232),
        # stirlerr(14) twice, where lgamma(15) minus the Stirling terms cancels to 7e-15
        (28, 0.5, 14, 14),
        # far from np, where rounding np to a float moves each log by |k - np| eps
        (178_574, 0.4941286449196186, 87_469, 87_475),
        (1_000_000, 0.3, 301_000, 303_000),
    ])
    def test_hard_queries_match_mpmath(self, n, p, lo, hi):
        value = binomial_interval_prob(n, p, lo, hi)
        assert abs(value - mpmath_interval(n, p, lo, hi)) <= 1e-14 * value
        if (lo, hi) == (0, n):
            assert value == 1.0

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 10**6) | st.integers(0, 1000),
        p=(st.sampled_from((1e-12, 1 - 1e-12, 0.5))
           | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
           | st.floats(0.01, 0.99)),
        z=st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
    )
    @example(n=0, p=0.3, z=(0.0, 0.0))
    @example(n=1, p=0.3, z=(-1.0, 1.0))
    @example(n=1, p=1e-12, z=(2.0, 2.0))
    def test_matches_mpmath(self, n, p, z):
        # window ends z standard deviations from the mean, clipped to [0, n]
        mean, sd = n * p, math.sqrt(n * p * (1 - p)) + 1
        lo, hi = sorted(min(n, max(0, round(mean + t * sd))) for t in z)
        value = binomial_interval_prob(n, p, lo, hi)
        assert 0.0 <= value <= 1.0
        exact = mpmath_interval(n, p, lo, hi)
        assert abs(value - exact) <= interval_tolerance(exact), (value, float(exact))

    def test_peak_memory_bounded_by_one_block(self):
        # summing all terms at once would take 20x the memory at the wider
        # range; both windows are centred on np, so each evaluates blocks of
        # non-zero terms (a window in the underflowing tail, such as
        # 1..DRAW_BLOCK, would measure a block of zeros at most)
        n = 20 * DRAW_BLOCK + 1
        binomial_interval_prob(n, 0.5, 1, 10)  # fill the caches first
        peaks = {}
        for width in (DRAW_BLOCK, 20 * DRAW_BLOCK):
            lo = max(1, n // 2 - width // 2)
            tracemalloc.start()
            try:
                binomial_interval_prob(n, 0.5, lo, min(n - 1, lo + width - 1))
                peaks[width] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[20 * DRAW_BLOCK] <= 1.5 * peaks[DRAW_BLOCK], peaks

    @pytest.mark.parametrize("n,lo,hi,most_blocks", [
        # The terms above exp(-800) lie within sqrt(1600 npq) of np: 40,000
        # wide at n = 1e6, so at most 2 aligned blocks, and 1.27e6 wide at
        # n = 1e9, so at most 21 of the window's 15,259 blocks.
        (10**6, 20, 10**6 - 20, 2),
        (10**9, 0, 10**9, 21),
    ])
    def test_evaluates_only_blocks_that_can_be_non_zero(self, monkeypatch, n, lo, hi, most_blocks):
        sizes = []
        bd0 = sampling._bd0

        def counted(x, m, m_low):
            sizes.append(x.size)
            return bd0(x, m, m_low)

        monkeypatch.setattr(sampling, "_bd0", counted)
        value = binomial_interval_prob(n, 0.5, lo, hi)
        # each evaluated block or 1-element probe calls bd0 once for k and once for n - k
        blocks = sum(size > 1 for size in sizes) // 2
        probes = sizes.count(1) // 2
        blocks_in_window = -(-(min(hi, n - 1) - max(lo, 1) + 1) // DRAW_BLOCK)
        assert blocks <= most_blocks
        assert probes <= 2 * math.ceil(math.log2(blocks_in_window))
        if (lo, hi) == (0, n):
            assert value == 1.0


# (trial count, seed) pairs refused before any draw: a bad count, then a bad seed
BAD_N = [2.5, True, 0, -3, "3", np.float64(10.0), 2**63]
BAD_SEED = [2.5, -1, True, None, "1"]
BAD_DRAW_ARGS = [(n, 0, "n") for n in BAD_N] + [(10, seed, "seed") for seed in BAD_SEED]


@pytest.fixture
def no_draws(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a draw ran")

    monkeypatch.setattr(sampling, "_draw_counts", boom)
    monkeypatch.setattr(np.random, "default_rng", boom)


@pytest.mark.parametrize("n,seed,bad", BAD_DRAW_ARGS)
def test_sample_outcomes_refuses_bad_n_or_seed(n, seed, bad, no_draws):
    with pytest.raises(ValueError, match=f"^{bad} must"):
        sample_outcomes([0.5, 0.5], n, seed)


@pytest.mark.parametrize("n,seed,bad", BAD_DRAW_ARGS)
def test_data_table_sim_refuses_bad_n_or_seed(n, seed, bad, no_draws):
    name = "n_per_setting" if bad == "n" else bad
    with pytest.raises(ValueError, match=f"^{name} must"):
        data_table_sim(canonical_chsh_table(), n, seed)


def test_numpy_integer_arguments_accepted():
    counts = sample_outcomes([0.5, 0.5], np.int64(100), np.uint32(11))
    assert tuple(counts.counts) == tuple(sample_outcomes([0.5, 0.5], 100, 11).counts)
    dt = data_table_sim(canonical_chsh_table(), np.int32(50), np.int64(3))
    assert dt.n_trials == 50 and sum(block.sum() for block in dt.counts.values()) == 200


def point_mass_table():
    probs = {("a", "b"): np.array([[1.0, 0.0], [0.0, 0.0]])}
    return make_table(("a",), ("b",), probs)


class TestDataTableSim:
    def test_point_mass(self):
        dt = data_table_sim(point_mass_table(), 50, seed=0)
        assert dt.counts[("a", "b")][0, 0] == 50
        assert dt.counts[("a", "b")].sum() == 50

    def test_blocked_trial_counts(self):
        table = canonical_chsh_table()
        dt = data_table_sim(table, 200, seed=1)
        assert dt.n_trials == 200
        for block in dt.counts.values():
            assert block.sum() == 200

    def test_deterministic(self):
        table = canonical_chsh_table()
        a = data_table_sim(table, 100, seed=7)
        b = data_table_sim(table, 100, seed=7)
        for key in a.counts:
            assert np.array_equal(a.counts[key], b.counts[key])

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            data_table_sim(point_mass_table(), 0, seed=0)

    def test_phi_plus_anticorrelation_cells_stay_empty(self):
        # p(0,1) = p(1,0) = 0 exactly, so no draw ever lands there
        from probrep.correlations import phi_plus, correlation_table, family, direction_povm

        zfam = family(["z"], [direction_povm(0.0, plane="zx")])
        table = correlation_table(phi_plus(), zfam, zfam)
        dt = data_table_sim(table, 10_000, seed=3)
        block = dt.counts[("z", "z")]
        emp = (block[0, 1] + block[1, 0]) / 10_000
        assert emp <= 5 * np.sqrt(0.5 / 10_000)

    def test_empirical_chsh_near_tsirelson(self):
        table = canonical_chsh_table()
        dt = data_table_sim(table, 100_000, seed=5)
        emp = dt.empirical_table()
        assert chsh_value(emp) == pytest.approx(2 * np.sqrt(2), abs=0.05)
