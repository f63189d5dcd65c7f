"""Property tests for the identities of the probability-only Born rule.

Fuchs & Schack, Quantum-Bayesian coherence, Rev. Mod. Phys. 85, 1693 (2013):
a reference's probabilities determine the state, and the general and SIC
forms of the urgleichung both reproduce tr(rho F). The stacked evaluations
that check_trials relies on are checked against single calls bit for bit. Outcome counts, one multinomial draw, sum to the trial count,
leave zero-probability outcomes empty, and pass a two-sample chi-square
test against per-draw inverse-CDF sampling. Correlation tables (Fuchs,
Mermin & Schack, Am. J. Phys. 82, 749 (2014)) are checked against a
per-block einsum and for no-signalling (Popescu & Rohrlich, Found. Phys.
24, 379 (1994)). Their CHSH values stay below Tsirelson's bound 2 sqrt 2
(Cirel'son, Lett. Math. Phys. 4, 93 (1980)), reaching the Horodecki maximum of each state, and mixtures of
local deterministic strategies stay below 2. Binomial interval
probabilities, which skip the blocks of terms that underflow, are checked
bit for bit against the sum over every block of the window.

The examples are derandomized and not stored, so every run checks the same
inputs.
"""

import math
import re
import sys
from collections import Counter
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from probrep import (
    born_probabilities,
    chsh_value,
    correlation_table,
    make_povm,
    data_table_sim,
    no_signalling_check,
    povm_to_cond,
    prob_to_state,
    random_density,
    random_povm,
    random_pure_state,
    random_reference,
    sample_outcomes,
    sic_reference,
    state_to_prob,
    urgleichung_general,
    urgleichung_sic,
)
from probrep import born, errors
from probrep.born import (_check_cond_stack, _general_rule, _sic_rule, check_trials,
                          random_ic_inputs)
from probrep.cli import _parse_angles, main
from probrep.correlations import angle_family, family, make_table
from probrep.errors import (BORN_CHECK_TOL, BORN_ERROR_CONSTANT, IllConditionedReference,
                            NotInformationallyComplete)
from probrep.operators import _check_prob_rows, _grams, _traces, _whiten
from probrep.sampling import (
    DRAW_BLOCK,
    _bd0,
    _split,
    _stirlerr,
    binomial_interval_prob,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)

dims = st.integers(2, 8)
seeds = st.integers(0, 2**31)

# The round trip loses ~cond(M) * eps; across d = 2..8 the measured loss stayed
# below 6e-17 * cond(M), so 1e-13 * cond(M) leaves a wide margin.
ROUND_TRIP_PER_COND = 1e-13
# Random references are used up to this condition number (as born-sweep screens).
COND_LIMIT = 1e6


def reference(d, ref_seed):
    """The SIC reference for ref_seed None, else a usable random reference."""
    if ref_seed is None:
        return sic_reference(d)
    try:
        ref = random_reference(d, ref_seed)
    except IllConditionedReference:
        assume(False)
    assume(ref.condition_number <= COND_LIMIT)
    return ref


ref_seeds = st.none() | seeds


@PROPERTY
@given(d=dims, ref_seed=ref_seeds, rank_pick=st.integers(0, 7), seed=seeds)
def test_prob_to_state_inverts_state_to_prob(d, ref_seed, rank_pick, seed):
    ref = reference(d, ref_seed)
    rho = random_density(d, 1 + rank_pick % d, seed)
    back = prob_to_state(ref, state_to_prob(ref, rho))
    assert np.max(np.abs(back.matrix - rho.matrix)) <= ROUND_TRIP_PER_COND * ref.condition_number


@PROPERTY
@given(d=dims, ref_seed=ref_seeds, seed=seeds)
def test_general_and_sic_rules_equal_trace_rule(d, ref_seed, seed):
    ref = reference(d, ref_seed)
    rho, povm = random_ic_inputs(d, seed)
    p = state_to_prob(ref, rho)
    r = povm_to_cond(ref, povm)
    q_true = born_probabilities(rho, povm).values
    assert np.max(np.abs(urgleichung_general(ref, p, r).values - q_true)) < 1e-9
    if ref.sic_certified:
        assert np.max(np.abs(urgleichung_sic(d, p, r).values - q_true)) < 1e-9


# born-check's trial count per reference, as the born-sweep benchmark runs it.
SWEEP_TRIALS = 300


def sweep_deviation(ref, ref_seed):
    """born-check's max deviation for a reference built from ref_seed."""
    return check_trials(ref, range(ref_seed + 1, ref_seed + 1 + SWEEP_TRIALS))[0]


@PROPERTY
@given(d=dims, ref_seed=seeds)
def test_accepted_reference_passes_born_check(d, ref_seed):
    """The cap BORN_CHECK_TOL / (c eps) keeps every reference make_reference accepts
    within born-check's tolerance."""
    try:
        ref = random_reference(d, ref_seed)
    except (IllConditionedReference, NotInformationallyComplete):
        assume(False)
    assert sweep_deviation(ref, ref_seed) < BORN_CHECK_TOL


def test_condition_cap_keeps_the_well_conditioned_references():
    # errors computes the cap from sys.float_info.epsilon, without numpy
    assert sys.float_info.epsilon == np.finfo(float).eps
    eps = float(np.finfo(float).eps)
    assert errors.CONDITION_CAP == BORN_CHECK_TOL / (BORN_ERROR_CONSTANT * eps)
    assert born.CONDITION_CAP == errors.CONDITION_CAP > COND_LIMIT


# From the sweep that fitted the cap's constant (d = 2..8, seeds 0..399): the references
# 0.7.0 refused, or accepted and then failed (3, 364), and the accepted ones of largest cond.
@pytest.mark.parametrize("d,ref_seed", [(3, 364), (5, 12), (6, 62), (8, 126), (8, 161)])
def test_references_past_the_cap_are_refused(d, ref_seed):
    with pytest.raises(IllConditionedReference):
        random_reference(d, ref_seed)


def test_reference_of_deficient_rank_is_refused():
    with pytest.raises(NotInformationallyComplete):
        random_reference(7, 225)


@pytest.mark.parametrize("d,ref_seed", [(5, 107), (5, 220), (4, 304)])
def test_largest_cond_accepted_references_pass_born_check(d, ref_seed):
    ref = random_reference(d, ref_seed)
    assert 2e7 < ref.condition_number <= born.CONDITION_CAP
    assert sweep_deviation(ref, ref_seed) < BORN_CHECK_TOL


def test_born_check_refuses_seed_364_before_writing(tmp_path, monkeypatch, capsys):
    """Its reference (cond 2.5e8) once passed the old cap and then failed its trials (exit 2)."""
    monkeypatch.chdir(tmp_path)
    argv = ["born-check", "--dim", "3", "--reference", "random", "--seed", "364",
            "--report", "r.json"]
    assert main(argv) == 1
    assert "ill-conditioned" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@PROPERTY
@given(
    d=dims,
    ref_seed=ref_seeds,
    n=st.integers(2, 10),
    trial_seeds=st.lists(seeds, min_size=1, max_size=8),
)
def test_stacked_rows_equal_single_calls(d, ref_seed, n, trial_seeds):
    ref = reference(d, ref_seed)
    povms = [random_povm(d, n, s) for s in trial_seeds]
    ps = [state_to_prob(ref, random_density(d, 1 + s % d, s)) for s in trial_seeds]
    rs = [povm_to_cond(ref, povm) for povm in povms]

    draws = [np.random.default_rng(s).standard_normal((n, 2, d, d)) for s in trial_seeds]
    stacked_povms = _whiten(_grams(np.stack(draws)))
    p = np.array([p_t.values for p_t in ps])
    r = np.array([r_t.rows for r_t in rs])
    _check_cond_stack(r)
    general = _check_prob_rows(_general_rule(ref, p, r))
    for t, (povm, p_t, r_t) in enumerate(zip(povms, ps, rs)):
        assert stacked_povms[t].tobytes() == povm.elements.tobytes()
        assert general[t].tobytes() == urgleichung_general(ref, p_t, r_t).values.tobytes()
    if ref.sic_certified:
        sic = _check_prob_rows(_sic_rule(d, p, r))
        for t, (p_t, r_t) in enumerate(zip(ps, rs)):
            assert sic[t].tobytes() == urgleichung_sic(d, p_t, r_t).values.tobytes()


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _density_draw(rng, dim, rank):
    """The state random_density drew from rng before draws were stacked."""
    g = _complex_normal(rng, (dim, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    m /= np.real(np.trace(m))
    return m


def _wishart_parts(rng, dim, n):
    """The (n, d, d) factors random_povm drew from rng and whitened before draws were stacked."""
    x = rng.standard_normal((n, 2, dim, dim))
    g = x[:, 0] + 1j * x[:, 1]
    a = g @ g.conj().swapaxes(-1, -2)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _trial_draw(dim, seed):
    """Rank, outcome count n, state and POVM parts of one born-check trial, drawn
    with three normal draws and per-trial products, as before trials were stacked."""
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, dim + 1))
    n = int(rng.integers(2, dim + 3))
    return rank, n, _density_draw(rng, dim, rank), _wishart_parts(rng, dim, n)


def _rank_and_n(dim, seed):
    rng = np.random.default_rng(seed)
    return int(rng.integers(1, dim + 1)), int(rng.integers(2, dim + 3))


def _assert_stacks_equal_trial_draws(dim, seeds):
    """Every trial _stacks builds has the bytes _trial_draw gives it alone."""
    seen = []
    for trials, rhos, parts in born._stacks(dim, seeds):
        for (t, seed, rank, _), rho, part in zip(trials, rhos, parts):
            want_rank, n, want_rho, want_parts = _trial_draw(dim, seed)
            assert (rank, len(parts[0])) == (want_rank, n)
            assert rho.tobytes() == want_rho.tobytes(), (dim, seed)
            assert part.tobytes() == want_parts.tobytes(), (dim, seed)
            seen.append(t)
    assert sorted(seen) == list(range(len(seeds)))


@PROPERTY
@given(data=st.data(), d=dims, start=seeds)
@example(data=None, d=2, start=0)
@example(data=None, d=8, start=0)
def test_stacks_equal_per_trial_draws(data, d, start):
    """One stack of one outcome count n, 1 up to STACK_ENTRIES // (n d^2) trials long,
    whose first trial has a chosen rank, against the per-trial oracle."""
    if data is None:  # a full stack at the largest and at the smallest stack size
        rank, n, length = d, 2 if d == 2 else d + 2, None
    else:
        rank = data.draw(st.integers(1, d), label="rank")
        n = data.draw(st.integers(2, d + 2), label="n")
        length = data.draw(st.integers(1, born.STACK_ENTRIES // (n * d * d)), label="length")
    length = length or born.STACK_ENTRIES // (n * d * d)
    seed = start
    while _rank_and_n(d, seed) != (rank, n):
        seed += 1
    stack = [seed]
    while len(stack) < length:
        seed += 1
        if _rank_and_n(d, seed)[1] == n:
            stack.append(seed)
    assert len(list(born._stacks(d, stack))) == 1
    _assert_stacks_equal_trial_draws(d, stack)


def test_stacks_cover_every_rank_and_outcome_count():
    """For each d, one seed of every (rank, n), stacked by n with ranks mixed."""
    for d in range(2, 9):
        wanted = {(rank, n) for rank in range(1, d + 1) for n in range(2, d + 3)}
        found = {}
        seed = 0
        while len(found) < len(wanted):
            found.setdefault(_rank_and_n(d, seed), seed)
            seed += 1
        _assert_stacks_equal_trial_draws(d, sorted(found.values()))


@PROPERTY
@given(d=dims, rank_pick=st.integers(0, 7), n=st.integers(2, 12), seed=seeds)
def test_random_inputs_equal_per_trial_draws(d, rank_pick, n, seed):
    """random_density, random_povm, random_pure_state and random_ic_inputs keep the
    bits of their per-trial draws."""
    rank = 1 + rank_pick % d
    want = _density_draw(np.random.default_rng(seed), d, rank)
    assert random_density(d, rank, seed).matrix.tobytes() == want.tobytes()
    want = _whiten(_wishart_parts(np.random.default_rng(seed), d, n)[None])[0]
    assert random_povm(d, n, seed).elements.tobytes() == want.tobytes()
    v = _complex_normal(np.random.default_rng(seed), d)
    assert random_pure_state(d, seed).amplitudes.tobytes() == (v / np.linalg.norm(v)).tobytes()
    _, _, rho, parts = _trial_draw(d, seed)
    got_rho, got_povm = random_ic_inputs(d, seed)
    assert got_rho.matrix.tobytes() == rho.tobytes()
    assert got_povm.elements.tobytes() == _whiten(parts[None])[0].tobytes()


@PROPERTY
@given(
    d=dims,
    lead=st.integers(1, 6),
    x=st.integers(1, 10),
    y=st.integers(1, 10),
    broadcast=st.booleans(),
    seed=seeds,
)
def test_stacked_traces_equal_single_rows(d, lead, x, y, broadcast, seed):
    """Every leading index of a _traces stack has the bytes it has alone, near the einsum form."""
    rng = np.random.default_rng(seed)

    def stack(*shape):
        return rng.standard_normal((*shape, d, d)) + 1j * rng.standard_normal((*shape, d, d))

    a = stack(lead, x)
    b = stack(y) if broadcast else stack(lead, y)
    got = _traces(a, b)
    assert got.shape == (lead, x, y) and got.flags.c_contiguous
    scale = np.max(np.abs(a)) * np.max(np.abs(b)) * d * d
    for k in range(lead):
        b_k = b if broadcast else b[k]
        assert got[k].tobytes() == _traces(a[k], b_k).tobytes()
        einsum = np.real(np.einsum("xij,yji->xy", a[k], b_k))
        assert np.max(np.abs(got[k] - einsum)) <= 1e-15 * scale


def _inverse_cdf_counts(probs, n, rng):
    """Reference sampler: one binary search per draw, then a histogram."""
    cdf = np.cumsum(probs)
    cdf[np.flatnonzero(probs)[-1]:] = 1.0
    draws = np.searchsorted(cdf, rng.random(n), side="right")
    return np.bincount(draws, minlength=probs.shape[0])


ZERO_PATTERNS = ("none", "leading", "interior", "trailing", "all three")


def _distribution(k, zeros, overshoot, seed):
    """k outcome probabilities with the given zero runs.

    For overshoot > 0 the first nonzero entry takes an excess of
    overshoot * 2e-11 (within PROB_SUM_TOL) and the last nonzero entry
    shrinks to 1e-18, so the cumsum passes 1 + 1e-12, the most numpy's
    multinomial accepts, before the last outcome that can be drawn.
    """
    rng = np.random.default_rng(seed)
    w = rng.random(k) ** 4  # spread the weights over several magnitudes
    run = int(rng.integers(1, max(2, k // 3)))
    if zeros in ("leading", "all three"):
        w[:run] = 0.0
    if zeros in ("interior", "all three"):
        w[k // 2:k // 2 + run] = 0.0
    if zeros in ("trailing", "all three"):
        w[k - run:] = 0.0
    if not w.any():
        w[int(rng.integers(k))] = 1.0
    p = w / w.sum()
    if overshoot:
        nz = np.flatnonzero(p)
        p[nz[0]] += overshoot * 2e-11
        if len(nz) > 1:
            p[nz[0]] += p[nz[-1]] - 1e-18
            p[nz[-1]] = 1e-18
    return p


# One draw, a few, a block's worth, and counts no per-draw sampler could reach.
DRAW_SIZES = (1, 2, 7, DRAW_BLOCK + 1, 10**12, 2**63 - 1)


@settings(PROPERTY, max_examples=150)
@given(
    k=st.integers(1, 200),
    zeros=st.sampled_from(ZERO_PATTERNS),
    overshoot=st.integers(0, 4),
    n=st.sampled_from(DRAW_SIZES),
    seed=seeds,
)
def test_counts_sum_to_n_and_zero_outcomes_get_none(k, zeros, overshoot, n, seed):
    probs = _distribution(k, zeros, overshoot, seed)
    counts = sample_outcomes(probs, n, seed).counts
    assert counts.shape == (k,) and counts.min() >= 0
    assert int(counts.sum()) == n
    assert not counts[probs == 0].any()


def _two_sample_chi_square_p(x, y):
    """p-value of the chi-square test that two equal-sized samples of count
    vectors come from one distribution. Vectors seen fewer than 10 times in
    the two samples together are pooled into one category."""
    mpmath = pytest.importorskip("mpmath")
    seen_x, seen_y = Counter(map(tuple, x)), Counter(map(tuple, y))
    cells, pooled = [], [0, 0]
    for key in seen_x.keys() | seen_y.keys():
        cell = (seen_x[key], seen_y[key])
        if sum(cell) >= 10:
            cells.append(cell)
        else:
            pooled = [pooled[0] + cell[0], pooled[1] + cell[1]]
    cells += [tuple(pooled)] if sum(pooled) else []
    statistic = sum((a - b) ** 2 / (a + b) for a, b in cells)
    return float(mpmath.gammainc((len(cells) - 1) / 2, statistic / 2, regularized=True))


CHI_SQUARE_SEEDS = 2000


def _count_samples(probs, n, offset=0):
    """Multinomial count vectors and per-draw oracle ones, from disjoint fixed seeds."""
    seeds = range(offset, offset + CHI_SQUARE_SEEDS)
    multinomial = [sample_outcomes(probs, n, seed).counts for seed in seeds]
    oracle = [_inverse_cdf_counts(probs, n, np.random.default_rng(seed + CHI_SQUARE_SEEDS))
              for seed in seeds]
    return multinomial, oracle


@pytest.mark.parametrize("probs,n", [
    (np.array([0.7, 0.2, 0.1, 0.0]), 5),
    (_distribution(7, "all three", 0, 3), 4),
    (_distribution(5, "none", 3, 1), 3),
    (np.full(3, 1 / 3), 1),
])
def test_multinomial_counts_are_distributed_as_per_draw_inverse_cdf(probs, n):
    # 2,000 fixed seeds a sampler; the p-values are 0.37, 0.39, 0.80 and 0.89
    multinomial, oracle = _count_samples(probs, n)
    assert _two_sample_chi_square_p(multinomial, oracle) > 1e-3


def test_chi_square_test_sees_a_shift_of_five_percent():
    # the same comparison with 0.05 moved between two outcomes: ~8 sigma
    multinomial, _ = _count_samples(np.array([0.7, 0.2, 0.1, 0.0]), 5)
    _, shifted = _count_samples(np.array([0.65, 0.25, 0.1, 0.0]), 5)
    assert _two_sample_chi_square_p(multinomial, shifted) < 1e-6


def _whole_window_interval(n, p, lo, hi):
    """Reference loop: binomial_interval_prob for 0 < p < 1 with every block
    of [lo, hi] summed, none skipped."""
    sums = []
    if lo == 0:
        sums.append(math.exp(n * math.log1p(-p)))
    if hi == n and n > 0:
        sums.append(math.exp(n * math.log(p)))
    first, last = max(lo, 1), min(hi, n - 1)
    if first <= last:
        stirlerr_n = float(_stirlerr(np.array(n)))
        num, den = p.as_integer_ratio()
        mean_k, mean_k_low = _split(n * num, den)
        mean_n_k, mean_n_k_low = _split(n * (den - num), den)
        for start in range(first, last + 1, DRAW_BLOCK):
            k = np.arange(start, min(start + DRAW_BLOCK, last + 1))
            x = k.astype(float)
            y = n - x
            log_terms = (stirlerr_n - _stirlerr(k) - _stirlerr(n - k)
                         - _bd0(x, mean_k, mean_k_low) - _bd0(y, mean_n_k, mean_n_k_low))
            sums.append(float(np.sum(np.exp(log_terms) * np.sqrt(n / (2 * math.pi * x * y)))))
    return min(1.0, max(0.0, math.fsum(sums)))


@st.composite
def interval_queries(draw):
    """(n, p, lo, hi): each window end a fraction of n (windows that span
    many blocks) or up to 80 standard deviations from np (beyond ~40 the
    terms underflow, so windows straddle np or lie wholly in a tail). Some
    windows are moved so that the mode is the first or last k of its block,
    where a neighbouring block holds up to half the sum."""
    n = draw(st.integers(1, 3 * 10**6) | st.integers(1, 3000))
    p = draw(st.sampled_from((0.5, 1e-12, 1 - 1e-12))
             | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    mean, sd = n * p, math.sqrt(n * p * (1 - p))
    ends = [draw(st.floats(0.0, 1.0)) * n if draw(st.booleans())
            else mean + draw(st.floats(-80.0, 80.0)) * sd for _ in range(2)]
    lo, hi = sorted(min(n, max(0, round(end))) for end in ends)
    mode_at = draw(st.sampled_from((None, 0, DRAW_BLOCK - 1)))
    if mode_at is not None:
        mode = int((n + 1) * p)
        lo = max(1, lo - (lo - mode + mode_at) % DRAW_BLOCK)
        hi = max(lo, hi)
    return n, p, lo, hi


@settings(PROPERTY, max_examples=40)
@given(query=interval_queries())
@example(query=(3 * 10**6, 0.5, 0, 3 * 10**6))
@example(query=(3 * 10**6, 1e-12, 0, 3 * 10**6))
@example(query=(3 * 10**6, 1 - 1e-12, 0, 3 * 10**6))
@example(query=(3 * 10**6, 0.3, 1_000_000, 3 * 10**6))
@example(query=(3 * 10**6, 0.5, 1 + 1_500_000 % DRAW_BLOCK, 2_000_000))
@example(query=(3 * 10**6, 0.5, 1_500_000 % DRAW_BLOCK, 2_000_000))
def test_interval_skipping_dead_blocks_equals_whole_window_sum(query):
    assert binomial_interval_prob(*query).hex() == _whole_window_interval(*query).hex()


@PROPERTY
@given(
    n_a=st.integers(1, 3),
    n_b=st.integers(1, 3),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    n_per_setting=st.sampled_from((1, 2, 7, 1000, DRAW_BLOCK + 1)),
    seed=seeds,
)
def test_data_table_counts_sum_to_trials(n_a, n_b, shape, n_per_setting, seed):
    settings_a = tuple(f"a{i}" for i in range(n_a))
    settings_b = tuple(f"b{j}" for j in range(n_b))
    size = shape[0] * shape[1]
    probs = {
        (a, b): _distribution(size, ZERO_PATTERNS[t % 5], 0, seed + t).reshape(shape)
        for t, (a, b) in enumerate((a, b) for a in settings_a for b in settings_b)
    }
    dt = data_table_sim(make_table(probs), n_per_setting, seed)
    assert dt.n_trials == n_per_setting
    for block in dt.counts.values():
        assert block.shape == shape and block.min() >= 0
        assert block.sum() == n_per_setting


def _einsum_table(psi, fam_a, fam_b):
    """Reference kernel: the per-block einsum correlation_table ran before _traces."""
    amp = psi.amplitudes.reshape(fam_a.dim, fam_b.dim)
    return {
        (a, b): np.real(
            np.einsum("mu,xmn,yuv,nv->xy", amp.conj(), pa.elements, pb.elements, amp,
                      optimize=True)
        )
        for a, pa in fam_a.povms.items()
        for b, pb in fam_b.povms.items()
    }


SPLITS = ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2))


@PROPERTY
@given(
    split=st.sampled_from(SPLITS),
    counts_a=st.lists(st.integers(2, 5), min_size=2, max_size=3, unique=True),
    counts_b=st.lists(st.integers(2, 5), min_size=2, max_size=3, unique=True),
    seed=seeds,
)
def test_correlation_table_matches_einsum_and_does_not_signal(split, counts_a, counts_b, seed):
    d_a, d_b = split
    psi = random_pure_state(d_a * d_b, seed)
    fam_a = family([f"a{k}" for k in range(len(counts_a))],
                   [random_povm(d_a, n, seed + 1 + k) for k, n in enumerate(counts_a)])
    fam_b = family([f"b{k}" for k in range(len(counts_b))],
                   [random_povm(d_b, n, seed + 11 + k) for k, n in enumerate(counts_b)])
    table = correlation_table(psi, fam_a, fam_b)
    for key, want in _einsum_table(psi, fam_a, fam_b).items():
        assert table.block(*key).shape == want.shape
        assert np.max(np.abs(table.block(*key) - want)) <= 1e-15
    assert no_signalling_check(table) <= 1e-12


PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _spin_family(labels, directions):
    """Projective qubit measurements along 3-vectors, the +1 outcome first."""
    povms = []
    for u in directions:
        n = np.tensordot(u / np.linalg.norm(u), PAULIS, axes=1)
        povms.append(make_povm([(np.eye(2) + n) / 2, (np.eye(2) - n) / 2]))
    return family(labels, povms)


def _chsh(psi, a_dirs, b_dirs):
    return chsh_value(correlation_table(
        psi, _spin_family(("a1", "a2"), a_dirs), _spin_family(("b1", "b2"), b_dirs)))


@PROPERTY
@given(seed=seeds, direction_seed=seeds)
def test_chsh_obeys_tsirelson_and_reaches_horodecki_maximum(seed, direction_seed):
    psi = random_pure_state(4, seed)
    a1, a2, b1, b2 = np.random.default_rng(direction_seed).standard_normal((4, 3))
    value = _chsh(psi, (a1, a2), (b1, b2))
    assert value <= 2 * np.sqrt(2) + 1e-12
    # Horodecki: with T_ij = <psi| s_i (x) s_j |psi> = U diag(s) V^T, the
    # directions u1, u2 and (s1 v1 +- s2 v2)/r give the state's maximum 2r,
    # r = hypot(s1, s2)
    amp = psi.amplitudes
    t = np.array([[np.real(amp.conj() @ np.kron(si, sj) @ amp) for sj in PAULIS]
                  for si in PAULIS])
    u, s, vt = np.linalg.svd(t)
    r = np.hypot(s[0], s[1])
    best = _chsh(psi, (u[:, 0], u[:, 1]),
                 ((s[0] * vt[0] + s[1] * vt[1]) / r, (s[0] * vt[0] - s[1] * vt[1]) / r))
    assert abs(best - 2 * r) <= 1e-12
    assert best <= 2 * np.sqrt(2) + 1e-12
    assert value <= best + 1e-12


# The 16 local deterministic strategies: setting i of a side answers bit i of f.
LOCAL_STRATEGIES = [(f, g) for f in range(4) for g in range(4)]


@PROPERTY
@given(weights=st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16))
@example(weights=[1.0] + [0.0] * 15)
def test_local_deterministic_mixtures_obey_chsh_bound(weights):
    total = sum(weights)
    assume(total > 0)
    probs = {}
    for i, a in enumerate(("a1", "a2")):
        for j, b in enumerate(("b1", "b2")):
            block = np.zeros((2, 2))
            for w, (f, g) in zip(weights, LOCAL_STRATEGIES):
                block[(f >> i) & 1, (g >> j) & 1] += w / total
            probs[(a, b)] = block
    assert chsh_value(make_table(probs)) <= 2 + 1e-12


# Degrees as --angles gives them: whole numbers, any double's repr (nan and the
# infinities included) and finite degrees past the float range in radians.
degree_texts = st.lists(st.one_of(st.integers(-720, 720).map(str), st.floats().map(repr),
                                  st.sampled_from(["1e308", "-1e308", "1e-320", "-0"])),
                        min_size=1, max_size=4).map(",".join)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(part_a=degree_texts, part_b=degree_texts)
@example(part_a="nan,0", part_b="45,135")
@example(part_a="inf,0", part_b="45,135")
@example(part_a="-inf,0", part_b="45,135")
@example(part_a="1e308,0", part_b="45,135")
def test_parse_angles_gives_the_radians_of_numpy_pi(part_a, part_b):
    """_parse_angles converts with math.pi: the floats of float(v) * np.pi / 180.0, bit for
    bit, beside each side's degrees as typed, float(v), and the same refusal of an angle
    that is not finite in radians."""
    text = f"{part_a}:{part_b}"
    degrees = [[float(v) for v in part.split(",")] for part in (part_a, part_b)]
    radians = [[v * np.pi / 180.0 for v in side] for side in degrees]
    if np.isfinite(radians[0] + radians[1]).all():
        assert [[list(map(float.hex, numbers)) for numbers in side]
                for side in _parse_angles(text)] == \
            [[list(map(float.hex, r)), list(map(float.hex, d))] for r, d in zip(radians, degrees)]
    else:
        message = f"--angles {text!r} has a non-finite angle in radians"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _parse_angles(text)


# Distinct degrees in clusters, so that many share their label in %g (6 significant
# digits): a centre plus whole multiples of a step, kept once per value.
clustered_degrees = st.tuples(
    st.floats(-720, 720), st.sampled_from([1e-13, 1e-9, 1e-5, 1.0]),
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=5, unique=True),
).map(lambda c: list(dict.fromkeys(c[0] + k * c[1] for k in c[2])))


@PROPERTY
@given(degrees=clustered_degrees)
@example(degrees=[45.0, 45.0000001])
@example(degrees=[0.5, 0.50000001, 0.5000001])
def test_distinct_angles_get_distinct_labels(degrees):
    """Each angle keeps its %g label unless a different angle shares it; each of those
    is the shortest decimal that reads back to its degrees as typed. An angle typed
    twice is still refused."""
    [(radians, _), _] = _parse_angles(",".join(map(repr, degrees)) + ":0")
    labels = angle_family(radians, degrees=degrees).settings
    short = [f"{np.degrees(t):g}" for t in radians]
    for v, label, s in zip(degrees, labels, short):
        if short.count(s) == 1:
            assert label == s
        else:
            assert float(label) == v
            digits = len(Decimal(label).normalize().as_tuple().digits)
            assert digits == 1 or float(f"{v:.{digits - 1}g}") != v
    with pytest.raises(ValueError, match="setting labels must be distinct"):
        angle_family(radians + radians[:1], degrees=degrees + degrees[:1])
