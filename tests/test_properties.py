"""Property tests for the identities of the probability-only Born rule.

Fuchs & Schack, Quantum-Bayesian coherence, Rev. Mod. Phys. 85, 1693 (2013):
a reference's probabilities determine the state, and the general and SIC
forms of the urgleichung both reproduce tr(rho F). The stacked evaluations
that check_trials and sic_search rely on are checked against single calls
bit for bit.

The examples are derandomized and not stored, so every run checks the same
inputs.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probrep import (
    born_probabilities,
    povm_to_cond,
    prob_to_state,
    random_density,
    random_povm,
    random_reference,
    sic_reference,
    state_to_prob,
    urgleichung_general,
    urgleichung_sic,
)
from probrep.born import _check_cond_stack, _general_rule, _sic_rule, random_ic_inputs
from probrep.errors import IllConditionedReference
from probrep.operators import _check_prob_rows, _wishart_draw, _wishart_povms
from probrep.sic import SEARCH_WINDOW, _descend, _Evaluator, _least_squares, _lm_step

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

    stacked_povms = _wishart_povms(np.stack([_wishart_draw(d, n, s) for s in trial_seeds]))
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


def _rows_bytes(rows):
    return [tuple(np.asarray(v).tobytes() for v in row) for row in rows]


@PROPERTY
@given(d=dims, seed=seeds, rows=st.integers(1, SEARCH_WINDOW + 1))
def test_batched_search_evaluations_equal_single_rows(d, seed, rows):
    rng = np.random.default_rng(seed)
    ev = _Evaluator(d)
    x = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
    x /= np.linalg.norm(x, axis=1)[:, None]
    r = 0.1 * (rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d)))
    step = rng.uniform(0.0, 1.0, rows)
    mu = 10.0 ** rng.uniform(-14.0, 0.0, rows)

    systems = list(_least_squares(ev, x))
    jtj = np.array([row[4] for row in systems])
    jtf = np.array([row[5] for row in systems])
    batched = {
        "least squares": systems,
        "descend": list(_descend(ev, x, r, step)),
        "lm step": list(_lm_step(ev, x, jtj, jtf, mu)),
    }
    for b in range(rows):
        one = slice(b, b + 1)
        single = {
            "least squares": _least_squares(ev, x[one]),
            "descend": _descend(ev, x[one], r[one], step[one]),
            "lm step": _lm_step(ev, x[one], jtj[one], jtf[one], mu[one]),
        }
        for kind, rows_b in single.items():
            assert _rows_bytes(rows_b) == _rows_bytes(batched[kind][b:b + 1]), (kind, b)
