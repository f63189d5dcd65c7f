"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them all)."""

import hashlib
import json
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from probrep import (
    binomial_interval_prob,
    born_probabilities,
    chsh_value,
    classicality_gap,
    correlation_table,
    embedded_correlation_table,
    no_signalling_check,
    povm_to_cond,
    random_pure_state,
    random_reference,
    sample_outcomes,
    serialize,
    sic_reference,
    state_to_prob,
    steering_ensembles,
    urgleichung_general,
    urgleichung_sic,
    validate_density,
)
from probrep.born import classical_law, make_cond_prob, random_ic_inputs
from probrep.cli import main
from probrep.correlations import (
    canonical_chsh_table,
    direction_povm,
    family,
    lhv_chsh_bound,
    make_table,
    phi_plus,
)
from probrep.operators import projector_povm
from probrep.sic import sic_target

SEARCH_PLAN = {2: 10, 3: 20, 4: 50, 5: 60, 6: 80}
SWEEP_DIMS = (2, 3, 4, 5)
SWEEP_TRIALS = 1000


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_sic_search(tmp_path):
    t0 = time.time()
    worst_pot, worst_dev = 0.0, 0.0
    for d, restarts in SEARCH_PLAN.items():
        out = tmp_path / f"fiducial_{d}.json"
        code = main(
            ["sic-search", "--dim", str(d), "--restarts", str(restarts),
             "--seed", "1", "--out", str(out)]
        )
        assert code == 0, f"sic-search exited {code} for d={d}"
        data = json.loads(out.read_text())
        worst_pot = max(worst_pot, abs(data["frame_potential"] - sic_target(d)))
        worst_dev = max(worst_dev, data["max_sic_deviation"])
    elapsed = time.time() - t0
    ok = worst_pot < 1e-8 and worst_dev < 1e-8 and elapsed < 120.0
    report(
        1,
        ok,
        f"d=2..6 search: |potential - target| <= {worst_pot:.2e}, "
        f"max SIC deviation <= {worst_dev:.2e}, runtime {elapsed:.1f}s (< 120s)",
    )


@pytest.fixture(scope="module")
def urgleichung_sweep():
    """10^3 random (state, POVM) pairs per dimension against both references."""
    t0 = time.time()
    worst = {"sic": 0.0, "random": 0.0, "specialization": 0.0}
    for d in SWEEP_DIMS:
        refs = {"sic": sic_reference(d), "random": random_reference(d, seed=d)}
        for t in range(SWEEP_TRIALS):
            rho, povm = random_ic_inputs(d, 100_000 * d + 3 * t)
            q_true = born_probabilities(rho, povm)
            for kind, ref in refs.items():
                p = state_to_prob(ref, rho)
                r = povm_to_cond(ref, povm)
                q = urgleichung_general(ref, p, r)
                worst[kind] = max(
                    worst[kind], float(np.max(np.abs(q.values - q_true.values)))
                )
                if kind == "sic":
                    q_s = urgleichung_sic(d, p, r)
                    worst["specialization"] = max(
                        worst["specialization"],
                        float(np.max(np.abs(q_s.values - q.values))),
                    )
    worst["elapsed"] = time.time() - t0
    return worst


def test_criterion_2_urgleichung_equivalence(urgleichung_sweep):
    dev = max(urgleichung_sweep["sic"], urgleichung_sweep["random"])
    elapsed = urgleichung_sweep["elapsed"]
    ok = dev < 1e-9 and elapsed < 60.0
    report(
        2,
        ok,
        f"{SWEEP_TRIALS} pairs x d={SWEEP_DIMS}: max |q - tr(rho F)| = "
        f"{dev:.2e} (sic {urgleichung_sweep['sic']:.2e}, random "
        f"{urgleichung_sweep['random']:.2e}), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_sic_specialization(urgleichung_sweep):
    dev = urgleichung_sweep["specialization"]
    ok = dev < 1e-10
    report(
        3,
        ok,
        f"general vs (d+1)p - 1/d form on the same inputs: max gap {dev:.2e}",
    )


def test_criterion_4_classicality_gap():
    ref = sic_reference(2)
    plus = validate_density(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    x_povm = direction_povm(0.0, plane="xy")
    gap = classicality_gap(ref, plus, x_povm)
    mixed_gap = classicality_gap(ref, validate_density(np.eye(2) / 2), x_povm)
    ok = abs(gap - 1.0 / 3.0) < 1e-9 and mixed_gap < 1e-10
    report(
        4,
        ok,
        f"|+> with x measurement: gap = {gap:.12f} (target 1/3), "
        f"maximally mixed: gap = {mixed_gap:.2e}",
    )


def test_criterion_5_coin_toss_concentration():
    value = binomial_interval_prob(100, 0.5, 30, 70)
    exact = sum(
        Fraction(comb(100, k), 2**100) for k in range(30, 71)
    )
    exact_ok = abs(value - 0.999968) < 1e-6 and abs(value - float(exact)) < 1e-12

    hits = sum(
        30 <= sample_outcomes([0.5, 0.5], 100, seed).counts[0] <= 70
        for seed in range(1000)
    )
    failures = 1000 - hits
    # 5-sigma consistency: largest k with P(K >= k) above the one-sided
    # 5-sigma tail (2.87e-7) for K ~ Binomial(1000, 1 - exact). The tail
    # values sit orders of magnitude apart, so float precision decides this
    # safely (P(>=3) ~ 5.4e-6, P(>=4) ~ 4.3e-8).
    miss = float(1 - exact)
    max_failures = 0
    while sum(
        comb(1000, i) * miss**i * (1 - miss) ** (1000 - i)
        for i in range(max_failures + 1, 1001)
    ) >= 2.87e-7:
        max_failures += 1
    sweep_ok = failures <= max_failures
    report(
        5,
        exact_ok and sweep_ok,
        f"P(30<=h<=70) = {value:.7f} (exact {float(exact):.7f}); sweep: "
        f"{failures}/1000 seeds outside the window (5-sigma cap {max_failures})",
    )


def _random_direction_family(n_settings, seed):
    rng = np.random.default_rng(seed)
    return family(
        [f"s{i}" for i in range(n_settings)],
        [
            direction_povm(t, plane=("xy" if flip else "zx"))
            for t, flip in zip(
                rng.uniform(0, 2 * np.pi, n_settings),
                rng.integers(0, 2, n_settings),
            )
        ],
    )


def test_criterion_6_correlations():
    table = canonical_chsh_table()
    chsh = chsh_value(table)
    chsh_ok = abs(chsh - 2 * np.sqrt(2)) < 1e-9

    worst_ns = no_signalling_check(table)
    for seed in range(200):
        psi = random_pure_state(4, 5000 + seed)
        t = correlation_table(
            psi,
            _random_direction_family(2, 6000 + seed),
            _random_direction_family(2, 7000 + seed),
        )
        worst_ns = max(worst_ns, no_signalling_check(t))
    ns_ok = worst_ns < 1e-10

    bound = lhv_chsh_bound()
    worst_lhv = 0.0
    rng = np.random.default_rng(99)
    for _ in range(200):
        n_hidden = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(n_hidden))
        r_a = rng.dirichlet(np.ones(2), size=(2, n_hidden))
        r_b = rng.dirichlet(np.ones(2), size=(2, n_hidden))
        probs = {}
        for ia, a in enumerate(("a1", "a2")):
            for ib, b in enumerate(("b1", "b2")):
                joint = np.einsum("ix,iy->ixy", r_a[ia], r_b[ib]).reshape(n_hidden, 4)
                probs[(a, b)] = classical_law(p, make_cond_prob(joint)).values.reshape(2, 2)
        worst_lhv = max(
            worst_lhv, chsh_value(make_table(probs))
        )
    lhv_ok = worst_lhv <= bound + 1e-10

    report(
        6,
        chsh_ok and ns_ok and lhv_ok,
        f"singlet CHSH = {chsh:.12f} (target 2*sqrt(2)); worst no-signalling "
        f"{worst_ns:.2e}; classical-law tables max CHSH {worst_lhv:.6f} "
        f"<= oracle bound {bound}",
    )


def test_criterion_7_spin32_embedding():
    worst = 0.0
    for seed in range(100):
        psi = random_pure_state(4, 8000 + seed)
        fam_a = _random_direction_family(2, 9000 + seed)
        fam_b = _random_direction_family(2, 10_000 + seed)
        direct = correlation_table(psi, fam_a, fam_b)
        embedded = embedded_correlation_table(psi, fam_a, fam_b)
        for a in fam_a.settings:
            for b in fam_b.settings:
                worst = max(
                    worst,
                    float(np.max(np.abs(direct.block(a, b) - embedded.block(a, b)))),
                )
    ok = worst < 1e-12
    report(7, ok, f"100 random settings: max entry-wise difference {worst:.2e}")


def test_criterion_8_steering():
    z = projector_povm(np.eye(2))
    x = projector_povm(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    rep = steering_ensembles(phi_plus(), z, x)
    fids = [
        float(np.real(np.trace(r1.matrix @ r2.matrix)))
        for _, r1 in rep.ensembles[0]
        for _, r2 in rep.ensembles[1]
    ]
    fid_dev = max(abs(f - 0.5) for f in fids)
    marg_dev = float(
        np.max(np.abs(rep.marginals[0].matrix - rep.marginals[1].matrix))
    )
    ok = (
        len(rep.ensembles[0]) == 2
        and len(rep.ensembles[1]) == 2
        and fid_dev < 1e-10
        and marg_dev < 1e-12
        and not rep.no_steering
    )
    report(
        8,
        ok,
        f"phi+ with z/x: all 4 cross-fidelities within {fid_dev:.2e} of 1/2, "
        f"marginal deviation {marg_dev:.2e}",
    )


def test_criterion_9_manifest_reproducibility(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plus = validate_density(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    (tmp_path / "state.json").write_text(
        serialize.dumps(serialize.operator_payload(plus))
    )
    (tmp_path / "povm.json").write_text(
        serialize.dumps(serialize.povm_payload(direction_povm(0.0)))
    )
    (tmp_path / "probs.json").write_text(serialize.dumps({"values": [0.5, 0.5]}))

    runs = [
        (
            ["sic-search", "--dim", "2", "--restarts", "5", "--seed", "1",
             "--out", "fid.json"],
            "fid.json",
            ["fid.json"],
        ),
        (
            ["born-check", "--dim", "2", "--trials", "20", "--seed", "3",
             "--report", "bc.json"],
            "bc.json",
            ["bc.json"],
        ),
        (
            ["classical-gap", "--state", "state.json", "--povm", "povm.json",
             "--report", "gap.json"],
            "gap.json",
            ["gap.json"],
        ),
        (
            ["bell", "--state", "singlet", "--chsh", "--simulate", "1000",
             "--seed", "2", "--table-csv", "bell.csv", "--report", "bell.json"],
            "bell.json",
            ["bell.json", "bell.csv"],
        ),
        (
            ["steer", "--state", "phi+", "--basis-a", "z", "--basis-b", "x",
             "--report", "steer.json"],
            "steer.json",
            ["steer.json"],
        ),
        (
            ["simulate", "--probs", "probs.json", "--n", "200", "--seed", "6",
             "--out", "counts.json"],
            "counts.json",
            ["counts.json"],
        ),
        (
            ["interval", "100", "0.5", "30", "70", "--out", "interval.json"],
            "interval.json",
            ["interval.json"],
        ),
    ]
    mismatches = []
    for argv, manifest_file, outputs in runs:
        assert main(argv) == 0, f"command failed: {argv}"
        before = {
            f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in outputs
        }
        assert main(["rerun", manifest_file]) == 0
        for f in outputs:
            after = hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            if after != before[f]:
                mismatches.append(f)
    ok = not mismatches
    report(
        9,
        ok,
        f"{len(runs)} commands re-run from their manifests: "
        + ("all output files byte-identical" if ok else f"changed: {mismatches}"),
    )
