"""The three workloads: argv lists, generated input files and output oracles.

Every workload is a list of probrep CLI invocations made from the workload
seed alone. The seed changes the data (angles, states, search seeds,
interval positions) but not the amount of work in each invocation, so runs
on different seeds measure the same thing. Inputs are written before timing
starts. Each invocation carries a check that compares its output files with
a computation done here, independently of probrep.
"""

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

import numpy as np

# Oracle tolerances.
EXACT_TOL = 1e-12        # closed-form probabilities, correlators, CHSH, marginals
RULE_TOL = 1e-10         # probability rule through a transfer-matrix inverse
INTERVAL_REL_TOL = 1e-10  # relative to the exact binomial sum, as in the unit tests
SIGMAS = 7.0             # sampled counts must lie within this many standard deviations
REFERENCE_COND_CAP = 1e4  # generated file-fed references are redrawn above this
RANDOM_REFERENCE_COND_CAP = 1e6  # born-check --reference random seeds kept below this

# A known defect of `interval`: from n = 1e5 on, the log-space sum is 1.4e-10
# (n = 1e5) to 5.7e-10 (n = 1e6) off, relative, and can exceed 1. Such an
# output still fails the check above and is reported, but as a KnownDefect,
# apart from the failures, as long as its error stays within this envelope.
# An error outside it is an ordinary failure.
KNOWN_DEFECT_MIN_N = 100_000
KNOWN_DEFECT_REL_TOL = 1e-8


class KnownDefect(str):
    """A problem caused by a program defect that was known when the benchmark was defined."""


@dataclass
class Invocation:
    label: str
    argv: List[str]           # arguments after `probrep`
    outputs: List[str]        # files it writes, relative to the work directory
    check: Callable           # check(files, before) -> list of problems (str or KnownDefect)

SIZES = {
    "full": {
        "born-sweep": {"dims": tuple(range(2, 9)), "trials": 300},
        "sic-search": {"dims": tuple(range(4, 9)), "per_dim": 3, "restarts": 100},
        "experiments": {"gap": 7, "bell": 7, "steer": 5, "simulate": 5, "rerun": 3,
                        "shots": 1_000_000, "draws": 2_000_000, "heavy_interval": 1_000_000},
    },
    "tiny": {
        "born-sweep": {"dims": (2, 4), "trials": 3},
        "sic-search": {"dims": (4, 5), "per_dim": 1, "restarts": 3},
        "experiments": {"gap": 2, "bell": 2, "steer": 2, "simulate": 1, "rerun": 1,
                        "shots": 1000, "draws": 1000, "heavy_interval": 2000},
    },
}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _pairs(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [_pairs(row) for row in a]


def _complex(pairs):
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _write_json(work, rel, payload):
    (work / rel).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return rel


def _hermitize(m):
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _inv_sqrt(s):
    w, v = np.linalg.eigh(s)
    return (v / np.sqrt(w)) @ v.conj().T


def _density(rng, d):
    g = _complex_normal(rng, (d, int(rng.integers(1, d + 1))))
    m = _hermitize(g @ g.conj().T)
    return m / np.real(np.trace(m))


def _povm(rng, d, n):
    g = _complex_normal(rng, (n, d, d))
    parts = _hermitize(g @ g.conj().swapaxes(1, 2))
    w = _inv_sqrt(parts.sum(axis=0))
    return _hermitize(w @ parts @ w)


def _rank1_reference(rng, d):
    """d^2 whitened rank-1 elements with a well-conditioned transfer matrix."""
    while True:
        v = _complex_normal(rng, (d * d, d))
        v = v @ _inv_sqrt(np.einsum("ai,aj->ij", v, v.conj())).T
        els = np.einsum("ai,aj->aij", v, v.conj())
        proj = els / np.real(np.einsum("aii->a", els))[:, None, None]
        transfer = np.real(np.einsum("iab,kba->ik", els, proj))
        if np.linalg.cond(transfer) <= REFERENCE_COND_CAP:
            return els


def _unitary(rng, d):
    q, r = np.linalg.qr(_complex_normal(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _basis_povm(rng, d):
    u = _unitary(rng, d)
    return np.einsum("ik,jk->kij", u, u.conj())


def _report(problems, files, rel):
    """The parsed JSON output `rel`, or None with the problem recorded."""
    if rel not in files:
        problems.append(f"missing output {rel}")
        return None
    return json.loads(files[rel].decode("utf-8"))


# ---------------------------------------------------------------------------
# born-sweep
# ---------------------------------------------------------------------------

_SCREEN = """
import json, sys
from probrep.born import random_reference
from probrep.errors import ProbrepError
chosen = {}
for dim, seeds in json.loads(sys.argv[1]):
    for seed in seeds:
        try:
            ok = random_reference(dim, seed).condition_number <= float(sys.argv[2])
        except ProbrepError:
            ok = False
        if ok:
            chosen[str(dim)] = seed
            break
print(json.dumps(chosen))
"""


def screen_random_reference_seeds(candidates, env):
    """First seed per dimension whose random reference is well conditioned.

    Random rank-1 references are ill-conditioned for a few percent of seeds,
    and born-check then rightly refuses them (exit 1) or loses accuracy. The
    screen runs once, before timing, in a separate process.
    """
    out = subprocess.run(
        [sys.executable, "-c", _SCREEN, json.dumps(candidates), repr(RANDOM_REFERENCE_COND_CAP)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    chosen = {int(k): v for k, v in json.loads(out.stdout).items()}
    missing = [d for d, _ in candidates if d not in chosen]
    if missing:
        raise RuntimeError(f"no well-conditioned random reference among the candidates for d={missing}")
    return chosen


def born_sweep(seed, size, work, env):
    cfg = SIZES[size]["born-sweep"]
    rng = random.Random(f"born-sweep:{seed}")
    plan = [(d, ref, rng.randrange(10**6)) for d in cfg["dims"] for ref in ("sic", "random")]
    candidates = [[d, [s] + [rng.randrange(10**6) for _ in range(40)]]
                  for d, ref, s in plan if ref == "random"]
    chosen = screen_random_reference_seeds(candidates, env)
    invocations = []
    for d, ref, s in plan:
        if ref == "random":
            s = chosen[d]
        report = f"out/born_d{d}_{ref}.json"
        argv = ["born-check", "--dim", str(d), "--trials", str(cfg["trials"]),
                "--seed", str(s), "--reference", ref, "--report", report]
        invocations.append(Invocation(f"born-check d={d} {ref}", argv, [report],
                                      _born_check_oracle(report, cfg["trials"])))
    return invocations


def _born_check_oracle(report, trials):
    def check(files, before):
        problems = []
        rep = _report(problems, files, report)
        if rep is None:
            return problems
        if rep.get("passed") is not True:
            problems.append(f"passed is {rep.get('passed')!r}, max deviation {rep.get('max_deviation')!r}")
        if rep.get("trials") != trials:
            problems.append(f"trials {rep.get('trials')!r} != {trials}")
        return problems

    return check


# ---------------------------------------------------------------------------
# sic-search
# ---------------------------------------------------------------------------


def sic_overlaps(phi):
    """|<phi| X^j Z^k |phi>|^2 for every (j, k) != (0, 0), computed directly."""
    d = phi.shape[0]
    omega = np.exp(2j * np.pi * np.arange(d) / d)
    out = []
    for j in range(d):
        for k in range(d):
            if j == 0 and k == 0:
                continue
            moved = np.roll(omega**k * phi, j)
            out.append(abs(np.vdot(phi, moved)) ** 2)
    return np.array(out)


def sic_search(seed, size, work, env):
    cfg = SIZES[size]["sic-search"]
    rng = random.Random(f"sic-search:{seed}")
    invocations = []
    for d in cfg["dims"]:
        for i in range(cfg["per_dim"]):
            s = rng.randrange(10**6)
            out = f"out/fiducial_d{d}_{i}.json"
            argv = ["sic-search", "--dim", str(d), "--restarts", str(cfg["restarts"]),
                    "--seed", str(s), "--out", out]
            invocations.append(Invocation(f"sic-search d={d}", argv, [out],
                                          _sic_oracle(out, d, s, cfg["restarts"])))
    return invocations


def _sic_oracle(out, d, seed, restarts):
    def check(files, before):
        problems = []
        rep = _report(problems, files, out)
        if rep is None:
            return problems
        tol = float(rep["manifest"]["params"]["tol"])
        phi = _complex(rep["vector"])
        target = (d - 1) / (d + 1)
        c2 = sic_overlaps(phi / np.linalg.norm(phi))
        deviation = float(np.max(np.abs(c2 - 1 / (d + 1))))
        potential = float(np.sum(c2**2))
        if rep.get("certified") is not True:
            problems.append("not certified")
        if phi.shape != (d,) or abs(np.linalg.norm(phi) - 1) > EXACT_TOL:
            problems.append(f"vector is not a unit vector in dimension {d}")
        if not deviation < tol:
            problems.append(f"recomputed SIC deviation {deviation:.3e} >= {tol}")
        if not abs(potential - target) <= tol or not abs(rep["frame_potential"] - target) <= tol:
            problems.append(f"frame potential {rep['frame_potential']!r} (recomputed {potential!r}) "
                            f"not within {tol} of {target!r}")
        if rep.get("restarts_used") != restarts or rep.get("seed") != seed:
            problems.append("seed or restarts not recorded as requested")
        return problems

    return check


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _classical_gap(nrng, work, i, d, ref):
    rho = _density(nrng, d)
    state = _write_json(work, f"in/state_{i}.json", {"dim": d, "matrix": _pairs(rho)})
    povm_els = _povm(nrng, d, int(nrng.integers(2, d + 4)))
    povm = _write_json(work, f"in/povm_{i}.json", {"dim": d, "elements": [_pairs(e) for e in povm_els]})
    if ref == "file":
        ref_els = _rank1_reference(nrng, d)
        ref_arg = _write_json(work, f"in/reference_{i}.json",
                              {"dim": d, "elements": [_pairs(e) for e in ref_els], "sic_certified": False})
    else:
        ref_els, ref_arg = None, "sic"
    report = f"out/gap_{i}.json"
    argv = ["classical-gap", "--state", state, "--povm", povm, "--reference", ref_arg, "--report", report]

    born = np.real(np.einsum("ij,aji->a", rho, povm_els))
    if ref_els is None:
        # For any SIC, q_quantum(j) = (d+1) q_classical(j) - tr(F_j).
        classical = (born + np.real(np.einsum("aii->a", povm_els))) / (d + 1)
    else:
        proj = ref_els / np.real(np.einsum("aii->a", ref_els))[:, None, None]
        p = np.real(np.einsum("ij,aji->a", rho, ref_els))
        r = np.real(np.einsum("jab,iba->ij", povm_els, proj))
        classical = p @ r

    def check(files, before):
        problems = []
        rep = _report(problems, files, report)
        if rep is None:
            return problems
        for key, want in (("q_quantum", born), ("q_classical", classical)):
            dev = float(np.max(np.abs(np.asarray(rep[key]) - want)))
            if not dev <= RULE_TOL:
                problems.append(f"{key} off by {dev:.3e}")
        gap = float(np.max(np.abs(born - classical)))
        if not abs(rep["gap"] - gap) <= RULE_TOL:
            problems.append(f"gap {rep['gap']!r} != {gap!r}")
        return problems

    return Invocation(f"classical-gap d={d} {ref}", argv, [report], check)


def _correlator(state, plane, a, b):
    if state == "singlet":
        return -math.cos(a - b)
    return math.cos(a + b) if plane == "xy" else math.cos(a - b)


def _bell(rng, i, state, plane, angles_a, angles_b, chsh, shots, canonical=False):
    report, table_csv, counts_csv = f"out/bell_{i}.json", f"out/bell_{i}_table.csv", f"out/bell_{i}_counts.csv"
    angles = ",".join(map(str, angles_a)) + ":" + ",".join(map(str, angles_b))
    seed = rng.randrange(10**6)
    argv = ["bell", "--state", state, "--angles", angles, "--plane", plane, "--simulate", str(shots),
            "--seed", str(seed), "--table-csv", table_csv, "--counts-csv", counts_csv, "--report", report]
    if chsh:
        argv.append("--chsh")
    rad_a = [math.radians(x) for x in angles_a]
    rad_b = [math.radians(x) for x in angles_b]
    corr = [[_correlator(state, plane, a, b) for b in rad_b] for a in rad_a]

    def check(files, before):
        problems = []
        rep = _report(problems, files, report)
        if rep is None:
            return problems
        table = rep["table"]
        blocks = {(blk["a"], blk["b"]): np.asarray(blk["p"]) for blk in table["blocks"]}
        sim = {(blk["a"], blk["b"]): blk for blk in rep["simulate"]["data_table"]["blocks"]}
        labels_a, labels_b = table["settings_a"], table["settings_b"]
        if (len(labels_a), len(labels_b)) != (len(angles_a), len(angles_b)):
            return problems + ["wrong number of settings"]
        worst = 0.0
        for ia, la in enumerate(labels_a):
            for ib, lb in enumerate(labels_b):
                e = corr[ia][ib]
                want = np.array([[1 + e, 1 - e], [1 - e, 1 + e]]) / 4
                worst = max(worst, float(np.max(np.abs(blocks[(la, lb)] - want))))
                blk = sim[(la, lb)]
                counts = np.asarray(blk["counts"])
                sd = np.sqrt(shots * want * (1 - want))
                if blk["n_trials"] != shots or int(counts.sum()) != shots:
                    problems.append(f"setting ({la},{lb}) has {int(counts.sum())} draws, expected {shots}")
                elif np.any(np.abs(counts - shots * want) > SIGMAS * sd + 1):
                    problems.append(f"setting ({la},{lb}) counts {counts.tolist()} far from {want.tolist()}")
        if not worst <= EXACT_TOL:
            problems.append(f"joint probabilities off the closed form by {worst:.3e}")
        if not rep["no_signalling"] <= EXACT_TOL:
            problems.append(f"no-signalling deviation {rep['no_signalling']!r}")
        if chsh:
            want = abs(corr[0][0] + corr[0][1] + corr[1][0] - corr[1][1])
            if canonical:
                want = 2 * math.sqrt(2)
            if not abs(rep["chsh"] - want) <= EXACT_TOL:
                problems.append(f"CHSH {rep['chsh']!r} != {want!r}")
        rows = [line.split(",") for line in files[counts_csv].decode().splitlines()
                if line and not line.startswith("#")][1:]
        csv_counts = {(a, b, int(x), int(y)): int(c) for a, b, x, y, c in rows}
        for (la, lb), blk in sim.items():
            for x, row in enumerate(blk["counts"]):
                for y, c in enumerate(row):
                    if csv_counts.get((la, lb, x, y)) != c:
                        problems.append(f"counts CSV disagrees with the report at ({la},{lb},{x},{y})")
        return problems

    return Invocation(f"bell {state} {plane} {len(angles_a)}x{len(angles_b)}", argv,
                      [report, table_csv, counts_csv], check)


def _steer(nrng, work, i, spec):
    state, basis_a, basis_b, dim_a, dim = spec
    if state in ("phi+", "singlet"):
        amp = {"phi+": np.array([1, 0, 0, 1]), "singlet": np.array([0, 1, -1, 0])}[state] / np.sqrt(2)
        state_arg = state
    else:
        amp = _complex_normal(nrng, dim)
        amp /= np.linalg.norm(amp)
        state_arg = _write_json(work, f"in/ket_{i}.json", {"dim": dim, "vector": _pairs(amp)})
    bases = []
    for j, b in enumerate((basis_a, basis_b)):
        if b == "file":
            els = _basis_povm(nrng, dim_a)
            b = _write_json(work, f"in/basis_{i}_{j}.json", {"dim": dim_a, "elements": [_pairs(e) for e in els]})
        bases.append(b)
    report = f"out/steer_{i}.json"
    argv = ["steer", "--state", state_arg, "--basis-a", bases[0], "--basis-b", bases[1], "--report", report]
    m = amp.reshape(dim_a, -1)
    rho_b = m.T @ m.conj()

    def check(files, before):
        problems = []
        rep = _report(problems, files, report)
        if rep is None:
            return problems
        for k, marginal in enumerate(rep["marginals"]):
            dev = float(np.max(np.abs(_complex(marginal) - rho_b)))
            if not dev <= EXACT_TOL:
                problems.append(f"marginal {k} off the partial trace by {dev:.3e}")
        if not rep["marginal_deviation"] <= EXACT_TOL:
            problems.append(f"marginals disagree by {rep['marginal_deviation']!r}")
        for k, ensemble in enumerate(rep["ensembles"]):
            total = sum(member["probability"] for member in ensemble)
            if not abs(total - 1) <= EXACT_TOL:
                problems.append(f"ensemble {k} probabilities sum to {total!r}")
        return problems

    return Invocation(f"steer {state} {basis_a}/{basis_b}", argv, [report], check)


def _simulate(rng, nrng, work, i, draws):
    k = int(nrng.integers(2, 65))
    w = nrng.random(k)
    w[nrng.choice(k, size=int(nrng.integers(0, k // 4 + 1)), replace=False)] = 0.0
    probs = w / w.sum()
    probs_file = _write_json(work, f"in/probs_{i}.json", {"values": probs.tolist()})
    seed = rng.randrange(10**6)
    out = f"out/counts_{i}.json"
    argv = ["simulate", "--probs", probs_file, "--n", str(draws), "--seed", str(seed), "--out", out]

    def check(files, before):
        problems = []
        rep = _report(problems, files, out)
        if rep is None:
            return problems
        counts = np.asarray(rep["counts"])
        if counts.shape != (k,) or int(counts.sum()) != draws or rep["n_trials"] != draws:
            return problems + [f"{int(counts.sum())} draws over {counts.shape} outcomes, expected {draws} over {k}"]
        if np.any(counts[probs == 0] != 0):
            problems.append("a zero-probability outcome was drawn")
        sd = np.sqrt(draws * probs * (1 - probs))
        if np.any(np.abs(counts - draws * probs) > SIGMAS * sd + 1):
            problems.append("counts far from the distribution")
        return problems

    return Invocation(f"simulate k={k}", argv, [out], check)


def _binomial_sum(n, lo, hi):
    """Exact sum of C(n, k) for lo <= k <= hi, through the shorter side."""
    def run(start, count):
        c, total = math.comb(n, start), 0
        for k in range(start, start + count):
            total += c
            c = c * (n - k) // (k + 1)
        return total

    width = hi - lo + 1
    if width <= lo + (n - hi):
        return run(lo, width)
    # complement: the lower tail [0, lo) and, by symmetry, the upper tail (hi, n]
    return (1 << n) - run(0, lo) - run(0, n - hi)


def exact_interval(n, p, lo, hi):
    """P(lo <= K <= hi) for K ~ Binomial(n, p) at the exact value of the float p."""
    if p == 0.5:
        return _binomial_sum(n, lo, hi) / (1 << n)
    pf = Fraction(p)
    return float(sum(math.comb(n, k) * pf**k * (1 - pf) ** (n - k) for k in range(lo, hi + 1)))


def _interval_queries(rng, heavy):
    """(n, p, lo, hi) queries: fixed n and width per slot, seeded position."""
    queries = []
    for n, width in ((10, 5), (100, 30), (1000, 120), (1000, 60)):
        p = rng.randrange(5, 96) / 100
        mid = int(n * p)
        lo = min(max(0, mid - rng.randrange(width + 1)), n - width)
        queries.append((n, p, lo, lo + width))
    for n, width in ((10_000, 400), (100_000, 2000)):
        lo = n // 2 - width // 2 + rng.randrange(-width // 4, width // 4 + 1)
        queries.append((n, 0.5, lo, lo + width))
    queries.append((100_000, 0.5, 0, 100_000))  # full support; the sum must not exceed 1
    queries.append((heavy, 0.5, rng.randrange(0, 41), heavy - rng.randrange(0, 41)))
    return queries


def _interval(i, query):
    n, p, lo, hi = query
    out = f"out/interval_{i}.json"
    argv = ["interval", str(n), repr(p), str(lo), str(hi), "--out", out]
    exact = exact_interval(n, p, lo, hi)

    def check(files, before):
        problems = []
        rep = _report(problems, files, out)
        if rep is None:
            return problems
        value = rep["probability"]
        if not 0.0 <= value <= 1.0:
            problems.append(f"P({lo} <= K <= {hi}) = {value!r} lies outside [0, 1]")
        error = abs(value - exact)
        if not error <= INTERVAL_REL_TOL * exact:
            problems.append(f"P({lo} <= K <= {hi}) = {value!r}, exact {exact!r} "
                            f"(relative error {error / exact:.2e})")
        known = n >= KNOWN_DEFECT_MIN_N and error <= KNOWN_DEFECT_REL_TOL * exact \
            and value <= 1.0 + KNOWN_DEFECT_REL_TOL
        return [KnownDefect(problem) for problem in problems] if known else problems

    return Invocation(f"interval n={n}", argv, [out], check)


def _rerun(source):
    target = source.outputs[0]

    def check(files, before):
        changed = [rel for rel in source.outputs if files.get(rel) != before.get(rel)]
        return [f"rerun changed the bytes of {rel}" for rel in changed]

    return Invocation(f"rerun {source.label}", ["rerun", target], list(source.outputs), check)


_STEER_SPECS = (
    ("phi+", "z", "x", 2, 4),
    ("singlet", "x", "y", 2, 4),
    ("ket", "file", "z", 2, 4),
    ("ket", "y", "file", 2, 6),
    ("ket", "file", "file", 3, 6),
    ("ket", "file", "x", 2, 8),
)


def experiments(seed, size, work, env):
    cfg = SIZES[size]["experiments"]
    rng = random.Random(f"experiments:{seed}")
    nrng = np.random.default_rng(rng.randrange(2**63))
    made = []
    for i in range(cfg["gap"]):
        d = (2, 3, 4)[i % 3]
        made.append(_classical_gap(nrng, work, i, d, "sic" if d < 4 and i % 2 == 0 else "file"))
    for i in range(cfg["bell"]):
        plane = ("xy", "zx")[i % 2]
        state = ("singlet", "phi+")[(i // 2) % 2]
        if i == 0:
            made.append(_bell(rng, i, "singlet", "xy", [90, 0], [45, 135], True, cfg["shots"], canonical=True))
        elif i < 3:
            made.append(_bell(rng, i, state, plane, rng.sample(range(360), 2),
                              rng.sample(range(360), 2), True, cfg["shots"]))
        else:
            made.append(_bell(rng, i, state, plane, rng.sample(range(360), 3),
                              rng.sample(range(360), 3), False, cfg["shots"]))
    for i in range(cfg["steer"]):
        made.append(_steer(nrng, work, i, _STEER_SPECS[i % len(_STEER_SPECS)]))
    for i in range(cfg["simulate"]):
        made.append(_simulate(rng, nrng, work, i, cfg["draws"]))
    for i, query in enumerate(_interval_queries(rng, cfg["heavy_interval"])):
        made.append(_interval(i, query))
    # Rerun the first command of fixed kinds, so the amount of work does not depend on the seed.
    kinds = ("classical-gap", "bell", "simulate")[:cfg["rerun"]]
    reruns = [_rerun(next(inv for inv in made if inv.argv[0] == kind)) for kind in kinds]
    rng.shuffle(made)
    return made + reruns


WORKLOADS = {
    "born-sweep": born_sweep,
    "sic-search": sic_search,
    "experiments": experiments,
}
