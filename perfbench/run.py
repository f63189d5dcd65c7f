"""End-to-end benchmark of the probrep CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ./src.
One client runs the workload's invocation list in a closed loop: each CLI
invocation is a subprocess, started when the previous one has exited. Whole
passes over the list repeat until S seconds have passed (at least
MIN_PASSES of them). Every invocation's output is checked against an
independent computation (workloads.py), and a sha256 digest of all output
files is taken per pass; passes of one run must agree on it. Outputs that
fail their check only by a defect known when the benchmark was defined
(workloads.KnownDefect) are printed as KNOWN DEFECT lines and counted apart.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
passes with passes that launch each invocation through trace_wrapper.py,
and prints the per-layer metrics of layers.PER_LAYER. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from layers import LAYERS, MOVES, PER_LAYER
from workloads import SIZES, WORKLOADS, KnownDefect

MIN_PASSES = 3            # untraced passes per --trace 0 run
MIN_TRACED_PASSES = 2     # traced and untraced passes each per --trace 1 run
PROBES_PER_PASS = 3       # bare-import probes before each untraced pass (setup_s)
IMPORTTIME_PROBES = 5     # `python -X importtime` probes per traced run
INVOCATION_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WRAPPER = HERE / "trace_wrapper.py"
WORK = HERE / ".work"


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(cmd, env, log):
    """Run one subprocess to completion: (seconds, exit code, peak RSS in MB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=WORK, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def log_tail(log, lines=3):
    text = Path(log).read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def output_digest():
    h = hashlib.sha256()
    out = WORK / "out"
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(per_pass):
    """Highest ladder percentile with >= 10 invocations beyond it in MIN_PASSES passes."""
    n = per_pass * MIN_PASSES
    for q in TAIL_LADDER:
        if n * (1 - q / 100.0) >= 10:
            return q
    return 50.0


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.times = []
        self.rss = []
        self.failures = []
        self.known_defects = []
        self.digest = None
        self.layers = None

    @property
    def wall(self):
        return sum(self.times)


def checked(inv, files, before):
    """The invocation's output problems; output the check cannot parse is one."""
    try:
        return inv.check(files, before)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        return [f"malformed output ({type(err).__name__}: {err})"]


def run_pass(invocations, env, traced):
    """One closed-loop pass: each invocation starts when the previous has exited."""
    record = Pass(traced)
    spans = WORK / "spans"
    before = {}
    totals = LayerTotals() if traced else None
    for index, inv in enumerate(invocations):
        if traced:
            span_file = spans / f"{index}.json"
            cmd = [sys.executable, str(WRAPPER), str(span_file), str(index), "--", *inv.argv]
        else:
            cmd = [sys.executable, "-m", "probrep.cli", *inv.argv]
        log = WORK / "invocation.log"
        elapsed, code, rss = spawn(cmd, env, log)
        record.times.append(elapsed)
        record.rss.append(rss)
        files = {rel: (WORK / rel).read_bytes() for rel in inv.outputs if (WORK / rel).is_file()}
        problems = [f"exit code {code}: {log_tail(log)}"] if code != 0 else checked(inv, files, before)
        before.update(files)
        if problems:
            known = all(isinstance(problem, KnownDefect) for problem in problems)
            (record.known_defects if known else record.failures).append(
                f"{inv.label}: {'; '.join(problems)}")
        if traced:
            totals.add(json.loads(span_file.read_text(encoding="utf-8")))
    record.digest = output_digest()
    record.layers = totals
    return record


class LayerTotals:
    """Per-group self time, calls, work and errors summed over one pass."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.errors = defaultdict(int)
        self.restarts_run = 0
        self.fiducials = 0

    def add(self, data):
        spans = data["spans"]
        covered = [0] * len(spans)
        for group, _name, start, end, parent, _raised, _work in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (group, _name, start, end, _parent, raised, work) in enumerate(spans):
            self.self_ns[group] += end - start - covered[i]
            self.calls[group] += 1
            self.work[group] += work
            self.errors[group.split(".")[0]] += raised
        restarts = data["restarts_run"]
        if restarts is None:  # no per-restart hook: take the restarts requested
            restarts = sum(span[6] for span in spans if span[0] == "sic.search")
        self.restarts_run += restarts
        self.fiducials += data["fiducials"]

    def counts(self):
        nonzero = [{k: v for k, v in d.items() if v} for d in (self.calls, self.work, self.errors)]
        return (*nonzero, self.restarts_run, self.fiducials)


def probe_import(env):
    elapsed, code, _ = spawn([sys.executable, "-c", "import probrep.cli"], env, WORK / "probe.log")
    if code != 0:
        raise RuntimeError(f"import probrep.cli failed: {log_tail(WORK / 'probe.log')}")
    return elapsed


def import_time(env):
    """Cumulative `python -X importtime` microseconds of the top-level probrep imports, in s."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import probrep.cli"],
                         cwd=WORK, env=env, capture_output=True, text=True, check=True, timeout=60)
    total = 0
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        name = parts[2]
        top_level = name.startswith(" ") and not name.startswith("  ")
        if top_level and (name.strip() == "probrep" or name.strip().startswith("probrep.")):
            total += int(parts[1])
    return total / 1e6


def check_program(env):
    """The CLI must import from this checkout's src; this also compiles its bytecode."""
    out = subprocess.run([sys.executable, "-c", "import probrep.cli; print(probrep.cli.__file__)"],
                         cwd=WORK, env=env, capture_output=True, text=True, timeout=60)
    location = Path(out.stdout.strip() or ".").resolve()
    if out.returncode != 0 or (ROOT / "src") not in location.parents:
        raise RuntimeError(f"probrep.cli does not import from {ROOT / 'src'}: {out.stderr.strip()[-300:]}")


def environment():
    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "load_generator": "one closed-loop client, one invocation at a time",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = platform.processor() or "unknown"
    try:
        import numpy as np

        info["numpy"] = np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (ImportError, KeyError, TypeError, AttributeError) as err:
        info.setdefault("numpy", "unknown")
        info["blas"] = f"unknown ({err})"
    return info


def untraced_metrics(passes, probes, per_pass):
    times = [t for p in passes for t in p.times]
    q = tail_percentile(per_pass)
    tail = percentile(times, q)
    metrics = {
        "wall_s": (median([p.wall for p in passes]), "s"),
        "cmd_p50_s": (median(times), "s"),
        "cmd_tail_s": (tail, "s"),
        "setup_s": (median(probes), "s"),
        "peak_rss_mb": (max(r for p in passes for r in p.rss), "MB"),
    }
    notes = {
        "wall_s": f"median of {len(passes)} passes of {per_pass} invocations",
        "cmd_p50_s": f"median of {len(times)} invocations",
        "cmd_tail_s": f"p{q:g} of {len(times)} invocations",
        "setup_s": f"median of {len(probes)} bare `import probrep.cli` subprocesses",
        "peak_rss_mb": f"largest of {len(times)} invocations",
    }
    return metrics, notes


def traced_metrics(untraced, traced, import_s):
    first = traced[0].layers
    values = {}
    for name, unit, _better, kind, key in PER_LAYER:
        if kind == "self":
            value = median([p.layers.self_ns[key] / 1e9 for p in traced])
        elif kind == "calls":
            value = first.calls[key]
        elif kind == "work":
            value = first.work[key]
        elif kind == "errors":
            value = first.errors[key]
        elif key == "importtime":
            value = import_s
        elif key == "known_defects":
            value = len(traced[0].known_defects)
        elif key == "restarts_per_fiducial":
            value = first.restarts_run / first.fiducials if first.fiducials else 0.0
        elif key == "overhead":
            base = median([p.wall for p in untraced])
            value = (median([p.wall for p in traced]) - base) / base
        else:
            raise KeyError(name)
        values[name] = (value, unit)
    return values


def measure(invocations, env, seconds, trace):
    passes, probes = [], []
    start = time.perf_counter()
    while True:
        untraced = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        enough = len(traced) >= MIN_TRACED_PASSES and len(untraced) >= MIN_TRACED_PASSES \
            if trace else len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - start >= seconds:
            return passes, probes
        if trace:
            passes.append(run_pass(invocations, env, traced=len(traced) < len(untraced)))
        else:
            probes.extend(probe_import(env) for _ in range(PROBES_PER_PASS))
            passes.append(run_pass(invocations, env, traced=False))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' shrinks every workload, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "probrep" / "cli.py").is_file():
        print(f"error: no probrep source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    for sub in ("in", "out", "spans"):
        (WORK / sub).mkdir(parents=True)
    env = child_env()
    try:
        check_program(env)
        invocations = WORKLOADS[args.workload](args.seed, args.size, WORK, env)
        import_s = median([import_time(env) for _ in range(IMPORTTIME_PROBES)]) if args.trace else None
        passes, probes = measure(invocations, env, args.seconds, args.trace)
    except (RuntimeError, subprocess.SubprocessError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    failures = [f for p in passes for f in p.failures]
    known_defects = [f for p in passes for f in p.known_defects]
    digests = [p.digest for p in passes]
    mismatched = sum(d != digests[0] for d in digests[1:])
    attempted = sum(len(p.times) for p in passes) + len(digests) - 1
    failed = sum(len(p.failures) for p in passes) + mismatched

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"passes untraced={len(untraced)} traced={len(traced)}, {len(invocations)} invocations per pass")
    print(f"output digest sha256:{digests[0]}" + (f" ({mismatched} passes differ)" if mismatched else ""))
    for failure in dict.fromkeys(failures):
        print(f"FAILED {failure}")
    for defect in dict.fromkeys(known_defects):
        print(f"KNOWN DEFECT {defect}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations: "
          f"{len(digests) - 1} digest comparisons, the rest invocations)")
    print(f"known_defects {len(known_defects)} operations (a defect known when the benchmark was "
          f"defined: reported, not counted in failed; see README)")

    if args.trace:
        metrics = traced_metrics(untraced, traced, import_s)
        for p in traced[1:]:
            if p.layers.counts() != traced[0].layers.counts():
                print(f"warning: traced counts differ between passes: {p.layers.counts()} != {traced[0].layers.counts()}")
        for layer in LAYERS:
            print(f"layer {layer} should move: {MOVES[layer]}")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    else:
        metrics, notes = untraced_metrics(untraced, probes, len(invocations))
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}  ({notes[name]})")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
