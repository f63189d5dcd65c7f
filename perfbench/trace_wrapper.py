"""Run one probrep CLI invocation with a span around every layer call.

Usage: python3 trace_wrapper.py SPANS_FILE INVOCATION_ID -- ARGV...

Times `import probrep.cli`, wraps the public functions listed in
layers.SPAN_GROUPS, calls probrep.cli.main(ARGV) and, at exit, writes the
spans it kept in memory to SPANS_FILE as JSON. Each span is
[group, function, start_ns, end_ns, parent index, raised, work], where
`work` is the group's work count for that call (restarts requested,
outcomes drawn, interval terms, bytes written) or 0. The program's own
files are not changed; its exit code is passed through.
"""

import fnmatch
import functools
import inspect
import json
import sys
from time import perf_counter_ns

from layers import IMPORT_GROUP, SPAN_GROUPS


def _restarts(bound, result):
    return int(bound.arguments["restarts"])


def _draws(bound, result):
    trials = result.n_trials
    return int(sum(trials.values())) if isinstance(trials, dict) else int(trials)


def _terms(bound, result):
    return int(bound.arguments["hi"]) - int(bound.arguments["lo"]) + 1


def _bytes(bound, result):
    return len(result.encode("utf-8")) if isinstance(result, str) else 0


# Work counted per call, by span group.
WORK = {
    "sic.search": _restarts,
    "sampling.draw": _draws,
    "sampling.interval": _terms,
    "serialize.write": _bytes,
}


class Tracer:
    def __init__(self, invocation):
        self.invocation = invocation
        self.spans = []
        self.stack = []
        self.restarts_run = 0
        self.fiducials = 0

    def record(self, group, name, start, end, raised=False, work=0):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([group, name, start, end, parent, int(raised), work])

    def wrap(self, group, fn):
        work = WORK.get(group)
        signature = inspect.signature(fn) if work else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [group, fn.__name__, perf_counter_ns(), 0, parent, 0, 0]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[3] = perf_counter_ns()
                tracer.stack.pop()
            if work:
                span[6] = work(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def count_restarts(self, fn):
        """Count calls of the per-restart minimizer without timing them."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.restarts_run += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap the span groups' functions wherever probrep exposes them."""
        modules = {n: m for n, m in sys.modules.items() if n == "probrep" or n.startswith("probrep.")}
        wrapped = {}
        for group, module_name, patterns in SPAN_GROUPS:
            module = modules[module_name]
            for name, obj in vars(module).items():
                if (callable(obj) and getattr(obj, "__module__", None) == module_name
                        and id(obj) not in wrapped
                        and any(fnmatch.fnmatchcase(name, p) for p in patterns)):
                    wrapped[id(obj)] = (obj, self.wrap(group, obj))
        sic = modules["probrep.sic"]
        minimize = getattr(sic, "_minimize_restart", None)
        if minimize is None:
            self.restarts_run = None
        else:
            wrapped[id(minimize)] = (minimize, self.count_restarts(minimize))
        search = wrapped[id(sic.sic_search)][1]
        cert_tol = sic.CERT_TOL

        @functools.wraps(search)
        def search_counting_fiducials(*args, **kwargs):
            candidate = search(*args, **kwargs)
            if candidate.max_sic_deviation < cert_tol:
                self.fiducials += 1
            return candidate

        wrapped[id(sic.sic_search)] = (sic.sic_search, search_counting_fiducials)
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(module, name, wrapped[id(obj)][1])

    def dump(self, path):
        data = {
            "invocation": self.invocation,
            "restarts_run": self.restarts_run,
            "fiducials": self.fiducials,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def main():
    spans_file, invocation, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_wrapper.py SPANS_FILE INVOCATION_ID -- ARGV...")
    tracer = Tracer(invocation)
    start = perf_counter_ns()
    raised = True
    try:
        import probrep.cli
        raised = False
    finally:
        tracer.record(IMPORT_GROUP, "probrep.cli", start, perf_counter_ns(), raised)
    tracer.install()
    try:
        return probrep.cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
