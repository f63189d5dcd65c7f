"""Command-line front end.

Every command is a pure function of its flags: randomness flows through
--seed (default 0), output is JSON/CSV with sorted keys, and each result
file embeds the manifest that produced it (a JSON one also the environment
that wrote it), so `probrep rerun FILE` regenerates it byte-for-byte on
the same numpy.

Exit codes: 0 success, 1 input/validation error, 2 numerical or
certification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

# Only errors runs at import; numpy loads with the first other layer a handler reads.
from . import __version__, born, correlations, operators, sampling, serialize, sic
from .errors import BORN_CHECK_TOL, CERT_TOL, DimensionMismatch, NoConvergence, ProbrepError


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on bad flags, per the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write(*files) -> None:
    """Write every (path, text) or none: each text goes to a temporary file beside
    its path, and the temporaries replace the paths only once all are written.
    Two paths that resolve to one file are refused before anything is written."""
    reals = [os.path.realpath(path) for path, _ in files]
    clash = [path for (path, _), real in zip(files, reals) if reals.count(real) > 1]
    if clash:
        raise ValueError(f"outputs {' and '.join(clash)} are one file; give each its own path")
    temps = [f"{path}.{i}.{os.getpid()}.tmp" for i, (path, _) in enumerate(files)]
    try:
        for tmp, (path, text) in zip(temps, files):
            if os.path.isdir(path):
                raise IsADirectoryError(f"{path} is a directory")
            try:
                Path(tmp).write_text(text, encoding="utf-8")
            except OSError as err:  # name the output, not its temporary
                raise OSError(err.errno, err.strerror, path) from None
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            Path(tmp).unlink(missing_ok=True)


def _not_a_number(literal: str):
    raise TypeError(f"{literal} is not a JSON number")


def _read(params: dict, flag: str, parse):
    """parse(JSON object in the file params[flag] names); parse is a function, or the name
    of one in serialize, looked up (running serialize and numpy) once the file holds one.

    A file that is also one of the command's outputs is refused, so that no
    run writes over its own input. Bytes that are not UTF-8, text that is not
    JSON, a top level or field of the wrong type, a missing field, a NaN or
    Infinity literal (not RFC 8259 JSON), JSON nested too deeply to decode, or
    an integer too large for a float is a malformed input, refused here by the
    file's name.
    """
    path = params[flag]
    # params hold only their own command's flags, so every command's outputs may be looked up
    outputs = [params[out.dest] for spec in COMMANDS.values() for out in spec.flags
               if out.role in ("output", "result") and params.get(out.dest)]
    if os.path.realpath(path) in map(os.path.realpath, outputs):
        raise ValueError(f"--{flag.replace('_', '-')} {path} is also an output of this "
                         f"command; give the output another path")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_not_a_number)
        if not isinstance(data, dict):
            raise TypeError(f"expected an object at the top level, got {type(data).__name__}")
        return (getattr(serialize, parse) if isinstance(parse, str) else parse)(data)
    except (json.JSONDecodeError, KeyError, UnicodeDecodeError, TypeError, AttributeError,
            RecursionError, OverflowError) as err:
        kind = {json.JSONDecodeError: "malformed JSON: ", KeyError: "missing field "}
        raise ValueError(f"malformed input file {path}: {kind.get(type(err), '')}{err}") from err


def _builtin_state(params: dict):
    if params["state"] == "phi+":
        return correlations.phi_plus()
    if params["state"] == "singlet":
        return correlations.singlet()
    return _read(params, "state", "ket_from_payload")


def _builtin_basis(params: dict, flag: str):
    if params[flag] in correlations.BASES:
        return operators.projector_povm(correlations.BASES[params[flag]])
    return _read(params, flag, "povm_from_payload")


# ---------------------------------------------------------------------------
# command handlers: each renders its outputs from its params (bell's CSVs also
# from the manifest) and writes nothing; _run writes them
# ---------------------------------------------------------------------------


class _Rendered(NamedTuple):
    """A command's JSON result (less its manifest and environment), stdout line,
    exit code and other (path, text) outputs."""

    payload: dict
    line: str
    code: int = 0
    others: tuple = ()


def run_sic_search(params: dict, manifest: dict) -> _Rendered:
    dim = operators.check_dim(params["dim"])
    operators._require_positive(params["tol"], "--tol")
    candidate = sic.sic_search(dim, seed=params["seed"], restarts=params["restarts"],
                               tol=params["tol"])
    certified = candidate.max_sic_deviation < params["tol"]
    return _Rendered(
        {"certified": certified, **serialize.fiducial_payload(candidate)},
        f"dim {dim}: frame potential {candidate.frame_potential:.12f}, "
        f"max SIC deviation {candidate.max_sic_deviation:.3e}, "
        f"certified={certified} -> {params['out']}",
        0 if certified else 2)


def _reference_for(params: dict, dim: int, seed: int):
    if params["reference"] == "sic":
        return born.sic_reference(dim)
    if params["reference"] == "random":
        return born.random_reference(dim, seed)
    return _read(params, "reference", "reference_from_payload")


def run_born_check(params: dict, manifest: dict) -> _Rendered:
    dim = operators.check_dim(params["dim"])
    trials = params["trials"]
    seed = params["seed"]
    operators._check_draw_args(trials, "trials", seed)
    ref = _reference_for(params, dim, seed)
    if ref.dim != dim:
        raise DimensionMismatch(f"--dim {dim} != reference dim {ref.dim}")
    worst_general, worst_sic = born.check_trials(ref, range(seed + 1, seed + 1 + trials))
    passed = worst_general < BORN_CHECK_TOL
    payload = {
        "trials": trials,
        "reference": params["reference"],
        "reference_condition_number": float(ref.condition_number),
        "max_deviation": worst_general,
        "max_sic_vs_general": worst_sic,
        "tolerance": BORN_CHECK_TOL,
        "passed": passed,
    }
    return _Rendered(
        payload,
        f"born-check dim {dim}, {trials} trials, reference {params['reference']}: "
        f"max deviation {worst_general:.3e} (tolerance {BORN_CHECK_TOL}) -> "
        f"{params['report']}",
        0 if passed else 2)


def run_classical_gap(params: dict, manifest: dict) -> _Rendered:
    rho = _read(params, "state", "density_from_payload")
    povm = _read(params, "povm", "povm_from_payload")
    ref = _reference_for(params, rho.dim, seed=0)
    gap, q_quantum, q_classical = born._gap_rules(ref, rho, povm)
    payload = {
        "gap": gap,
        "q_quantum": [float(v) for v in q_quantum.values],
        "q_classical": [float(v) for v in q_classical.values],
    }
    return _Rendered(payload, f"classicality gap {gap:.9f} -> {params['report']}")


def _parse_angles(text: str):
    try:
        part_a, part_b = text.split(":")
        a = [float(v) * math.pi / 180.0 for v in part_a.split(",")]
        b = [float(v) * math.pi / 180.0 for v in part_b.split(",")]
    except ValueError as err:
        raise ValueError(
            f"--angles must look like 'A1,A2:B1,B2' in degrees, got {text!r}"
        ) from err
    if not all(map(math.isfinite, a + b)):  # nan, inf, or past the float range once in radians
        raise ValueError(f"--angles {text!r} has a non-finite angle in radians")
    return a, b


def run_bell(params: dict, manifest: dict) -> _Rendered:
    if params["counts_csv"] and not params["simulate"]:
        raise ValueError("--counts-csv needs --simulate")
    psi = _builtin_state(params)
    angles_a, angles_b = _parse_angles(params["angles"])
    typed_a, typed_b = ([float(v) for v in side.split(",")]
                        for side in params["angles"].split(":"))
    fam_a = correlations.angle_family(angles_a, plane=params["plane"], degrees=typed_a)
    fam_b = correlations.angle_family(angles_b, plane=params["plane"], degrees=typed_b)
    table = correlations.correlation_table(psi, fam_a, fam_b)

    payload = {
        "state": params["state"],
        "no_signalling": correlations.no_signalling_check(table),
        "table": serialize.table_payload(table),
    }
    if params["chsh"]:
        payload["chsh"] = correlations.chsh_value(table)
    if params["simulate"]:
        dt = sampling.data_table_sim(table, params["simulate"], params["seed"])
        empirical = dt.empirical_table()
        payload["simulate"] = {
            "n_per_setting": params["simulate"],
            "seed": params["seed"],
            "data_table": serialize.data_table_payload(dt),
            "empirical_chsh": (
                correlations.chsh_value(empirical) if params["chsh"] else None
            ),
        }
    csvs = [(params["table_csv"], serialize.table_csv(table, manifest))]
    if params["counts_csv"]:
        csvs.append((params["counts_csv"], serialize.data_table_csv(dt, manifest)))
    msg = f"bell table -> {params['table_csv']}, summary -> {params['report']}"
    if params["chsh"]:
        msg += f", CHSH = {payload['chsh']:.9f}"
    return _Rendered(payload, msg, others=tuple(csvs))


def run_steer(params: dict, manifest: dict) -> _Rendered:
    psi = _builtin_state(params)
    basis_1 = _builtin_basis(params, "basis_a")
    basis_2 = _builtin_basis(params, "basis_b")
    report = correlations.steering_ensembles(psi, basis_1, basis_2)
    return _Rendered(
        serialize.steering_payload(report),
        f"steering overlap {report.overlap:.6f}, "
        f"no_steering={report.no_steering} -> {params['report']}")


def run_simulate(params: dict, manifest: dict) -> _Rendered:
    values = _read(params, "probs", "prob_values_from_payload")
    q = operators.make_prob_vector(values)
    counts = sampling.sample_outcomes(q, params["n"], params["seed"])
    payload = {
        "counts": [int(c) for c in counts.counts],
        "n_trials": counts.n_trials,
        "seed": counts.seed,
    }
    return _Rendered(payload, f"counts {list(map(int, counts.counts))} -> {params['out']}")


def run_interval(params: dict, manifest: dict) -> _Rendered:
    value = sampling.binomial_interval_prob(
        params["n"], params["p"], params["lo"], params["hi"]
    )
    return _Rendered({"probability": value},
                     f"P({params['lo']} <= K <= {params['hi']}) = {value!r}")


def _rerun(params: dict):
    """The (command, params) of the manifest that params["file"] embeds, once the file
    is found to be that command's JSON result, of this version, seen from where it was
    written. These checks are the parse that _read applies to the file."""
    path = params["file"]

    def parse(data: dict):
        manifest = data.get("manifest")
        if not isinstance(manifest, dict) or "command" not in manifest:
            raise ValueError(f"{path} does not embed a manifest")
        command = manifest["command"]
        if not (isinstance(command, str) and isinstance(manifest.get("params"), dict)):
            raise TypeError("the manifest's command is not a string or its params not an object")
        version = manifest.get("artifact_version", "none")
        if version != __version__:
            raise ValueError(f"{path} has artifact_version {version} and this is probrep "
                             f"{__version__}; rerun writes only over files of its own version")
        if command not in COMMANDS or COMMANDS[command].result is None:  # no result names rerun
            raise ValueError(f"unknown command {command!r} in manifest")
        _check_params(command, manifest["params"])
        written = manifest["params"][COMMANDS[command].result]
        if written is None or os.path.realpath(path) != os.path.realpath(written):
            raise ValueError(f"{path} is not {written}, the output its manifest names, as seen "
                             f"from here; rerun from the directory the file was written in")
        return command, manifest["params"]

    return _read(params, "file", parse)


def _check_params(command: str, params: dict) -> None:
    """Refuse params other than the command's flags, or a value its flag never gives:
    one of its type (bool for a switch) within its choices, or None where an optional
    flag's default is None. Each refusal is a TypeError, which _read reports by name."""
    flags = {flag.dest: flag for flag in COMMANDS[command].flags}
    for key in {**params, **flags}:  # each param, then each flag that has none
        flag = flags.get(key)
        if flag is None:
            raise TypeError(f"{command} has no param {key!r}")
        if key not in params:
            raise TypeError(f"{command} param {key!r} is missing")
        value = params[key]
        if value is None and flag.default is None and not flag.required:
            continue
        if not isinstance(value, flag.type) or (isinstance(value, bool) and flag.type is not bool):
            raise TypeError(f"param {key!r} of {command} must be {flag.type.__name__}, "
                            f"got {type(value).__name__}")
        if flag.choices and value not in flag.choices:
            raise TypeError(f"param {key!r} of {command} must be one of "
                            f"{', '.join(map(repr, flag.choices))}, got {value!r}")


class _Flag(NamedTuple):
    """One flag of a command: its name as typed (a positional's has no dashes), type
    (bool: a switch), default, help, choices and metavar, whether it must be given,
    and its role: "input" may name a file the command reads, "output" a file it
    writes, and "result" the JSON result file that embeds its manifest."""

    name: str
    type: type = str
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    required: bool = False
    role: str | None = None
    metavar: str | None = None

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


class _Command(NamedTuple):
    handler: Callable[[dict, dict], _Rendered] | None  # None for rerun, which renders nothing
    help: str
    flags: tuple

    @property
    def result(self) -> str | None:
        """The dest of the flag that names the command's JSON result (None for rerun)."""
        return next((flag.dest for flag in self.flags if flag.role == "result"), None)


#: Every command, its handler, help and flags, in the order that --help lists them.
COMMANDS = {
    "sic-search": _Command(run_sic_search, "search for a SIC fiducial vector", (
        _Flag("--dim", int, required=True),
        _Flag("--restarts", int, 20),
        _Flag("--seed", int, 0),
        _Flag("--tol", float, CERT_TOL),
        _Flag("--out", default="fiducial.json", role="result"),
    )),
    "born-check": _Command(run_born_check, "probability-rule vs Born-rule sweep", (
        _Flag("--dim", int, required=True),
        _Flag("--trials", int, 100),
        _Flag("--seed", int, 0),
        _Flag("--reference", default="sic", role="input",
              help="'sic', 'random', a reference JSON file or a sic-search result"),
        _Flag("--report", default="born_check.json", role="result"),
    )),
    "classical-gap": _Command(run_classical_gap, "quantum rule vs law of total probability", (
        _Flag("--state", required=True, role="input", help="density-operator JSON file"),
        _Flag("--povm", required=True, role="input", help="POVM JSON file"),
        _Flag("--reference", default="sic", role="input", help="'sic', 'random' (seed 0, "
              "always), a reference JSON file or a sic-search result"),
        _Flag("--report", default="classical_gap.json", role="result"),
    )),
    "bell": _Command(run_bell, "two-qubit correlation table and CHSH", (
        _Flag("--state", default="singlet", role="input",
              help="phi+, singlet, or a ket JSON file"),
        _Flag("--angles", default="90,0:45,135",
              help="'A1,A2,..:B1,B2,..' measurement angles in degrees; write "
              "--angles=-45,0:45,135 when the first angle is negative"),
        _Flag("--plane", default="xy", choices=("xy", "zx")),
        _Flag("--chsh", bool, False, help="evaluate the CHSH combination"),
        _Flag("--simulate", int, 0, metavar="N", help="also sample N trials per setting"),
        _Flag("--seed", int, 0),
        _Flag("--table-csv", default="bell_table.csv", role="output"),
        _Flag("--counts-csv", role="output",
              help="with --simulate, also write the sampled counts as CSV"),
        _Flag("--report", default="bell_summary.json", role="result"),
    )),
    "steer": _Command(run_steer, "conditioned ensembles of a bipartite state", (
        _Flag("--state", default="phi+", role="input", help="phi+, singlet, or a ket JSON file"),
        _Flag("--basis-a", default="z", role="input", help="z, x, y, or a POVM JSON file"),
        _Flag("--basis-b", default="x", role="input", help="z, x, y, or a POVM JSON file"),
        _Flag("--report", default="steering.json", role="result"),
    )),
    "simulate": _Command(run_simulate, "sample outcome counts from a distribution", (
        _Flag("--probs", required=True, role="input", help="JSON file with a 'values' list"),
        _Flag("--n", int, required=True),
        _Flag("--seed", int, 0),
        _Flag("--out", default="counts.json", role="result"),
    )),
    "interval": _Command(run_interval,
                         "binomial interval probability, within 1e-14 of the exact sum", (
        _Flag("n", int, required=True),
        _Flag("p", float, required=True),
        _Flag("lo", int, required=True),
        _Flag("hi", int, required=True),
        _Flag("--out", role="result"),
    )),
    "rerun": _Command(None, "re-execute the manifest embedded in a result file", (
        _Flag("file", required=True, role="input"),
    )),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="probrep", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for flag in spec.flags:
            kwargs = ({"action": "store_true"} if flag.type is bool else
                      {"type": flag.type, "choices": flag.choices, "metavar": flag.metavar})
            if flag.name.startswith("-"):  # argparse takes no default or required for a positional
                kwargs.update(default=flag.default, required=flag.required)
            p.add_argument(flag.name, help=flag.help, **kwargs)
    return parser


def _run(command: str, params: dict) -> int:
    """Render the command, write its outputs and its JSON result (which embeds the
    manifest and environment) all or none, print its line and return its exit code."""
    spec = COMMANDS[command]
    manifest = {"command": command, "params": params, "artifact_version": __version__}
    rendered = spec.handler(params, manifest)
    path = params[spec.result]
    result = [(path, serialize.dumps({**rendered.payload, "manifest": manifest,
                                      "environment": serialize.environment()}))] if path else []
    _write(*rendered.others, *result)
    print(rendered.line)
    return rendered.code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # bad flags (1) or --help/--version (0)
        return int(exc.code or 0)
    params = vars(args)
    command = params.pop("command")
    try:
        return _run(*_rerun(params)) if command == "rerun" else _run(command, params)
    except (ProbrepError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, NoConvergence) else 1


if __name__ == "__main__":
    sys.exit(main())
