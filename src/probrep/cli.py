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
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, born, correlations, sampling, serialize, sic
from .errors import DimensionMismatch, NoConvergence, ProbrepError
from .operators import (BORN_CHECK_TOL, CERT_TOL, _check_draw_args, _require_positive,
                        check_dim, make_prob_vector, projector_povm)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on bad flags, per the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _manifest(command: str, params: dict) -> dict:
    return {"command": command, "params": params, "artifact_version": __version__}


def _manifest_line(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, separators=(",", ":"))


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


def _environment() -> dict:
    """What produced a result's bytes; static fields only, so a rerun on one machine matches."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "system": platform.system(), "machine": platform.machine()}


def _write_result(path: str, payload: dict, *others) -> None:
    """A JSON result beside its manifest's environment, written by _write after the others."""
    _write(*others, (path, serialize.dumps({**payload, "environment": _environment()})))


def _read(path: str, parse):
    """parse(JSON object in path).

    A top level or field of the wrong type, JSON nested too deeply to
    decode, or an integer too large for a float is a malformed input.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise TypeError(f"expected an object at the top level, got {type(data).__name__}")
        return parse(data)
    except (TypeError, AttributeError, RecursionError, OverflowError) as err:
        raise ValueError(f"malformed input file {path}: {err}") from err


def _builtin_state(name: str):
    if name == "phi+":
        return correlations.phi_plus()
    if name == "singlet":
        return correlations.singlet()
    return _read(name, serialize.ket_from_payload)


_BUILTIN_BASES = {
    "z": np.array([[1, 0], [0, 1]], dtype=complex),
    "x": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "y": np.array([[1, 1j], [1, -1j]], dtype=complex) / np.sqrt(2),
}


def _builtin_basis(name: str):
    if name in _BUILTIN_BASES:
        return projector_povm(_BUILTIN_BASES[name])
    return _read(name, serialize.povm_from_payload)


# ---------------------------------------------------------------------------
# command handlers (each takes the JSON-compatible params dict)
# ---------------------------------------------------------------------------


def run_sic_search(params: dict) -> int:
    dim = check_dim(params["dim"])
    _require_positive(params["tol"], "--tol")
    manifest = _manifest("sic-search", params)
    candidate = sic.sic_search(dim, seed=params["seed"], restarts=params["restarts"],
                               tol=params["tol"])
    certified = candidate.max_sic_deviation < params["tol"]
    payload = {"manifest": manifest, "certified": certified}
    payload.update(serialize.fiducial_payload(candidate))
    _write_result(params["out"], payload)
    print(
        f"dim {dim}: frame potential {candidate.frame_potential:.12f}, "
        f"max SIC deviation {candidate.max_sic_deviation:.3e}, "
        f"certified={certified} -> {params['out']}"
    )
    return 0 if certified else 2


def _reference_for(kind: str, dim: int, seed: int):
    if kind == "sic":
        return born.sic_reference(dim)
    if kind == "random":
        return born.random_reference(dim, seed)
    return _read(kind, serialize.reference_from_payload)


def run_born_check(params: dict) -> int:
    dim = check_dim(params["dim"])
    trials = params["trials"]
    seed = params["seed"]
    _check_draw_args(trials, "trials", seed)
    manifest = _manifest("born-check", params)
    ref = _reference_for(params["reference"], dim, seed)
    if ref.dim != dim:
        raise DimensionMismatch(f"--dim {dim} != reference dim {ref.dim}")
    worst_general, worst_sic = born.check_trials(ref, range(seed + 1, seed + 1 + trials))
    passed = worst_general < BORN_CHECK_TOL
    payload = {
        "manifest": manifest,
        "trials": trials,
        "reference": params["reference"],
        "reference_condition_number": float(ref.condition_number),
        "max_deviation": worst_general,
        "max_sic_vs_general": worst_sic,
        "tolerance": BORN_CHECK_TOL,
        "passed": passed,
    }
    _write_result(params["report"], payload)
    print(
        f"born-check dim {dim}, {trials} trials, reference {params['reference']}: "
        f"max deviation {worst_general:.3e} (tolerance {BORN_CHECK_TOL}) -> "
        f"{params['report']}"
    )
    return 0 if passed else 2


def run_classical_gap(params: dict) -> int:
    manifest = _manifest("classical-gap", params)
    rho = _read(params["state"], serialize.density_from_payload)
    povm = _read(params["povm"], serialize.povm_from_payload)
    ref = _reference_for(params["reference"], rho.dim, seed=0)
    gap, q_quantum, q_classical = born._gap_rules(ref, rho, povm)
    payload = {
        "manifest": manifest,
        "gap": gap,
        "q_quantum": [float(v) for v in q_quantum.values],
        "q_classical": [float(v) for v in q_classical.values],
    }
    _write_result(params["report"], payload)
    print(f"classicality gap {gap:.9f} -> {params['report']}")
    return 0


def _parse_angles(text: str):
    try:
        part_a, part_b = text.split(":")
        a = [float(v) * np.pi / 180.0 for v in part_a.split(",")]
        b = [float(v) * np.pi / 180.0 for v in part_b.split(",")]
    except ValueError as err:
        raise ValueError(
            f"--angles must look like 'A1,A2:B1,B2' in degrees, got {text!r}"
        ) from err
    return a, b


def run_bell(params: dict) -> int:
    manifest = _manifest("bell", params)
    line = _manifest_line(manifest)
    psi = _builtin_state(params["state"])
    angles_a, angles_b = _parse_angles(params["angles"])
    fam_a = correlations.angle_family(angles_a, plane=params["plane"])
    fam_b = correlations.angle_family(angles_b, plane=params["plane"])
    table = correlations.correlation_table(psi, fam_a, fam_b)

    payload = {
        "manifest": manifest,
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
    csvs = [(params["table_csv"], serialize.table_csv(table, manifest_line=line))]
    if params["simulate"] and params.get("counts_csv"):
        csvs.append((params["counts_csv"], serialize.data_table_csv(dt, manifest_line=line)))
    _write_result(params["report"], payload, *csvs)
    msg = f"bell table -> {params['table_csv']}, summary -> {params['report']}"
    if params["chsh"]:
        msg += f", CHSH = {payload['chsh']:.9f}"
    print(msg)
    return 0


def run_steer(params: dict) -> int:
    manifest = _manifest("steer", params)
    psi = _builtin_state(params["state"])
    basis_1 = _builtin_basis(params["basis_a"])
    basis_2 = _builtin_basis(params["basis_b"])
    report = correlations.steering_ensembles(psi, basis_1, basis_2)
    payload = {"manifest": manifest}
    payload.update(serialize.steering_payload(report))
    marg_gap = float(
        np.max(np.abs(report.marginals[0].matrix - report.marginals[1].matrix))
    )
    payload["marginal_deviation"] = marg_gap
    _write_result(params["report"], payload)
    print(
        f"steering overlap {report.overlap:.6f}, "
        f"no_steering={report.no_steering} -> {params['report']}"
    )
    return 0


def run_simulate(params: dict) -> int:
    manifest = _manifest("simulate", params)
    values = _read(params["probs"], serialize.prob_values_from_payload)
    q = make_prob_vector(values)
    counts = sampling.sample_outcomes(q, params["n"], params["seed"])
    payload = {
        "manifest": manifest,
        "counts": [int(c) for c in counts.counts],
        "n_trials": counts.n_trials,
        "seed": counts.seed,
    }
    _write_result(params["out"], payload)
    print(f"counts {list(map(int, counts.counts))} -> {params['out']}")
    return 0


def run_interval(params: dict) -> int:
    value = sampling.binomial_interval_prob(
        params["n"], params["p"], params["lo"], params["hi"]
    )
    payload = {
        "manifest": _manifest("interval", params),
        "probability": value,
    }
    if params.get("out"):
        _write_result(params["out"], payload)
    print(f"P({params['lo']} <= K <= {params['hi']}) = {value!r}")
    return 0


_HANDLERS = {
    "sic-search": run_sic_search,
    "born-check": run_born_check,
    "classical-gap": run_classical_gap,
    "bell": run_bell,
    "steer": run_steer,
    "simulate": run_simulate,
    "interval": run_interval,
}


def _embedded_manifest(data: dict):
    """The manifest a result file embeds, or None when it has none."""
    manifest = data.get("manifest")
    if not isinstance(manifest, dict) or "command" not in manifest:
        return None
    if not (isinstance(manifest["command"], str) and isinstance(manifest.get("params"), dict)):
        raise TypeError("the manifest's command is not a string or its params not an object")
    return manifest


def run_rerun(params: dict) -> int:
    manifest = _read(params["file"], _embedded_manifest)
    if manifest is None:
        raise ValueError(f"{params['file']} does not embed a manifest")
    version = manifest.get("artifact_version", "none")
    if version != __version__:
        raise ValueError(f"{params['file']} has artifact_version {version} and this is probrep "
                         f"{__version__}; rerun writes only over files of its own version")
    command = manifest["command"]
    if command not in _HANDLERS:
        raise ValueError(f"unknown command {command!r} in manifest")
    _check_params(params["file"], command, manifest["params"])
    written = manifest["params"].get("report", manifest["params"].get("out"))
    if written is None or os.path.realpath(params["file"]) != os.path.realpath(written):
        raise ValueError(f"{params['file']} is not {written}, the output its manifest names, "
                         f"as seen from here; rerun from the directory the file was written in")
    return _HANDLERS[command](manifest["params"])


def _check_params(path: str, command: str, params: dict) -> None:
    """Refuse a param the command has no flag for, or of a type its flag never gives.

    A flag gives its type= (str when it has none), bool for store_true, and
    None only where its default is None.
    """
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in sub.choices[command]._actions
             if not isinstance(a, argparse._HelpAction)}
    for key, value in params.items():
        flag = flags.get(key)
        if flag is None:
            raise ValueError(f"malformed input file {path}: {command} has no param {key!r}")
        kind = bool if isinstance(flag, argparse._StoreTrueAction) else flag.type or str
        if value is None and flag.default is None:
            continue
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ValueError(f"malformed input file {path}: param {key!r} of {command} must be "
                             f"{kind.__name__}, got {type(value).__name__}")


def build_parser() -> _Parser:
    parser = _Parser(prog="probrep", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sic-search", help="search for a SIC fiducial vector")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=CERT_TOL)
    p.add_argument("--out", default="fiducial.json")

    p = sub.add_parser("born-check", help="probability-rule vs Born-rule sweep")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reference", default="sic",
                   help="'sic', 'random', a reference JSON file or a sic-search result")
    p.add_argument("--report", default="born_check.json")

    p = sub.add_parser("classical-gap", help="quantum rule vs law of total probability")
    p.add_argument("--state", required=True, help="density-operator JSON file")
    p.add_argument("--povm", required=True, help="POVM JSON file")
    p.add_argument("--reference", default="sic", help="'sic', 'random' (seed 0, always), a "
                   "reference JSON file or a sic-search result")
    p.add_argument("--report", default="classical_gap.json")

    p = sub.add_parser("bell", help="two-qubit correlation table and CHSH")
    p.add_argument("--state", default="singlet", help="phi+, singlet, or a ket JSON file")
    p.add_argument(
        "--angles",
        default="90,0:45,135",
        help="'A1,A2,..:B1,B2,..' measurement angles in degrees",
    )
    p.add_argument("--plane", choices=("xy", "zx"), default="xy")
    p.add_argument("--chsh", action="store_true", help="evaluate the CHSH combination")
    p.add_argument("--simulate", type=int, default=0, metavar="N",
                   help="also sample N trials per setting")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--table-csv", dest="table_csv", default="bell_table.csv")
    p.add_argument("--counts-csv", dest="counts_csv", default=None,
                   help="with --simulate, also write the sampled counts as CSV")
    p.add_argument("--report", default="bell_summary.json")

    p = sub.add_parser("steer", help="conditioned ensembles of a bipartite state")
    p.add_argument("--state", default="phi+", help="phi+, singlet, or a ket JSON file")
    p.add_argument("--basis-a", dest="basis_a", default="z",
                   help="z, x, y, or a POVM JSON file")
    p.add_argument("--basis-b", dest="basis_b", default="x",
                   help="z, x, y, or a POVM JSON file")
    p.add_argument("--report", default="steering.json")

    p = sub.add_parser("simulate", help="sample outcome counts from a distribution")
    p.add_argument("--probs", required=True, help="JSON file with a 'values' list")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="counts.json")

    p = sub.add_parser("interval", help="binomial interval probability, within 1e-14 of the exact sum")
    p.add_argument("n", type=int)
    p.add_argument("p", type=float)
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--out", default=None)

    p = sub.add_parser("rerun", help="re-execute the manifest embedded in a result file")
    p.add_argument("file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # bad flags (1) or --help/--version (0)
        return int(exc.code or 0)
    command = args.command
    params = {k: v for k, v in vars(args).items() if k != "command"}
    handler = run_rerun if command == "rerun" else _HANDLERS[command]
    try:
        return handler(params)
    except NoConvergence as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"error: malformed JSON: {err}", file=sys.stderr)
        return 1
    except KeyError as err:
        print(f"error: missing field {err} in input file", file=sys.stderr)
        return 1
    except (ProbrepError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
