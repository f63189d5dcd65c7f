"""Canonical JSON and CSV formats.

Complex numbers serialize as two-element arrays [re, im]; matrices are
row-major nested lists of those pairs. JSON is always written with sorted
keys and two-space indentation so identical data produces identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from . import born, correlations, sampling, sic
from .operators import (DensityOperator, Ket, Povm, _is_int, make_ket, make_povm,
                        validate_density)


def dumps(payload) -> str:
    """Canonical JSON; NaN and infinities raise ValueError (not valid RFC 8259 JSON)."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def complex_pairs(array: np.ndarray):
    """Nested [re, im] lists for a complex vector or matrix."""
    a = np.asarray(array, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def _numbers(data, ndim: int) -> np.ndarray:
    """A nested list of JSON numbers as a float array of ndim axes. A bool, a numeric
    string (numpy would convert both), a ragged list or another nesting depth:
    TypeError."""
    _check_numbers(data)
    try:
        a = np.asarray(data, dtype=float)
    except ValueError:
        raise TypeError("expected equal-length lists at each depth, got a ragged list") from None
    if a.ndim != ndim:
        raise TypeError(f"expected JSON numbers nested {ndim} deep, got {a.ndim} deep")
    return a


def _check_numbers(data) -> None:
    if isinstance(data, list):
        for item in data:
            _check_numbers(item)
    elif isinstance(data, bool) or not isinstance(data, (int, float)):
        raise TypeError(f"expected a JSON number, got {json.dumps(data)}")


def from_pairs(data, ndim: int) -> np.ndarray:
    """Nested [re, im] pairs as a complex array of ndim axes; another last axis: TypeError."""
    a = _numbers(data, ndim + 1)
    if a.shape[-1] != 2:
        raise TypeError(f"expected [re, im] pairs, got lists of {a.shape[-1]} numbers")
    return a[..., 0] + 1j * a[..., 1]


def ket_payload(ket: Ket) -> dict:
    return {"dim": ket.dim, "vector": complex_pairs(ket.amplitudes)}


def _check_dim_field(data: dict, found: int) -> None:
    stated = data["dim"]
    if not _is_int(stated):
        raise TypeError(f"field 'dim' must be a JSON integer, got {stated!r}")
    if stated != found:
        raise TypeError(f"field 'dim' says {stated} but the data has dimension {found}")


def ket_from_payload(data: dict) -> Ket:
    vec = from_pairs(data["vector"], 1)
    _check_dim_field(data, vec.shape[0])
    return make_ket(vec)


def operator_payload(rho: DensityOperator) -> dict:
    return {"dim": rho.dim, "matrix": complex_pairs(rho.matrix)}


def density_from_payload(data: dict) -> DensityOperator:
    m = from_pairs(data["matrix"], 2)
    _check_dim_field(data, m.shape[0])
    return validate_density(m)


def povm_payload(povm: Povm) -> dict:
    return {"dim": povm.dim, "elements": [complex_pairs(el) for el in povm.elements]}


def povm_from_payload(data: dict) -> Povm:
    els = from_pairs(data["elements"], 3)
    _check_dim_field(data, els.shape[-1])
    return make_povm(els)


def reference_payload(ref: born.ReferenceMeasurement) -> dict:
    payload = povm_payload(ref.elements)
    payload["sic_certified"] = bool(ref.sic_certified)
    return payload


def reference_from_payload(data: dict) -> born.ReferenceMeasurement:
    """Reference on a ket's orbit (a sic-search result has "vector"), or else from its POVM
    fields; make_reference recomputes "sic_certified", so no certification field is read."""
    if "vector" in data:
        return born.reference_from_fiducial(ket_from_payload(data))
    return born.make_reference(povm_from_payload(data))


def fiducial_payload(candidate: sic.FiducialCandidate) -> dict:
    return {
        **ket_payload(candidate.vector),
        "frame_potential": float(candidate.frame_potential),
        "max_sic_deviation": float(candidate.max_sic_deviation),
        "seed": candidate.seed,
        "restarts_used": candidate.restarts_used,
        "restart_index": candidate.restart_index,
    }


def prob_values_from_payload(data: dict) -> np.ndarray:
    return _numbers(data["values"], 1)


def _blocks_payload(table, blocks: dict, field: str, **extras) -> dict:
    """A table's settings and one JSON block per setting pair, in the map's (row-major
    setting) order: the block's cells under field, beside any per-block extras."""
    return {
        "settings_a": [str(a) for a in table.settings_a],
        "settings_b": [str(b) for b in table.settings_b],
        "blocks": [{"a": str(a), "b": str(b), field: block.tolist(), **extras}
                   for (a, b), block in blocks.items()],
    }


def table_payload(table: correlations.CorrelationTable) -> dict:
    return _blocks_payload(table, table.probs, "p")


def data_table_payload(dt: sampling.DataTable) -> dict:
    return {**_blocks_payload(dt, dt.counts, "counts", n_trials=dt.n_trials), "seed": dt.seed}


def _blocks_csv(blocks: dict, column: str, cell, manifest: dict) -> str:
    """CSV under a `# manifest=` line, the manifest as compact sorted-key JSON, and the
    header a,b,x,y,<column>: one row per cell of each block, in the map's (row-major
    setting) order and then outcome order, the value rendered by cell."""
    lines = [f"# manifest={json.dumps(manifest, sort_keys=True, separators=(',', ':'))}",
             f"a,b,x,y,{column}"]
    for (a, b), block in blocks.items():
        for (x, y), value in np.ndenumerate(block):
            lines.append(f"{a},{b},{x},{y},{cell(value)}")
    return "\n".join(lines) + "\n"


def table_csv(table: correlations.CorrelationTable, manifest: dict) -> str:
    """CSV rendering with header a,b,x,y,p (one row per joint outcome)."""
    return _blocks_csv(table.probs, "p", lambda v: repr(float(v)), manifest)


def data_table_csv(dt: sampling.DataTable, manifest: dict) -> str:
    """CSV rendering with header a,b,x,y,count (one row per joint outcome)."""
    return _blocks_csv(dt.counts, "count", int, manifest)


def steering_payload(report: correlations.SteeringReport) -> dict:
    def ensemble(members):
        return [
            {"probability": float(p), "state": complex_pairs(rho.matrix)}
            for p, rho in members
        ]

    return {
        "ensembles": [ensemble(e) for e in report.ensembles],
        "marginals": [complex_pairs(m.matrix) for m in report.marginals],
        "cross_fidelities": report.cross_fidelities.tolist(),
        "overlap": float(report.overlap),
        "no_steering": bool(report.no_steering),
    }
