"""Emission of gap records (JSON/CSV) and streamed binary sample files."""

from __future__ import annotations

import csv
import json
import math
import struct
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

#: fixed CSV column order for gap records
CSV_COLUMNS = ["model", "graph_kind", "d", "N", "omega", "gap", "kappa",
               "dim", "degree", "sector", "eig_residual", "eig_condition", "method"]


def _scalar(v):
    if v is None:
        return None
    if isinstance(v, Fraction):
        return float(v)
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def graph_header(graph) -> dict:
    """The `graph` field every record carries: kind, dimension and side length."""
    return {"kind": graph.kind, "d": graph.d, "N": graph.N}


def exact_record(model: str, graph, omega, gap, kappa, dim, solve) -> dict:
    """Record for an exact diagonalization result; `solve` is its discrete.SolveReport."""
    return {
        "model": model,
        "graph": graph_header(graph),
        "omega": _scalar(omega),
        "gap": _scalar(gap),
        "kappa": _scalar(kappa),
        "dim": dim,
        "method": "exact",
        "solver": solve.solver,
        "nnz": solve.nnz,
        "eig_residual": solve.residual,
    }


def galerkin_record(model: str, graph, degree: int, sector: str, report,
                    assembly: str) -> dict:
    """Record for a polynomial-sector result; `report` is its galerkin.GalerkinGapReport."""
    return {
        "model": model,
        "graph": graph_header(graph),
        "omega": 1,
        "degree": degree,
        "sector": sector,
        "gap": _scalar(report.gap),
        "eig_residual": _scalar(report.eig_residual),
        "eig_condition": _scalar(report.eig_condition),
        "method": "galerkin",
        "assembly": assembly,
        "basis_size": report.kept_dim + report.deflated,
        "kept_dim": report.kept_dim,
        "deflated": report.deflated,
        # JSON only: CSV_COLUMNS does not carry them
        "blocks": report.blocks,
        "block_max": report.block_max,
    }


def mc_record(model: str, graph, omega, result) -> dict:
    diag = result.diagnostics
    return {
        "model": model,
        "graph": graph_header(graph),
        "omega": _scalar(omega),
        "gap": _scalar(result.estimate),
        "stderr": _scalar(result.stderr),
        "ci": [_scalar(result.ci_low), _scalar(result.ci_high)],
        "ess": _scalar(result.ess),
        "method": "mc-autocorr",
        **{k: diag[k] for k in ("events", "clipped_events", "rate_rows",
                                "observable_evals", "chain_states", "bootstrap_failures",
                                "block", "fit_lags", "fit_window")},
    }


def payload(config: dict, results: Sequence[dict], references: Sequence[str]) -> dict:
    """Top-level JSON document: run configuration, results, rule citations."""
    return {
        "config": {k: _scalar(v) for k, v in config.items()},
        "results": list(results),
        "provenance": {"references": sorted(set(references))},
    }


def write_json(out, doc: dict) -> None:
    json.dump(doc, out, indent=2, default=_scalar)
    out.write("\n")


def _flatten(rec: dict) -> dict:
    flat = dict(rec)
    g = flat.pop("graph", None)
    if g:
        flat["graph_kind"] = g["kind"]
        flat["d"] = g["d"]
        flat["N"] = g["N"]
    return flat


def write_csv(out, results: Sequence[dict]) -> None:
    """CSV with the documented gap-table column order, or inferred columns.

    Gap records (any record carrying a "gap" field) always use CSV_COLUMNS;
    other record kinds take their columns from the first record.
    """
    flat = [{k: _scalar(v) for k, v in _flatten(rec).items()} for rec in results]
    if flat and "gap" in flat[0]:
        columns = CSV_COLUMNS
    else:
        columns = list(flat[0].keys()) if flat else []
    writer = csv.DictWriter(out, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for row in flat:
        writer.writerow({k: row.get(k, "") for k in columns})


# ---------------------------------------------------------------------------
# streamed binary samples: one JSON header line, then little-endian frames of
# (time: float64, values: float64 x n_fields)
# ---------------------------------------------------------------------------

class SampleStreamWriter:
    def __init__(self, path, fields: Sequence[str], meta: Optional[dict] = None):
        self.fields = list(fields)
        self._fmt = struct.Struct("<" + "d" * (1 + len(self.fields)))
        self._fh = open(path, "wb")
        header = {"format": "gaplab-samples", "version": 1,
                  "fields": self.fields, "dtype": "<f8"}
        if meta:
            header["meta"] = {k: _scalar(v) for k, v in meta.items()}
        self._fh.write(json.dumps(header).encode() + b"\n")

    def write_frame(self, time: float, values: Sequence[float]) -> None:
        self._fh.write(self._fmt.pack(float(time), *map(float, values)))

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_sample_stream(path) -> tuple[dict, np.ndarray, np.ndarray]:
    """(header, times, values) from a streamed sample file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if header.get("format") != "gaplab-samples":
            raise ValueError(f"{path} is not a sample stream")
        n_fields = len(header["fields"])
        blob = fh.read()
    frame = struct.Struct("<" + "d" * (1 + n_fields))
    n = len(blob) // frame.size
    data = np.frombuffer(blob[:n * frame.size], dtype="<f8").reshape(n, 1 + n_fields)
    return header, data[:, 0].copy(), data[:, 1:].copy()
