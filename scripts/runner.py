"""One fresh process per case, for the reach and event-rate scripts.

A script hands `run` its docstring, its own options, its cases and a
`cell(case, args)` that returns one JSON row.  Each case runs in a new
interpreter (the script itself, with a hidden `--cell CASE`) on one BLAS
thread, so `ru_maxrss_mb`, added to every row, is the peak of that case
alone and no two rows share a warm cache.  Every row also carries
`py_probe_s`, the time of bench/probe.py's fixed interpreter work taken
in the same process after the case, so that a row's times can be read
against the host's speed at the time.  A case that exits non-zero
becomes the row {"case", "error": its last stderr line, "exit_code"}, and
the run goes on to the next case; `run` then returns 1.  Rows print as
they arrive, and `--out FILE` writes them as one JSON list.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import runpy
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
#: the environment of every case: one BLAS thread and the repository's package
CELL_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "PYTHONPATH": str(ROOT / "src")}


def run(script: str, doc: str, add_options: Callable,
        cases: Callable[[argparse.Namespace], Iterable[str]],
        cell: Callable[[str, argparse.Namespace], dict], argv=None) -> int:
    """Parse `add_options` plus --out; run each case of `cases(args)` as `cell(case, args)`."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    add_options(ap)
    ap.add_argument("--out", default=None)
    ap.add_argument("--cell", default=None, help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    if args.cell is not None:
        row = cell(args.cell, args)
        row["ru_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # after the peak is read, so the probe's allocation stays out of it
        row["py_probe_s"] = runpy.run_path(str(ROOT / "bench" / "probe.py"))["py_probe"]()
        print(json.dumps(row))
        return 0
    env = dict(os.environ, **CELL_ENV)
    rows = []
    for case in cases(args):
        proc = subprocess.run([sys.executable, script, *argv, "--cell", case],
                              env=env, capture_output=True, text=True)
        if proc.returncode == 0:
            rows.append(json.loads(proc.stdout.splitlines()[-1]))
        else:
            error = (proc.stderr.strip().splitlines() or [""])[-1]
            rows.append({"case": case, "error": error, "exit_code": proc.returncode})
        print(json.dumps(rows[-1]), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=1) + "\n")
    return int(any("error" in row for row in rows))
