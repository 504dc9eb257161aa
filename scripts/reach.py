"""Reach of the exact engine: zero-range on K4 at growing totals.

    python3 scripts/reach.py [--omegas 30,65,143] [--g {identity,constant-one}]
                             [--out reach.json]

Each total runs in a fresh process (one BLAS thread), so `ru_maxrss` is the
peak of that instance alone.  Prints one JSON object per instance: states,
stored entries of L (and the preflight estimate), seconds per layer
(enumerate, build, solve), the solver path, the zero-mode count, the
eigenpair residual, the gap (exactly 1 for linear rates g(k) = k on a
complete graph) and peak RSS in MB.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def cell(omega: int, g: str) -> dict:
    from gaplab import discrete
    from gaplab.models import ModelSpec, build_graph, rate_by_name

    model = ModelSpec("zero-range", g=rate_by_name(g))
    graph = build_graph("complete", N=4)
    t0 = perf_counter()
    states = discrete.enumerate_states(graph.n_sites, omega)
    t1 = perf_counter()
    gen = discrete.build_generator(model, graph, states)
    t2 = perf_counter()
    gap, kappa = discrete.gap_and_kappa(gen)
    t3 = perf_counter()
    report = gen.solve_report
    return {
        "case": f"zero-range/{g}/K4/om{omega}",
        "n": len(states),
        "nnz": report.nnz,
        "nnz_estimate": discrete.estimated_nnz(model, graph, omega),
        "enumerate_s": t1 - t0,
        "build_s": t2 - t1,
        "solve_s": t3 - t2,
        "solver": report.solver,
        "zero_modes": report.zero_modes,
        "eig_residual": report.residual,
        "gap": gap,
        "kappa": kappa,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--omegas", default="30,65,143")
    ap.add_argument("--g", choices=("identity", "constant-one"), default="identity")
    ap.add_argument("--out", default=None)
    ap.add_argument("--cell", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.cell is not None:
        print(json.dumps(cell(args.cell, args.g)))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    rows = []
    for omega in (int(v) for v in args.omegas.split(",")):
        out = subprocess.run([sys.executable, __file__, "--cell", str(omega), "--g", args.g],
                             env=env, check=True, capture_output=True, text=True).stdout
        rows.append(json.loads(out.splitlines()[-1]))
        print(json.dumps(rows[-1]), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
