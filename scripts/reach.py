"""Reach of the exact engine: one model on a complete graph at growing totals.

    python3 scripts/reach.py [--omegas 30,65,143] [--g {identity,constant-one}]
                             [--model {zero-range,simple-average}] [--N 4]
                             [--out reach.json]

Each total runs in a fresh process on one BLAS thread (scripts/runner.py),
so `ru_maxrss_mb` is the peak of that instance alone.  Prints one JSON object per instance: states,
stored entries of L (and the preflight estimate), seconds per layer
(enumerate, build, solve), the solver path, the zero-mode count, the
eigenpair residual, the Lanczos steps of the kappa solve (0 on the dense
path), the gap (exactly 1 for the zero-range model with linear rates
g(k) = k on a complete graph) and peak RSS in MB.  The default
is zero-range on K4; `--model simple-average --N 6` checks the conditional
average's assembly, whose blocks hold far more entries per state.
"""

from __future__ import annotations

import sys
from time import perf_counter

import runner


def cell(case: str, args) -> dict:
    from gaplab import discrete
    from gaplab.models import ModelSpec, build_graph, rate_by_name

    omega, g = int(case), args.g
    model = ModelSpec(args.model, g=rate_by_name(g))
    graph = build_graph("complete", N=args.N)
    t0 = perf_counter()
    states = discrete.enumerate_states(graph.n_sites, omega)
    t1 = perf_counter()
    gen = discrete.build_generator(model, graph, states)
    t2 = perf_counter()
    gap, kappa = discrete.gap_and_kappa(gen)
    t3 = perf_counter()
    report = gen.solve_report
    return {
        "case": f"{args.model}/{g}/K{args.N}/om{omega}",
        "n": len(states),
        "nnz": report.nnz,
        "nnz_estimate": discrete.estimated_nnz(model, graph, omega),
        "enumerate_s": t1 - t0,
        "build_s": t2 - t1,
        "solve_s": t3 - t2,
        "solver": report.solver,
        "zero_modes": report.zero_modes,
        "eig_residual": report.residual,
        "kappa_steps": report.kappa_steps,
        "gap": gap,
        "kappa": kappa,
    }


def options(ap) -> None:
    ap.add_argument("--omegas", default="30,65,143")
    ap.add_argument("--g", choices=("identity", "constant-one"), default="identity")
    ap.add_argument("--model", choices=("zero-range", "simple-average"), default="zero-range")
    ap.add_argument("--N", type=int, default=4)


def main(argv=None) -> int:
    return runner.run(__file__, __doc__, options, lambda args: args.omegas.split(","),
                      cell, argv)


if __name__ == "__main__":
    sys.exit(main())
