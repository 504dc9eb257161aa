"""Gap and kappa solve times of the `exact` benchmark's cells.

    python3 scripts/solve_split.py [--rounds 7] [--out split.json]

Each cell of `EXACT_CELLS` in bench/workloads.py runs in a fresh process on
one BLAS thread (scripts/runner.py).  Its generator is built once; each
round then times `spectral_gap` (the gap solve alone) and `gap_and_kappa`.
Prints one JSON row per cell: states, the solver path, the Lanczos steps
of the kappa solve (0 on the dense path), the median seconds of each call,
their difference `kappa_s` (the kappa solve's cost), gap and kappa.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import runner


def _workloads():
    """bench/workloads.py, importable from the top-level process too."""
    sys.path[:0] = [str(runner.ROOT / "bench"), str(runner.ROOT / "src")]
    import workloads
    return workloads


def cell(case: str, args) -> dict:
    bench = _workloads()
    from gaplab import discrete
    from gaplab.models import ModelSpec, build_graph

    spec = bench.EXACT_CELLS[int(case)]
    family, rate, kind, d, N, omega = spec
    graph = build_graph(kind, d=d, N=N)
    gen = discrete.build_generator(ModelSpec(family, g=bench.RATES[rate]), graph,
                                   discrete.enumerate_states(graph.n_sites, omega))
    gap_s, both_s = [], []
    for _ in range(args.rounds):
        t0 = perf_counter()
        discrete.spectral_gap(gen)
        t1 = perf_counter()
        gap, kappa = discrete.gap_and_kappa(gen)
        t2 = perf_counter()
        gap_s.append(t1 - t0)
        both_s.append(t2 - t1)
    report = gen.solve_report
    gap_median, both_median = statistics.median(gap_s), statistics.median(both_s)
    return {
        "case": bench.exact_label(spec),
        "n": gen.dim,
        "solver": report.solver,
        "kappa_steps": report.kappa_steps,
        "rounds": args.rounds,
        "gap_s": gap_median,
        "gap_and_kappa_s": both_median,
        "kappa_s": both_median - gap_median,
        "gap": gap,
        "kappa": kappa,
    }


def options(ap) -> None:
    ap.add_argument("--rounds", type=int, default=7)


def main(argv=None) -> int:
    return runner.run(__file__, __doc__, options,
                      lambda args: [str(i) for i in range(len(_workloads().EXACT_CELLS))],
                      cell, argv)


if __name__ == "__main__":
    sys.exit(main())
