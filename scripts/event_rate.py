"""Event rate of the simulator: microseconds per event by family, graph and total.

    python3 scripts/event_rate.py [--cases zero-range/K3/5,zero-range/L2-30/900]
                                  [--g {identity,constant-one}] [--events 100000]
                                  [--repeats 3] [--out event_rate.json]

A case is family/graph/total, with the family a CLI model id at its default
parameter (`kac` is the uniform rotation, `gamma-exchange` has shape 1) and
the graph written KN (complete graph on N sites) or LdN (the cube
{1..N}^d).  Each case runs in a fresh process on
one BLAS thread (scripts/runner.py).  The horizon is the requested event count over the total rate
of the initial configuration, so linear zero-range rates on a regular graph
give that many events on average.  The same trajectory (initial
configuration and seed 0) runs `repeats` times; the row reports its event
count, the rate rows the loop built, the best and median microseconds per
event, and peak RSS in MB.  Its `py_probe_s` times fixed interpreter work
in the same process: rows from rounds taken at different host speeds
compare by microseconds per event over `py_probe_s`.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import runner

#: zero-range on both sides of the row memo, then one case of each other family
#: that the benchmark's trajectories and estimators run: the integer average's
#: pair-law draw, and the constant-rate edge draw on K50 and K10
DEFAULT_CASES = ("zero-range/K3/5,zero-range/K10/10,zero-range/K40/40,zero-range/K100/100,"
                 "zero-range/L1-1000/1000,zero-range/L2-30/900,"
                 "simple-average/K3/4,kac/K50/50,gamma-exchange/K10/10")


def parse_graph(label: str):
    from gaplab.models import build_graph

    if label.startswith("K"):
        return build_graph("complete", N=int(label[1:]))
    if label.startswith("L"):
        d, N = label[1:].split("-")
        return build_graph("lattice", d=int(d), N=int(N))
    raise ValueError(f"graph {label!r} is neither KN nor LdN")


def cell(case: str, args) -> dict:
    from gaplab import simulate
    from gaplab.models import FAMILY_FIELD, MODEL_IDS, model_from_id, rate_by_name

    g, events, repeats = args.g, args.events, args.repeats
    family, graph_label, total = case.split("/")
    reads_g = FAMILY_FIELD[MODEL_IDS[family]] == "g"
    model = model_from_id(family, g=rate_by_name(g) if reads_g else None)
    graph = parse_graph(graph_label)
    omega = int(total) if model.is_discrete else float(total)
    cfg = simulate.initial_config(model, graph, omega, seed=0)
    horizon = events / float(simulate._Dynamics(model, graph).edge_rates(cfg).sum())
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        summary, _ = simulate.simulate(model, graph, cfg, horizon, seed=0)
        times.append(perf_counter() - t0)
    n = max(summary.n_events, 1)
    return {
        "case": case,
        "g": g if reads_g else None,
        "n_sites": graph.n_sites,
        "n_edges": graph.n_edges,
        "horizon": horizon,
        "events": summary.n_events,
        "rate_rows": summary.rate_rows,
        "us_per_event": 1e6 * min(times) / n,
        "us_per_event_median": 1e6 * statistics.median(times) / n,
    }


def options(ap) -> None:
    ap.add_argument("--cases", default=DEFAULT_CASES)
    ap.add_argument("--g", choices=("identity", "constant-one"), default="identity")
    ap.add_argument("--events", type=int, default=100_000)
    ap.add_argument("--repeats", type=int, default=3)


def main(argv=None) -> int:
    return runner.run(__file__, __doc__, options, lambda args: args.cases.split(","),
                      cell, argv)


if __name__ == "__main__":
    sys.exit(main())
