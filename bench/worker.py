"""One workload in one fresh process: set-up, timed passes, checks, counts.

bench/run.py starts this file with the thread settings already in the
environment and PYTHONPATH pointing at the checkout's src/.  The last line
of standard output is one JSON object for run.py.

Passes repeat the workload's operations back to back (a closed loop with
one caller) for as many whole passes as fit in `--seconds`.  With `--trace 1` passes
alternate untraced and traced on the same inputs, so the traced run also
measures its own overhead.

Host-speed probes (bench/probe.py) run before the first operation and after
each one.  An operation's time divided by the geometric mean of the factors
just before and just after it is its time at reference host speed; the
probes and the reference checks are not timed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

_start = time.perf_counter()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gaplab  # noqa: E402
import hooks as hooks_mod  # noqa: E402
import probe as probe_mod  # noqa: E402
import workloads  # noqa: E402

TRACE_DIR = ".bench_out"


def run_pass(ops: list, hooks, probe) -> dict:
    """Run and check each operation once; time only the operations."""
    hooks.reset()
    busy = 0.0
    norm = 0.0
    failures = []
    info: dict = {}
    trajectories = []
    before = probe.factor()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as err:  # an operation that raises is a failure, not a crash
            result, error = None, f"{type(err).__name__}: {err}"
        dt = time.perf_counter() - t0
        after = probe.factor()
        dt_norm = dt / math.sqrt(before * after)
        before = after
        busy += dt
        norm += dt_norm
        extra: dict = {}
        if error is None:
            try:
                ok, detail, extra = op.check(result)
            except Exception as err:
                ok, detail, extra = False, f"check raised {type(err).__name__}: {err}", {}
            for key, value in extra.items():
                info[key] = info.get(key, 0) + value
        else:
            ok, detail = False, error
        if op.trajectory and ok:
            trajectories.append((op.name, int(extra["events"]), dt_norm))
        if not ok:
            failures.append(f"{op.name}: {detail}")
        del result
    return {"wall_s": busy, "norm_wall_s": norm, "attempted": len(ops), "failures": failures, "info": info,
            "trajectories": trajectories, "times": hooks.layer_times(),
            "counts": hooks.layer_counts()}


def environment() -> dict:
    keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GAPLAB_THREADS",
            "PYTHONHASHSEED")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            **{k: os.environ.get(k, "") for k in keys}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="perf_counter() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path(gaplab.__file__).resolve().parent.parent
    expected = Path(__file__).resolve().parent.parent / "src"
    if src != expected:
        print(f"gaplab imported from {src}, not from {expected}", file=sys.stderr)
        return 2

    hooks = hooks_mod.Hooks()
    hooks.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, hooks, workloads.load_references())
    workload.warm_up()
    hooks.reset()
    origin = args.spawned_at if args.spawned_at is not None else _start
    setup_s = time.perf_counter() - origin
    # set-up is mostly interpreter work (imports, inputs): run.py scales it
    # by this probe and one it takes just before starting this process
    setup_probe_s = probe_mod.py_probe()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s}))
        return 0

    probe = probe_mod.Probe(workload.PROBE_WEIGHTS)

    passes = []
    t_begin = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        inputs = k // 2 if args.trace else k
        hooks.spans_on = traced
        result = run_pass(workload.ops(inputs), hooks, probe)
        hooks.spans_on = False
        result["traced"] = traced
        result["inputs"] = inputs
        if traced:
            result["spans"] = hooks.spans
        passes.append(result)
        k += 1
        # start no pass (no pair of passes when tracing) that would end after
        # --seconds, judging by the passes so far; always measure one
        elapsed = time.perf_counter() - t_begin
        step = elapsed / k * (2 if args.trace else 1)
        if (not args.trace or k % 2 == 0) and elapsed + step > args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "norm_wall_s": statistics.median(p["norm_wall_s"] for p in untraced),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "pass_norm_wall_s": [p["norm_wall_s"] for p in untraced],
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "attempted": sum(p["attempted"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "environment": environment(),
        "hooks_missing": hooks.missing,
        "untraced": summarize(untraced),
    }
    if traced:
        out["traced"] = summarize(traced)
        out["traced_norm_wall_s"] = statistics.median(p["norm_wall_s"] for p in traced)
        # each traced pass against the untraced pass just before it, on the
        # same inputs, so that drifts in machine speed mostly cancel
        out["trace_overhead"] = statistics.median(
            t["norm_wall_s"] / u["norm_wall_s"] - 1.0 for u, t in zip(untraced, traced))
        out["trace_file"] = write_trace(args, traced)
    print(json.dumps(out))
    return 0


def summarize(passes: list) -> dict:
    """Median per-layer times over passes; counts of the first pass (inputs 0).

    Layer times are scaled to reference host speed by their pass's factor,
    its summed reference-speed time over its measured time.
    """
    first = passes[0]
    scale = [p["norm_wall_s"] / p["wall_s"] for p in passes]
    times = {key: statistics.median(p["times"][key] * c for p, c in zip(passes, scale))
             for key in first["times"]}
    checks = {key: statistics.median(p["info"].get(key, 0.0) * c for p, c in zip(passes, scale))
              for key in first["info"] if key.startswith("verify.")}
    counts = dict(first["counts"])
    counts["simulate.ci_covered"] = first["info"].get("ci_covered", 0)
    events = sum(e for p in passes for _, e, _ in p["trajectories"])
    busy = sum(t for p in passes for _, _, t in p["trajectories"])
    cases = {}
    for p in passes:
        for name, e, t in p["trajectories"]:
            ev, tt = cases.get(name, (0, 0.0))
            cases[name] = (ev + e, tt + t)
    rates = {f"simulate.events_per_s.{name}": ev / tt for name, (ev, tt) in cases.items()}
    if busy > 0:
        rates["simulate.events_per_s"] = events / busy
    return {"times": times, "checks": checks, "counts": counts, "rates": rates,
            "passes": len(passes)}


def write_trace(args, traced: list) -> str:
    """Write the traced passes' spans; they were kept in memory until now."""
    root = Path(__file__).resolve().parent.parent
    out_dir = root / TRACE_DIR
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {"workload": args.workload, "seed": args.seed,
           "span_fields": ["id", "name", "start", "end", "parent", "thread"],
           "passes": [{"inputs": p["inputs"], "wall_s": p["wall_s"],
                       "norm_wall_s": p["norm_wall_s"], "spans": p["spans"],
                       "self_time": p["times"]} for p in traced]}
    path.write_text(json.dumps(doc))
    return str(path.relative_to(root))


if __name__ == "__main__":
    raise SystemExit(main())
