"""gaplab benchmark: one workload per call, in fresh pinned processes.

    python3 bench/run.py --workload {exact,sector,mc,audit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; gaplab is imported from its src/.  Each
call starts bench/worker.py with the thread counts fixed in its environment:
four times to measure set-up alone, then once for set-up plus the timed
passes.  Times are reported at reference host speed (bench/probe.py).
It prints every metric by name and unit, then, as the last line, one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The workloads and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import PY_REF_S, py_probe

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
WORKLOADS = ("exact", "sector", "mc", "audit")

#: BLAS threads times pool threads stays at or below nproc on any machine.
#: Threaded BLAS stalled first small solves by 0.1-0.5 s on a shared two-core
#: machine, and a two-thread cell pool ran the Python-bound audit cells 17%
#: slower than one thread, so both are 1.
BLAS_THREADS = 1
POOL_THREADS = 1
#: set-up is measured in this many fresh processes and reported as the median
SETUP_RUNS = 5
#: every process this call starts must end within this many seconds of its start
DEADLINE_S = 170.0

END_TO_END = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CHECKS = ("kac-exact-gap", "caputo-identity", "gamma-exact-gap",
          "conditional-operator-spectrum", "zero-range-kernels", "lattice-comparison",
          "two-site-sandwich", "uniform-collapse", "lemma-audits", "certificate-chain")
TRAJECTORIES = ("zero-range-K10", "zero-range-K40", "kac-uniform-K50",
                "gamma-exchange-K10", "kac-rho-K10")

PER_LAYER = {
    "discrete.build_s": "s", "discrete.solve_s": "s", "discrete.enumerate_s": "s",
    "discrete.weights_s": "s", "discrete.pair_ops_s": "s", "discrete.kernel_s": "s",
    "discrete.cells": "count", "discrete.states_total": "count",
    "discrete.states_max": "count", "discrete.dense_mb_max": "MB",
    "galerkin.assemble_s": "s", "galerkin.moment_s": "s", "galerkin.moment_calls": "count",
    "galerkin.action_s": "s", "galerkin.action_calls": "count", "galerkin.solve_s": "s",
    "galerkin.basis_total": "count", "galerkin.basis_max": "count",
    "galerkin.deflated_total": "count",
    "simulate.sim_s": "s", "simulate.events_per_s": "events/s",
    **{f"simulate.events_per_s.{name}": "events/s" for name in TRAJECTORIES},
    "simulate.events": "count", "simulate.observable_s": "s", "simulate.estimate_s": "s",
    "simulate.rayleigh_s": "s", "simulate.estimates": "count",
    "simulate.ci_covered": "count", "simulate.bootstrap_failures": "count",
    "simulate.clipped_events": "count", "simulate.max_drift": "abs",
    "bounds.audit_s": "s", "bounds.audit_checks": "count", "bounds.census_s": "s",
    "bounds.certificate_s": "s", "bounds.violations": "count",
    **{f"verify.{name}_s": "s" for name in CHECKS},
    "trace.overhead": "ratio",
}


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, GAPLAB_THREADS=str(POOL_THREADS),
               PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    return env


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise WorkerError("no time left before the deadline")
    probe_s = py_probe()
    cmd += ["--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}")
    out = json.loads(lines[-1])
    # set-up at reference speed: divided by the interpreter probe's factor,
    # geometric mean of the probes just before and just after set-up
    factor = (probe_s * out["setup_probe_s"]) ** 0.5 / PY_REF_S
    out["norm_setup_s"] = out["setup_s"] / factor
    return out


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_table(title: str, rows: dict, units: dict) -> None:
    print(title)
    for name, value in rows.items():
        print(f"  {name:<46} {fmt(value):>14} {units.get(name, '')}")


def layer_values(summary: dict, overhead: float) -> dict:
    values = {name: 0.0 for name in PER_LAYER}
    for part in ("times", "checks", "counts", "rates"):
        for name, value in summary[part].items():
            if name in values:
                values[name] = value
    values["trace.overhead"] = overhead
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaplab" / "__init__.py").is_file():
        print(f"no gaplab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups = [spawn(args, deadline, setup_only=True) for _ in range(SETUP_RUNS - 1)]
        run = spawn(args, deadline, setup_only=False)
    except (WorkerError, json.JSONDecodeError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    setups.append(run)

    attempted = run["attempted"]
    failed = len(run["failures"])
    env = run["environment"]
    untraced = run["untraced"]
    print(f"gaplab benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if run["hooks_missing"]:
        print("hooks not installed (layer reads 0): " + ", ".join(run["hooks_missing"]))
    end_to_end = {
        "norm_wall_s": run["norm_wall_s"],
        "setup_s": statistics.median(s["norm_setup_s"] for s in setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    extra = {"wall_s": run["wall_s"],
             "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
             "fail_frac": failed / attempted, "attempted": attempted, "failed": failed}
    if "simulate.events_per_s" in untraced["rates"]:
        extra["events_per_s"] = untraced["rates"]["simulate.events_per_s"]
    print_table(f"end-to-end (untraced; norm_wall_s is the median of {untraced['passes']} "
                f"passes {[round(t, 4) for t in run['pass_norm_wall_s']]} at reference "
                f"host speed, wall_s of the same passes as measured "
                f"{[round(t, 4) for t in run['pass_wall_s']]}; setup_s the median of "
                f"{[round(s['norm_setup_s'], 4) for s in setups]} at reference speed, "
                f"raw_setup_s of the same as measured)",
                {**end_to_end, **extra},
                {**END_TO_END, "wall_s": "s", "raw_setup_s": "s", "fail_frac": "ratio",
                 "attempted": "count", "failed": "count", "events_per_s": "events/s"})
    counts = {k: v for k, v in untraced["counts"].items() if v}
    print_table("counts (untraced, first pass)", counts, PER_LAYER)
    if untraced["rates"]:
        print_table("event rates (untraced, all passes)", untraced["rates"], PER_LAYER)

    if args.trace:
        traced = run["traced"]
        overhead = run["trace_overhead"]
        metrics = layer_values(traced, overhead)
        print_table(f"per-layer (traced; times are medians of {traced['passes']} passes, "
                    "counts are the first pass's)", metrics, PER_LAYER)
        if traced["counts"] != untraced["counts"]:
            print("note: traced counts differ from untraced counts")
        print(f"trace overhead: traced norm_wall_s / untraced norm_wall_s - 1 = "
              f"{overhead:+.4f} (median over adjacent pass pairs; medians "
              f"{run['traced_norm_wall_s']:.4f} s traced, {run['norm_wall_s']:.4f} s "
              f"untraced); spans in {run['trace_file']}")
        units = PER_LAYER
    else:
        metrics = end_to_end
        units = END_TO_END
    for failure in run["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
