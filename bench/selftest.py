"""Self-test of the benchmark's checks, not of gaplab.

    python3 bench/selftest.py

1. One stored reference made wrong beyond its tolerance must count as
   exactly one failed operation, and the same operations with the true
   references as none.
2. BENCHMARK.json must name exactly the metrics, with the units, that
   bench/run.py prints, and run.py's lists must match the workloads'.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hooks as hooks_mod  # noqa: E402
import probe as probe_mod  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WRONG = "kac-rho/K3/deg4/full"


def failures_with(refs: dict) -> list:
    sector = workloads.Sector(0, hooks_mod.Hooks(), refs)
    ops = [op for op in sector.ops(0) if "/K3/" in op.name or "/K4/" in op.name]
    probe = probe_mod.Probe(workloads.Sector.PROBE_WEIGHTS)
    return worker.run_pass(ops, hooks_mod.Hooks(), probe)["failures"]


def main() -> int:
    problems = []
    refs = workloads.load_references()
    if failures_with(refs):
        problems.append(f"true references fail: {failures_with(refs)}")
    refs["sector"][WRONG] += 100 * workloads.GAP_TOL
    failures = failures_with(refs)
    if len(failures) != 1 or not failures[0].startswith(WRONG + ":"):
        problems.append(f"one wrong reference gave failures {failures}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append(f"end_to_end {declared} != run.END_TO_END {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.PER_LAYER:
        problems.append(f"per_layer differs from run.PER_LAYER: "
                        f"{sorted(set(declared.items()) ^ set(run.PER_LAYER.items()))}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    # run.py keeps its own copies so that it needs no gaplab import
    if run.CHECKS != workloads.AUDIT_CHECKS:
        problems.append("run.CHECKS differs from workloads.AUDIT_CHECKS")
    if run.TRAJECTORIES != tuple(f"{f}-K{N}" for f, N, _, _ in workloads.TRAJECTORIES):
        problems.append("run.TRAJECTORIES differs from workloads.TRAJECTORIES")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
