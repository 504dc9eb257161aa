"""The scripts under scripts/ run and print one JSON row per case.

Every case runs in a fresh process (scripts/runner.py), whose peak RSS the
row carries as `ru_maxrss_mb`, with the host-speed probe's time as `py_probe_s`.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

from gaplab.discrete import build_generator, enumerate_states, spectral_gap
from gaplab.models import G_IDENTITY, ModelSpec, build_graph

ROOT = Path(__file__).resolve().parent.parent


def _rows(*argv):
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                         check=True, capture_output=True, text=True, timeout=120).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(r["ru_maxrss_mb"] > 0.0 and r["py_probe_s"] > 0.0 for r in rows)
    return rows


def test_reach():
    rows = _rows("reach.py", "--omegas", "3,12")
    assert [r["case"] for r in rows] == ["zero-range/identity/K4/om3",
                                         "zero-range/identity/K4/om12"]
    assert [(r["n"], r["solver"]) for r in rows] == [(20, "dense"), (455, "eigsh")]
    assert abs(rows[0]["gap"] - 1.0) < 1e-12 and abs(rows[1]["gap"] - 1.0) < 1e-10
    assert abs(rows[1]["kappa"] - 12.0) < 1e-9
    assert [r["zero_modes"] for r in rows] == [1, 1]
    # the kappa solve's Lanczos steps: none on the dense path
    assert rows[0]["kappa_steps"] == 0 and 0 < rows[1]["kappa_steps"] <= 10 * 455
    rows = _rows("reach.py", "--omegas", "3", "--g", "constant-one")
    assert [r["case"] for r in rows] == ["zero-range/constant-one/K4/om3"]
    assert rows[0]["zero_modes"] == 1 and rows[0]["gap"] < 1.0


def test_reach_simple_average():
    rows = _rows("reach.py", "--model", "simple-average", "--N", "3", "--omegas", "2,4")
    assert [r["case"] for r in rows] == ["simple-average/identity/K3/om2",
                                         "simple-average/identity/K3/om4"]
    model = ModelSpec("simple-average", g=G_IDENTITY)
    for r, omega in zip(rows, (2, 4)):
        gen = build_generator(model, build_graph("complete", N=3), enumerate_states(3, omega))
        assert r["n"] == gen.dim and r["nnz"] == gen.L.nnz <= r["nnz_estimate"]
        assert r["zero_modes"] == 1 and abs(r["gap"] - spectral_gap(gen)) < 1e-12


def test_solve_split():
    rows = _rows("solve_split.py", "--rounds", "1")
    assert [(r["n"], r["solver"]) for r in rows] == [
        (210, "dense"), (252, "dense"), (1287, "eigsh"), (1716, "eigsh"), (5151, "eigsh"),
        (5456, "eigsh")]
    assert rows[4]["case"] == "zero-range/identity/K3/om100"
    assert abs(rows[4]["gap"] - 1.0) < 1e-8 and abs(rows[4]["kappa"] - 100.0) < 1e-8
    assert [r["kappa_steps"] > 0 for r in rows] == [r["solver"] == "eigsh" for r in rows]
    assert all(r["gap_s"] > 0.0 and r["gap_and_kappa_s"] > 0.0 for r in rows)


def test_sector_reach():
    rows = _rows("sector_reach.py", "--Ns", "3,4", "--degree", "2")
    assert [r["case"] for r in rows] == [
        f"{m}/K{N}/deg2/symmetric{tail}" for N in (3, 4)
        for m, tail in (("kac-uniform", ""), ("gamma", "/gamma1"), ("gamma", "/gamma2"))]
    for r in rows:
        if r["case"].startswith("kac-uniform"):
            # (N+2)/(4N) is the gap from degree 4 on; below it there is no closed form
            assert r["closed_form"] is None and r["abs_error"] is None
        else:
            assert r["abs_error"] < 1e-12
    # degree 6 at N = 1000: the exact operator's blocks keep every direction
    rows = _rows("sector_reach.py", "--Ns", "1000", "--degree", "6")
    assert len(rows) == 3
    assert all(r["abs_error"] <= 1e-13 for r in rows)


def test_sector_reach_full_mode():
    rows = _rows("sector_reach.py", "--mode", "full", "--Ns", "3,4", "--degree", "4")
    assert [r["case"] for r in rows] == [
        f"{m}/K{N}/deg4/full{tail}" for N in (3, 4)
        for m, tail in (("kac-uniform", ""), ("gamma", "/gamma1"), ("gamma", "/gamma2"))]
    for r in rows:
        assert r["basis_size"] == math.comb(r["N"] + 4, 4)
        assert r["kept_dim"] + r["deflated"] == r["basis_size"]
        assert r["abs_error"] <= 1e-12


def test_sector_reach_lattice():
    rows = _rows("sector_reach.py", "--graph", "lattice", "--d", "2", "--Ns", "2,3")
    assert [r["case"] for r in rows] == [
        f"{m}/Z2N{N}/deg4/full{tail}" for N in (2, 3)
        for m, tail in (("kac-uniform", ""), ("gamma", "/gamma1"), ("gamma", "/gamma2"))]
    for r in rows:
        V = r["N"] ** 2
        # 2-d side N: C(V + 4, 4) monomials; the rotation blocks are parity
        # classes, the redistribution model keeps its degree-4 block whole
        assert r["basis_size"] == math.comb(V + 4, 4)
        if r["case"].startswith("kac-uniform"):
            assert 1 < r["blocks"] and r["block_max"] == math.comb(V + 1, 2)
        else:
            assert r["blocks"] == 1 and r["block_max"] == r["kept_dim"] == math.comb(V + 3, 4)
        assert r["closed_form"] is None and r["eig_residual"] <= 1e-12
    # on the 3x3 grid the gap is a mode of half the graph Laplacian: x_i^2 for
    # the rotations, (sum x)^3 x_i for the redistribution model
    for r in rows[3:]:
        assert abs(r["gap"] - (1 - math.cos(math.pi / 3))) < 1e-12
    refused = subprocess.run([sys.executable, str(ROOT / "scripts" / "sector_reach.py"),
                              "--graph", "lattice", "--mode", "symmetric"],
                             capture_output=True, text=True, timeout=60)
    assert refused.returncode != 0 and "full only" in refused.stderr


def test_refused_case_is_an_error_row():
    # K16 at degree 10 is refused by the preflight; the K2 cases after it still run
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "sector_reach.py"),
                           "--mode", "full", "--Ns", "16,2", "--degree", "10"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["case"] for r in rows[:3]] == ["kac-uniform/K16", "gamma/K16/gamma1",
                                             "gamma/K16/gamma2"]
    for r in rows[:3]:
        assert r["exit_code"] == 1 and r["error"].startswith("gaplab.discrete.TooLargeError: ")
        assert "more than the" in r["error"]
    assert [r["case"] for r in rows[3:]] == [
        "kac-uniform/K2/deg10/full", "gamma/K2/deg10/full/gamma1", "gamma/K2/deg10/full/gamma2"]
    assert all("error" not in r and r["abs_error"] <= 1e-12 for r in rows[3:])


def test_event_rate():
    cases = ["zero-range/K3/3", "zero-range/K10/10", "simple-average/K3/4"]
    rows = _rows("event_rate.py", "--cases", ",".join(cases), "--events", "2000",
                 "--repeats", "1")
    assert [r["case"] for r in rows] == cases
    assert all(r["events"] > 1000 and r["us_per_event"] > 0.0 for r in rows)
    # K3 at omega = 3: 10 configurations on the jump chain, one row each; K10
    # at omega = 10 is over the chain's budget, so every event derives a row
    assert 0 < rows[0]["chain_states"] == rows[0]["rate_rows"] <= 10
    assert rows[1]["chain_states"] == 0
    assert rows[1]["rate_rows"] == rows[1]["events"] + 1
    # the simple average's rates are constant: one row shared by its chain states
    assert rows[2]["g"] == "identity" and rows[2]["rate_rows"] == 1
    assert 0 < rows[2]["chain_states"] <= 15


def test_fit_rate():
    cases = ["0.78/2000", "0.97/2000"]
    rows = _rows("fit_rate.py", "--cases", ",".join(cases), "--fits", "3", "--repeats", "1")
    assert [r["case"] for r in rows] == cases
    assert all(r["us_per_fit"] > 0.0 and r["us_per_bootstrap"] > 0.0 for r in rows)
    # the battery's decay closes its window among the 16 direct lags, 0.97 past them
    assert rows[0]["window"][1] < 16 < rows[1]["window"][1]
    assert [r["fit_lags"] for r in rows] == [16, 401]
    assert all(r["n"] == 2000 and r["bootstrap_failures"] == 0 for r in rows)
    # 20 correlation times, capped at a quarter of the series for 0.97
    assert 50 <= rows[0]["block"] < 100 and rows[1]["block"] == 2000 // 4
