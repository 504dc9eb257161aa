"""The benchmark under bench/ still fits the library it times.

bench/hooks.py wraps library functions by module and name; a target that
is renamed or removed is only recorded as missing, and its per-layer
metric then reads 0.  These tests fail instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def test_selftest_passes():
    out = _run(str(ROOT / "bench" / "selftest.py"))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "selftest passed" in out.stdout


def test_every_hook_target_exists():
    code = ("import sys; sys.path.insert(0, 'bench'); import hooks; "
            "h = hooks.Hooks(); h.install(); print(repr(h.missing))")
    out = _run("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_hook_callbacks_count_one_pass():
    # bench/selftest.py runs without Hooks.install(), so only this test
    # reaches the callbacks that read a result's sizes
    code = """
import json, sys
sys.path.insert(0, "bench")
import hooks
h = hooks.Hooks()
h.install()
from gaplab import discrete, galerkin
from gaplab.models import G_CONSTANT_ONE, ModelSpec, build_graph
k3 = build_graph("complete", N=3)
for mode in ("full", "symmetric"):
    galerkin.galerkin_eigensystem(galerkin.assemble_galerkin("kac-uniform", k3, degree=4,
                                                             mode=mode))
discrete.exact_solve(ModelSpec("zero-range", g=G_CONSTANT_ONE), k3, 3)
print(json.dumps(h.layer_counts()))
"""
    out = _run("-c", code)
    assert out.returncode == 0, out.stderr
    counts = json.loads(out.stdout)
    # the kept elements: 25 monomials (full) and 7 orbit sums (symmetric);
    # 10 and 4 elements of degree <= 4 lie outside the blocks solved
    assert counts["galerkin.basis_total"] == 32
    assert counts["galerkin.basis_max"] == 25
    assert counts["galerkin.deflated_total"] == 14
    assert counts["discrete.cells"] == 1
    assert counts["discrete.states_total"] == 10
