"""The benchmark under bench/ still fits the library it times.

bench/hooks.py wraps library functions by module and name; a target that
is renamed or removed is only recorded as missing, and its per-layer
metric then reads 0.  These tests fail instead.
"""

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
