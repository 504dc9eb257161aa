"""Host-speed probes: fixed work that never calls gaplab.

The benchmark runs on a shared host whose speed drifts by up to 1.7x over
seconds to minutes (other tenants on the same cores), and the workloads
slow down and speed up with it.  Two probes measure that speed:

- `py_probe`: interpreter work (tuple keys, dict updates, integer
  arithmetic), like gaplab's per-state loops;
- `la_probe`: dense symmetric eigenvalues through numpy's LAPACK, like the
  exact and Galerkin eigensolves.

Each times its whole run: the mean speed over about ten milliseconds
tracked the workloads' speed better than the fastest of short repeats.
`Probe.factor()` is the host's slowness against the reference
speed, (py / PY_REF_S)^a * (la / LA_REF_S)^b with the workload's weights
(a, b), a + b = 1; a time divided by it is the time at reference speed.
"""

from __future__ import annotations

from time import perf_counter

#: probe times taken as the reference host speed: about the fastest each
#: probe ran on a shared two-core virtual machine (Python 3.11, OpenBLAS, one
#: thread)
PY_REF_S = 0.008
LA_REF_S = 0.0036


def py_probe() -> float:
    t0 = perf_counter()
    table: dict = {}
    for i in range(40000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    return perf_counter() - t0


class Probe:
    """Speed factor of the host for a workload's mix of work."""

    def __init__(self, weights: tuple):
        self.py_weight, self.la_weight = weights
        if self.la_weight:
            import numpy as np

            a = np.random.default_rng(0).standard_normal((120, 120))
            self._eigvalsh = np.linalg.eigvalsh
            self._matrix = a + a.T

    def la_probe(self) -> float:
        t0 = perf_counter()
        for _ in range(6):
            self._eigvalsh(self._matrix)
        return perf_counter() - t0

    def factor(self) -> float:
        f = 1.0
        if self.py_weight:
            f *= (py_probe() / PY_REF_S) ** self.py_weight
        if self.la_weight:
            f *= (self.la_probe() / LA_REF_S) ** self.la_weight
        return f
