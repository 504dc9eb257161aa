"""Cost of the autocorrelation decay fit: microseconds per fit and per bootstrap loop.

    python3 scripts/fit_rate.py [--cases 0.5/5000,0.995/5000] [--fits 200]
                                [--repeats 7] [--out fit_rate.json]

A case is phi/n: an AR(1) series x_t = phi x_{t-1} + e_t of length n (seed
0, started from its stationary law), whose autocorrelation at lag l is
phi^l.  Its fit window, C(l)/C(0) between 0.8 and 0.1, closes near lag
ln(0.1)/ln(phi); at seed 0 and n = 5000 it ends at lag 3 for phi = 0.5,
9 at 0.78, 34 at 0.9, 67 at 0.97 and at the 400-lag cap at 0.995.  Each
case runs in a fresh process on one BLAS thread (scripts/runner.py).  The
row reports the point fit's window and the autocovariance lags it
computed (`fit_lags`), the best-of-`repeats` microseconds per
`simulate._fit_decay_rate` call (each repeat times `fits` calls), and the
best-of-`repeats` microseconds per bootstrap loop:
`simulate._bootstrap_rates`, the `N_BOOTSTRAP` block resamples and refits
that `autocorr_gap_estimate` runs after its point fit, on its RNG stream
for seed 0.  Its `py_probe_s` times fixed
interpreter work in the same process, so rows from rounds taken at
different host speeds compare by microseconds over `py_probe_s`.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

#: a window closing among the direct lags (0.5, 0.78, 0.9), past them (0.97)
#: and at the lag cap (0.995)
DEFAULT_CASES = "0.5/5000,0.78/5000,0.9/5000,0.97/5000,0.995/5000"


def ar1(phi: float, n: int, seed: int = 0):
    """AR(1) series x_t = phi x_(t-1) + e_t from its stationary law: C(l)/C(0) = phi^l."""
    import numpy as np

    noise = np.random.default_rng(seed).standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / math.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


def cell(case: str, args) -> dict:
    from gaplab import simulate

    phi, n = case.split("/")
    phi, n = float(phi), int(n)
    x = ar1(phi, n)
    rate, fit_lags, window = simulate._fit_decay_rate(x, 1.0)
    fit_times, loop_times = [], []
    for _ in range(args.repeats):
        t0 = perf_counter()
        for _ in range(args.fits):
            simulate._fit_decay_rate(x, 1.0)
        fit_times.append((perf_counter() - t0) / args.fits)
        t0 = perf_counter()
        _, failures, block = simulate._bootstrap_rates(x, rate, 1.0, simulate.rng_for(0, stream=99))
        loop_times.append(perf_counter() - t0)
    return {
        "case": case,
        "phi": phi,
        "n": n,
        "window": [int(window[0]), int(window[-1])],
        "fit_lags": fit_lags,
        "block": block,
        "bootstrap_failures": failures,
        "us_per_fit": 1e6 * min(fit_times),
        "us_per_bootstrap": 1e6 * min(loop_times),
    }


def options(ap) -> None:
    ap.add_argument("--cases", default=DEFAULT_CASES)
    ap.add_argument("--fits", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=7)


def main(argv=None) -> int:
    import runner

    return runner.run(__file__, __doc__, options, lambda args: args.cases.split(","),
                      cell, argv)


if __name__ == "__main__":
    sys.exit(main())
