"""Event-driven simulation of the collision dynamics and gap estimators.

Pair clocks are exponential with state-dependent rates; every event
redraws the affected pair.  Rates are recomputed from scratch after each
event, which is exact by memorylessness and cheap at the system sizes the
exact engines cannot reach anyway.  The estimators fit the slowest decay of
stationary autocorrelations or accumulate the quadratic form of the
generator along the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.special

from .models import InteractionGraph, ModelSpec, RhoSpec

#: events tolerated with a clipped negative energy per million before aborting
CLIP_BUDGET_PER_MILLION = 10
#: relative conservation drift tolerated for continuous configurations
CONSERVATION_RTOL = 1e-9
#: bootstrap resamples for confidence intervals
N_BOOTSTRAP = 100
#: widen bootstrap intervals by this factor to absorb fit-model error
CI_INFLATION = 1.25


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; (seed, stream) pairs give independent streams."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# initial configurations
# ---------------------------------------------------------------------------

def initial_config(model: ModelSpec, graph: InteractionGraph, omega,
                   seed: int = 0) -> np.ndarray:
    """A valid configuration with the requested conserved total."""
    V = graph.n_sites
    rng = rng_for(seed, stream=7)
    space = model.site_space()
    if space.kind == "real-line-gaussian":
        x = rng.standard_normal(V)
        x *= math.sqrt(float(omega) / float(x @ x))
        return x
    if space.kind == "positive-half-line-gamma":
        shape = float(space.gamma) if space.gamma is not None else 1.0
        x = rng.dirichlet([shape] * V) * float(omega)
        return x
    cfg = np.zeros(V, dtype=np.int64)
    sites = rng.integers(0, V, size=int(omega))
    for s in sites:
        cfg[s] += 1
    return cfg


# ---------------------------------------------------------------------------
# per-family event mechanics
# ---------------------------------------------------------------------------

class _Dynamics:
    """Rates and updates for one model family on a fixed graph."""

    def __init__(self, model: ModelSpec, graph: InteractionGraph):
        self.model = model
        self.graph = graph
        self.edges = graph.edges
        self.scale = graph.pair_scaling
        fam = model.family
        space = model.site_space()
        self.is_int = space.is_discrete
        self.clips = 0
        if fam == "kac-rho":
            self._theta_sampler = _angle_sampler(model.rho)
        if fam == "gamma-exchange":
            ex = model.exchange
            self._grid = ex.grid()
            self._K = ex.kernel_matrix()
            self._Kcum = np.cumsum(self._K, axis=1)
            self._simple = not isinstance(ex.kernel, np.ndarray)
            self._gamma = float(ex.gamma)
        if fam == "simple-average" and self.is_int:
            self._pmf_cache: dict = {}
        if fam == "simple-average" and space.kind == "positive-half-line-gamma":
            self._gamma = float(space.gamma)

    # rates -----------------------------------------------------------------
    def edge_rates(self, cfg: np.ndarray) -> np.ndarray:
        fam = self.model.family
        rates = np.empty(len(self.edges))
        if fam in ("kac-uniform", "kac-rho") or (fam == "simple-average"):
            rates.fill(self.scale)
            return rates
        if fam == "zero-range":
            g = self.model.g
            for e, (x, y) in enumerate(self.edges):
                rates[e] = self.scale * ((g(int(cfg[x])) if cfg[x] > 0 else 0.0)
                                         + (g(int(cfg[y])) if cfg[y] > 0 else 0.0))
            return rates
        ex = self.model.exchange
        for e, (x, y) in enumerate(self.edges):
            s = cfg[x] + cfg[y]
            if s <= 0:
                rates[e] = 0.0
                continue
            beta = cfg[x] / s
            rates[e] = self.scale * ex.lambda_s(s) * ex.lambda_r(min(max(beta, 1e-12), 1 - 1e-12))
        return rates

    # updates ---------------------------------------------------------------
    def apply(self, cfg: np.ndarray, edge: int, rng: np.random.Generator) -> None:
        x, y = self.edges[edge]
        fam = self.model.family
        if fam == "kac-uniform":
            theta = rng.uniform(-math.pi, math.pi)
            self._rotate(cfg, x, y, theta)
            return
        if fam == "kac-rho":
            theta = self._theta_sampler(rng)
            if rng.random() < 0.5:
                theta = -theta
            self._rotate(cfg, x, y, theta)
            return
        if fam == "zero-range":
            g = self.model.g
            rx = g(int(cfg[x])) if cfg[x] > 0 else 0.0
            ry = g(int(cfg[y])) if cfg[y] > 0 else 0.0
            if rng.random() * (rx + ry) < rx:
                cfg[x] -= 1
                cfg[y] += 1
            else:
                cfg[y] -= 1
                cfg[x] += 1
            return
        if fam == "gamma-exchange":
            s = cfg[x] + cfg[y]
            if self._simple:
                alpha = rng.beta(self._gamma, self._gamma)
            else:
                beta = min(max(cfg[x] / s, 0.0), 1.0)
                row = min(int(beta * len(self._grid)), len(self._grid) - 1)
                cell = int(np.searchsorted(self._Kcum[row], rng.random()))
                cell = min(cell, len(self._grid) - 1)
                alpha = self._grid[cell]
            self._redistribute(cfg, x, y, alpha)
            return
        # simple-average family
        space = self.model.site_space()
        if space.kind == "nonneg-integers-zerorange":
            s = int(cfg[x] + cfg[y])
            pmf = self._pair_pmf(s)
            a = int(rng.choice(s + 1, p=pmf))
            cfg[x], cfg[y] = a, s - a
            return
        if space.kind == "positive-half-line-gamma":
            alpha = rng.beta(self._gamma, self._gamma)
            self._redistribute(cfg, x, y, alpha)
            return
        theta = rng.uniform(-math.pi, math.pi)
        self._rotate(cfg, x, y, theta)

    def _rotate(self, cfg, x, y, theta):
        c, s = math.cos(theta), math.sin(theta)
        xi, xj = cfg[x], cfg[y]
        cfg[x] = xi * c - xj * s
        cfg[y] = xi * s + xj * c

    def _redistribute(self, cfg, x, y, alpha):
        alpha = min(max(alpha, 0.0), 1.0)
        s = cfg[x] + cfg[y]
        nx = alpha * s
        ny = (1.0 - alpha) * s
        if nx < 0.0 or ny < 0.0:
            nx, ny = max(nx, 0.0), max(ny, 0.0)
            self.clips += 1
        cfg[x], cfg[y] = nx, ny

    def _pair_pmf(self, s: int) -> np.ndarray:
        pmf = self._pmf_cache.get(s)
        if pmf is None:
            lgf = self.model.g.log_factorials(s)
            lw = -(lgf + lgf[::-1])
            lw -= lw.max()
            pmf = np.exp(lw)
            pmf /= pmf.sum()
            self._pmf_cache[s] = pmf
        return pmf


def _angle_sampler(rho: RhoSpec) -> Callable:
    """Inverse-CDF sampler on a fine angle grid (exact for the uniform density)."""
    if rho.name == "uniform" or (rho.exact_tail_zero and rho.order == 0):
        return lambda rng: rng.uniform(-math.pi, math.pi)
    nodes = 4096
    theta = -math.pi + 2 * math.pi * (np.arange(nodes) + 0.5) / nodes
    if rho.density is not None:
        dens = np.array([rho.density(t) for t in theta])
    else:
        dens = np.full(nodes, 1.0 / (2 * math.pi))
        for n in range(1, rho.order + 1):
            c = rho.coefficient(n)
            dens += (c.real * np.cos(n * theta) + c.imag * np.sin(n * theta)) / math.pi
    dens = np.clip(dens, 0.0, None)
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]

    def sample(rng):
        i = int(np.searchsorted(cdf, rng.random()))
        return theta[min(i, nodes - 1)]

    return sample


# ---------------------------------------------------------------------------
# the event loop
# ---------------------------------------------------------------------------

@dataclass
class SimState:
    """Mutable simulation state: configuration, cached total, clock, RNG."""

    config: np.ndarray
    omega: float
    t: float
    rng: np.random.Generator


@dataclass
class TrajectorySummary:
    model: str
    graph_kind: str
    n_sites: int
    t_final: float
    n_events: int
    final_config: np.ndarray
    conservation_drift: float
    clipped_events: int


def simulate(model: ModelSpec, graph: InteractionGraph, config0, horizon: float,
             seed: int = 0, sample_dt: Optional[float] = None,
             observables: Optional[dict] = None,
             stream_writer=None,
             event_callback: Optional[Callable] = None) -> tuple[TrajectorySummary, Optional[dict]]:
    """Run the dynamics for `horizon` time units.

    With `sample_dt` and `observables` (name -> callable), records each
    observable on a uniform time grid; `stream_writer` additionally receives
    each sampled frame.  `event_callback(t, edge, before, after)` fires on
    every jump.  Returns the summary and the sample dict (or None).
    """
    cfg = np.array(config0, dtype=np.int64 if model.is_discrete else float)
    dyn = _Dynamics(model, graph)
    law = model.law()
    target = float(sum(law.site_value(float(v)) for v in cfg))
    state = SimState(cfg, target, 0.0, rng_for(seed))
    rng = state.rng

    sampling = sample_dt is not None and observables
    times: list = []
    series = {name: [] for name in (observables or {})}
    t_next = sample_dt if sampling else math.inf
    n_events = 0
    drift = 0.0

    while True:
        rates = dyn.edge_rates(cfg)
        total = float(rates.sum())
        if not math.isfinite(total):
            raise ArithmeticError(
                f"non-finite pair rate at t = {state.t}; configuration {cfg!r}")
        if total <= 0.0:
            t_jump = math.inf   # frozen configuration
        else:
            t_jump = state.t + rng.exponential(1.0 / total)
        while sampling and t_next <= min(t_jump, horizon):
            times.append(t_next)
            frame = []
            for name, f in observables.items():
                v = float(f(cfg))
                series[name].append(v)
                frame.append(v)
            if stream_writer is not None:
                stream_writer.write_frame(t_next, frame)
            t_next += sample_dt
        if t_jump >= horizon:
            state.t = horizon
            break
        state.t = t_jump
        if len(rates) > 1:
            edge = int(np.searchsorted(np.cumsum(rates), rng.random() * total))
            edge = min(edge, len(rates) - 1)
        else:
            edge = 0
        before = cfg.copy() if event_callback is not None else None
        dyn.apply(cfg, edge, rng)
        if event_callback is not None:
            event_callback(state.t, edge, before, cfg)
        n_events += 1
        if not model.is_discrete:
            now = float(sum(law.site_value(float(v)) for v in cfg))
            drift = max(drift, abs(now - target))
            if drift > CONSERVATION_RTOL * max(abs(target), 1.0):
                raise ArithmeticError(
                    f"conserved total drifted by {drift:.3e} after {n_events} events")
        if dyn.clips * 1_000_000 > CLIP_BUDGET_PER_MILLION * max(n_events, 1):
            raise ArithmeticError(
                f"{dyn.clips} clipped negative energies in {n_events} events")

    if model.is_discrete:
        drift = abs(float(sum(law.site_value(float(v)) for v in cfg)) - target)
    summary = TrajectorySummary(model.family, graph.kind, graph.n_sites, state.t,
                                n_events, cfg, drift, dyn.clips)
    if not sampling:
        return summary, None
    return summary, {"times": np.array(times),
                     **{k: np.array(v) for k, v in series.items()}}


def sample_series(model: ModelSpec, graph: InteractionGraph, config0,
                  observable: Callable, *, dt: float, n_samples: int,
                  burn_in: float, seed: int) -> np.ndarray:
    """Stationary samples of one observable on a uniform grid after burn-in."""
    horizon = burn_in + dt * (n_samples + 1)
    _, samples = simulate(model, graph, config0, horizon, seed=seed,
                          sample_dt=dt, observables={"f": observable})
    vals = samples["f"]
    skip = int(math.ceil(burn_in / dt))
    out = vals[skip:skip + n_samples]
    if len(out) < n_samples:
        raise RuntimeError("trajectory too short for the requested samples")
    return out


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    stderr: float
    ci_low: float
    ci_high: float
    ess: float
    diagnostics: dict = field(default_factory=dict)

    def covers(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high


class NoDecayError(RuntimeError):
    """Autocorrelation did not decay through the fit window."""


def _autocovariance(x: np.ndarray) -> np.ndarray:
    n = len(x)
    xc = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, m)
    return np.fft.irfft(f * np.conj(f))[:n] / n


def _fit_decay_rate(series: np.ndarray, dt: float,
                    window: tuple = (0.1, 0.8)) -> float:
    """Weighted slope of log-autocovariance over the mid-decay lag window.

    The window is the contiguous run of lags from the first ratio at or below
    the upper edge until the decay first dips below the lower edge; noisy
    tail lags that wander back into the band are excluded.  Weights are the
    squared ratios, the delta-method variance of each log point.
    """
    c = _autocovariance(series)
    c0 = c[0]
    if c0 <= 0:
        raise NoDecayError("zero-variance observable")
    ratio = c[1:] / c0
    limit = min(len(ratio), 400)
    start = None
    for l in range(limit):
        if ratio[l] <= window[1]:
            start = l
            break
    if start is None:
        raise NoDecayError("autocorrelation never enters the fit window")
    lags = []
    for l in range(start, limit):
        if ratio[l] < window[0]:
            break
        lags.append(l + 1)
    if len(lags) < 2:
        raise NoDecayError(
            f"fewer than two lags with C(t)/C(0) in [{window[0]}, {window[1]}]")
    tvals = np.asarray(lags, dtype=float) * dt
    y = np.log(c[lags] / c0)
    w = (c[lags] / c0) ** 2
    design = np.vstack([np.ones_like(tvals), tvals]).T
    wd = design * w[:, None]
    coef = np.linalg.solve(wd.T @ design, wd.T @ y)
    rate = -float(coef[1])
    if rate <= 0:
        raise NoDecayError("fitted decay rate is not positive")
    return rate


def autocorr_gap_estimate(model: ModelSpec, graph: InteractionGraph,
                          observable: Callable, *, omega, dt: float,
                          n_samples: int = 5000, burn_in: Optional[float] = None,
                          seed: int = 0, n_boot: int = N_BOOTSTRAP,
                          ci_inflation: float = CI_INFLATION) -> EstimatorResult:
    """Slowest autocorrelation decay rate of the observable, with bootstrap CI.

    The point estimate upper-bounds the true gap when the observable mixes
    several modes; the interval is widened by `ci_inflation` to absorb that
    fit-model error.
    """
    cfg = initial_config(model, graph, omega, seed=seed)
    if burn_in is None:
        burn_in = 40.0 * dt
    series = sample_series(model, graph, cfg, observable, dt=dt,
                           n_samples=n_samples, burn_in=burn_in, seed=seed)
    rate = _fit_decay_rate(series, dt)

    rng = rng_for(seed, stream=99)
    n = len(series)
    tau = max(1.0 / (rate * dt), 1.0)
    block = int(min(max(20 * tau, 50), n // 4))
    n_blocks = int(math.ceil(n / block))
    draws = []
    failures = 0
    for _ in range(n_boot):
        starts = rng.integers(0, n, size=n_blocks)
        idx = (starts[:, None] + np.arange(block)[None, :]) % n
        resampled = series[idx].ravel()[:n]
        try:
            draws.append(_fit_decay_rate(resampled, dt))
        except NoDecayError:
            failures += 1
    if len(draws) < max(10, n_boot // 2):
        raise NoDecayError(f"bootstrap refits failed {failures}/{n_boot} times")
    draws = np.array(draws)
    lo, hi = np.percentile(draws, [2.5, 97.5])
    se = float(draws.std(ddof=1))
    # wider of the percentile and symmetric-normal bootstrap intervals; the
    # percentile shape alone under-covers when the draw distribution is skewed
    half_lo = max(rate - lo, 1.96 * se) * ci_inflation
    half_hi = max(hi - rate, 1.96 * se) * ci_inflation
    ess = n / (2.0 * tau)
    return EstimatorResult(
        estimate=rate, stderr=se,
        ci_low=rate - half_lo, ci_high=rate + half_hi, ess=ess,
        diagnostics={"block": block, "n_samples": n, "bootstrap_failures": failures,
                     "dt": dt, "inflation": ci_inflation})


def _local_dirichlet(model: ModelSpec, graph: InteractionGraph, dyn: _Dynamics,
                     cfg: np.ndarray, f: Callable, quad) -> float:
    """Pointwise carre-du-champ: expected squared jump of f per unit time, halved."""
    total = 0.0
    fam = model.family
    f0 = f(cfg)
    for (x, y) in graph.edges:
        if fam == "zero-range":
            g = model.g
            acc = 0.0
            for (u, v) in ((x, y), (y, x)):
                if cfg[u] > 0:
                    t = cfg.copy()
                    t[u] -= 1
                    t[v] += 1
                    acc += g(int(cfg[u])) * (f(t) - f0) ** 2
            total += graph.pair_scaling * 0.5 * acc
        elif fam in ("kac-uniform", "kac-rho"):
            thetas, weights = quad
            acc = 0.0
            t = cfg.copy()
            for th, wt in zip(thetas, weights):
                c, s = math.cos(th), math.sin(th)
                t[:] = cfg
                t[x] = cfg[x] * c - cfg[y] * s
                t[y] = cfg[x] * s + cfg[y] * c
                acc += wt * (f(t) - f0) ** 2
            total += graph.pair_scaling * 0.5 * acc
        elif fam == "simple-average" and model.is_discrete:
            s = int(cfg[x] + cfg[y])
            pmf = dyn._pair_pmf(s)
            t = cfg.copy()
            acc = 0.0
            for a in range(s + 1):
                t[x], t[y] = a, s - a
                acc += pmf[a] * (f(t) - f0) ** 2
            total += graph.pair_scaling * 0.5 * acc
        else:
            # continuous redistribution in the pair fraction
            s = cfg[x] + cfg[y]
            rate = graph.pair_scaling
            if fam == "gamma-exchange":
                ex = model.exchange
                beta = min(max(cfg[x] / s, 1e-12), 1 - 1e-12) if s > 0 else 0.5
                rate *= ex.lambda_s(s) * ex.lambda_r(beta)
                if isinstance(ex.kernel, np.ndarray):
                    grid = dyn._grid
                    row = dyn._K[min(int(beta * len(grid)), len(grid) - 1)]
                    alphas, weights = grid, row
                else:
                    alphas, weights = quad
            else:
                alphas, weights = quad
            t = cfg.copy()
            acc = 0.0
            for a, wt in zip(alphas, weights):
                t[x], t[y] = a * s, (1 - a) * s
                acc += wt * (f(t) - f0) ** 2
            total += rate * 0.5 * acc
    return total


def _quad_for(model: ModelSpec):
    fam = model.family
    if fam in ("kac-uniform", "kac-rho"):
        nodes = 64
        theta = -math.pi + 2 * math.pi * (np.arange(nodes) + 0.5) / nodes
        if fam == "kac-uniform":
            w = np.full(nodes, 1.0 / nodes)
        else:
            rho = model.rho
            dens = np.empty(nodes)
            for i, t in enumerate(theta):
                if rho.density is not None:
                    dens[i] = 0.5 * (rho.density(t) + rho.density(-t))
                else:
                    v = 1.0 / (2 * math.pi)
                    for n in range(1, rho.order + 1):
                        v += rho.coefficient(n).real * math.cos(n * t) / math.pi
                    dens[i] = max(v, 0.0)
            w = dens * (2 * math.pi / nodes)
            w /= w.sum()
        return theta, w
    if fam == "gamma-exchange" or (fam == "simple-average" and not model.is_discrete):
        gshape = float(model.exchange.gamma) if fam == "gamma-exchange" else float(model.gamma)
        x, w = scipy.special.roots_jacobi(24, gshape - 1, gshape - 1)
        a = (x + 1) / 2
        w = w / w.sum()
        return a, w
    return None


def rayleigh_upper_bound(model: ModelSpec, graph: InteractionGraph,
                         observable: Callable, *, omega, dt: float,
                         n_samples: int = 4000, burn_in: Optional[float] = None,
                         seed: int = 0, n_batches: int = 20) -> EstimatorResult:
    """Ratio of the trajectory-averaged quadratic form to the variance of f.

    Consistent for the Rayleigh quotient, hence an upper bound on the gap up
    to statistical error; the interval comes from batch-mean linearization.
    """
    cfg = initial_config(model, graph, omega, seed=seed)
    if burn_in is None:
        burn_in = 40.0 * dt
    dyn = _Dynamics(model, graph)
    quad = _quad_for(model)

    def probe(c):
        return float(observable(c))

    observables = {
        "f": probe,
        "dirichlet": lambda c: _local_dirichlet(model, graph, dyn, c, probe, quad),
    }
    horizon = burn_in + dt * (n_samples + 1)
    _, samples = simulate(model, graph, cfg, horizon, seed=seed,
                          sample_dt=dt, observables=observables)
    skip = int(math.ceil(burn_in / dt))
    fvals = samples["f"][skip:skip + n_samples]
    dvals = samples["dirichlet"][skip:skip + n_samples]
    if len(fvals) < n_samples:
        raise RuntimeError("trajectory too short for the requested samples")

    var = float(fvals.var())
    if var <= 0:
        raise ValueError("degenerate observable: zero empirical variance")
    ratio = float(dvals.mean()) / var

    # batch-mean linearization of the ratio estimator
    k = n_batches
    size = n_samples // k
    nums = np.array([dvals[i * size:(i + 1) * size].mean() for i in range(k)])
    mean_all = fvals.mean()
    dens = np.array([np.mean((fvals[i * size:(i + 1) * size] - mean_all) ** 2)
                     for i in range(k)])
    infl = (nums - ratio * dens) / dens.mean()
    se = float(infl.std(ddof=1) / math.sqrt(k))
    t975 = scipy.special.stdtrit(k - 1, 0.975)
    width = float(t975) * se
    return EstimatorResult(
        estimate=ratio, stderr=se, ci_low=ratio - width, ci_high=ratio + width,
        ess=float(k),
        diagnostics={"numerator": float(dvals.mean()), "variance": var, "batches": k})
