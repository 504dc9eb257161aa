"""Event-driven simulation of the collision dynamics and gap estimators.

Pair clocks are exponential with state-dependent rates; every event
redraws the affected pair.  The loop reads each configuration's rate row:
its total, cumulative edge rates (the edge is drawn from them), edge rates
and, for zero-range, site rates.  The constant-rate families build one row
per trajectory.  Otherwise a jump on (x, y) derives the next row from the
current one by recomputing only the edges that share an endpoint with it.
A zero-range trajectory whose whole configuration space fits
`ROW_MEMO_FLOATS` keeps every row it builds, keyed by the configuration,
so a revisited configuration costs a dictionary lookup.  Every draw from a
table (the edge, the integer average's new value, an angle or a kernel
cell) bisects the table with the `bisect` module.  The random stream is
the same as a recompute-everything loop's, so a seed fixes the trajectory
bit for bit.  An observable is a function of the configuration alone: it
is evaluated once per configuration that a sampling grid point reaches,
and grid points between two events repeat its values.  The estimators fit
the slowest decay of stationary autocorrelations or accumulate the
quadratic form of the generator along the trajectory.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.special

from .models import (RHO_QUADRATURE_NODES, SQUARE, InteractionGraph, ModelSpec,
                     RhoSpec, angle_midpoints, pair_law)

#: relative conservation drift tolerated for continuous configurations
CONSERVATION_RTOL = 1e-9
#: bootstrap resamples for confidence intervals
N_BOOTSTRAP = 100
#: widen bootstrap intervals by this factor to absorb fit-model error
CI_INFLATION = 1.25
#: the decay fit searches the autocorrelation at lags 1..MAX_FIT_LAG
MAX_FIT_LAG = 400
#: the decay fit uses the lags whose C(t)/C(0) falls in this band
FIT_WINDOW = (0.1, 0.8)
#: batches of the Rayleigh-quotient interval
N_BATCHES = 20
#: float64 budget (2 MiB) of the zero-range rate-row memo: a trajectory keeps
#: one row per configuration when every row of its configuration space fits
ROW_MEMO_FLOATS = 1 << 18
#: the Python objects of one memo row (tuple, three array headers, the key)
#: in float64s: about 560-590 bytes measured with tracemalloc on K2-K4
ROW_OBJECT_FLOATS = 72


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
    """A valid configuration with the requested conserved total; a total that is
    negative, not finite, or not an integer for an integer family raises ValueError."""
    if not (math.isfinite(omega) and omega >= 0) or (model.is_discrete and omega != int(omega)):
        kind = "a nonnegative integer" if model.is_discrete else "finite and nonnegative"
        raise ValueError(f"conserved total {omega!r} of {model.family} must be {kind}")
    V = graph.n_sites
    rng = rng_for(seed, stream=7)
    if model.law() is SQUARE:
        x = rng.standard_normal(V)
        x *= math.sqrt(float(omega) / float(x @ x))
        return x
    if not model.is_discrete:
        return rng.dirichlet([float(model.exchange.gamma)] * V) * float(omega)
    return np.bincount(rng.integers(0, V, size=int(omega)), minlength=V)


def _start_config(model: ModelSpec, graph: InteractionGraph, config0) -> np.ndarray:
    """A copy of `config0`, int64 for an integer family; a start outside the model's
    state space (in length, finiteness, sign or integrality) raises ValueError."""
    cfg = np.array(config0, dtype=float)
    rotation = model.law() is SQUARE
    if (cfg.shape != (graph.n_sites,) or not np.isfinite(cfg).all()
            or (not rotation and (cfg < 0).any())
            or (model.is_discrete and (cfg != np.round(cfg)).any())):
        kind = ("nonnegative integers" if model.is_discrete
                else "finite reals" if rotation else "finite nonnegative reals")
        raise ValueError(f"start configuration {config0!r} of {model.family}: "
                         f"expected {graph.n_sites} {kind}")
    return cfg.astype(np.int64) if model.is_discrete else cfg


# ---------------------------------------------------------------------------
# per-family event mechanics
# ---------------------------------------------------------------------------

def _rotation(xi, xj, c, s):
    """The pair (xi, xj) turned by the angle of cosine c and sine s."""
    return xi * c - xj * s, xi * s + xj * c


def _redistribution(alpha, s):
    """The total s split into the fractions alpha and 1 - alpha."""
    return alpha * s, (1.0 - alpha) * s


class _Dynamics:
    """Rates, updates and pair outcomes for one model family on a fixed graph.

    A rate row is the tuple (total, cumulative rates, edge rates, site
    rates) of one configuration; the site rates g(cfg) are kept for
    zero-range only, and are None otherwise.  Its entries are bitwise
    `rates.sum()`, `rates.cumsum()` and `rates = edge_rates(cfg)`; the
    cumulative rates are a list in the one row of a constant-rate
    trajectory, and an array otherwise.
    `reset(cfg)` builds the row of `cfg`.  Each `apply` makes one jump and
    returns the row of the new configuration: the same row when rates are
    constant, else a row derived from the previous one by recomputing the
    edges that share an endpoint with the fired pair.  A zero-range
    trajectory whose C(omega + V - 1, V - 1) rows of 2E + V floats, plus
    `ROW_OBJECT_FLOATS` each for their Python objects, fit
    `ROW_MEMO_FLOATS` keeps every row in a memo keyed by `cfg.tobytes()`: a
    revisit reads its row back, and a first visit derives from a copy of the
    previous row, which the memo holds.  Outside the memo the row is
    derived in place.  `rate_rows` counts the rows built since `reset`.
    `outcomes(cfg, x, y)` lists what a collision of (x, y) can leave, for
    the carre du champ.
    """

    def __init__(self, model: ModelSpec, graph: InteractionGraph):
        self.model = model
        self.edges = graph.edges
        self.scale = graph.pair_scaling
        fam = model.family
        self.is_int = model.is_discrete
        self.square_law = model.law().form == "square"
        ends = np.array(self.edges, dtype=np.intp).reshape(len(self.edges), 2)
        self.ex, self.ey = ends[:, 0].copy(), ends[:, 1].copy()
        # edges incident to each site, O(E) in total; ravel() interleaves the
        # endpoints, so position // 2 is the edge
        sites = ends.ravel()
        order = np.argsort(sites, kind="stable")
        counts = np.bincount(sites, minlength=graph.n_sites)
        self._incident = np.split(order // 2, np.cumsum(counts)[:-1])
        #: pair rates do not depend on the configuration
        self.constant_rates = model.constant_rates
        #: derives the next rate row; None when every configuration shares one
        self._next_row = None
        if fam == "zero-range":
            self._jump, self.outcomes = self._jump_zero_range, self._zero_range_outcomes
            self._next_row = self._zero_range_row
        elif fam == "simple-average":
            self._laws: dict = {}
            self._jump, self.outcomes = self._jump_integer_average, self._integer_average_outcomes
        elif fam == "gamma-exchange":
            ex = model.exchange
            self._gamma = float(ex.gamma)
            self._jump, self.outcomes = self._jump_exchange, self._exchange_outcomes
            if not self.constant_rates:
                self._next_row = self._exchange_row
            self._simple = ex.kernel is None
            if not self._simple:
                self._grid = ex.grid()
                self._K = ex.kernel_matrix()
                self._Kcum = np.cumsum(self._K, axis=1).tolist()
        else:
            # rotations: midpoint nodes weighted by the even part of the density
            nodes = 64
            theta = angle_midpoints(nodes)
            # math.cos and math.sin as the jump uses them; np.cos may differ by an ulp
            self._cos = np.array([math.cos(t) for t in theta])
            self._sin = np.array([math.sin(t) for t in theta])
            rho = model.angle_density()
            w = 0.5 * (rho.values(theta) + rho.values(-theta)) * (2 * math.pi / nodes)
            self._weights = w / w.sum()
            self._theta_sampler = _angle_sampler(rho)
            self._jump, self.outcomes = self._jump_rotation, self._rotation_outcomes

    # rates -----------------------------------------------------------------
    def edge_rates(self, cfg: np.ndarray) -> np.ndarray:
        """Every edge rate computed afresh from `cfg`."""
        if self.constant_rates:
            return np.full(len(self.edges), self.scale)
        if self.model.family == "zero-range":
            gs = self._site_rates(cfg)
            return self.scale * (gs[self.ex] + gs[self.ey])
        vals = cfg.tolist()
        return np.array([self._exchange_rate(vals[x], vals[y]) for x, y in self.edges],
                        dtype=float)

    def reset(self, cfg: np.ndarray) -> tuple:
        """Start tracking `cfg`: build and return its rate row."""
        rates = self.edge_rates(cfg)
        self._memo = site_rates = None
        if self.model.family == "zero-range":
            site_rates = self._site_rates(cfg)
            n_rows = math.comb(int(cfg.sum()) + len(cfg) - 1, len(cfg) - 1)
            row_floats = 2 * len(rates) + len(cfg) + ROW_OBJECT_FLOATS
            if n_rows * row_floats <= ROW_MEMO_FLOATS:
                self._memo = {}
        cum = rates.cumsum()
        if self._next_row is None:
            # the trajectory's one row: the edge draw bisects a list
            cum = cum.tolist()
        self._row = (float(rates.sum()), cum, rates, site_rates)
        self.rate_rows = 1
        if self._memo is not None:
            self._memo[cfg.tobytes()] = self._row
        return self._row

    def conserved(self, cfg: np.ndarray) -> float:
        """Configuration total of the conserved per-site quantity."""
        return float(cfg @ cfg) if self.square_law else float(cfg.sum())

    def _site_rates(self, cfg) -> np.ndarray:
        g = self.model.g
        return np.array([g(int(v)) for v in cfg], dtype=float)

    def _exchange_rate(self, a: float, b: float) -> float:
        """Rate of a pair holding energies (a, b)."""
        s = a + b
        if s <= 0:
            return 0.0
        return self.model.exchange.pair_rate(s, min(max(a / s, 1e-12), 1 - 1e-12), self.scale)

    def _touched(self, x, y) -> np.ndarray:
        """Edges sharing an endpoint with (x, y); the pair itself appears twice."""
        return np.concatenate((self._incident[x], self._incident[y]))

    def _zero_range_row(self, cfg, x, y):
        memo = self._memo
        _, cum, rates, gs = self._row
        if memo is not None:
            key = cfg.tobytes()
            row = memo.get(key)
            if row is not None:
                self._row = row
                return row
            cum, rates, gs = np.empty_like(cum), rates.copy(), gs.copy()
        g = self.model.g
        gs[x] = g(int(cfg[x]))
        gs[y] = g(int(cfg[y]))
        touched = self._touched(x, y)
        rates[touched] = self.scale * (gs[self.ex[touched]] + gs[self.ey[touched]])
        rates.cumsum(out=cum)
        row = self._row = (float(rates.sum()), cum, rates, gs)
        self.rate_rows += 1
        if memo is not None:
            memo[key] = row
        return row

    def _exchange_row(self, cfg, x, y):
        _, cum, rates, _ = self._row
        edges, item = self.edges, cfg.item
        for e in self._touched(x, y).tolist():
            u, v = edges[e]
            rates[e] = self._exchange_rate(item(u), item(v))
        rates.cumsum(out=cum)
        row = self._row = (float(rates.sum()), cum, rates, None)
        self.rate_rows += 1
        return row

    # updates ---------------------------------------------------------------
    def apply(self, cfg: np.ndarray, edge: int, rng: np.random.Generator) -> tuple:
        """Jump on `edge` and return the new configuration's rate row (after `reset`)."""
        x, y = self.edges[edge]
        self._jump(cfg, x, y, rng)
        if self._next_row is None:
            return self._row
        return self._next_row(cfg, x, y)

    def _jump_rotation(self, cfg, x, y, rng):
        self._rotate(cfg, x, y, self._theta_sampler(rng))

    def _jump_zero_range(self, cfg, x, y, rng):
        gs = self._row[3]
        rx, ry = gs[x], gs[y]
        if not rx + ry > 0.0:
            raise ArithmeticError(
                f"zero-range jump on sites ({x}, {y}) with occupations "
                f"({cfg[x]}, {cfg[y]}): no particle can move")
        if rng.random() * (rx + ry) < rx:
            cfg[x] -= 1
            cfg[y] += 1
        else:
            cfg[y] -= 1
            cfg[x] += 1

    def _jump_exchange(self, cfg, x, y, rng):
        if self._simple:
            alpha = rng.beta(self._gamma, self._gamma)
        else:
            row = self._kernel_row(cfg.item(x), cfg.item(x) + cfg.item(y))
            cell = bisect.bisect_left(self._Kcum[row], rng.random())
            alpha = self._grid[min(cell, len(self._grid) - 1)]
        self._redistribute(cfg, x, y, alpha)

    def _jump_integer_average(self, cfg, x, y, rng):
        # the draw Generator.choice(s + 1, p=pmf) makes, without its checks
        s = int(cfg[x] + cfg[y])
        a = bisect.bisect_right(self._pair_law(s)[1], rng.random())
        cfg[x], cfg[y] = a, s - a

    def _rotate(self, cfg, x, y, theta):
        cfg[x], cfg[y] = _rotation(cfg.item(x), cfg.item(y), math.cos(theta), math.sin(theta))

    def _redistribute(self, cfg, x, y, alpha):
        # alpha in [0, 1] and a nonnegative total: both shares are >= 0
        cfg[x], cfg[y] = _redistribution(min(max(alpha, 0.0), 1.0), cfg.item(x) + cfg.item(y))

    def _kernel_row(self, a: float, s: float) -> int:
        """Kernel row of a pair holding a of its total s; any row when s = 0."""
        cells = len(self._grid)
        beta = min(max(a / s, 0.0), 1.0) if s > 0 else 0.5
        return min(int(beta * cells), cells - 1)

    # pair outcomes ---------------------------------------------------------
    # each returns (rate, weights, new x values, new y values): the pair
    # collides at `rate`, and leaves the values listed with those weights

    def _zero_range_outcomes(self, cfg, x, y):
        g, a, b = self.model.g, cfg.item(x), cfg.item(y)
        weights, xs, ys = [], [], []
        if a > 0:
            weights.append(g(a))
            xs.append(a - 1)
            ys.append(b + 1)
        if b > 0:
            weights.append(g(b))
            xs.append(a + 1)
            ys.append(b - 1)
        return self.scale, weights, xs, ys

    def _integer_average_outcomes(self, cfg, x, y):
        s = cfg.item(x) + cfg.item(y)
        xs = range(s + 1)
        return self.scale, self._pair_law(s)[0], xs, [s - a for a in xs]

    def _exchange_outcomes(self, cfg, x, y):
        a, b = cfg.item(x), cfg.item(y)
        s = a + b
        if self._simple:
            alphas, weights = self._beta_nodes
        else:
            alphas, weights = self._grid, self._K[self._kernel_row(a, s)]
        return (self._exchange_rate(a, b), weights) + _redistribution(alphas, s)

    @functools.cached_property
    def _beta_nodes(self):
        """Gauss-Jacobi nodes and weights of the Beta(gamma, gamma) law, built on
        first use: the event loop never needs them."""
        x, w = scipy.special.roots_jacobi(24, self._gamma - 1, self._gamma - 1)
        return (x + 1) / 2, w / w.sum()

    def _rotation_outcomes(self, cfg, x, y):
        return (self.scale, self._weights) + _rotation(cfg.item(x), cfg.item(y),
                                                       self._cos, self._sin)

    def _pair_law(self, s: int) -> tuple:
        """pmf and cdf of the new value at x of an integer pair of total s; the
        cdf is a list, which the jump bisects."""
        law = self._laws.get(s)
        if law is None:
            pmf = pair_law(self.model.g.log_factorials(s), s)[0]
            cdf = pmf.cumsum()
            cdf /= cdf[-1]
            law = self._laws[s] = (pmf, cdf.tolist())
        return law


def _pick_edge(cum, rates: np.ndarray, v: float) -> int:
    """The edge whose cumulative-rate interval holds `v`, never a zero-rate one.

    `cum` is a list or an array of finite nondecreasing values, and its
    bisection finds the index that `searchsorted` would, with less call
    overhead.  The caller's total is `rates.sum()`, summed pairwise, while
    `cum` sums left to right, so `v` can pass `cum[-1]` by an ulp; such a
    draw goes to the last edge of positive rate.  `v == 0` with leading
    zero-rate edges goes to the first edge of positive rate.
    """
    edge = bisect.bisect_left(cum, v)
    if edge == len(cum):
        return int(np.flatnonzero(rates)[-1])
    if rates[edge] == 0.0:
        return bisect.bisect_right(cum, v)
    return edge


def _angle_sampler(rho: RhoSpec) -> Callable:
    """Angle draws from the even part of the density.

    The uniform density is even, and its draw is rng.uniform(-pi, pi).  Any
    other density is drawn by inverse CDF on its angle grid
    (`RhoSpec.grid_values`), then given a fair sign.
    """
    if rho.density is None and rho.order == 0:
        return lambda rng: rng.uniform(-math.pi, math.pi)
    nodes = RHO_QUADRATURE_NODES
    theta = angle_midpoints(nodes).tolist()
    cdf = np.cumsum(rho.grid_values)
    cdf /= cdf[-1]
    cdf = cdf.tolist()

    def sample(rng):
        i = bisect.bisect_left(cdf, rng.random())
        t = theta[min(i, nodes - 1)]
        return -t if rng.random() < 0.5 else t

    return sample


# ---------------------------------------------------------------------------
# the event loop
# ---------------------------------------------------------------------------

@dataclass
class TrajectorySummary:
    model: str
    graph_kind: str
    n_sites: int
    t_final: float
    n_events: int
    final_config: np.ndarray
    conservation_drift: float
    #: always 0, since a redistribution share cannot go negative; bench/hooks.py reads it
    clipped_events: int
    #: rate rows built; a revisit that the zero-range memo serves builds none
    rate_rows: int
    #: configurations whose observables were evaluated: at most n_events + 1
    observable_evals: int


def simulate(model: ModelSpec, graph: InteractionGraph, config0, horizon: float,
             seed: int = 0, sample_dt: Optional[float] = None,
             observables: Optional[dict] = None,
             stream_writer=None,
             event_callback: Optional[Callable] = None) -> tuple[TrajectorySummary, Optional[dict]]:
    """Run the dynamics for `horizon` time units.

    With `sample_dt` and `observables` (name -> callable), records each
    observable on a uniform time grid; `stream_writer` additionally receives
    each sampled frame.  An observable must be a function of the
    configuration alone: it is called at most once per configuration, that
    is at most n_events + 1 times, and a grid point reached with no event
    since the last evaluated one records (and streams) the same values
    again.  `event_callback(t, edge, before, after)` fires on every jump.
    Returns the summary and the sample dict (or None).  A start
    configuration outside the model's state space raises ValueError.
    """
    if sample_dt is not None and not (math.isfinite(sample_dt) and sample_dt > 0):
        raise ValueError(f"sampling stride must be finite and > 0, got {sample_dt}")
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    cfg = _start_config(model, graph, config0)
    dyn = _Dynamics(model, graph)
    target = dyn.conserved(cfg)
    drift_bound = CONSERVATION_RTOL * max(abs(target), 1.0)
    rng = rng_for(seed)
    total, cum, rates, _ = dyn.reset(cfg)
    n_edges = len(rates)

    sampling = sample_dt is not None and observables
    fns = list(observables.values()) if sampling else []
    times: list = []
    frames: list = []   # one frame per configuration evaluated
    which: list = []    # the frame of each grid point
    frame = None        # the current configuration's frame, once evaluated
    t_next = sample_dt
    t = 0.0
    n_events = 0
    drift = 0.0

    while True:
        if not math.isfinite(total):
            raise ArithmeticError(
                f"non-finite pair rate at t = {t}; configuration {cfg!r}")
        if total <= 0.0:
            t_jump = math.inf   # frozen configuration
        else:
            t_jump = t + rng.exponential(1.0 / total)
        if sampling:
            stop = min(t_jump, horizon)
            while t_next <= stop:
                if frame is None:
                    frame = [float(f(cfg)) for f in fns]
                    frames.append(frame)
                times.append(t_next)
                which.append(len(frames) - 1)
                if stream_writer is not None:
                    stream_writer.write_frame(t_next, frame)
                t_next += sample_dt
        if t_jump >= horizon:
            t = horizon
            break
        t = t_jump
        edge = _pick_edge(cum, rates, rng.random() * total) if n_edges > 1 else 0
        before = cfg.copy() if event_callback is not None else None
        total, cum, rates, _ = dyn.apply(cfg, edge, rng)
        frame = None
        if event_callback is not None:
            event_callback(t, edge, before, cfg)
        n_events += 1
        # integer jumps conserve exactly
        if not dyn.is_int:
            drift = max(drift, abs(dyn.conserved(cfg) - target))
            if drift > drift_bound:
                raise ArithmeticError(
                    f"conserved total drifted by {drift:.3e} after {n_events} events")

    if dyn.is_int:
        drift = abs(dyn.conserved(cfg) - target)
    summary = TrajectorySummary(model.family, graph.kind, graph.n_sites, t,
                                n_events, cfg, drift, 0, dyn.rate_rows, len(frames))
    if not sampling:
        return summary, None
    values = np.array(frames, dtype=float).reshape(len(frames), len(fns))
    index = np.array(which, dtype=np.intp)
    return summary, {"times": np.array(times),
                     **{name: values[index, j] for j, name in enumerate(observables)}}


def _stationary_samples(model: ModelSpec, graph: InteractionGraph, omega,
                        observables: dict, *, dt: float, n_samples: int,
                        burn_in: Optional[float], seed: int,
                        stream_writer=None) -> tuple[dict, dict]:
    """Each observable on a uniform grid after burn-in, from one trajectory.

    The trajectory starts from `initial_config` with the same seed, and the
    burn-in defaults to 40 dt.  `stream_writer` receives every sampled frame,
    burn-in included.  Returns {name: n_samples values} and the trajectory's
    counts: events, clipped events, rate rows built and observable
    evaluations.
    """
    cfg = initial_config(model, graph, omega, seed=seed)
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if burn_in is None:
        burn_in = 40.0 * dt
    elif not (math.isfinite(burn_in) and burn_in >= 0):
        raise ValueError(f"burn-in must be finite and >= 0, got {burn_in}")
    horizon = burn_in + dt * (n_samples + 1)
    summary, samples = simulate(model, graph, cfg, horizon, seed=seed, sample_dt=dt,
                                observables=observables, stream_writer=stream_writer)
    skip = int(math.ceil(burn_in / dt))
    if len(samples["times"]) < skip + n_samples:
        raise RuntimeError("trajectory too short for the requested samples")
    counts = {"events": summary.n_events, "clipped_events": summary.clipped_events,
              "rate_rows": summary.rate_rows, "observable_evals": summary.observable_evals}
    return {name: samples[name][skip:skip + n_samples] for name in observables}, counts


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
    """Autocovariance at lags 0..L - 1 with L = min(n, MAX_FIT_LAG + 1), the
    lags the decay fit reads.

    Zero-padding to a power of two m >= n + L keeps the circular wrap of the
    FFT off every returned lag, so they equal the full autocovariance's.
    """
    n = len(x)
    lags = min(n, MAX_FIT_LAG + 1)
    xc = x - x.mean()
    m = 1 << (n + lags - 1).bit_length()
    f = np.fft.rfft(xc, m)
    return np.fft.irfft(f * np.conj(f), m)[:lags] / n


def _window_lags(ratio: np.ndarray, window: tuple) -> np.ndarray:
    """Fit lags l + 1 of the autocorrelation ratios C(l + 1)/C(0).

    Only the first `MAX_FIT_LAG` ratios are searched.  The run starts at the
    first ratio at or below window[1] and stops before the first later ratio
    below window[0]; a NaN ratio compares false both ways, so it neither
    opens nor closes the run.
    """
    ratio = ratio[:MAX_FIT_LAG]
    inside = np.flatnonzero(ratio <= window[1])
    if not inside.size:
        raise NoDecayError("autocorrelation never enters the fit window")
    start = int(inside[0])
    below = np.flatnonzero(ratio[start:] < window[0])
    stop = start + int(below[0]) if below.size else len(ratio)
    return np.arange(start + 1, stop + 1)


def _fit_decay_rate(series: np.ndarray, dt: float) -> float:
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
    lags = _window_lags(c[1:] / c0, FIT_WINDOW)
    if len(lags) < 2:
        raise NoDecayError(
            f"fewer than two lags with C(t)/C(0) in [{FIT_WINDOW[0]}, {FIT_WINDOW[1]}]")
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
                          seed: int = 0, stream_writer=None) -> EstimatorResult:
    """Slowest autocorrelation decay rate of the observable, with bootstrap CI.

    The point estimate upper-bounds the true gap when the observable mixes
    several modes; the interval is widened by `CI_INFLATION` to absorb that
    fit-model error.  `stream_writer` receives the sampled series of the
    same trajectory, burn-in included.
    """
    samples, counts = _stationary_samples(model, graph, omega, {"f": observable}, dt=dt,
                                          n_samples=n_samples, burn_in=burn_in, seed=seed,
                                          stream_writer=stream_writer)
    series = samples["f"]
    rate = _fit_decay_rate(series, dt)

    rng = rng_for(seed, stream=99)
    n = len(series)
    tau = max(1.0 / (rate * dt), 1.0)
    block = int(min(max(20 * tau, 50), n // 4))
    n_blocks = int(math.ceil(n / block))
    draws = []
    failures = 0
    for _ in range(N_BOOTSTRAP):
        starts = rng.integers(0, n, size=n_blocks)
        idx = (starts[:, None] + np.arange(block)[None, :]) % n
        resampled = series[idx].ravel()[:n]
        try:
            draws.append(_fit_decay_rate(resampled, dt))
        except NoDecayError:
            failures += 1
    if len(draws) < max(10, N_BOOTSTRAP // 2):
        raise NoDecayError(f"bootstrap refits failed {failures}/{N_BOOTSTRAP} times")
    draws = np.array(draws)
    lo, hi = np.percentile(draws, [2.5, 97.5])
    se = float(draws.std(ddof=1))
    # wider of the percentile and symmetric-normal bootstrap intervals; the
    # percentile shape alone under-covers when the draw distribution is skewed
    half_lo = max(rate - lo, 1.96 * se) * CI_INFLATION
    half_hi = max(hi - rate, 1.96 * se) * CI_INFLATION
    ess = n / (2.0 * tau)
    return EstimatorResult(
        estimate=rate, stderr=se,
        ci_low=rate - half_lo, ci_high=rate + half_hi, ess=ess,
        diagnostics={"block": block, "n_samples": n, "bootstrap_failures": failures,
                     "dt": dt, "inflation": CI_INFLATION, **counts})


def _local_dirichlet(dyn: _Dynamics, cfg: np.ndarray, f: Callable) -> float:
    """Pointwise carre-du-champ: expected squared jump of f per unit time, halved.

    An observable with a `stack` attribute, which evaluates f on each row of
    an (M, V) array, is evaluated once on each pair's stack of outcomes, and
    f(cfg) comes from the same evaluator.  Any other is called per outcome.
    """
    total = 0.0
    stack = getattr(f, "stack", None)
    if stack is not None:
        f0 = stack(cfg[None, :])[0]
        for (x, y) in dyn.edges:
            rate, weights, xs, ys = dyn.outcomes(cfg, x, y)
            t = np.repeat(cfg[None, :], len(weights), axis=0)
            t[:, x], t[:, y] = xs, ys
            total += rate * 0.5 * float(np.dot(weights, (stack(t) - f0) ** 2))
        return total
    f0 = f(cfg)
    t = cfg.copy()
    for (x, y) in dyn.edges:
        rate, weights, xs, ys = dyn.outcomes(cfg, x, y)
        acc = 0.0
        for wt, a, b in zip(weights, xs, ys):
            t[x], t[y] = a, b
            acc += wt * (f(t) - f0) ** 2
        t[x], t[y] = cfg[x], cfg[y]
        total += rate * 0.5 * acc
    return total


def rayleigh_upper_bound(model: ModelSpec, graph: InteractionGraph,
                         observable: Callable, *, omega, dt: float,
                         n_samples: int = 4000, burn_in: Optional[float] = None,
                         seed: int = 0) -> EstimatorResult:
    """Ratio of the trajectory-averaged quadratic form to the variance of f.

    Consistent for the Rayleigh quotient, hence an upper bound on the gap up
    to statistical error; the interval comes from batch-mean linearization
    over `N_BATCHES` batches, so `n_samples` must be at least that.
    """
    if n_samples < N_BATCHES:
        raise ValueError(f"the batch-mean interval needs at least {N_BATCHES} samples, "
                         f"got {n_samples}")
    dyn = _Dynamics(model, graph)

    # wraps() copies the observable's attributes, its `stack` evaluator included
    @functools.wraps(observable)
    def probe(c):
        return float(observable(c))

    observables = {
        "f": probe,
        "dirichlet": lambda c: _local_dirichlet(dyn, c, probe),
    }
    samples, counts = _stationary_samples(model, graph, omega, observables, dt=dt,
                                          n_samples=n_samples, burn_in=burn_in, seed=seed)
    fvals, dvals = samples["f"], samples["dirichlet"]

    var = float(fvals.var())
    if var <= 0:
        raise ValueError("degenerate observable: zero empirical variance")
    ratio = float(dvals.mean()) / var

    # batch-mean linearization of the ratio estimator
    k = N_BATCHES
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
        diagnostics={"numerator": float(dvals.mean()), "variance": var, "batches": k,
                     **counts})
