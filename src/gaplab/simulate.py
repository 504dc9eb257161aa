"""Event-driven simulation of the collision dynamics and gap estimators.

Pair clocks are exponential with state-dependent rates; every event
redraws the affected pair.  The loop reads each configuration's rate row:
its total, cumulative edge rates (the edge is drawn from them), edge rates
and, for zero-range, site rates.  The constant-rate families build one row
per trajectory.  Otherwise a jump on (x, y) derives the next row from the
current one by recomputing only the edges that share an endpoint with it.
A discrete trajectory (zero-range or the integer average) whose whole
configuration space fits `ROW_MEMO_FLOATS` runs instead as a jump chain on
indexed states: a configuration's rate row, the targets of its outcomes
and its observable values are each built once, on first need, and an
event is then a bisection and a few list reads.  Every draw from a table
(the edge, the integer average's new value, an angle or a kernel cell)
bisects the table with the `bisect` module.  The random stream is the same
as a recompute-everything loop's on either loop, so a seed fixes the
trajectory bit for bit.  An observable is a function of the configuration
alone.  The chain evaluates it exactly once per configuration that a
sampling grid point reaches; the general loop evaluates it once per
configuration between two events, so grid points between two events repeat
its values.  The estimators fit
the slowest decay of stationary autocorrelations or accumulate the
quadratic form of the generator along the trajectory.  The decay fit
computes lags 0..15 of the autocovariance as direct products, and every
lag up to `MAX_FIT_LAG` from one FFT only when its window is still open
after them.  Once the window closes, later lags cannot move it, so it is
the window a search of all lags finds.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.special
from numpy.lib.stride_tricks import sliding_window_view

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
#: the decay fit computes autocovariance lags 0..15 as direct products and
#: takes all MAX_FIT_LAG + 1 lags from the FFT only when its window is still
#: open after them.  At the battery's stride (dt = 0.25/gap) the window
#: closes by about lag 10.  On a 2-core Xeon with one BLAS thread, the 16
#: direct lags take 7.6, 17 and 83 us at n = 1000, 5000 and 25000, against
#: 34, 94 and 607 us for the FFT, so a window that outlives them costs 14-22%
#: more.  Direct lags cost 0.08, 0.51 and 3.7 us each there and would break
#: even with the FFT near 440, 180 and 160 lags.
FIRST_FIT_LAGS = 16
#: batches of the Rayleigh-quotient interval
N_BATCHES = 20
#: float64 budget (2 MiB) of the jump chain: a discrete trajectory runs on
#: indexed states when the chain objects of its whole configuration space fit
ROW_MEMO_FLOATS = 1 << 18
#: the Python objects of one chain state beyond its row entries and
#: transition slots (key tuple, row tuple and list headers, frame, index
#: entries) in float64s: 46-100 measured with tracemalloc on K2-K4 at
#: omega = 4, 8, 12 with two observables (the most on K2 at omega = 4, whose
#: 5 states share the chain's own headers), 580-1,300 bytes per state in all
ROW_OBJECT_FLOATS = 100


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
    `reset(cfg)` builds the row of `cfg` for the general loop.  Each `apply`
    makes one jump and returns the row of the new configuration: the same
    row when rates are constant, else the previous row updated in place by
    recomputing the edges that share an endpoint with the fired pair.
    `rate_rows` counts the rows built since `reset`.  `list_row(cfg)` builds
    a row afresh with list entries, for the jump chain (`_Chain`).
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
        site_rates = self._site_rates(cfg) if self.model.family == "zero-range" else None
        cum = rates.cumsum()
        if self._next_row is None:
            # the trajectory's one row: the edge draw bisects a list
            cum = cum.tolist()
        self._row = (float(rates.sum()), cum, rates, site_rates)
        self.rate_rows = 1
        return self._row

    def list_row(self, cfg: np.ndarray) -> tuple:
        """The rate row of `cfg` built afresh, its entries Python floats and lists."""
        rates = self.edge_rates(cfg)
        site_rates = (self._site_rates(cfg).tolist() if self.model.family == "zero-range"
                      else None)
        return float(rates.sum()), rates.cumsum().tolist(), rates.tolist(), site_rates

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
        _, cum, rates, gs = self._row
        g = self.model.g
        gs[x] = g(int(cfg[x]))
        gs[y] = g(int(cfg[y]))
        touched = self._touched(x, y)
        rates[touched] = self.scale * (gs[self.ex[touched]] + gs[self.ey[touched]])
        rates.cumsum(out=cum)
        row = self._row = (float(rates.sum()), cum, rates, gs)
        self.rate_rows += 1
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
# the event loops
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
    #: always 0, since a redistribution share cannot go negative; kept only
    #: because bench/hooks.py reads it
    clipped_events: int
    #: rate rows built: one per configuration visited on the chain, one per
    #: event on the general loop, and one in all for constant rates
    rate_rows: int
    #: configurations whose observables were evaluated
    observable_evals: int
    #: configurations the jump chain indexed; 0 when the general loop ran
    chain_states: int


def simulate(model: ModelSpec, graph: InteractionGraph, config0, horizon: float,
             seed: int = 0, sample_dt: Optional[float] = None,
             observables: Optional[dict] = None,
             event_callback: Optional[Callable] = None) -> tuple[TrajectorySummary, Optional[dict]]:
    """Run the dynamics for `horizon` time units.

    With `sample_dt` and `observables` (name -> callable), records each
    observable on a uniform time grid.  An observable must be a function of
    the configuration alone.  A discrete trajectory whose configuration space
    fits the chain budget (`_chain_fits`) runs on indexed states and calls
    it exactly once per configuration that a grid point reaches.  The
    general loop calls it once per such configuration between two events,
    so at most n_events + 1 times.  Either way a grid point that reuses a
    configuration's values records them again.
    `event_callback(t, edge, before, after)` fires on every jump.  Returns
    the summary and the sample dict (or None).  A start configuration
    outside the model's state space raises ValueError.
    """
    if sample_dt is not None and not (math.isfinite(sample_dt) and sample_dt > 0):
        raise ValueError(f"sampling stride must be finite and > 0, got {sample_dt}")
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    cfg = _start_config(model, graph, config0)
    dyn = _Dynamics(model, graph)
    target = dyn.conserved(cfg)
    rng = rng_for(seed)
    sampling = sample_dt is not None and bool(observables)
    fns = list(observables.values()) if sampling else []
    args = (rng, horizon, sample_dt if sampling else None, fns, event_callback)
    if _chain_fits(model, graph, int(cfg.sum())):
        chain = _Chain(dyn, cfg)
        t, n_events, cfg, times, frames, which, drift = chain.run(*args)
        chain_states = len(chain.keys)
        rate_rows = 1 if dyn.constant_rates else chain_states
    else:
        t, n_events, cfg, times, frames, which, drift = _event_loop(dyn, cfg, target, *args)
        chain_states, rate_rows = 0, dyn.rate_rows

    if dyn.is_int:
        drift = abs(dyn.conserved(cfg) - target)
    summary = TrajectorySummary(model.family, graph.kind, graph.n_sites, t, n_events, cfg,
                                drift, 0, rate_rows, len(frames), chain_states)
    if not sampling:
        return summary, None
    values = np.array(frames, dtype=float).reshape(len(frames), len(fns))
    index = np.array(which, dtype=np.intp)
    return summary, {"times": np.array(times),
                     **{name: values[index, j] for j, name in enumerate(observables)}}


def _chain_fits(model: ModelSpec, graph: InteractionGraph, omega: int) -> bool:
    """Whether a trajectory runs as an indexed jump chain: the family is
    discrete and the chain objects of all C(omega + V - 1, V - 1)
    configurations fit `ROW_MEMO_FLOATS`.

    A zero-range configuration holds a rate row of 2E + V list entries, each
    a pointer and a float object (4 float64s), and 2E transition slots; an
    integer-average one shares its row and holds E (omega + 1) slots.  A
    slot is a pointer (1 float64).  `ROW_OBJECT_FLOATS` adds its key,
    frame and list headers.
    """
    if not model.is_discrete:
        return False
    V, E = graph.n_sites, graph.n_edges
    if model.family == "zero-range":
        floats = 4 * (2 * E + V) + 2 * E
    else:
        floats = E * (omega + 1)
    n_states = math.comb(omega + V - 1, V - 1)
    return n_states * (floats + ROW_OBJECT_FLOATS) <= ROW_MEMO_FLOATS


class _Chain:
    """The jump chain of a discrete trajectory on indexed states.

    State i is the configuration `keys[i]`, a tuple of occupations.  Its
    first visit gives it an index, the rate row `rows[i]` built afresh by
    `_Dynamics.list_row` (one row shared by all states when the rates are
    constant) and a transition table `moves[i]` of E * width slots.  Slot
    edge * width + outcome holds the state that outcome leads to, stored
    the first time it fires, and -1 before.  The outcome is the zero-range
    direction (0 when x gives a particle to y, 1 otherwise; width 2) or the
    integer average's new value at x (width omega + 1).  `frame_of[i]` is
    the index of state i's observable frame, or -1 before a grid point
    reaches it.  Each event makes the general loop's draws in its order, so
    a seed gives the same trajectory on either loop.
    """

    def __init__(self, dyn: _Dynamics, cfg: np.ndarray):
        self.dyn = dyn
        self.zero_range = dyn.model.family == "zero-range"
        self.width = 2 if self.zero_range else int(cfg.sum()) + 1
        self._shared = None if self.zero_range else dyn.list_row(cfg)
        self._slots = len(dyn.edges) * self.width
        self.keys: list = []
        self.rows: list = []
        self.moves: list = []
        self.frame_of: list = []
        self.index: dict = {}
        self.state(tuple(cfg.tolist()), 0.0)

    def state(self, key: tuple, t: float) -> int:
        """The index of configuration `key`, entered at time t; a first visit
        builds its row and refuses a non-finite total."""
        i = self.index.get(key)
        if i is None:
            row = self._shared or self.dyn.list_row(np.array(key, dtype=np.int64))
            if not math.isfinite(row[0]):
                raise ArithmeticError(f"non-finite pair rate at t = {t}; "
                                      f"configuration {np.array(key)!r}")
            i = self.index[key] = len(self.keys)
            self.keys.append(key)
            self.rows.append(row)
            self.moves.append([-1] * self._slots)
            self.frame_of.append(-1)
        return i

    def _target(self, i: int, x: int, y: int, outcome: int, t: float) -> int:
        """The state that `outcome` of a collision on (x, y) leaves from state i."""
        c = list(self.keys[i])
        if self.zero_range:
            step = 1 if outcome == 0 else -1
            c[x] -= step
            c[y] += step
        else:
            c[x], c[y] = outcome, c[x] + c[y] - outcome
        return self.state(tuple(c), t)

    def run(self, rng, horizon, sample_dt, fns, event_callback) -> tuple:
        """The loop of `simulate` on state indices, from state 0."""
        keys, rows, moves, frame_of = self.keys, self.rows, self.moves, self.frame_of
        edges, width = self.dyn.edges, self.width
        n_edges = len(edges)
        pair_law = self.dyn._pair_law
        exponential, random = rng.exponential, rng.random
        times: list = []
        frames: list = []   # one frame per state evaluated
        which: list = []    # the frame of each grid point
        t_next = sample_dt
        t = 0.0
        n_events = 0
        state = 0
        while True:
            total, cum, rates, site_rates = rows[state]
            t_jump = t + exponential(1.0 / total) if total > 0.0 else math.inf
            if sample_dt is not None:
                stop = min(t_jump, horizon)
                while t_next <= stop:
                    frame = frame_of[state]
                    if frame < 0:
                        cfg = np.array(keys[state], dtype=np.int64)
                        frame = frame_of[state] = len(frames)
                        frames.append([float(f(cfg)) for f in fns])
                    times.append(t_next)
                    which.append(frame)
                    t_next += sample_dt
            if t_jump >= horizon:
                t = horizon
                break
            t = t_jump
            edge = _pick_edge(cum, rates, random() * total) if n_edges > 1 else 0
            x, y = edges[edge]
            if site_rates is not None:
                # the edge has positive rate, so rx + ry > 0
                rx = site_rates[x]
                outcome = 0 if random() * (rx + site_rates[y]) < rx else 1
            else:
                key = keys[state]
                outcome = bisect.bisect_right(pair_law(key[x] + key[y])[1], random())
            move = moves[state]
            code = edge * width + outcome
            nxt = move[code]
            if nxt < 0:
                nxt = move[code] = self._target(state, x, y, outcome, t)
            if event_callback is not None:
                event_callback(t, edge, np.array(keys[state], dtype=np.int64),
                               np.array(keys[nxt], dtype=np.int64))
            state = nxt
            n_events += 1
        cfg = np.array(keys[state], dtype=np.int64)
        return t, n_events, cfg, times, frames, which, 0.0


def _event_loop(dyn: _Dynamics, cfg: np.ndarray, target: float, rng, horizon, sample_dt,
                fns, event_callback) -> tuple:
    """The loop of `simulate` on a configuration array that each jump updates;
    `target` is the conserved total."""
    drift_bound = CONSERVATION_RTOL * max(abs(target), 1.0)
    total, cum, rates, _ = dyn.reset(cfg)
    n_edges = len(rates)
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
        if sample_dt is not None:
            stop = min(t_jump, horizon)
            while t_next <= stop:
                if frame is None:
                    frame = [float(f(cfg)) for f in fns]
                    frames.append(frame)
                times.append(t_next)
                which.append(len(frames) - 1)
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
    return t, n_events, cfg, times, frames, which, drift


def _stationary_samples(model: ModelSpec, graph: InteractionGraph, omega,
                        observables: dict, *, dt: float, n_samples: int,
                        burn_in: Optional[float], seed: int,
                        stream_writer=None) -> tuple[dict, dict]:
    """Each observable on a uniform grid after burn-in, from one trajectory.

    The trajectory starts from `initial_config` with the same seed, and the
    burn-in defaults to 40 dt.  `stream_writer` receives every grid point's
    frame, burn-in included, once the trajectory has ended.  Returns
    {name: n_samples values} and the trajectory's counts: events, rate rows
    built, observable evaluations and the states the jump chain indexed.
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
                                observables=observables)
    if stream_writer is not None:
        for t, *frame in zip(samples["times"], *(samples[name] for name in observables)):
            stream_writer.write_frame(t, frame)
    skip = int(math.ceil(burn_in / dt))
    if len(samples["times"]) < skip + n_samples:
        raise RuntimeError("trajectory too short for the requested samples")
    counts = {"events": summary.n_events, "rate_rows": summary.rate_rows,
              "observable_evals": summary.observable_evals,
              "chain_states": summary.chain_states}
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


@functools.lru_cache(maxsize=None)
def _fft_length(size: int) -> int:
    """The smallest m >= size with no prime factor above 5."""
    m = size
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Autocovariance at lags 0..L - 1 with L = min(n, MAX_FIT_LAG + 1), every
    lag the decay fit can read, by FFT.

    Zero-padding to a length m >= n + L - 1 keeps the circular wrap of the
    FFT off every returned lag, so they equal the full autocovariance's.  m
    has no prime factor above 5: at n = 5000 it is 5400, which transforms in
    about 75% of the time of the power of two 8192 (pocketfft), and it takes
    no `scipy.fft` import.
    """
    n = len(x)
    lags = min(n, MAX_FIT_LAG + 1)
    xc = x - x.mean()
    m = _fft_length(n + lags - 1)
    f = np.fft.rfft(xc, m)
    return np.fft.irfft(f * np.conj(f), m)[:lags] / n


def _first_autocovariance(x: np.ndarray) -> np.ndarray:
    """Autocovariance at lags 0..L - 1 with L = min(n, FIRST_FIT_LAGS), each lag
    l the direct product xc[:n - l] @ xc[l:] / n of the centred series xc.

    One `np.correlate` call takes every product, over xc followed by L - 1 zeros.
    """
    n = len(x)
    lags = min(n, FIRST_FIT_LAGS)
    padded = np.zeros(n + lags - 1)
    np.subtract(x, x.mean(), out=padded[:n])
    return np.correlate(padded, padded[:n], "valid") / n


def _window_lags(ratio: np.ndarray, window: tuple) -> tuple[np.ndarray, bool]:
    """Fit lags l + 1 of the autocorrelation ratios C(l + 1)/C(0), and whether
    the run closed within `ratio`.

    Only the first `MAX_FIT_LAG` ratios are searched.  The run starts at the
    first ratio at or below window[1] and stops before the first later ratio
    below window[0]; a NaN ratio compares false both ways, so it neither
    opens nor closes the run.  Once the run has closed, ratios past the given
    ones cannot move it.
    """
    ratio = ratio[:MAX_FIT_LAG]
    inside = np.flatnonzero(ratio <= window[1])
    if not inside.size:
        raise NoDecayError("autocorrelation never enters the fit window")
    start = int(inside[0])
    below = np.flatnonzero(ratio[start:] < window[0])
    if not below.size:
        return np.arange(start + 1, len(ratio) + 1), False
    return np.arange(start + 1, start + int(below[0]) + 1), True


def _fit_window(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The autocovariance lags the decay fit computed, and its window's lags.

    Lags below `FIRST_FIT_LAGS` come first, as direct products.  They suffice
    when the window closes among them; otherwise every lag up to
    min(n, MAX_FIT_LAG + 1) comes from the FFT.  A constant series raises
    "zero-variance observable": its C(0) is the square of its mean's
    rounding error, far below 1e-20 of its squared value, so only a C(0)
    that small is tested for min == max; any other costs one comparison.
    """
    c = _first_autocovariance(series)
    if c[0] <= 0 or (c[0] <= (1e-10 * series[0]) ** 2 and series.min() == series.max()):
        raise NoDecayError("zero-variance observable")
    if c[0] > 0 and len(c) < min(len(series), MAX_FIT_LAG + 1):
        try:
            lags, closed = _window_lags(c[1:] / c[0], FIT_WINDOW)
        except NoDecayError:
            closed = False
        if closed:
            return c, lags
        c = _autocovariance(series)
    if c[0] <= 0:
        raise NoDecayError("zero-variance observable")
    return c, _window_lags(c[1:] / c[0], FIT_WINDOW)[0]


def _fit_decay_rate(series: np.ndarray, dt: float) -> tuple[float, int, np.ndarray]:
    """Weighted slope of log-autocovariance over the mid-decay lag window.

    The window is the contiguous run of lags from the first ratio at or below
    the upper edge until the decay first dips below the lower edge; noisy
    tail lags that wander back into the band are excluded.  Weights are the
    squared ratios, the delta-method variance of each log point.  Returns
    the decay rate, the number of autocovariance lags computed and the
    window's lags.
    """
    c, lags = _fit_window(series)
    if len(lags) < 2:
        raise NoDecayError(
            f"fewer than two lags with C(t)/C(0) in [{FIT_WINDOW[0]}, {FIT_WINDOW[1]}]")
    ratio = c[lags] / c[0]
    y = np.log(ratio)
    w = ratio ** 2
    t = lags * dt
    d = t - (w @ t) / w.sum()
    rate = -float((w * d) @ y / ((w * d) @ d))
    if rate <= 0:
        raise NoDecayError("fitted decay rate is not positive")
    return rate, len(c), lags


def _bootstrap_rates(series: np.ndarray, rate: float, dt: float,
                     rng: np.random.Generator) -> tuple[list, int, int]:
    """Decay rates refitted to `N_BOOTSTRAP` circular block resamples of `series`.

    A block is 20 correlation times 1/(rate dt) long, at least 50 samples and
    at most a quarter of the series; each resample joins blocks that start at
    uniform positions drawn from `rng` and wrap past the end.  Returns the
    refitted rates, the number of refits that raised `NoDecayError` and the
    block length.
    """
    n = len(series)
    tau = max(1.0 / (rate * dt), 1.0)
    block = int(min(max(20 * tau, 50), n // 4))
    n_blocks = int(math.ceil(n / block))
    # row s is the block that starts at sample s
    blocks = sliding_window_view(np.concatenate((series, series[:block - 1])), block)
    draws = []
    failures = 0
    for _ in range(N_BOOTSTRAP):
        resampled = blocks[rng.integers(0, n, size=n_blocks)].ravel()[:n]
        try:
            draws.append(_fit_decay_rate(resampled, dt)[0])
        except NoDecayError:
            failures += 1
    return draws, failures, block


def autocorr_gap_estimate(model: ModelSpec, graph: InteractionGraph,
                          observable: Callable, *, omega, dt: float,
                          n_samples: int = 5000, burn_in: Optional[float] = None,
                          seed: int = 0, stream_writer=None) -> EstimatorResult:
    """Slowest autocorrelation decay rate of the observable, with bootstrap CI.

    The point estimate upper-bounds the true gap when the observable mixes
    several modes; the interval is widened by `CI_INFLATION` to absorb that
    fit-model error.  `stream_writer` receives the sampled series of the
    same trajectory, burn-in included, once the trajectory has ended.
    """
    samples, counts = _stationary_samples(model, graph, omega, {"f": observable}, dt=dt,
                                          n_samples=n_samples, burn_in=burn_in, seed=seed,
                                          stream_writer=stream_writer)
    series = samples["f"]
    rate, fit_lags, window = _fit_decay_rate(series, dt)

    draws, failures, block = _bootstrap_rates(series, rate, dt, rng_for(seed, stream=99))
    if len(draws) < max(10, N_BOOTSTRAP // 2):
        raise NoDecayError(f"bootstrap refits failed {failures}/{N_BOOTSTRAP} times")
    draws = np.array(draws)
    lo, hi = np.percentile(draws, [2.5, 97.5])
    se = float(draws.std(ddof=1))
    # wider of the percentile and symmetric-normal bootstrap intervals; the
    # percentile shape alone under-covers when the draw distribution is skewed
    half_lo = max(rate - lo, 1.96 * se) * CI_INFLATION
    half_hi = max(hi - rate, 1.96 * se) * CI_INFLATION
    n = len(series)
    ess = n / (2.0 * max(1.0 / (rate * dt), 1.0))
    return EstimatorResult(
        estimate=rate, stderr=se,
        ci_low=rate - half_lo, ci_high=rate + half_hi, ess=ess,
        diagnostics={"block": block, "n_samples": n, "bootstrap_failures": failures,
                     "fit_lags": fit_lags, "fit_window": [int(window[0]), int(window[-1])],
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
    nums = dvals[:k * size].reshape(k, size).mean(axis=1)
    dens = ((fvals[:k * size] - fvals.mean()) ** 2).reshape(k, size).mean(axis=1)
    infl = (nums - ratio * dens) / dens.mean()
    se = float(infl.std(ddof=1) / math.sqrt(k))
    t975 = scipy.special.stdtrit(k - 1, 0.975)
    width = float(t975) * se
    return EstimatorResult(
        estimate=ratio, stderr=se, ci_low=ratio - width, ci_high=ratio + width,
        ess=float(k),
        diagnostics={"numerator": float(dvals.mean()), "variance": var, "batches": k,
                     **counts})
