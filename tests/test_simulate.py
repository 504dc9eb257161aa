import functools
import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from gaplab.discrete import (build_generator, enumerate_states, gap_eigenfunction,
                             stationary_weights)
from gaplab.galerkin import (assemble_galerkin, galerkin_eigensystem, pair_average_action,
                             rho_pair_action, sector_polynomial)
from gaplab.models import (G_CONSTANT_ONE, G_IDENTITY, RHO_QUADRATURE_NODES,
                           GammaExchangeSpec, ModelSpec, RhoSpec, build_graph, pair_law)
from gaplab.reporting import SampleStreamWriter, read_sample_stream
from gaplab import simulate as simulate_mod
from gaplab.simulate import (FIRST_FIT_LAGS, MAX_FIT_LAG, N_BATCHES, N_BOOTSTRAP, ROW_MEMO_FLOATS,
                             ROW_OBJECT_FLOATS, NoDecayError, _angle_sampler, _autocovariance,
                             _bootstrap_rates, _Dynamics,
                             _first_autocovariance, _fit_decay_rate, _fit_window,
                             _local_dirichlet, _pick_edge, _window_lags, autocorr_gap_estimate,
                             initial_config, rayleigh_upper_bound, rng_for, simulate)

_FIT_RATE = importlib.util.spec_from_file_location(
    "fit_rate", Path(__file__).resolve().parent.parent / "scripts" / "fit_rate.py")
fit_rate = importlib.util.module_from_spec(_FIT_RATE)
_FIT_RATE.loader.exec_module(fit_rate)

ZR_LINEAR = ModelSpec("zero-range", g=G_IDENTITY)
ZR_CONST = ModelSpec("zero-range", g=G_CONSTANT_ONE)
KAC = ModelSpec("kac-uniform")
# the simple average for the gamma measure at unit shape
GAMMA_AVG = ModelSpec("gamma-exchange", exchange=GammaExchangeSpec(gamma=1))
SIMPLE_AVG = ModelSpec("simple-average", g=G_CONSTANT_ONE)
K3 = build_graph("complete", N=3)


def _table_observable(model, graph, omega):
    states = enumerate_states(graph.n_sites, omega)
    gen = build_generator(model, graph, states)
    gap, table = gap_eigenfunction(gen)
    return gap, (lambda cfg: table[states.index[tuple(int(v) for v in cfg)]])


def _kac_k3_polynomial():
    """The degree-4 gap eigenfunction of the Kac walk on K3, with its stack evaluator."""
    return sector_polynomial(galerkin_eigensystem(assemble_galerkin("kac-uniform", K3, degree=4)))


class TestInitialTotal:
    """`initial_config` refuses a total no configuration of the family has."""

    @pytest.mark.parametrize("omega", [-2.0, math.nan, math.inf])
    def test_rotation_total(self, omega):
        with pytest.raises(ValueError, match="total .* must be finite and nonnegative"):
            initial_config(KAC, K3, omega)

    @pytest.mark.parametrize("omega", [-2.0, math.nan, math.inf])
    def test_redistribution_total(self, omega):
        with pytest.raises(ValueError, match="total .* must be finite and nonnegative"):
            initial_config(GAMMA_AVG, K3, omega)

    @pytest.mark.parametrize("omega", [-2, 2.5, math.nan, math.inf])
    def test_integer_total(self, omega):
        # int(2.5) once ran a total of 2
        with pytest.raises(ValueError, match="total .* must be a nonnegative integer"):
            initial_config(ZR_LINEAR, K3, omega)

    def test_valid_totals(self):
        assert initial_config(ZR_LINEAR, K3, 4.0).sum() == 4
        assert initial_config(KAC, K3, 0.0).tolist() == [0.0, 0.0, 0.0]


class TestStartConfiguration:
    """`simulate` refuses, once per call, a start outside the model's state space."""

    @pytest.mark.parametrize("model, cfg", [
        (KAC, [3.0, 1.0]), (KAC, [0.5, 0.5, 0.5, 0.5]), (ZR_LINEAR, [1, 1]),
        (GAMMA_AVG, [0.2, 0.3, 0.1, 0.4])], ids=["kac-short", "kac-long", "zr-short",
                                                  "gamma-long"])
    def test_wrong_length(self, model, cfg):
        with pytest.raises(ValueError, match="expected 3 "):
            simulate(model, K3, cfg, 1.0)

    @pytest.mark.parametrize("model, cfg, kind", [
        (SIMPLE_AVG, [3, -1, 1], "nonnegative integers"),
        (ZR_LINEAR, [3, -1, 1], "nonnegative integers"),
        (GAMMA_AVG, [1.0, -0.2, 0.5], "finite nonnegative reals"),
    ], ids=["simple-average", "zero-range", "gamma-exchange"])
    def test_negative_entry(self, model, cfg, kind):
        with pytest.raises(ValueError, match=f"of {model.family}: expected 3 {kind}"):
            simulate(model, K3, cfg, 1.0)

    @pytest.mark.parametrize("model", [ZR_LINEAR, SIMPLE_AVG], ids=["zero-range",
                                                                     "simple-average"])
    def test_non_integer_entry(self, model):
        # a cast to int64 would run [1, 1, 1], a total of 3 for 3.5
        with pytest.raises(ValueError, match=r"\[1.5, 1, 1\] .* expected 3 nonnegative integers"):
            simulate(model, K3, [1.5, 1, 1], 1.0)

    def test_non_finite_entry(self):
        with pytest.raises(ValueError, match="expected 3 finite reals"):
            simulate(KAC, K3, [1.0, 0.0, math.nan], 1.0)

    def test_valid_starts_run(self):
        # rotations take any sign; integer values may arrive as floats
        kac, _ = simulate(KAC, K3, [-1.0, 0.5, 0.2], 1.0, seed=0)
        zr, _ = simulate(ZR_LINEAR, K3, [2.0, 0.0, 1.0], 1.0, seed=0)
        assert kac.n_events > 0 and zr.n_events > 0
        assert zr.final_config.dtype == np.int64 and zr.final_config.sum() == 3

    def test_negative_pair_rate_refused(self):
        # a total rate <= 0 would read as a frozen configuration: 0 events, no error
        model = ModelSpec("gamma-exchange", exchange=GammaExchangeSpec(
            gamma=1, lambda_s=lambda s: -1.0))
        with pytest.raises(ValueError, match="pair rate -0.33.* at total s = "):
            simulate(model, K3, [0.5, 0.3, 0.2], 1.0)


class TestRunLength:
    """A horizon or burn-in that is negative or not finite is refused before any event."""

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
    def test_horizon_refused(self, horizon):
        # a nan horizon is never reached, so the loop would not end
        with pytest.raises(ValueError, match=f"horizon must be finite and >= 0, got {horizon}"):
            simulate(ZR_CONST, K3, [1, 1, 1], horizon, seed=0)

    def test_zero_horizon_runs(self):
        summary, _ = simulate(ZR_CONST, K3, [1, 1, 1], 0.0, seed=0)
        assert summary.t_final == 0.0 and summary.n_events == 0

    @pytest.mark.parametrize("burn_in", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("estimator", [autocorr_gap_estimate, rayleigh_upper_bound])
    def test_burn_in_refused(self, estimator, burn_in, monkeypatch):
        # a negative burn-in gives a negative skip, and the slice from it
        # keeps only a few of the last samples
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before checking the burn-in")
        monkeypatch.setattr("gaplab.simulate.simulate", no_run)
        with pytest.raises(ValueError, match=f"burn-in must be finite and >= 0, got {burn_in}"):
            estimator(ZR_LINEAR, K3, lambda c: float(c[0]), omega=3, dt=0.25,
                      n_samples=100, burn_in=burn_in, seed=0)


class TestConservation:
    def test_integer_exact(self):
        cfg = initial_config(ZR_LINEAR, K3, 5, seed=1)
        summary, _ = simulate(ZR_LINEAR, K3, cfg, horizon=2000.0, seed=4)
        assert summary.conservation_drift == 0.0
        assert summary.final_config.sum() == 5

    def test_rotation_drift_tiny(self):
        cfg = initial_config(KAC, K3, 1.0, seed=1)
        summary, _ = simulate(KAC, K3, cfg, horizon=20000.0, seed=4)
        assert summary.n_events > 10000
        assert summary.conservation_drift < 1e-8 * 1.0

    def test_redistribution_conserves(self):
        cfg = initial_config(GAMMA_AVG, K3, 1.0, seed=1)
        summary, _ = simulate(GAMMA_AVG, K3, cfg, horizon=5000.0, seed=4)
        assert summary.conservation_drift < 1e-10
        assert summary.clipped_events == 0
        assert (summary.final_config >= 0).all()

    def test_frozen_configuration(self):
        # no particles, no events
        cfg = np.zeros(3, dtype=np.int64)
        summary, _ = simulate(ZR_LINEAR, K3, cfg, horizon=10.0, seed=0)
        assert summary.n_events == 0


class TestLongRunInvariants:
    @pytest.mark.slow
    def test_million_event_rotation_drift(self):
        cfg = initial_config(KAC, K3, 1.0, seed=1)
        summary, _ = simulate(KAC, K3, cfg, horizon=1_000_000.0, seed=5)
        assert summary.n_events > 900_000
        assert summary.conservation_drift < 1e-8 * 1.0

    @pytest.mark.slow
    def test_rotation_gap_interval_half_width(self):
        # long-budget run: interval covers the sector gap with half-width
        # at most 15 percent of it
        pair = assemble_galerkin("kac-uniform", K3, degree=4)
        rep = galerkin_eigensystem(pair)
        f = sector_polynomial(rep)
        est = autocorr_gap_estimate(KAC, K3, f, omega=1.0, dt=0.25 / rep.gap,
                                    n_samples=25000, burn_in=30 / rep.gap, seed=2)
        assert est.covers(rep.gap)
        half = 0.5 * (est.ci_high - est.ci_low)
        assert half <= 0.15 * rep.gap, half


def _reference_rates(model, graph, cfg) -> np.ndarray:
    """Reference for the incremental rates: every edge rate recomputed edge by edge."""
    out = []
    for x, y in graph.edges:
        if model.family == "zero-range":
            g = model.g
            r = graph.pair_scaling * ((g(int(cfg[x])) if cfg[x] > 0 else 0.0)
                                      + (g(int(cfg[y])) if cfg[y] > 0 else 0.0))
        elif model.family == "gamma-exchange":
            s = cfg[x] + cfg[y]
            ex = model.exchange
            r = 0.0 if s <= 0 else graph.pair_scaling * ex.lambda_s(s) * ex.lambda_r(
                min(max(cfg[x] / s, 1e-12), 1 - 1e-12))
        else:
            r = graph.pair_scaling
        out.append(r)
    return np.array(out)


# ---------------------------------------------------------------------------
# reference pair mechanics: the per-family jumps and carre du champ written
# out family by family, independent of `_Dynamics`
# ---------------------------------------------------------------------------

def _ref_pair_pmf(g, s: int) -> np.ndarray:
    lgf = g.log_factorials(s)
    lw = -(lgf + lgf[::-1])
    lw -= lw.max()
    pmf = np.exp(lw)
    return pmf / pmf.sum()


def _ref_density(rho, theta):
    """The density at the angles `theta`, from its function or its Fourier series."""
    if rho.density is not None:
        return np.array([rho.density(t) for t in theta])
    dens = np.full(len(theta), 1.0 / (2 * math.pi))
    for n in range(1, rho.order + 1):
        c = rho.coefficient(n)
        dens += (c.real * np.cos(n * theta) + c.imag * np.sin(n * theta)) / math.pi
    return dens


def _ref_angle_sampler(rho):
    if rho.density is None and rho.order == 0:
        return lambda rng: rng.uniform(-math.pi, math.pi)
    nodes = 4096
    theta = -math.pi + 2 * math.pi * (np.arange(nodes) + 0.5) / nodes
    cdf = np.cumsum(_ref_density(rho, theta))
    cdf /= cdf[-1]

    def sample(rng):
        i = int(cdf.searchsorted(rng.random()))
        return theta[min(i, nodes - 1)]

    return sample


class _RefMechanics:
    """One jump of each family, with its own samplers."""

    def __init__(self, model):
        self.model = model
        if model.family == "kac-rho":
            self._theta_sampler = _ref_angle_sampler(model.rho)
        if model.family == "gamma-exchange":
            ex = model.exchange
            self._simple = not isinstance(ex.kernel, np.ndarray)
            if not self._simple:
                self._grid = ex.grid()
                self._K = ex.kernel_matrix()
                self._Kcum = np.cumsum(self._K, axis=1)
            self._gamma = float(ex.gamma)

    def jump(self, cfg, x, y, rng):
        fam = self.model.family
        if fam == "kac-uniform":
            self._rotate(cfg, x, y, rng.uniform(-math.pi, math.pi))
        elif fam == "kac-rho":
            theta = self._theta_sampler(rng)
            if rng.random() < 0.5:
                theta = -theta
            self._rotate(cfg, x, y, theta)
        elif fam == "zero-range":
            g = self.model.g
            rx = g(int(cfg[x])) if cfg[x] > 0 else 0.0
            ry = g(int(cfg[y])) if cfg[y] > 0 else 0.0
            src, dst = (x, y) if rng.random() * (rx + ry) < rx else (y, x)
            cfg[src] -= 1
            cfg[dst] += 1
        elif fam == "simple-average":
            s = int(cfg[x] + cfg[y])
            a = int(rng.choice(s + 1, p=_ref_pair_pmf(self.model.g, s)))
            cfg[x], cfg[y] = a, s - a
        elif self._simple:
            self._redistribute(cfg, x, y, rng.beta(self._gamma, self._gamma))
        else:
            s = cfg[x] + cfg[y]
            beta = min(max(cfg[x] / s, 0.0), 1.0)
            row = min(int(beta * len(self._grid)), len(self._grid) - 1)
            cell = int(self._Kcum[row].searchsorted(rng.random()))
            cell = min(cell, len(self._grid) - 1)
            self._redistribute(cfg, x, y, self._grid[cell])

    @staticmethod
    def _rotate(cfg, x, y, theta):
        c, s = math.cos(theta), math.sin(theta)
        xi, xj = cfg.item(x), cfg.item(y)
        cfg[x] = xi * c - xj * s
        cfg[y] = xi * s + xj * c

    @staticmethod
    def _redistribute(cfg, x, y, alpha):
        alpha = min(max(alpha, 0.0), 1.0)
        s = cfg.item(x) + cfg.item(y)
        cfg[x], cfg[y] = max(alpha * s, 0.0), max((1.0 - alpha) * s, 0.0)


def _ref_quadrature(model):
    """Angle nodes and weights for the rotations, Gauss-Jacobi for the Beta kernel."""
    fam = model.family
    if fam in ("kac-uniform", "kac-rho"):
        nodes = 64
        theta = -math.pi + 2 * math.pi * (np.arange(nodes) + 0.5) / nodes
        if fam == "kac-uniform":
            return theta, np.full(nodes, 1.0 / nodes)
        # the even part of the density
        dens = 0.5 * (_ref_density(model.rho, theta) + _ref_density(model.rho, -theta))
        w = dens * (2 * math.pi / nodes)
        w /= w.sum()
        return theta, w
    if fam == "gamma-exchange":
        gshape = float(model.exchange.gamma)
        x, w = scipy.special.roots_jacobi(24, gshape - 1, gshape - 1)
        return (x + 1) / 2, w / w.sum()
    return None


def _ref_local_dirichlet(model, graph, cfg, f) -> float:
    """The carre du champ summed family by family."""
    quad = _ref_quadrature(model)
    total = 0.0
    fam = model.family
    f0 = f(cfg)
    for (x, y) in graph.edges:
        if fam == "zero-range":
            acc = 0.0
            for (u, v) in ((x, y), (y, x)):
                if cfg[u] > 0:
                    t = cfg.copy()
                    t[u] -= 1
                    t[v] += 1
                    acc += model.g(int(cfg[u])) * (f(t) - f0) ** 2
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
        elif fam == "simple-average":
            s = int(cfg[x] + cfg[y])
            pmf = _ref_pair_pmf(model.g, s)
            t = cfg.copy()
            acc = 0.0
            for a in range(s + 1):
                t[x], t[y] = a, s - a
                acc += pmf[a] * (f(t) - f0) ** 2
            total += graph.pair_scaling * 0.5 * acc
        else:
            ex = model.exchange
            s = cfg[x] + cfg[y]
            beta = min(max(cfg[x] / s, 1e-12), 1 - 1e-12) if s > 0 else 0.5
            rate = graph.pair_scaling * (ex.lambda_s(s) * ex.lambda_r(beta))
            if isinstance(ex.kernel, np.ndarray):
                grid = ex.grid()
                alphas = grid
                weights = ex.kernel_matrix()[min(int(beta * len(grid)), len(grid) - 1)]
            else:
                alphas, weights = quad
            t = cfg.copy()
            acc = 0.0
            for a, wt in zip(alphas, weights):
                t[x], t[y] = a * s, (1 - a) * s
                acc += wt * (f(t) - f0) ** 2
            total += rate * 0.5 * acc
    return total


def _reference_run(model, graph, cfg, horizon, seed, sample_dt, observable):
    """The recompute-everything event loop: fresh rates and cumsum on every event."""
    mech = _RefMechanics(model)
    cfg = cfg.copy()
    rng = rng_for(seed)
    t, t_next, events, samples = 0.0, sample_dt, [], []
    while True:
        rates = _reference_rates(model, graph, cfg)
        total = float(rates.sum())
        t_jump = t + rng.exponential(1.0 / total) if total > 0.0 else math.inf
        while t_next <= min(t_jump, horizon):
            samples.append(float(observable(cfg)))
            t_next += sample_dt
        if t_jump >= horizon:
            return events, samples, cfg
        t = t_jump
        edge = 0
        if len(rates) > 1:
            edge = int(np.searchsorted(np.cumsum(rates), rng.random() * total))
            edge = min(edge, len(rates) - 1)
        x, y = graph.edges[edge]
        mech.jump(cfg, x, y, rng)
        events.append((t, edge))


_CELLS = np.arange(64) + 0.5
GAMMA_LAMBDA = ModelSpec("gamma-exchange", exchange=GammaExchangeSpec(
    gamma=1, lambda_s=lambda s: 1.0 + s, lambda_r=lambda b: 0.5 + b * (1 - b)))
ORACLE_MODELS = {
    "kac-uniform": KAC,
    "kac-rho": ModelSpec("kac-rho", rho=RhoSpec(
        density=lambda t: (1 + math.cos(t)) / (2 * math.pi), name="cardioid")),
    "kac-rho-fourier": ModelSpec("kac-rho", rho=RhoSpec(
        coefficients=[1.0, 0.3 + 0.2j, 0.25], name="fourier")),
    "gamma-exchange": ModelSpec("gamma-exchange", exchange=GammaExchangeSpec(gamma=2)),
    "gamma-exchange-lambda": GAMMA_LAMBDA,
    # rows peaked at the current fraction, so the row choice matters
    "gamma-exchange-kernel": ModelSpec("gamma-exchange", exchange=GammaExchangeSpec(
        gamma=2, kernel=np.exp(-np.abs(_CELLS[:, None] - _CELLS[None, :]) / 8.0))),
    "zero-range-identity": ZR_LINEAR,
    "zero-range-constant": ZR_CONST,
    "simple-average-integer": ModelSpec("simple-average", g=G_IDENTITY),
}
ORACLE_GRAPHS = pytest.mark.parametrize(
    "graph", [build_graph("complete", N=4), build_graph("lattice", d=2, N=3)],
    ids=["K4", "lattice-2d-N3"])


class TestIncrementalRates:
    @ORACLE_GRAPHS
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_trajectory_matches_recompute_everything_loop(self, name, graph):
        model = ORACLE_MODELS[name]
        omega = 2 * graph.n_sites if model.is_discrete else 1.5
        for seed in (0, 1, 2):
            cfg = initial_config(model, graph, omega, seed=seed)
            observable = lambda c: float(c[0] * c[-1] + c[1])
            events, samples, final = _reference_run(model, graph, cfg, 40.0, seed,
                                                    0.5, observable)
            seen, jumps = [], []
            summary, out = simulate(
                model, graph, cfg, 40.0, seed=seed, sample_dt=0.5,
                observables={"f": observable},
                event_callback=lambda t, e, b, a: (seen.append((t, e)),
                                                   jumps.append((b.tolist(), a.tolist()))))
            assert len(events) > 20
            assert seen == events
            assert summary.n_events == len(events)
            assert out["f"].tolist() == samples
            assert np.array_equal(summary.final_config, final)
            assert summary.final_config.dtype == final.dtype
            # the callback sees each jump's configurations, one after the other
            assert jumps[0][0] == cfg.tolist() and jumps[-1][1] == final.tolist()
            assert all(a == b for (_, a), (b, _) in zip(jumps, jumps[1:]))
            # K4 at omega = 8 runs the chain, the 3 x 3 lattice at omega = 18 does not
            chained = model.is_discrete and graph.kind == "complete"
            assert (summary.chain_states > 0) == chained

    @ORACLE_GRAPHS
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_carre_du_champ_matches_reference(self, name, graph):
        model = ORACLE_MODELS[name]
        omega = 2 * graph.n_sites if model.is_discrete else 1.5
        dyn = _Dynamics(model, graph)
        f = lambda c: float(c[0] * c[-1] + c[1] + 0.5 * c[2] ** 2)
        for seed in (0, 1, 2):
            cfg = initial_config(model, graph, omega, seed=seed)
            later, _ = simulate(model, graph, cfg, 10.0, seed=seed)
            for c in (cfg, later.final_config):
                got, want = _local_dirichlet(dyn, c, f), _ref_local_dirichlet(model, graph, c, f)
                assert want > 0.0
                if name == "gamma-exchange-lambda":
                    # the rate is (scale * lambda_s) * lambda_r here and
                    # scale * (lambda_s * lambda_r) in the reference
                    assert got == pytest.approx(want, rel=1e-15, abs=0.0)
                else:
                    assert got == want

    @pytest.mark.parametrize("name", ["kac-uniform", "kac-rho", "gamma-exchange"])
    def test_carre_du_champ_of_sector_polynomial(self, name):
        # the polynomial's stack evaluator against the reference's scalar calls
        model = ORACLE_MODELS[name]
        dyn = _Dynamics(model, K3)
        f = _kac_k3_polynomial()
        for seed in (0, 1, 2):
            cfg = initial_config(model, K3, 1.5, seed=seed)
            later, _ = simulate(model, K3, cfg, 10.0, seed=seed)
            for c in (cfg, later.final_config):
                want = _ref_local_dirichlet(model, K3, c, f)
                assert want > 0.0
                assert _local_dirichlet(dyn, c, f) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_wrapped_sector_polynomial_keeps_stack_path(self):
        f = _kac_k3_polynomial()
        calls = []

        @functools.wraps(f)
        def wrapped(c):
            calls.append(1)
            return f(c)

        def plain(c):
            calls.append(1)
            return f(c)

        dyn = _Dynamics(KAC, K3)
        cfg = initial_config(KAC, K3, 1.0, seed=4)
        assert _local_dirichlet(dyn, cfg, wrapped) == _local_dirichlet(dyn, cfg, f)
        assert not calls
        # without the stack attribute the quadrature calls f per outcome
        _local_dirichlet(dyn, cfg, plain)
        assert len(calls) == 1 + 3 * 64

    @pytest.mark.parametrize("model", [ZR_LINEAR, GAMMA_LAMBDA],
                             ids=["zero-range", "gamma-exchange-lambda"])
    def test_rates_equal_fresh_after_every_event(self, model):
        # the general loop's rows, which each event updates in place
        graph = build_graph("lattice", d=2, N=3)
        cfg = initial_config(model, graph, 12 if model.is_discrete else 2.0, seed=3)
        dyn = _Dynamics(model, graph)
        total, cum, rates, site_rates = dyn.reset(cfg)
        rng = rng_for(5)
        for i in range(1500):
            edge = int(rng.choice(np.flatnonzero(rates > 0.0)))
            total, cum, rates, site_rates = dyn.apply(cfg, edge, rng)
            fresh = dyn.edge_rates(cfg)
            assert np.array_equal(rates, fresh)
            assert np.array_equal(rates, _reference_rates(model, graph, cfg))
            assert total == float(fresh.sum())
            assert np.array_equal(cum, fresh.cumsum())
            if model.family == "zero-range":
                assert site_rates.tolist() == [model.g(v) for v in cfg.tolist()]
            assert dyn.rate_rows == i + 2

    @pytest.mark.parametrize("model", [ZR_LINEAR, SIMPLE_AVG], ids=["zero-range", "simple-average"])
    def test_chain_rows_equal_fresh(self, model, monkeypatch):
        # K3 at omega = 4 has 15 configurations, so at most 15 states are indexed
        built = []

        class Recording(simulate_mod._Chain):
            def __init__(self, dyn, cfg):
                built.append(self)
                super().__init__(dyn, cfg)

        monkeypatch.setattr("gaplab.simulate._Chain", Recording)
        cfg = initial_config(model, K3, 4, seed=1)
        summary, _ = simulate(model, K3, cfg, 4000.0, seed=1)
        assert summary.n_events >= 4000
        (chain,) = built
        assert summary.chain_states == len(chain.keys) == len(chain.rows) <= 15
        assert summary.rate_rows == (1 if model.constant_rates else summary.chain_states)
        assert sorted(chain.index.values()) == list(range(len(chain.keys)))
        dyn = _Dynamics(model, K3)
        for i, key in enumerate(chain.keys):
            assert chain.index[key] == i
            c = np.array(key, dtype=np.int64)
            total, cum, rates, site_rates = chain.rows[i]
            fresh = dyn.edge_rates(c)
            assert rates == fresh.tolist()
            assert total == float(fresh.sum())
            assert cum == fresh.cumsum().tolist()
            if model.family == "zero-range":
                assert site_rates == [model.g(v) for v in key]
            else:
                assert site_rates is None and chain.rows[i] is chain.rows[0]
            # every stored transition leads to a configuration one collision away
            for code, j in enumerate(chain.moves[i]):
                if j >= 0:
                    (x, y), after = K3.edges[code // chain.width], chain.keys[j]
                    assert sum(after) == sum(key)
                    assert all(after[v] == key[v] for v in range(3) if v not in (x, y))

    @pytest.mark.parametrize("graph, chained", [
        (build_graph("complete", N=4), True), (build_graph("lattice", d=2, N=3), False),
    ], ids=["K4", "lattice-2d-N3"])
    @pytest.mark.parametrize("name", ["zero-range-constant", "zero-range-identity",
                                      "simple-average-integer"])
    def test_oracle_covers_both_sides_of_the_chain_gate(self, name, graph, chained):
        # the recompute-everything oracle runs K4 at omega = 8 (165
        # configurations, on the chain) and the 3 x 3 lattice at omega = 18
        # (1,562,275 configurations, on the general loop)
        model = ORACLE_MODELS[name]
        cfg = initial_config(model, graph, 2 * graph.n_sites, seed=0)
        summary, _ = simulate(model, graph, cfg, 400.0, seed=0)
        if chained:
            assert 0 < summary.chain_states <= math.comb(11, 3) < summary.n_events
        else:
            assert summary.chain_states == 0
        if model.constant_rates:
            assert summary.rate_rows == 1
        elif chained:
            assert summary.rate_rows == summary.chain_states
        else:
            assert summary.rate_rows == summary.n_events + 1

    @pytest.mark.parametrize("model", [ZR_LINEAR, SIMPLE_AVG], ids=["zero-range", "simple-average"])
    @pytest.mark.parametrize("graph", [K3, build_graph("lattice", d=1, N=6)], ids=["K3", "L1d6"])
    def test_largest_space_within_the_budget_runs_the_chain(self, model, graph):
        # a zero-range state holds a row of 2E + V list entries (4 float64s
        # each) and 2E transition slots; an integer-average state shares one
        # row and holds E (omega + 1) slots
        V, E = graph.n_sites, graph.n_edges

        def floats(omega):
            per_state = (4 * (2 * E + V) + 2 * E if model.family == "zero-range"
                         else E * (omega + 1))
            return math.comb(omega + V - 1, V - 1) * (per_state + ROW_OBJECT_FLOATS)

        largest = max(om for om in range(1, 200) if floats(om) <= ROW_MEMO_FLOATS)
        assert floats(largest + 1) > ROW_MEMO_FLOATS
        for omega, chained in ((largest, True), (largest + 1, False)):
            cfg = initial_config(model, graph, omega, seed=0)
            summary, _ = simulate(model, graph, cfg, 0.5, seed=0)
            assert summary.n_events > 0
            assert (summary.chain_states > 0) == chained

    def test_overflowing_draw_skips_zero_rate_edges(self):
        # pairwise rates.sum() can exceed the sequential cumsum's last entry;
        # a draw in that gap must not land on a trailing zero-rate edge
        graph = build_graph("complete", N=12)
        ends = np.array(graph.edges)
        rng = np.random.default_rng(0)
        for _ in range(500):
            gs = rng.integers(0, 4, size=12).astype(float)
            gs[-2:] = 0.0
            rates = graph.pair_scaling * (gs[ends[:, 0]] + gs[ends[:, 1]])
            cum = np.cumsum(rates)
            total = float(rates.sum())
            if total > cum[-1] and rates.any():
                break
        else:
            pytest.fail("no rate vector with rates.sum() > cumsum[-1] found")
        assert rates[-1] == 0.0
        edge = _pick_edge(cum, rates, total)
        assert edge == np.flatnonzero(rates)[-1]
        assert rates[edge] > 0.0

    def test_pick_edge_boundaries(self):
        rates = np.array([0.0, 1.0, 2.0, 0.0])
        cum = np.cumsum(rates)
        assert _pick_edge(cum, rates, 0.0) == 1
        assert _pick_edge(cum, rates, 1.0) == 1
        assert _pick_edge(cum, rates, 1.5) == 2
        assert _pick_edge(cum, rates, np.nextafter(3.0, 4.0)) == 2

    def test_zero_range_jump_on_empty_pair_raises(self):
        cfg = np.array([0, 0, 3], dtype=np.int64)
        dyn = _Dynamics(ZR_LINEAR, K3)
        dyn.reset(cfg)
        with pytest.raises(ArithmeticError, match="no particle"):
            dyn.apply(cfg, 0, rng_for(0))
        assert cfg.tolist() == [0, 0, 3]


class TestFrameReuse:
    @ORACLE_GRAPHS
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_observable_called_once_per_configuration(self, name, graph):
        # a stride short against the time between events: many grid points see
        # no event since the last one
        model = ORACLE_MODELS[name]
        omega = 2 * graph.n_sites if model.is_discrete else 1.5
        cfg = initial_config(model, graph, omega, seed=4)
        observable = lambda c: float(c[0] * c[-1] + c[1])
        calls = []

        def counted(c):
            calls.append(1)
            return observable(c)

        _, samples, _ = _reference_run(model, graph, cfg, 200.0, 4, 0.05, observable)
        summary, out = simulate(model, graph, cfg, 200.0, seed=4, sample_dt=0.05,
                                observables={"f": counted})
        assert out["f"].tolist() == samples
        assert len(calls) == summary.observable_evals <= summary.n_events + 1
        assert summary.observable_evals < len(samples)

    @pytest.mark.parametrize("model", [ZR_LINEAR, SIMPLE_AVG], ids=["zero-range", "simple-average"])
    def test_chain_calls_observable_once_per_distinct_configuration(self, model):
        # K3 at omega = 5: 21 configurations, visited over and over; the
        # observable's value names the configuration it saw
        cfg = initial_config(model, K3, 5, seed=0)
        calls = []

        def code(c):
            calls.append(tuple(c.tolist()))
            return float(c[0] * 36 + c[1] * 6 + c[2])

        summary, out = simulate(model, K3, cfg, 300.0, seed=3, sample_dt=0.05,
                                observables={"f": code})
        assert summary.chain_states > 0
        assert summary.n_events > 10 * len(calls)
        assert len(calls) == len(set(calls)) == summary.observable_evals
        # exactly the configurations the grid reached
        sampled = set(out["f"].tolist())
        assert sorted(sampled) == sorted(c[0] * 36 + c[1] * 6 + c[2] for c in calls)

    def test_frames_evaluate_every_observable_together(self):
        cfg = initial_config(ZR_LINEAR, K3, 3, seed=0)
        calls = Counter()

        def counter(name, f):
            def g(c):
                calls[name] += 1
                return f(c)
            return g

        summary, out = simulate(ZR_LINEAR, K3, cfg, 100.0, seed=2, sample_dt=0.1,
                                observables={"a": counter("a", lambda c: float(c[0])),
                                             "b": counter("b", lambda c: float(c[1] - c[2]))})
        assert calls["a"] == calls["b"] == summary.observable_evals
        assert summary.observable_evals <= summary.n_events + 1 < len(out["times"])
        plain, again = simulate(ZR_LINEAR, K3, cfg, 100.0, seed=2, sample_dt=0.1,
                                observables={"b": lambda c: float(c[1] - c[2])})
        assert again["b"].tobytes() == out["b"].tobytes()
        assert plain.n_events == summary.n_events

    def test_no_sampling_evaluates_nothing(self):
        cfg = initial_config(KAC, K3, 1.0, seed=0)
        summary, out = simulate(KAC, K3, cfg, 10.0, seed=0,
                                observables={"f": lambda c: pytest.fail("evaluated")})
        assert out is None and summary.observable_evals == 0


def _searchsorted_pick(cum, rates, v) -> int:
    """The edge draw on `ndarray.searchsorted`."""
    edge = int(np.searchsorted(cum, v))
    if edge == len(cum):
        return int(np.flatnonzero(rates)[-1])
    if rates[edge] == 0.0:
        return int(np.searchsorted(cum, v, side="right"))
    return edge


class _FixedDraws:
    """A generator stand-in whose random() returns the given values in turn."""

    def __init__(self, *values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def _probe_points(cdf) -> list:
    """Zero, every table entry, its neighbouring floats and one ulp past the end."""
    vals = [0.0]
    for c in cdf:
        vals += [c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)]
    return [float(v) for v in vals if v >= 0.0]


class TestBisection:
    def _tables(self):
        rng = np.random.default_rng(11)
        for E in (1, 2, 3, 10, 45, 300):
            for _ in range(20):
                rates = rng.choice([0.0, 0.25, 1.0, 1e-20, 3.0], size=E)
                rates[rng.integers(E)] = 1.0          # at least one positive edge
                if rng.random() < 0.5:
                    rates[0] = 0.0                     # a leading zero-rate edge
                if rates.any():
                    yield rates

    def test_pick_edge_matches_searchsorted(self):
        rng = np.random.default_rng(3)
        for rates in self._tables():
            cum = rates.cumsum()
            total = float(rates.sum())
            points = _probe_points(cum) + [float(v) for v in rng.random(20) * total]
            points.append(total)
            for v in points:
                if v > cum[-1] and v > total:
                    continue
                want = _searchsorted_pick(cum, rates, v)
                assert _pick_edge(cum, rates, v) == want
                assert _pick_edge(cum.tolist(), rates, v) == want
                assert rates[want] > 0.0

    def test_pick_edge_past_the_end(self):
        # a draw one ulp past cum[-1] goes to the last edge of positive rate
        rates = np.array([0.0, 1.0, 0.0, 2.0, 0.0, 0.0])
        cum = rates.cumsum()
        v = float(np.nextafter(cum[-1], np.inf))
        assert _pick_edge(cum.tolist(), rates, v) == _searchsorted_pick(cum, rates, v) == 3

    def test_integer_average_draw_matches_searchsorted(self):
        dyn = _Dynamics(ModelSpec("simple-average", g=G_IDENTITY), K3)
        rng = np.random.default_rng(5)
        for s in (0, 1, 2, 7, 40, 400):
            pmf, cdf = dyn._pair_law(s)
            cdf = np.array(cdf)
            # past the bulk of a large total the cdf rounds to 1.0: tied entries
            assert s < 400 or (np.diff(cdf) == 0.0).any()
            for v in _probe_points(cdf) + rng.random(20).tolist():
                cfg = np.array([s, 0, 0], dtype=np.int64)
                dyn._jump_integer_average(cfg, 0, 1, _FixedDraws(v))
                a = int(cdf.searchsorted(v, side="right"))
                assert cfg.tolist() == [a, s - a, 0]

    def test_angle_draw_matches_searchsorted(self):
        rho = ORACLE_MODELS["kac-rho"].angle_density()
        sample = _angle_sampler(rho)
        theta = np.array([-math.pi + 2 * math.pi * (k + 0.5) / RHO_QUADRATURE_NODES
                          for k in range(RHO_QUADRATURE_NODES)])
        cdf = np.cumsum(rho.grid_values)
        cdf /= cdf[-1]
        rng = np.random.default_rng(9)
        for v in _probe_points(cdf) + rng.random(20).tolist():
            want = theta[min(int(cdf.searchsorted(v)), RHO_QUADRATURE_NODES - 1)]
            assert sample(_FixedDraws(v, 0.75)) == want
            assert sample(_FixedDraws(v, 0.25)) == -want

    def test_kernel_draw_matches_searchsorted(self):
        model = ORACLE_MODELS["gamma-exchange-kernel"]
        dyn = _Dynamics(model, K3)
        grid = model.exchange.grid()
        kcum = np.cumsum(model.exchange.kernel_matrix(), axis=1)
        rng = np.random.default_rng(2)
        for a in (0.0, 0.3, 1.1):
            s = a + (1.5 - a)
            row = dyn._kernel_row(a, s)
            for v in _probe_points(kcum[row]) + rng.random(20).tolist():
                cfg = np.array([a, 1.5 - a, 0.0])
                dyn._jump_exchange(cfg, 0, 1, _FixedDraws(v))
                alpha = grid[min(int(kcum[row].searchsorted(v)), len(grid) - 1)]
                assert cfg.tolist() == [alpha * s, (1.0 - alpha) * s, 0.0]


@pytest.mark.parametrize("name", ["gamma-exchange", "gamma-exchange-kernel"])
def test_redistribution_never_holds_a_negative_energy(name):
    # empty sites and small shapes push the split fraction to the ends of [0, 1]
    models = [ORACLE_MODELS[name]]
    if name == "gamma-exchange":
        models.append(ModelSpec("gamma-exchange", exchange=GammaExchangeSpec(gamma=0.2)))
    graph = build_graph("complete", N=5)
    for model in models:
        for cfg in ([0.0, 0.0, 2.5, 0.0, 0.0], [1e-300, 0.0, 0.0, 0.0, 1.0]):
            lowest = []
            summary, _ = simulate(model, graph, cfg, 200.0, seed=1,
                                  event_callback=lambda t, e, b, a: lowest.append(a.min()))
            assert summary.n_events > 100
            assert min(lowest) >= 0.0
            assert summary.clipped_events == 0


def test_package_attribute_is_the_module():
    import types

    import gaplab
    assert isinstance(gaplab.simulate, types.ModuleType)
    assert gaplab.simulate.simulate is simulate


class TestKacIsTheUniformRotation:
    """The Kac walk and the rotation walk at the uniform angle density are one model."""

    ROTATION = ModelSpec("kac-rho", rho=RhoSpec.uniform())

    @pytest.mark.parametrize("graph", [build_graph("complete", N=6),
                                       build_graph("lattice", d=2, N=3)], ids=["K6", "L2d3"])
    def test_same_trajectory(self, graph):
        cfg = initial_config(KAC, graph, 6.0, seed=3)
        kac, _ = simulate(KAC, graph, cfg, 40.0, seed=11)
        rot, _ = simulate(self.ROTATION, graph, cfg, 40.0, seed=11)
        assert kac.n_events == rot.n_events > 0
        assert kac.final_config.tobytes() == rot.final_config.tobytes()

    def test_same_quadrature_weights(self):
        kac, rot = _Dynamics(KAC, K3), _Dynamics(self.ROTATION, K3)
        assert np.array_equal(kac._weights, rot._weights)
        assert np.all(kac._weights == 1 / 64)

    @pytest.mark.parametrize("N,mode", [(4, "full"), (6, "symmetric")])
    def test_same_sector(self, N, mode):
        graph = build_graph("complete", N=N)
        kac = assemble_galerkin("kac-uniform", graph, degree=4, mode=mode)
        rot = assemble_galerkin("kac-rho", graph, degree=4, mode=mode,
                                rho=self.ROTATION.angle_density())
        assert [e for e, _ in kac.blocks] == [e for e, _ in rot.blocks]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(kac.blocks, rot.blocks))
        assert galerkin_eigensystem(kac).gap == galerkin_eigensystem(rot).gap


class TestAngleGrid:
    def test_density_evaluated_once(self):
        calls = []

        def cardioid(t):
            calls.append(t)
            return (1 + math.cos(t)) / (2 * math.pi)

        rho = RhoSpec(density=cardioid, name="cardioid")
        sample = _angle_sampler(rho)
        assert len(calls) == RHO_QUADRATURE_NODES
        reference = _ref_angle_sampler(RhoSpec(density=cardioid, name="cardioid"))
        r1, r2 = rng_for(4), rng_for(4)

        def signed(rng):
            # the sampler draws the even part: a grid angle, then a fair sign
            theta = reference(rng)
            return -theta if rng.random() < 0.5 else theta

        assert [sample(r1) for _ in range(500)] == [signed(r2) for _ in range(500)]

    def test_sampler_reads_the_data_not_the_name(self):
        # `--rho fourier:FILE` names the spec after its file, so a file
        # called "uniform" must still be sampled from its coefficients
        named = _angle_sampler(RhoSpec(coefficients=[1.0, 0.4], name="uniform"))
        other = _angle_sampler(RhoSpec(coefficients=[1.0, 0.4], name="other"))
        r1, r2 = rng_for(1), rng_for(1)
        draws = [named(r1) for _ in range(20_000)]
        assert draws == [other(r2) for _ in range(20_000)]
        # E[cos theta] = Re rho_hat(1)
        assert np.mean(np.cos(draws)) == pytest.approx(0.4, abs=0.03)

    def test_uniform_density_draws_the_uniform_angle(self):
        # the flat density needs no grid: its draws are rng.uniform(-pi, pi)
        sample = _angle_sampler(RhoSpec.uniform())
        r1, r2 = rng_for(2), rng_for(2)
        assert [sample(r1) for _ in range(500)] == [
            r2.uniform(-math.pi, math.pi) for _ in range(500)]

    def test_one_coefficient_file_draws_like_the_uniform_spec(self):
        # Fourier data is the whole series, so the file `1` is the flat density
        shared = _angle_sampler(RhoSpec.uniform())
        file = _angle_sampler(RhoSpec(coefficients=[1.0], name="file"))
        r1, r2 = rng_for(2), rng_for(2)
        assert [file(r1) for _ in range(500)] == [shared(r2) for _ in range(500)]


# ---------------------------------------------------------------------------
# sampled collisions against the exact conditional pair average
# ---------------------------------------------------------------------------

def _pair_polynomial(coeffs: dict, x, y) -> float:
    """Value at (x, y) of a pair polynomial {(p, q): coefficient}."""
    return sum(float(c) * x ** p * y ** q for (p, q), c in coeffs.items())


def _exact_pair_moment(model, pair, a, b) -> float:
    """E[x'^a y'^b] after one collision of the pair (x, y)."""
    x, y = pair
    fam = model.family
    if fam in ("kac-uniform", "kac-rho"):
        return _pair_polynomial(rho_pair_action(model.angle_density(), a, b), x, y)
    if fam == "gamma-exchange":
        return _pair_polynomial(pair_average_action(a, b, model.exchange.gamma), x, y)
    if fam == "simple-average":
        s = x + y
        pmf, _ = pair_law(model.g.log_factorials(s), s)
        k = np.arange(s + 1, dtype=float)
        return float(pmf @ (k ** a * (s - k) ** b))
    # zero-range: a particle leaves x with probability g(x) / (g(x) + g(y))
    gx, gy = model.g(x), model.g(y)
    p = gx / (gx + gy)
    return p * (x - 1) ** a * (y + 1) ** b + (1 - p) * (x + 1) ** a * (y - 1) ** b


SAMPLER_CASES = {
    "kac-uniform": (KAC, (0.6, 0.8)),
    "kac-rho-cardioid": (ModelSpec("kac-rho", rho=RhoSpec(
        density=lambda t: (1 + math.cos(t)) / (2 * math.pi), name="cardioid")), (0.6, 0.8)),
    "gamma-exchange-beta": (ModelSpec("gamma-exchange", exchange=GammaExchangeSpec(gamma=2)),
                            (0.3, 0.7)),
    "simple-average-one": (ModelSpec("simple-average", g=G_CONSTANT_ONE), (3, 2)),
    "simple-average-identity": (ModelSpec("simple-average", g=G_IDENTITY), (3, 2)),
    "zero-range-one": (ZR_CONST, (3, 2)),
    "zero-range-identity": (ZR_LINEAR, (3, 2)),
}


class TestSamplerMoments:
    """Each family's collision sampler reproduces the exact conditional pair average."""

    DRAWS = 20_000

    @pytest.mark.parametrize("name", sorted(SAMPLER_CASES))
    def test_monomial_means(self, name):
        model, pair = SAMPLER_CASES[name]
        dyn = _Dynamics(model, build_graph("complete", N=2))
        start = np.array(pair, dtype=np.int64 if model.is_discrete else float)
        rng = rng_for(17)
        after = np.empty((self.DRAWS, 2))
        for i in range(self.DRAWS):
            cfg = start.copy()
            dyn.reset(cfg)
            dyn.apply(cfg, 0, rng)
            after[i] = cfg
        x, y = after[:, 0], after[:, 1]
        for a in range(5):
            for b in range(1 if a == 0 else 0, 5 - a):
                vals = x ** a * y ** b
                se = vals.std(ddof=1) / math.sqrt(self.DRAWS)
                exact = _exact_pair_moment(model, pair, a, b)
                assert abs(vals.mean() - exact) <= 5 * se, (a, b, vals.mean(), exact, se)


class TestReproducibility:
    def test_bitwise_identical(self):
        cfg = initial_config(ZR_LINEAR, K3, 4, seed=2)
        s1, out1 = simulate(ZR_LINEAR, K3, cfg.copy(), 500.0, seed=11,
                            sample_dt=1.0, observables={"f": lambda c: float(c[0])})
        s2, out2 = simulate(ZR_LINEAR, K3, cfg.copy(), 500.0, seed=11,
                            sample_dt=1.0, observables={"f": lambda c: float(c[0])})
        assert s1.n_events == s2.n_events
        assert (s1.final_config == s2.final_config).all()
        assert (out1["f"] == out2["f"]).all()

    def test_seeds_differ(self):
        cfg = initial_config(ZR_LINEAR, K3, 4, seed=2)
        s1, _ = simulate(ZR_LINEAR, K3, cfg.copy(), 500.0, seed=11)
        s2, _ = simulate(ZR_LINEAR, K3, cfg.copy(), 500.0, seed=12)
        assert s1.n_events != s2.n_events or (s1.final_config != s2.final_config).any()


class TestStationarity:
    def test_occupation_matches_exact_weights(self):
        # total-variation distance of time-weighted occupation vs exact law
        states = enumerate_states(3, 3)
        measure = stationary_weights(G_IDENTITY, states)
        occupation = np.zeros(len(states))
        last = {"t": 0.0, "idx": None}

        def cb(t, edge, before, after):
            i = states.index[tuple(int(v) for v in before)]
            occupation[i] += t - last["t"]
            last["t"] = t
            last["idx"] = states.index[tuple(int(v) for v in after)]

        cfg = initial_config(ZR_LINEAR, K3, 3, seed=0)
        summary, _ = simulate(ZR_LINEAR, K3, cfg, horizon=100000.0, seed=21,
                              event_callback=cb)
        occupation /= occupation.sum()
        tv = 0.5 * np.abs(occupation - measure.weights).sum()
        assert tv < 0.01, tv

    def test_detailed_balance_flux(self):
        # reversibility: long-run transition counts balance within 3 sigma
        states = enumerate_states(2, 2)
        flux = Counter()

        def cb(t, edge, before, after):
            flux[(tuple(int(v) for v in before), tuple(int(v) for v in after))] += 1

        graph = build_graph("complete", N=2)
        cfg = initial_config(ZR_LINEAR, graph, 2, seed=0)
        simulate(ZR_LINEAR, graph, cfg, horizon=30000.0, seed=5, event_callback=cb)
        seen = {frozenset(k) for k in flux}
        assert seen
        for pair in seen:
            a, b = tuple(pair)
            fwd, back = flux[(a, b)], flux[(b, a)]
            assert abs(fwd - back) <= 3 * math.sqrt(fwd + back), (a, b, fwd, back)


class TestAngleProcess:
    def test_two_site_mode_decay_uniform(self):
        # first-coordinate autocorrelation decays at the n=1 angle-mode rate
        graph = build_graph("complete", N=2)
        est = autocorr_gap_estimate(KAC, graph, lambda c: float(c[0]), omega=1.0,
                                    dt=0.5, n_samples=4000, seed=3)
        assert est.covers(0.5), (est.ci_low, est.ci_high)

    def test_two_site_mode_decay_cosine(self):
        rho = RhoSpec(coefficients=[1.0, 0.5], name="cosine")
        model = ModelSpec("kac-rho", rho=rho)
        graph = build_graph("complete", N=2)
        est = autocorr_gap_estimate(model, graph, lambda c: float(c[0]), omega=1.0,
                                    dt=1.0, n_samples=4000, seed=3)
        assert est.covers(0.25), (est.ci_low, est.ci_high)


class TestAutocorrEstimator:
    def test_covers_exact_discrete_gap(self):
        gap, obs = _table_observable(ZR_LINEAR, K3, 4)
        est = autocorr_gap_estimate(ZR_LINEAR, K3, obs, omega=4, dt=0.25 / gap,
                                    n_samples=5000, burn_in=30 / gap, seed=1)
        assert est.covers(gap)
        assert est.ci_low < est.estimate < est.ci_high
        assert est.ess <= est.diagnostics["n_samples"]

    def test_no_decay_error(self):
        with pytest.raises((NoDecayError, ValueError)):
            autocorr_gap_estimate(ZR_LINEAR, K3, lambda c: 1.0, omega=3,
                                  dt=0.3, n_samples=500, seed=0)

    def test_gamma_exchange_general_kernel_runs(self):
        # discretized kernel route: biased-but-reversible kernel built from
        # the invariant Beta weights
        cells = 64
        b = (np.arange(cells) + 0.5) / cells
        w = (b * (1 - b)) ** 0.0   # gamma = 1 invariant weights are flat
        K = np.tile(w / w.sum(), (cells, 1))
        spec = GammaExchangeSpec(gamma=1, kernel=K)
        model = ModelSpec("gamma-exchange", exchange=spec)
        cfg = initial_config(model, K3, 1.0, seed=0)
        summary, _ = simulate(model, K3, cfg, horizon=200.0, seed=8)
        assert summary.n_events > 0
        assert summary.conservation_drift < 1e-10


def _loop_window_lags(ratio, window=(0.1, 0.8)):
    """The scalar lag search that `_window_lags` replaced, and whether it stopped at a
    ratio below the band; None if the window is never entered."""
    limit = min(len(ratio), 400)
    start = None
    for l in range(limit):
        if ratio[l] <= window[1]:
            start = l
            break
    if start is None:
        return None
    lags = []
    for l in range(start, limit):
        if ratio[l] < window[0]:
            return lags, True
        lags.append(l + 1)
    return lags, False


class TestWindowLags:
    """The vectorized fit-window search against the scalar loop it replaced."""

    @pytest.mark.parametrize("ratio", [
        [0.95, 0.9, 0.85],                                  # never enters
        [0.9, 0.5, 0.3, 0.05, 0.4, 0.3],                    # wanders back in
        [0.9, 0.5, 0.05, 0.5],                              # one lag
        [0.9, 0.05, 0.5, 0.3],                              # enters below the band
        [0.7],                                              # one ratio in all
        [],
        [0.99] * 50 + list(np.linspace(0.79, 0.11, 600)),   # hits the cap
        [0.99] * 450 + [0.5, 0.4],                          # enters past the cap
        [np.nan, 0.9, 0.6, np.nan, 0.3, 0.09, 0.5],         # NaN opens nothing, closes nothing
        [0.9, np.nan, np.nan, 0.2, np.nan, 0.01],
        [0.8, 0.1, 0.0999],                                 # both edges inclusive
    ])
    def test_matches_loop(self, ratio):
        ratio = np.asarray(ratio, dtype=float)
        expect = _loop_window_lags(ratio)
        if expect is None:
            with pytest.raises(NoDecayError, match="never enters"):
                _window_lags(ratio, (0.1, 0.8))
            return
        got, closed = _window_lags(ratio, (0.1, 0.8))
        assert (got.tolist(), closed) == expect
        assert len(got) <= MAX_FIT_LAG

    def test_ar1_series(self):
        rng = np.random.default_rng(12)
        x = np.empty(5000)
        x[0] = 0.0
        noise = rng.standard_normal(5000)
        for t in range(1, 5000):
            x[t] = 0.97 * x[t - 1] + noise[t]
        c = _autocovariance(x)
        ratio = c[1:] / c[0]
        expect, closed = _loop_window_lags(ratio)
        assert len(expect) > 10 and closed
        assert _window_lags(ratio, (0.1, 0.8))[0].tolist() == expect
        # AR(1) with coefficient 0.97 decays at -log(0.97) per step
        assert _fit_decay_rate(x, 1.0)[0] == pytest.approx(-math.log(0.97), rel=0.3)


def _full_autocovariance(x):
    """Every lag of the autocovariance, from an FFT padded past 2n - 1."""
    n = len(x)
    xc = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, m)
    return np.fft.irfft(f * np.conj(f))[:n] / n


class TestAutocovariance:
    def test_fft_length(self):
        from scipy.fft import next_fast_len

        sizes = list(range(1, 2000)) + [5399, 5400, 5401, 25400]
        assert [simulate_mod._fft_length(k) for k in sizes] == [
            next_fast_len(k, real=True) for k in sizes]

    @pytest.mark.parametrize("n", [1, 2, 400, 401, 402, 5000, 25000])
    def test_matches_full_autocovariance(self, n):
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.standard_normal(n)) * 0.05 + rng.standard_normal(n)
        c = _autocovariance(x)
        full = _full_autocovariance(x)
        assert len(c) == min(n, MAX_FIT_LAG + 1)
        assert np.abs(c - full[:len(c)]).max() <= 1e-12 * full[0]


class TestStagedLags:
    """The decay fit computes lags 0..FIRST_FIT_LAGS - 1 as direct products, and every
    lag by FFT only when its window is still open after them."""

    @pytest.fixture
    def fft_calls(self, monkeypatch):
        """The length of every series whose lags the fit takes from the FFT."""
        calls = []

        def counted(x):
            calls.append(len(x))
            return _autocovariance(x)

        monkeypatch.setattr(simulate_mod, "_autocovariance", counted)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 400, 5000, 25000])
    def test_first_lags_match_full_autocovariance(self, n):
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.standard_normal(n)) * 0.05 + rng.standard_normal(n)
        c = _first_autocovariance(x)
        full = _full_autocovariance(x)
        assert len(c) == min(n, FIRST_FIT_LAGS)
        assert np.abs(c - full[:len(c)]).max() <= 1e-12 * full[0]

    @pytest.mark.parametrize("n", [2, 400, 5000, 25000])
    @pytest.mark.parametrize("phi", [0.5, 0.9, 0.995])
    def test_fit_lags_match_full_autocovariance(self, n, phi):
        x = fit_rate.ar1(phi, n, seed=n)
        c, _ = _fit_window(x)
        full = _full_autocovariance(x)
        # both sides of the direct lags: 16 of them, or all up to the cap by FFT
        assert len(c) in (min(n, FIRST_FIT_LAGS), min(n, MAX_FIT_LAG + 1))
        assert np.abs(c - full[:len(c)]).max() <= 1e-12 * full[0]

    @pytest.mark.parametrize("phi,fit_lags", [
        (0.5, FIRST_FIT_LAGS),          # closes by lag 4
        (0.78, FIRST_FIT_LAGS),         # the battery's stride: by lag 10
        (0.9, MAX_FIT_LAG + 1),         # by lag 22, open after the direct lags
        (0.97, MAX_FIT_LAG + 1),        # by lag 76
        (0.995, MAX_FIT_LAG + 1),       # not entered by lag 15, open at the 400-lag cap
    ])
    def test_window_equals_the_full_search(self, fft_calls, phi, fit_lags):
        x = fit_rate.ar1(phi, 5000)
        full = _full_autocovariance(x)
        rate, computed, lags = _fit_decay_rate(x, 1.0)
        assert computed == fit_lags
        assert fft_calls == ([] if fit_lags == FIRST_FIT_LAGS else [5000])
        assert lags.tolist() == _window_lags(full[1:] / full[0], (0.1, 0.8))[0].tolist()
        assert rate == pytest.approx(-math.log(phi), rel=0.3)

    @pytest.mark.parametrize("value", [2.5, 0.1, 1 / 3, 1e6 + 0.1])
    @pytest.mark.parametrize("n", [1, 2, 100, 1000, 5000])
    def test_constant_series(self, fft_calls, n, value):
        # 0.1, 1/3 and 1e6 + 0.1 leave C(0) at the rounding of their mean, not 0
        with pytest.raises(NoDecayError, match="zero-variance observable"):
            _fit_decay_rate(np.full(n, value), 1.0)
        assert fft_calls == []

    def test_nan_series(self):
        with pytest.raises(NoDecayError, match="never enters"):
            _fit_decay_rate(np.array([1.0, np.nan, 2.0] * 100), 1.0)


class TestBootstrapRates:
    def test_resamples_are_wrapped_blocks(self, monkeypatch):
        """Each resample joins the blocks series[s:s + block] at the stream's starts s,
        wrapped past the end, as indexing by (s + j) mod n does."""
        x = fit_rate.ar1(0.78, 3001)
        seen = []

        def fit(series, dt):
            seen.append(series.copy())
            return 1.0, FIRST_FIT_LAGS, np.arange(1, 4)

        monkeypatch.setattr(simulate_mod, "_fit_decay_rate", fit)
        draws, failures, block = _bootstrap_rates(x, 0.25, 1.0, rng_for(3, stream=99))
        assert (len(draws), failures, block) == (N_BOOTSTRAP, 0, 80)
        rng = rng_for(3, stream=99)
        for resampled in seen:
            starts = rng.integers(0, len(x), size=math.ceil(len(x) / block))
            expect = x[(starts[:, None] + np.arange(block)) % len(x)].ravel()[:len(x)]
            assert np.array_equal(resampled, expect)

    def test_counts_failed_refits(self):
        x = fit_rate.ar1(0.78, 2000)
        draws, failures, block = _bootstrap_rates(np.zeros(2000), 0.25, 1.0, rng_for(0))
        assert (draws, failures, block) == ([], N_BOOTSTRAP, 80)
        draws, failures, _ = _bootstrap_rates(x, 0.25, 1.0, rng_for(0))
        assert failures == 0 and len(draws) == N_BOOTSTRAP


class TestRayleigh:
    def test_exact_eigenfunction_tight(self):
        est = rayleigh_upper_bound(GAMMA_AVG, K3, lambda x: float(np.dot(x, x)),
                                   omega=1.0, dt=0.5, n_samples=3000, seed=2)
        assert est.covers(4 / 9), (est.ci_low, est.ci_high)
        assert est.ci_high - est.ci_low < 0.15

    def test_first_coordinate_dominates_gap(self):
        est = rayleigh_upper_bound(KAC, K3, lambda x: float(x[0]), omega=1.0,
                                   dt=0.6, n_samples=2000, seed=2)
        # quotient of the first coordinate is 2/3 on three sites
        assert est.covers(2 / 3)
        assert est.ci_low > 5 / 12

    def test_degenerate_observable(self):
        with pytest.raises(ValueError, match="degenerate"):
            rayleigh_upper_bound(ZR_LINEAR, K3, lambda c: 3.14, omega=2,
                                 dt=0.3, n_samples=400, seed=0)

    @pytest.mark.parametrize("n_samples", [5, 19])
    def test_fewer_samples_than_batches(self, n_samples, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before checking the sample count")
        monkeypatch.setattr("gaplab.simulate.simulate", no_run)
        with pytest.raises(ValueError, match=f"at least {N_BATCHES} samples"):
            rayleigh_upper_bound(ZR_LINEAR, K3, lambda c: float(c[0]), omega=3,
                                 dt=0.3, n_samples=n_samples, seed=0)

    def test_sector_polynomial_quadrature_takes_stack_path(self):
        f = _kac_k3_polynomial()
        calls = []

        @functools.wraps(f)
        def counted(c):
            calls.append(1)
            return f(c)

        est = rayleigh_upper_bound(KAC, K3, counted, omega=1.0, dt=0.6,
                                   n_samples=N_BATCHES, seed=2)
        assert np.isfinite(est.estimate)
        # one call per configuration that a grid point reaches, so at most the
        # 40 + N_BATCHES + 1 frames of the horizon (the default burn-in is 40
        # strides); none from the quadrature
        assert 0 < len(calls) == est.diagnostics["observable_evals"] <= 40 + N_BATCHES + 1


class TestSampleStream:
    def _write(self, path, out, fields):
        with SampleStreamWriter(path, fields, meta={"seed": 7}) as w:
            for t, *frame in zip(out["times"], *(out[name] for name in fields)):
                w.write_frame(t, frame)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.samples"
        cfg = initial_config(ZR_LINEAR, K3, 3, seed=0)
        _, out = simulate(ZR_LINEAR, K3, cfg, horizon=50.0, seed=7, sample_dt=1.0,
                          observables={"energy": lambda c: float(c.sum()),
                                       "first": lambda c: float(c[0])})
        self._write(path, out, ["energy", "first"])
        header, times, values = read_sample_stream(path)
        assert header["fields"] == ["energy", "first"]
        assert header["meta"]["seed"] == 7
        assert values.shape == (len(times), 2)
        assert np.all(values[:, 0] == 3.0)
        assert np.all(np.diff(times) == pytest.approx(1.0))
        # the file holds the written series bit for bit
        assert times.tobytes() == out["times"].tobytes()
        assert values[:, 0].tobytes() == out["energy"].tobytes()
        assert values[:, 1].tobytes() == out["first"].tobytes()

    @pytest.mark.parametrize("graph, omega, chained", [
        (K3, 3, True), (build_graph("complete", N=6), 12, False)], ids=["chain", "general"])
    def test_estimator_streams_the_simulated_series(self, tmp_path, graph, omega, chained):
        # autocorr_gap_estimate streams the whole trajectory it fits, burn-in
        # included: every grid point's frame of simulate's series, bit for bit
        path = tmp_path / "run.samples"
        observable = lambda c: float(c[0])
        dt, n_samples, seed = 0.5, 600, 4
        with SampleStreamWriter(path, ["f"]) as w:
            est = autocorr_gap_estimate(ZR_LINEAR, graph, observable, omega=omega, dt=dt,
                                        n_samples=n_samples, seed=seed, stream_writer=w)
        cfg = initial_config(ZR_LINEAR, graph, omega, seed=seed)
        summary, out = simulate(ZR_LINEAR, graph, cfg, 40 * dt + dt * (n_samples + 1),
                                seed=seed, sample_dt=dt, observables={"f": observable})
        assert (summary.chain_states > 0) == chained
        assert est.diagnostics["events"] == summary.n_events
        want = np.column_stack([out["times"], out["f"]]).astype("<f8").tobytes()
        blob = path.read_bytes()
        assert blob[blob.index(b"\n") + 1:] == want
        # grid points with no event between them repeat the evaluated frame
        assert summary.observable_evals < len(out["times"])

    def test_truncated_stream_refused(self, tmp_path):
        path = tmp_path / "run.samples"
        cfg = initial_config(ZR_LINEAR, K3, 3, seed=0)
        _, out = simulate(ZR_LINEAR, K3, cfg, horizon=5.0, seed=7, sample_dt=1.0,
                          observables={"first": lambda c: float(c[0])})
        self._write(path, out, ["first"])
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated: 13 byte"):
            read_sample_stream(path)

    def test_rejects_other_files(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b'{"format": "other"}\n')
        with pytest.raises(ValueError, match="not a sample stream"):
            read_sample_stream(p)
