"""The benchmark's four workloads: inputs, operations and reference checks.

A workload object is built once per process (that is set-up: inputs,
references and the objects the operations share), then `ops(k)` lists the
operations of pass k.  Each operation is one call chain into gaplab's public
API, checked against a reference after it returns.  Why each workload
exists, and which ROADMAP item it judges, is in bench/README.md.

Functions are looked up on their modules at call time, so the run-time
wrappers of bench/hooks.py see every call.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from gaplab import bounds, discrete, galerkin, verify
from gaplab.models import (G_CONSTANT_ONE, G_IDENTITY, GammaExchangeSpec,
                           ModelSpec, RhoSpec, build_graph)

simulate_mod = importlib.import_module("gaplab.simulate")

REFERENCES = Path(__file__).with_name("references.json")

#: gap tolerance the package declares (verify.KAC_GAP_TOL, discrete.ZERO_TOL)
GAP_TOL = 1e-8
#: residual limits the package's own tests apply to exact generators
ROW_SUM_TOL = 1e-10
SYMMETRY_TOL = 1e-9
#: Monte Carlo point estimates outside [gap / BAND, gap * BAND] are failures
MC_BAND = 2.0


@dataclass
class Op:
    """One timed call chain and the check of its result.

    `check(result)` returns (ok, detail, info); info holds counts the
    benchmark adds to the pass (for example CI coverage).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    trajectory: bool = False


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def close(value: float, ref: float, tol: float = GAP_TOL) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def derived_seed(seed: int, *parts: int) -> int:
    """Independent 63-bit seed for (workload seed, pass, operation)."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint64)[0] >> 1)


# ---------------------------------------------------------------------------
# exact: a few large cells, one or more per branch of discrete._extreme_eigs
# ---------------------------------------------------------------------------

RATES = {"constant-one": G_CONSTANT_ONE, "identity": G_IDENTITY}

#: (family, rate, graph kind, d, N, omega); states in the trailing comment
EXACT_CELLS = (
    ("simple-average", "identity", "complete", None, 5, 6),       # 210, eigvalsh
    ("zero-range", "constant-one", "lattice", 1, 6, 5),           # 252, eigvalsh
    ("simple-average", "constant-one", "complete", None, 6, 8),   # 1287, subset eigh
    ("zero-range", "constant-one", "lattice", 1, 8, 6),           # 1716, subset eigh
    ("zero-range", "identity", "complete", None, 3, 100),         # 5151, eigsh
    ("zero-range", "constant-one", "complete", None, 4, 30),      # 5456, eigsh
)


def graph_label(kind: str, d, N: int) -> str:
    return f"K{N}" if kind == "complete" else f"L{d}d{N}"


def exact_label(cell) -> str:
    family, rate, kind, d, N, om = cell
    return f"{family}/{rate}/{graph_label(kind, d, N)}/om{om}"


def exact_cell(cell):
    """Enumerate, build and solve one exact cell; returns (generator, gap, kappa)."""
    family, rate, kind, d, N, om = cell
    model = ModelSpec(family, g=RATES[rate])
    graph = build_graph(kind, d=d, N=N)
    states = discrete.enumerate_states(graph.n_sites, om)
    gen = discrete.build_generator(model, graph, states)
    gap, kappa = discrete.gap_and_kappa(gen)
    return gen, gap, kappa


class Exact:
    #: host-speed probe weights (interpreter, LAPACK): the dense and ARPACK
    #: eigensolves are nearly all the time
    PROBE_WEIGHTS = (0.0, 1.0)

    def __init__(self, seed: int, hooks, refs: dict):
        self.refs = {}
        for cell in EXACT_CELLS:
            label = exact_label(cell)
            ref = dict(refs["exact"][label])
            if cell[0] == "zero-range" and cell[1] == "identity" and cell[2] == "complete":
                ref["gap"] = 1.0   # linear rates on K_N: gap exactly 1
            self.refs[label] = ref

    def warm_up(self):
        # first calls into each LAPACK/ARPACK path the cells take, on
        # matrices far below the cells' sizes
        rng = np.random.default_rng(0)
        a = rng.standard_normal((60, 60))
        s = a + a.T
        np.linalg.eigvalsh(s)
        scipy.linalg.eigh(s, eigvals_only=True, subset_by_index=[58, 59])
        scipy.linalg.eigh(s, eigvals_only=True, subset_by_index=[0, 0])
        sp = scipy.sparse.csr_matrix(s)
        scipy.sparse.linalg.eigsh(sp, k=2, which="LA", return_eigenvectors=False, tol=1e-11)
        scipy.sparse.linalg.eigsh(sp, k=1, which="SA", return_eigenvectors=False, tol=1e-11)
        exact_cell(("zero-range", "identity", "complete", None, 3, 4))

    def ops(self, k: int) -> list:
        out = []
        for cell in EXACT_CELLS:
            label = exact_label(cell)
            ref = self.refs[label]

            def check(result, ref=ref):
                gen, gap, kappa = result
                sym, row = gen.symmetry_residual(), gen.row_sum_residual()
                ok = (close(gap, ref["gap"]) and close(kappa, ref["kappa"])
                      and sym < SYMMETRY_TOL and row < ROW_SUM_TOL)
                return ok, (f"gap {gap!r} (ref {ref['gap']!r}), kappa {kappa!r} "
                            f"(ref {ref['kappa']!r}), symmetry {sym:.1e}, row sum {row:.1e}"), {}

            out.append(Op(label, lambda cell=cell: exact_cell(cell), check))
        return out


# ---------------------------------------------------------------------------
# sector: polynomial sectors, where moment and Gram assembly dominate
# ---------------------------------------------------------------------------

def cardioid(theta: float) -> float:
    return (1.0 + math.cos(theta)) / (2.0 * math.pi)


#: (model, N, degree, basis mode, gamma)
SECTOR_CELLS = (
    *(("kac-uniform", N, 4, "full", None) for N in range(3, 9)),
    *(("kac-uniform", N, 4, "symmetric", None) for N in range(6, 10)),
    *(("gamma", N, 2, "full", 2) for N in range(3, 7)),
    ("gamma", 5, 4, "full", 1),
    ("gamma", 8, 4, "symmetric", 1),
    ("kac-uniform", 4, 6, "full", None),
    ("kac-uniform", 5, 6, "symmetric", None),
    *(("kac-rho", N, 4, "full", None) for N in range(3, 6)),
)


def sector_label(cell) -> str:
    model, N, deg, mode, gam = cell
    extra = f"/gamma{gam}" if gam is not None else ""
    return f"{model}/K{N}/deg{deg}/{mode}{extra}"


def sector_reference(cell, refs: dict) -> float:
    """Closed forms of the paper where they exist, else the stored seed value."""
    model, N, deg, mode, gam = cell
    if model == "kac-uniform" and deg >= 4:
        return (N + 2) / (4 * N)
    if model == "gamma":
        g = Fraction(gam)
        return float((g * N + 1) / (N * (2 * g + 1)))
    return refs["sector"][sector_label(cell)]


def sector_cell(cell, rho: RhoSpec):
    """Assemble and solve one sector cell; returns the galerkin gap report."""
    model, N, deg, mode, gam = cell
    kwargs = {}
    if gam is not None:
        kwargs["gamma"] = Fraction(gam)
    if model == "kac-rho":
        kwargs["rho"] = rho
    graph = build_graph("complete", N=N)
    pair = galerkin.assemble_galerkin(model, graph, degree=deg, mode=mode, **kwargs)
    return galerkin.galerkin_eigensystem(pair)


class Sector:
    #: moment oracles in the interpreter and Gram eigensolves in LAPACK
    PROBE_WEIGHTS = (0.5, 0.5)

    def __init__(self, seed: int, hooks, refs: dict):
        self.rho = RhoSpec(density=cardioid, name="cardioid")
        self.refs = {sector_label(c): sector_reference(c, refs) for c in SECTOR_CELLS}

    def solve(self, cell):
        return sector_cell(cell, self.rho)

    def warm_up(self):
        for cell in (("kac-uniform", 3, 2, "full", None), ("gamma", 3, 2, "symmetric", 1),
                     ("kac-rho", 3, 2, "full", None)):
            self.solve(cell)

    def ops(self, k: int) -> list:
        out = []
        for cell in SECTOR_CELLS:
            label = sector_label(cell)

            def check(rep, ref=self.refs[label]):
                return close(rep.gap, ref), f"gap {rep.gap!r} (ref {ref!r})", {}

            out.append(Op(label, lambda cell=cell: self.solve(cell), check))
        return out


# ---------------------------------------------------------------------------
# mc: the event loop and the two estimators
# ---------------------------------------------------------------------------

#: (family, N, omega, horizon); horizons give about 0.1-0.4 s per trajectory
TRAJECTORIES = (
    ("zero-range", 10, 10, 280.0),
    ("zero-range", 40, 40, 8.0),
    ("kac-uniform", 50, 50.0, 240.0),
    ("gamma-exchange", 10, 10.0, 420.0),
    ("kac-rho", 10, 10.0, 1100.0),
)


def trajectory_model(family: str, rho: RhoSpec) -> ModelSpec:
    """Linear zero-range rates, gamma = 2 redistribution, cardioid angle density."""
    if family == "zero-range":
        return ModelSpec("zero-range", g=G_IDENTITY)
    if family == "gamma-exchange":
        return ModelSpec("gamma-exchange", exchange=GammaExchangeSpec(gamma=2))
    if family == "kac-rho":
        return ModelSpec("kac-rho", rho=rho)
    return ModelSpec(family)


def conserved(model: ModelSpec, config) -> float:
    law = model.law()
    return float(sum(law.site_value(float(v)) for v in config))


@dataclass
class Estimand:
    """An observable with its exact gap, for one estimator call."""

    label: str
    model: ModelSpec
    graph: object
    omega: object
    observable: Callable
    gap: float


def table_observable(states, table):
    index = states.index
    return lambda cfg: table[index[tuple(int(v) for v in cfg)]]


class MonteCarlo:
    #: the event loop in the interpreter and the estimators' FFTs and fits
    PROBE_WEIGHTS = (0.5, 0.5)
    AUTOCORR_SAMPLES = 5000
    RAYLEIGH_SAMPLES = {"rayleigh/zero-range/identity/K3/om4": 4000,
                        "rayleigh/kac-uniform/K3": 300}

    def __init__(self, seed: int, hooks, refs: dict):
        self.seed = seed
        self.hooks = hooks
        self.rho = RhoSpec(density=cardioid, name="cardioid")
        self.autocorr = []
        for family, g, kind, d, N, om in verify.MC_DISCRETE_INSTANCES:
            model = ModelSpec(family, g=g)
            graph = build_graph(kind, d=d, N=N)
            states = discrete.enumerate_states(graph.n_sites, om)
            gap, table = discrete.gap_eigenfunction(discrete.build_generator(model, graph, states))
            label = f"autocorr/{family}/{g.name}/{graph_label(kind, d, N)}/om{om}"
            self.autocorr.append(Estimand(label, model, graph, om,
                                          table_observable(states, table), gap))
        k3 = build_graph("complete", N=3)
        rep = galerkin.galerkin_eigensystem(galerkin.assemble_galerkin("kac-uniform", k3, degree=4))
        sector_f = galerkin.sector_polynomial(rep)
        kac = ModelSpec("kac-uniform")
        # closed form (N+2)/(4N) at N = 3
        self.autocorr.append(Estimand("autocorr/kac-uniform/K3", kac, k3, 1.0, sector_f, 5 / 12))
        zr = ModelSpec("zero-range", g=G_IDENTITY)
        states = discrete.enumerate_states(3, 4)
        _, table = discrete.gap_eigenfunction(discrete.build_generator(zr, k3, states))
        # linear rates on K_N: gap exactly 1
        self.rayleigh = [
            Estimand("rayleigh/zero-range/identity/K3/om4", zr, k3, 4,
                     table_observable(states, table), 1.0),
            Estimand("rayleigh/kac-uniform/K3", kac, k3, 1.0, sector_f, 5 / 12),
        ]
        self.trajectories = [(f"{family}-K{N}", trajectory_model(family, self.rho),
                              build_graph("complete", N=N), om, horizon)
                             for family, N, om, horizon in TRAJECTORIES]

    def warm_up(self):
        est = self.rayleigh[0]
        simulate_mod.autocorr_gap_estimate(est.model, est.graph, est.observable,
                                           omega=est.omega, dt=0.25, n_samples=2000,
                                           burn_in=5.0, seed=2**62 + self.seed)
        for label, model, graph, om, horizon in self.trajectories:
            cfg = simulate_mod.initial_config(model, graph, om, seed=0)
            simulate_mod.simulate(model, graph, cfg, horizon / 100.0, seed=2**62 + self.seed)

    def _trajectory_op(self, label, model, graph, om, horizon, seed) -> Op:
        cfg = simulate_mod.initial_config(model, graph, om, seed=seed)
        total = conserved(model, cfg)

        def run():
            return simulate_mod.simulate(model, graph, cfg, horizon, seed=seed)

        def check(result):
            summary = result[0]
            now = conserved(model, summary.final_config)
            if model.is_discrete:
                ok = now == total
            else:
                ok = abs(now - total) <= simulate_mod.CONSERVATION_RTOL * max(abs(total), 1.0)
            ok = ok and summary.n_events > 0
            return ok, f"{summary.n_events} events, conserved {now!r} (start {total!r})", {
                "events": summary.n_events}

        return Op(label, run, check, trajectory=True)

    def _estimate_op(self, est: Estimand, seed: int, rayleigh: bool) -> Op:
        observable = self.hooks.observable(est.observable) if self.hooks.spans_on else est.observable
        dt = 0.25 / est.gap
        if rayleigh:
            n = self.RAYLEIGH_SAMPLES[est.label]

            def run():
                return simulate_mod.rayleigh_upper_bound(
                    est.model, est.graph, observable, omega=est.omega, dt=dt,
                    n_samples=n, seed=seed)
        else:
            def run():
                return simulate_mod.autocorr_gap_estimate(
                    est.model, est.graph, observable, omega=est.omega, dt=dt,
                    n_samples=self.AUTOCORR_SAMPLES, burn_in=30.0 / est.gap, seed=seed)

        def check(result):
            ok = est.gap / MC_BAND <= result.estimate <= est.gap * MC_BAND
            covered = int(result.covers(est.gap))
            return ok, (f"estimate {result.estimate:.4f} in [{result.ci_low:.4f}, "
                        f"{result.ci_high:.4f}], gap {est.gap:.6f}"), {"ci_covered": covered}

        return Op(est.label, run, check)

    def ops(self, k: int) -> list:
        out = []
        i = 0
        for label, model, graph, om, horizon in self.trajectories:
            out.append(self._trajectory_op(label, model, graph, om, horizon,
                                           derived_seed(self.seed, k, i)))
            i += 1
        for est in self.autocorr:
            out.append(self._estimate_op(est, derived_seed(self.seed, k, i), False))
            i += 1
        for est in self.rayleigh:
            out.append(self._estimate_op(est, derived_seed(self.seed, k, i), True))
            i += 1
        return out


# ---------------------------------------------------------------------------
# audit: many small exact cells plus the bound calculus
# ---------------------------------------------------------------------------

AUDIT_CHECKS = tuple(name for name, _ in verify.ACCEPTANCE_CHECKS
                     if name != "mc-oracle-agreement")

#: the largest lattice-comparison cell, which the battery's fast mode skips
LATTICE_CELL = ("identity", 2, 3, 4)
#: (rate, d, N, omega, functions) for bounds.lemma_audit
LEMMA_CELLS = (("identity", 2, 3, 4, 20), ("constant-one", 1, 6, 4, 20))
CENSUS = ((2, 8), (3, 5))
#: (rate, n_max, mu2 limit); mu1 is -1/2 for both
KERNELS = (("constant-one", 100, 1 / 3), ("identity", 100, 1 / 4))
#: (lambda3, lambda2, d) -> exact certificate constants (c1, c2, c3)
CERTIFICATES = (
    ((Fraction(5, 12), Fraction(1, 2), 2), (Fraction(1, 4), Fraction(1, 768), Fraction(1, 768))),
    ((Fraction(4, 9), Fraction(1), 3), (Fraction(1, 3), Fraction(1, 864), Fraction(1, 432))),
)


class Audit:
    #: per-state Python loops on small cells, and many small eigensolves
    PROBE_WEIGHTS = (0.5, 0.5)

    def __init__(self, seed: int, hooks, refs: dict):
        self.seed = seed
        self.refs = refs["audit"]

    def warm_up(self):
        cell = ("simple-average", "identity", "lattice", 1, 3, 2)
        exact_cell(cell)
        graph = build_graph("lattice", d=1, N=3)
        states = discrete.enumerate_states(3, 2)
        bounds.lemma_audit(states, discrete.stationary_weights(G_IDENTITY, states), graph,
                           n_functions=2, seed=0)

    def _check_op(self, name: str) -> Op:
        def run():
            return verify.run_all(fast=True, only=[name])[0]

        def check(outcome):
            return outcome.passed, outcome.detail, {f"verify.{name}_s": outcome.elapsed}

        return Op(f"verify/{name}", run, check)

    def _lattice_op(self) -> Op:
        rate, d, N, om = LATTICE_CELL
        ref = self.refs["lattice"]

        def run():
            model = ModelSpec("simple-average", g=RATES[rate])
            lat = build_graph("lattice", d=d, N=N)
            loc, _, _ = discrete.exact_gap(model, lat, om)
            full, _, _ = discrete.exact_gap(model, build_graph("complete", N=lat.n_sites), om)
            return loc, full, bounds.local_gap_lower_bound(full, d, N)

        def check(result):
            loc, full, lower = result
            ok = close(loc, ref["lattice_gap"]) and close(full, ref["complete_gap"]) and loc >= lower
            return ok, f"lattice gap {loc!r} >= {lower!r}; complete gap {full!r}", {}

        return Op(f"lattice-comparison/{rate}/d{d}/N{N}/om{om}", run, check)

    def _lemma_op(self, cell, seed: int) -> Op:
        rate, d, N, om, n_functions = cell

        def run():
            graph = build_graph("lattice", d=d, N=N)
            states = discrete.enumerate_states(graph.n_sites, om)
            measure = discrete.stationary_weights(RATES[rate], states)
            return bounds.lemma_audit(states, measure, graph, n_functions=n_functions, seed=seed)

        def check(report):
            ok = report.passed and max(report.max_ratio_transfer, report.max_ratio_swap,
                                       report.max_ratio_path) <= 1.0 + 1e-9
            return ok, f"{report.checks_run} checks, {len(report.violations)} violations", {}

        return Op(f"lemma-audit/{rate}/d{d}/N{N}/om{om}", run, check)

    def _census_op(self, d: int, N: int) -> Op:
        ref = self.refs["census"][f"d{d}N{N}"]

        def check(census):
            ok = (census.holds and census.max_congestion == ref["max_congestion"]
                  and census.max_weighted == ref["max_weighted"])
            return ok, f"max congestion {census.max_congestion}, weighted {census.max_weighted}", {}

        return Op(f"path-census/d{d}/N{N}", lambda: bounds.path_census(d, N), check)

    def _two_site_op(self) -> Op:
        omegas = range(1, 201)

        def check(table):
            # linear rates on two sites: spectrum {0, 1, ..., omega}
            ok = close(table.inf_gap, 1.0) and close(table.sup_kappa, float(omegas[-1]))
            return ok, f"inf gap {table.inf_gap!r}, sup kappa {table.sup_kappa!r}", {}

        model = ModelSpec("zero-range", g=G_IDENTITY)
        return Op("two-site/zero-range/identity/om1-200",
                  lambda: discrete.two_site_spectrum(model, omegas), check)

    def _kernel_op(self, rate: str, n_max: int, mu2: float) -> Op:
        def check(ext):
            ok = (abs(ext.mu1 + 0.5) <= verify.KERNEL_MU1_TOL
                  and abs(ext.mu2 - mu2) <= verify.KERNEL_MU2_TOL)
            return ok, f"mu1 {ext.mu1!r}, mu2 {ext.mu2!r}", {}

        return Op(f"kernel/{rate}/n{n_max}",
                  lambda: discrete.kernel_spectrum_extremes(RATES[rate], n_max), check)

    def _certificate_op(self, args, expect) -> Op:
        def check(chain):
            got = tuple(chain.value_of(rule) for rule in
                        (bounds.RULE_RECURSION, bounds.RULE_LATTICE, bounds.RULE_SANDWICH))
            return got == expect, f"constants {got}", {}

        lam3, lam2, d = args
        return Op(f"certificate/{lam3}/{lam2}/d{d}",
                  lambda: bounds.certificate(lam3, lam2, d), check)

    def ops(self, k: int) -> list:
        out = [self._check_op(name) for name in AUDIT_CHECKS]
        out.append(self._lattice_op())
        out.extend(self._lemma_op(cell, derived_seed(self.seed, k, i))
                   for i, cell in enumerate(LEMMA_CELLS))
        out.extend(self._census_op(d, N) for d, N in CENSUS)
        out.append(self._two_site_op())
        out.extend(self._kernel_op(*kern) for kern in KERNELS)
        out.extend(self._certificate_op(*cert) for cert in CERTIFICATES)
        return out


WORKLOADS = {"exact": Exact, "sector": Sector, "mc": MonteCarlo, "audit": Audit}
