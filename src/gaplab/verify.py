"""Acceptance suite: every advertised exact value, inequality and estimator
contract, runnable as one battery.

Each check returns a CheckOutcome; the CLI prints them as a table and the
test suite asserts them individually.  Checks are pure given their inputs
and run their cells in order, in one thread.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import bounds, discrete, galerkin
from .simulate import autocorr_gap_estimate
from .models import (G_CONSTANT_ONE, G_IDENTITY, GammaExchangeSpec, ModelSpec, RhoSpec,
                     build_graph)

KAC_GAP_TOL = 1e-8
GAMMA_GAP_TOL = 1e-8
KERNEL_MU2_TOL = 1e-4
KERNEL_MU1_TOL = 1e-9
CONDITIONAL_SPECTRUM_TOL = 1e-9


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str
    reference: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.elapsed:.1f}s) [{self.reference}] {self.detail}"


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def sector_closed_form(model: str, N: int, gamma=None) -> Fraction:
    """The sector gap on K_N: (N + 2)/(4N) for "kac-uniform" at degree >= 4
    (Thm 1.1), (gamma N + 1)/(N (2 gamma + 1)) for "gamma" (Thm 3.3)."""
    if model == "kac-uniform":
        return Fraction(N + 2, 4 * N)
    g = Fraction(gamma)
    return (g * N + 1) / (N * (2 * g + 1))


def gamma_block_residual(gamma, N: int) -> Fraction:
    """max(|C (2, 1)^T|, |trace C + lambda*(N)|) for the redistribution model's
    exact symmetric degree-2 block C on K_N, over the orbit sums O_(1,1), O_(2).

    It is 0 exactly when C kills the conserved (sum x)^2 = O_(2) + 2 O_(1,1)
    and its other eigenvalue, its trace, is -lambda*(N): spectrum {0, -lambda}.
    """
    pair = galerkin.assemble_galerkin("gamma", build_graph("complete", N=N), degree=2,
                                      mode="symmetric", gamma=gamma)
    (elements, C), = pair.blocks
    conserved = np.array([{(1, 1): 2, (2,): 1}[e] for e in elements], dtype=object)
    miss = C.trace() + sector_closed_form("gamma", N, gamma)
    return max(abs(v) for v in (miss, *C @ conserved))


# ---------------------------------------------------------------------------
# individual criteria
# ---------------------------------------------------------------------------

def check_kac_exact_gap(fast: bool = False) -> CheckOutcome:
    """Rotation-walk sector gap equals (N+2)/(4N) for N = 3..6 at degree 4."""
    def run():
        errs = {}
        for N in (3, 4, 5, 6):
            graph = build_graph("complete", N=N)
            pair = galerkin.assemble_galerkin("kac-uniform", graph, degree=4)
            gap = galerkin.galerkin_eigensystem(pair).gap
            errs[N] = abs(gap - float(sector_closed_form("kac-uniform", N)))
        return errs
    errs, dt = _timed(run)
    worst = max(errs.values())
    ok = worst <= KAC_GAP_TOL and dt < 10.0
    return CheckOutcome("kac-exact-gap", ok,
                        f"max |gap - (N+2)/(4N)| = {worst:.2e} over N=3..6; "
                        f"runtime limit 10s", "Thm 1.1 / exact value", dt)


def check_caputo_identity(fast: bool = False) -> CheckOutcome:
    """Exact rational identity: recursion at 5/12 reproduces (N+2)/(4N)."""
    def run():
        for N in range(2, 65):
            if bounds.caputo_bound(Fraction(5, 12), N) != Fraction(N + 2, 4 * N):
                return N
        return None
    bad, dt = _timed(run)
    return CheckOutcome("caputo-identity", bad is None,
                        "exact for N = 2..64" if bad is None else f"fails at N = {bad}",
                        "Thm 1.1", dt)


def check_gamma_exact_gap(fast: bool = False) -> CheckOutcome:
    """Redistribution-model sector gap matches (gamma N + 1)/(N (2 gamma + 1)):
    the full-mode gap in floats, the symmetric block exactly (`gamma_block_residual`)."""
    def run():
        worst_gap = 0.0
        worst_resid = Fraction(0)
        for gam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for N in (3, 4, 5):
                graph = build_graph("complete", N=N)
                pair = galerkin.assemble_galerkin("gamma", graph, degree=2, gamma=gam)
                gap = galerkin.galerkin_eigensystem(pair).gap
                expect = float(sector_closed_form("gamma", N, gam))
                worst_gap = max(worst_gap, abs(gap - expect))
                worst_resid = max(worst_resid, gamma_block_residual(gam, N))
        return worst_gap, worst_resid
    (wg, wr), dt = _timed(run)
    ok = wg <= GAMMA_GAP_TOL and wr == 0
    return CheckOutcome("gamma-exact-gap", ok,
                        f"max gap error {wg:.2e}; exact degree-2 block residual {wr}",
                        "Thm 3.3", dt)


def check_conditional_operator(fast: bool = False) -> CheckOutcome:
    """One-site conditional operator spectrum matches the closed-form eigenvalues."""
    def run():
        worst = 0.0
        mu_ok = True
        for gam in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
            rep = galerkin.k_operator_check(gam, degree=6)
            worst = max(worst, rep.max_residual, rep.linear_eigen_residual,
                        rep.triangular_residual)
            mu_ok &= rep.mu1 == Fraction(-1, 2)
            mu_ok &= rep.mu2 == (1 + gam) / (2 * (1 + 2 * gam))
        return worst, mu_ok
    (worst, mu_ok), dt = _timed(run)
    ok = worst <= CONDITIONAL_SPECTRUM_TOL and mu_ok
    return CheckOutcome("conditional-operator-spectrum", ok,
                        f"max residual {worst:.2e}; mu1 = -1/2 and mu2 closed form "
                        f"{'reproduced' if mu_ok else 'FAILED'}",
                        "Thm 3.3 proof", dt)


def check_kernel_extremes(fast: bool = False) -> CheckOutcome:
    """Conditional kernels: spectrum extremes reach 1/3 resp. 1/4 and -1/2."""
    def run():
        res = {}
        for g, target in ((G_CONSTANT_ONE, 1 / 3), (G_IDENTITY, 1 / 4)):
            ext = discrete.kernel_spectrum_extremes(g, 40)
            res[g.name] = (abs(ext.mu2 - target), abs(ext.mu1 + 0.5), ext.mu1 > -1.0)
        return res
    res, dt = _timed(run)
    ok = dt < 5.0
    details = []
    for name, (d2, d1, pf) in res.items():
        ok &= d2 <= KERNEL_MU2_TOL and d1 <= KERNEL_MU1_TOL and pf
        details.append(f"{name}: |mu2 err| {d2:.1e}, |mu1+1/2| {d1:.1e}, mu1 > -1 {pf}")
    return CheckOutcome("zero-range-kernels", ok, "; ".join(details),
                        "one-site kernel reduction", dt)


def _lattice_cells(fast: bool):
    cells = []
    for g in (G_CONSTANT_ONE, G_IDENTITY):
        for d, Ns in ((1, range(2, 7)), (2, range(2, 4))):
            for N in Ns:
                omegas = range(1, 6)
                if fast and d == 2 and N == 3:
                    omegas = range(1, 4)
                for om in omegas:
                    cells.append((g, d, N, om))
    return cells


def _exact_gap(model, graph, omega) -> float:
    """The exact gap alone; `discrete.exact_gap` would solve kappa as well."""
    states = discrete.enumerate_states(graph.n_sites, omega)
    return discrete.spectral_gap(discrete.build_generator(model, graph, states))


def check_lattice_comparison(fast: bool = False) -> CheckOutcome:
    """Exact lattice gaps dominate the complete-graph gap divided by 96 d N^2."""
    def cell(args):
        g, d, N, om = args
        model = ModelSpec("simple-average", g=g)
        lat = build_graph("lattice", d=d, N=N)
        comp = build_graph("complete", N=lat.n_sites)
        loc, full = _exact_gap(model, lat, om), _exact_gap(model, comp, om)
        lower = bounds.local_gap_lower_bound(full, d, N)
        return (args, loc, lower, loc / lower if lower > 0 else math.inf)

    def run():
        return [cell(args) for args in _lattice_cells(fast)]
    rows, dt = _timed(run)
    bad = [(a, loc, lower) for a, loc, lower, _ in rows if loc < lower]
    slack = min(r[-1] for r in rows)
    return CheckOutcome("lattice-comparison", not bad,
                        f"{len(rows)} cells; min slack ratio {slack:.1f}"
                        + (f"; violations {bad[:3]}" if bad else ""),
                        "Thm 2.1", dt)


def check_sandwich(fast: bool = False) -> CheckOutcome:
    """Exact particle-jump gaps sit inside the two-sided comparison interval."""
    def run():
        model = ModelSpec("zero-range", g=G_IDENTITY)
        avg = ModelSpec("simple-average", g=G_IDENTITY)
        table = discrete.two_site_spectrum(model, range(1, 9))
        lam2 = 1.0   # pair gap of the linear-rate model, exact for every total
        bad = []
        checked = 0
        for kind, dd in (("complete", None), ("lattice", 1)):
            for N in (3, 4):
                graph = build_graph(kind, d=dd, N=N)
                for om in range(1, 9):
                    lam, lam_star = _exact_gap(model, graph, om), _exact_gap(avg, graph, om)
                    lo, hi = bounds.sandwich(lam2, table.running_sup_kappa(om), lam_star)
                    checked += 1
                    if not (lo <= lam + 1e-9 and lam <= hi + 1e-9):
                        bad.append((kind, N, om, lo, lam, hi))
        return checked, bad
    (checked, bad), dt = _timed(run)
    return CheckOutcome("two-site-sandwich", not bad,
                        f"{checked} cells, {len(bad)} violations"
                        + (f": {bad[:3]}" if bad else ""),
                        "Thm 2.2", dt)


def check_uniform_collapse(fast: bool = False) -> CheckOutcome:
    """Uniform angle density: pair gap and top both exactly 1/2, interval collapses."""
    def run():
        res = galerkin.two_site_fourier_gap(RhoSpec.uniform())
        exact_half = (res.gap == 0.5 and res.kappa == 0.5)
        worst = 0.0
        for N in (3, 4, 5, 6):
            graph = build_graph("complete", N=N)
            pair = galerkin.assemble_galerkin("kac-uniform", graph, degree=4)
            lam_star = galerkin.galerkin_eigensystem(pair).gap
            lo, hi = bounds.sandwich(res.gap, res.kappa, lam_star)
            worst = max(worst, abs(lo - hi),
                        abs(lo - float(sector_closed_form("kac-uniform", N))))
        return exact_half, worst
    (exact_half, worst), dt = _timed(run)
    ok = exact_half and worst <= KAC_GAP_TOL
    return CheckOutcome("uniform-collapse", ok,
                        f"pair gap = kappa = 1/2 exactly: {exact_half}; "
                        f"pinned-interval error {worst:.2e}",
                        "Thms 1.3/1.4", dt)


AUDIT_INSTANCES = (
    (G_CONSTANT_ONE, 1, 3, 2),
    (G_IDENTITY, 1, 3, 3),
    (G_CONSTANT_ONE, 1, 4, 2),
    (G_IDENTITY, 2, 2, 2),
    (G_CONSTANT_ONE, 2, 2, 3),
    (G_IDENTITY, 1, 3, 4),
)


def check_lemma_audits(fast: bool = False) -> CheckOutcome:
    """Random-function audits of the transfer/swap/path inequalities."""
    n_functions = 50 if fast else 200

    def cell(args):
        g, d, N, om = args
        graph = build_graph("lattice", d=d, N=N)
        states = discrete.enumerate_states(graph.n_sites, om)
        measure = discrete.stationary_weights(g, states)
        return bounds.lemma_audit(states, measure, graph,
                                  n_functions=n_functions, seed=20240 + om)

    def run():
        return [cell(args) for args in AUDIT_INSTANCES]
    reports, dt = _timed(run)
    n_viol = sum(len(r.violations) for r in reports)
    worst = max(max(r.max_ratio_transfer, r.max_ratio_swap, r.max_ratio_path)
                for r in reports)
    ok = n_viol == 0 and dt < 60.0
    return CheckOutcome("lemma-audits", ok,
                        f"{len(reports)} instances x {n_functions} functions; "
                        f"{n_viol} violations; worst ratio {worst:.3f}",
                        "Lemmas 1.5/1.6 and path composite", dt)


MC_DISCRETE_INSTANCES = (
    ("zero-range", G_IDENTITY, "complete", None, 3, 4),
    ("zero-range", G_IDENTITY, "complete", None, 4, 3),
    ("zero-range", G_CONSTANT_ONE, "complete", None, 3, 3),
    ("zero-range", G_CONSTANT_ONE, "complete", None, 3, 5),
    ("zero-range", G_IDENTITY, "lattice", 1, 3, 3),
    ("zero-range", G_CONSTANT_ONE, "lattice", 1, 4, 2),
    ("simple-average", G_CONSTANT_ONE, "complete", None, 3, 3),
    ("simple-average", G_IDENTITY, "complete", None, 3, 4),
    ("simple-average", G_IDENTITY, "lattice", 1, 4, 2),
    ("simple-average", G_CONSTANT_ONE, "lattice", 2, 2, 2),
)


def gap_observable(model, graph, omega) -> tuple:
    """Exact gap of a discrete model and its eigenfunction as a function on configurations."""
    states = discrete.enumerate_states(graph.n_sites, omega)
    gap, table = discrete.gap_eigenfunction(discrete.build_generator(model, graph, states))
    index = states.index
    return gap, lambda cfg: table[index[tuple(cfg.tolist())]]


def _mc_instances():
    """(label, model, graph, observable, omega, exact gap) of each battery instance."""
    for family, g, kind, d, N, om in MC_DISCRETE_INSTANCES:
        model = ModelSpec(family, g=g)
        graph = build_graph(kind, d=d, N=N)
        gap, observable = gap_observable(model, graph, om)
        yield (f"{family}/{g.name}/{kind} N={N} om={om}", model, graph, observable, om, gap)
    k3 = build_graph("complete", N=3)
    # rotation walk on three sites: sector eigenfunction as observable
    rep = galerkin.galerkin_eigensystem(galerkin.assemble_galerkin("kac-uniform", k3, degree=4))
    yield ("kac N=3", ModelSpec("kac-uniform"), k3, galerkin.sector_polynomial(rep), 1.0,
           rep.gap)
    # redistribution model at unit shape: sum of squares is the eigenfunction
    yield ("gamma=1 N=3", ModelSpec("gamma-exchange", exchange=GammaExchangeSpec(gamma=1)),
           k3, lambda x: float(np.dot(x, x)), 1.0, 4.0 / 9.0)


def _mc_hits(model, graph, observable, omega, gap, seeds) -> int:
    """How many seeds give an autocorrelation interval that covers the exact `gap`."""
    hits = 0
    for seed in seeds:
        est = autocorr_gap_estimate(
            model, graph, observable, omega=omega, dt=0.25 / gap, n_samples=5000,
            burn_in=30.0 / gap, seed=seed)
        if est.covers(gap):
            hits += 1
    return hits


def check_mc_oracle(fast: bool = False) -> CheckOutcome:
    """Autocorrelation estimator intervals cover the exact gaps across seeds.

    The size-uniform lattice constants are not verifiable by simulation at
    this scale; they are covered by the certificate arithmetic together with
    the exact lattice comparison.
    """
    n_seeds = 5 if fast else 20
    seeds = list(range(n_seeds))
    need = math.floor(0.9 * n_seeds)

    def run():
        return [(label, _mc_hits(model, graph, f, om, gap, seeds))
                for label, model, graph, f, om, gap in _mc_instances()]
    rows, dt = _timed(run)
    bad = [(name, hits) for name, hits in rows if hits < need]
    ok = not bad and dt < 900.0
    detail = (f"{len(rows)} instances x {n_seeds} seeds, need >= {need} covered; "
              f"hits {tuple(hits for _, hits in rows)}; "
              + ("all pass" if not bad else f"misses: {bad}"))
    return CheckOutcome("mc-oracle-agreement", ok, detail,
                        "estimator contract; uniform lattice constants via "
                        "certificate + lattice-comparison", dt)


def check_certificate_chain(fast: bool = False) -> CheckOutcome:
    """Certificate arithmetic exact, with the right rule quotes and refusal."""
    def run():
        c_kac = bounds.certificate(Fraction(5, 12), Fraction(1, 2), 1)
        ok = c_kac.value_of(bounds.RULE_RECURSION) == Fraction(1, 4)
        ok &= c_kac.value_of(bounds.RULE_LATTICE) == Fraction(1, 384)
        ok &= c_kac.value_of(bounds.RULE_SANDWICH) == Fraction(1, 384)
        c_gam = bounds.certificate(Fraction(4, 9), Fraction(1), 1)
        ok &= c_gam.value_of(bounds.RULE_RECURSION) == Fraction(1, 3)
        ok &= c_gam.value_of(bounds.RULE_LATTICE) == Fraction(1, 288)
        ok &= c_gam.value_of(bounds.RULE_SANDWICH) == Fraction(1, 144)
        rules = [s.rule for s in c_kac.steps]
        ok &= rules == [bounds.RULE_RECURSION, bounds.RULE_LATTICE, bounds.RULE_SANDWICH]
        refused = False
        named = ""
        try:
            bounds.certificate(Fraction(1, 3), Fraction(1), 1)
        except bounds.CertificateRefused as err:
            refused = True
            named = err.hypothesis
        ok &= refused and "1/3" in named
        return ok, named
    (ok, named), dt = _timed(run)
    return CheckOutcome("certificate-chain", ok,
                        f"constants 1/384, 1/288, 1/144 exact; boundary refused "
                        f"naming {named!r}",
                        "Thms 1.1/1.2/2.2/2.3", dt)


ACCEPTANCE_CHECKS = (
    ("kac-exact-gap", check_kac_exact_gap),
    ("caputo-identity", check_caputo_identity),
    ("gamma-exact-gap", check_gamma_exact_gap),
    ("conditional-operator-spectrum", check_conditional_operator),
    ("zero-range-kernels", check_kernel_extremes),
    ("lattice-comparison", check_lattice_comparison),
    ("two-site-sandwich", check_sandwich),
    ("uniform-collapse", check_uniform_collapse),
    ("lemma-audits", check_lemma_audits),
    ("mc-oracle-agreement", check_mc_oracle),
    ("certificate-chain", check_certificate_chain),
)


def run_all(fast: bool = False, only: Optional[list] = None) -> list:
    """Every check's outcome, or those named in `only`; an unknown name raises ValueError."""
    names = [name for name, _ in ACCEPTANCE_CHECKS]
    unknown = [name for name in only or () if name not in names]
    if unknown:
        raise ValueError(f"unknown check(s) {', '.join(unknown)}; "
                         f"the checks are {', '.join(names)}")
    return [fn(fast=fast) for name, fn in ACCEPTANCE_CHECKS if not only or name in only]
