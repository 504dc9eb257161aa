"""Run-time wrappers around gaplab's public layer functions.

`Hooks.install()` replaces module attributes with wrappers; no source file
changes.  Every wrapper counts calls and, through `on_return`, the work its
result reports (states, events, basis sizes, audit checks).  With
`spans_on` set, wrappers also record a span (id, name, start, end, parent
span, thread id); parent links are kept per thread because
`verify.parallel_map` may run cells on a pool.  Self time is a span's
duration minus the time of its direct child spans.

Leaf functions called ~1e5 times per pass (moment oracles, observables) are
timed and counted but not stored span by span; their time still counts as
child time of the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from time import perf_counter

from gaplab import bounds, discrete, galerkin, verify

simulate_mod = importlib.import_module("gaplab.simulate")

MB = float(1 << 20)


def _on_build(h, args, kwargs, out):
    h.maximum("discrete.generator_dim_max", out.dim)


def _on_solve(h, args, kwargs, out):
    gen = args[0] if args else kwargs["gen"]
    n = int(gen.dim)
    h.add("discrete.cells", 1)
    h.add("discrete.states_total", n)
    h.maximum("discrete.states_max", n)


def _on_assemble(h, args, kwargs, out):
    n = len(out.basis)
    h.add("galerkin.basis_total", n)
    h.maximum("galerkin.basis_max", n)


def _on_eigensystem(h, args, kwargs, out):
    h.add("galerkin.deflated_total", out.deflated)


def _on_simulate(h, args, kwargs, out):
    summary = out[0]
    h.add("simulate.events", summary.n_events)
    h.add("simulate.clipped_events", summary.clipped_events)
    h.maximum("simulate.max_drift", float(summary.conservation_drift))


def _on_estimate(h, args, kwargs, out):
    h.add("simulate.bootstrap_failures", int(out.diagnostics.get("bootstrap_failures", 0)))


def _on_audit(h, args, kwargs, out):
    h.add("bounds.audit_checks", out.checks_run)
    h.add("bounds.violations", len(out.violations))


# (owners whose attribute is replaced, attribute, span name, leaf, on_return)
TARGETS = (
    ((discrete,), "enumerate_states", "discrete.enumerate", False, None),
    ((discrete,), "stationary_weights", "discrete.weights", False, None),
    ((discrete,), "build_generator", "discrete.build", False, _on_build),
    ((discrete, bounds), "pair_average_matrix", "discrete.pair_ops", False, None),
    ((discrete, bounds), "exchange_permutation", "discrete.pair_ops", False, None),
    ((discrete,), "gap_and_kappa", "discrete.solve", False, _on_solve),
    ((discrete,), "spectral_gap", "discrete.solve", False, _on_solve),
    ((discrete,), "gap_eigenfunction", "discrete.solve", False, _on_solve),
    ((discrete,), "kernel_spectrum_extremes", "discrete.kernel", False, None),
    ((galerkin,), "assemble_galerkin", "galerkin.assemble", False, _on_assemble),
    ((galerkin.SphereMoments, galerkin.DirichletMoments), "exact", "galerkin.moment", True, None),
    ((galerkin,), "pair_average_action", "galerkin.action", False, None),
    ((galerkin,), "rho_pair_action", "galerkin.action", False, None),
    ((galerkin,), "galerkin_eigensystem", "galerkin.solve", False, _on_eigensystem),
    ((simulate_mod,), "simulate", "simulate.sim", False, _on_simulate),
    ((simulate_mod, verify), "autocorr_gap_estimate", "simulate.estimate", False, _on_estimate),
    ((simulate_mod,), "rayleigh_upper_bound", "simulate.rayleigh", False, None),
    # the carre-du-champ quadrature is rayleigh_upper_bound's work, though it
    # runs inside simulate() as an observable; this private name is the only
    # boundary that keeps it out of the event loop's self time
    ((simulate_mod,), "_local_dirichlet", "simulate.dirichlet", False, None),
    ((bounds,), "lemma_audit", "bounds.audit", False, _on_audit),
    ((bounds,), "path_census", "bounds.census", False, None),
    ((bounds,), "certificate", "bounds.certificate", False, None),
)

OBSERVABLE = "simulate.observable"


class Hooks:
    """Counters always; spans and self times only while `spans_on` is set."""

    def __init__(self):
        self.spans_on = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.missing: list = []
        self.reset()

    # ------------------------------------------------------------------ state
    def reset(self) -> None:
        self.counts: dict = defaultdict(int)
        self.self_time: dict = defaultdict(float)
        self.total_time: dict = defaultdict(float)
        self.spans: list = []
        self._next_id = 0

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] += value

    def maximum(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] = max(self.counts.get(key, 0), value)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # --------------------------------------------------------------- wrappers
    def wrap(self, name: str, fn, leaf: bool = False, on_return=None):
        """Wrapper that counts calls of `fn` under `name`, and times it when spans are on."""
        calls = name + ".calls"
        hooks = self
        lock = self._lock

        if leaf:
            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                if not hooks.spans_on:
                    with lock:
                        hooks.counts[calls] += 1
                    return fn(*args, **kwargs)
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                d = perf_counter() - t0
                stack = hooks._stack()
                if stack:
                    stack[-1][0] += d
                with lock:
                    hooks.counts[calls] += 1
                    hooks.self_time[name] += d
                    hooks.total_time[name] += d
                return out
            return leaf_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hooks.add(calls, 1)
            if not hooks.spans_on:
                out = fn(*args, **kwargs)
            else:
                stack = hooks._stack()
                with lock:
                    span_id = hooks._next_id
                    hooks._next_id += 1
                parent = stack[-1][1] if stack else None
                frame = [0.0, span_id]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    d = t1 - t0
                    if stack:
                        stack[-1][0] += d
                    with lock:
                        hooks.self_time[name] += d - frame[0]
                        hooks.total_time[name] += d
                        hooks.spans.append((span_id, name, t0, t1, parent,
                                            threading.get_ident()))
            if on_return is not None:
                on_return(hooks, args, kwargs, out)
            return out
        return wrapper

    def observable(self, fn):
        """Wrap an observable the benchmark supplies to the simulator."""
        return self.wrap(OBSERVABLE, fn, leaf=True)

    def install(self) -> None:
        """Replace every target attribute that exists; record the ones that do not."""
        for owners, attr, name, leaf, on_return in TARGETS:
            made: dict = {}
            for owner in owners:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                # bounds and verify import some names from the defining
                # module, so patch each namespace that holds the function
                wrapped = made.get(id(original))
                if wrapped is None:
                    wrapped = made[id(original)] = self.wrap(name, original, leaf, on_return)
                setattr(owner, attr, wrapped)

    # ---------------------------------------------------------------- metrics
    def layer_times(self) -> dict:
        """Per-layer times of the current pass, in seconds."""
        st, tt = self.self_time, self.total_time
        return {
            "discrete.build_s": st["discrete.build"],
            "discrete.solve_s": st["discrete.solve"],
            "discrete.enumerate_s": st["discrete.enumerate"],
            "discrete.weights_s": st["discrete.weights"],
            "discrete.pair_ops_s": st["discrete.pair_ops"],
            "discrete.kernel_s": st["discrete.kernel"],
            "galerkin.assemble_s": st["galerkin.assemble"],
            "galerkin.moment_s": tt["galerkin.moment"],
            "galerkin.action_s": tt["galerkin.action"],
            "galerkin.solve_s": st["galerkin.solve"],
            "simulate.sim_s": st["simulate.sim"],
            "simulate.observable_s": tt[OBSERVABLE],
            "simulate.estimate_s": st["simulate.estimate"],
            "simulate.rayleigh_s": st["simulate.rayleigh"] + st["simulate.dirichlet"],
            "bounds.audit_s": st["bounds.audit"],
            "bounds.census_s": tt["bounds.census"],
            "bounds.certificate_s": tt["bounds.certificate"],
        }

    def layer_counts(self) -> dict:
        """Per-layer counts of the current pass; they repeat exactly for one seed."""
        c = self.counts
        n = c.get("discrete.generator_dim_max", 0)
        return {
            "discrete.cells": c["discrete.cells"],
            "discrete.states_total": c["discrete.states_total"],
            "discrete.states_max": c["discrete.states_max"],
            # computed from n, not measured: the dense float64 generator
            "discrete.dense_mb_max": 8.0 * n * n / MB,
            "galerkin.moment_calls": c["galerkin.moment.calls"],
            "galerkin.action_calls": c["galerkin.action.calls"],
            "galerkin.basis_total": c["galerkin.basis_total"],
            "galerkin.basis_max": c["galerkin.basis_max"],
            "galerkin.deflated_total": c["galerkin.deflated_total"],
            "simulate.events": c["simulate.events"],
            "simulate.estimates": c["simulate.estimate.calls"] + c["simulate.rayleigh.calls"],
            "simulate.bootstrap_failures": c["simulate.bootstrap_failures"],
            "simulate.clipped_events": c["simulate.clipped_events"],
            "simulate.max_drift": float(c.get("simulate.max_drift", 0.0)),
            "bounds.audit_checks": c["bounds.audit_checks"],
            "bounds.violations": c["bounds.violations"],
        }
