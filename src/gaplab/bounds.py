"""Canonical-path machinery and the certified gap-bound calculus.

Everything here is either combinatorics on the cube (paths, congestion),
random-function audits of the comparison inequalities, or interval
arithmetic combining two-site and three-site inputs into lattice-size-uniform
lower bounds.  Inputs given as Fractions propagate exactly.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .discrete import (Measure, StateSet, exchange_permutation,
                       pair_average_matrix)
from .models import InteractionGraph, build_graph
from .simulate import rng_for

#: rule tags quoted in emitted bound chains
RULE_RECURSION = "Thm 1.1"
RULE_LATTICE = "Thm 1.2"
RULE_SANDWICH = "Thm 2.2"
RULE_POSITIVITY = "Thm 2.3"

PATH_ENUM_CAP = 10_000_000


class CertificateRefused(ValueError):
    """A certificate hypothesis failed; `hypothesis` names which one."""

    def __init__(self, hypothesis: str):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis failed: {hypothesis}")


# ---------------------------------------------------------------------------
# canonical paths on the cube
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalPath:
    """Axis-by-axis nearest-neighbor path between two cube vertices."""

    start: tuple
    end: tuple
    vertices: tuple

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def _as_coord(x, d):
    if isinstance(x, int):
        x = (x,)
    x = tuple(int(v) for v in x)
    if len(x) != d:
        raise ValueError(f"coordinate {x} does not have dimension {d}")
    return x


def canonical_path(x, y, d: int, N: int) -> CanonicalPath:
    """Correct coordinates in axis order, one unit step at a time."""
    x = _as_coord(x, d)
    y = _as_coord(y, d)
    for v in (*x, *y):
        if not 1 <= v <= N:
            raise ValueError(f"coordinate value {v} outside 1..{N}")
    verts = [x]
    cur = list(x)
    for ax in range(d):
        step = 1 if y[ax] > cur[ax] else -1
        while cur[ax] != y[ax]:
            cur[ax] += step
            verts.append(tuple(cur))
    return CanonicalPath(x, y, tuple(verts))


@dataclass(frozen=True)
class PathCensus:
    d: int
    N: int
    max_length: int
    congestion: dict              # edge -> number of ordered pairs routed through it
    weighted_congestion: dict     # edge -> sum of path lengths routed through it
    max_congestion: int
    congestion_bound: int         # N^{d+1}
    max_weighted: int
    weighted_bound: int           # d * N^{d+2}
    holds: bool


def path_census(d: int, N: int) -> PathCensus:
    """Edge congestion of all ordered canonical paths, with the proof's bound.

    Each edge's traffic is read from its position; no pair is routed.  The
    path from x to y corrects the axes in order, so it crosses the edge from
    k to k + 1 on axis ax (1-based k, the other coordinates c) exactly when
    the edge's coordinates before ax are y's, those after ax are x's, and
    min(x_ax, y_ax) <= k < max(x_ax, y_ax).  That leaves x's coordinates
    before ax and y's after it free (N^(d-1) choices) and 2k(N - k) ordered
    values of (x_ax, y_ax), so the edge carries 2k(N - k) N^(d-1) paths.
    Summing their lengths |x - y|_1 over the same choices, the axis term
    gives k(N - k) N^d and each other axis i gives 2k(N - k) N^(d-2) S(c_i),
    with S(c) = sum over u in 1..N of |u - c|; for d = 1 there is no other
    axis.  The longest path joins opposite corners: d(N - 1) steps.
    """
    graph = build_graph("lattice", d=d, N=N)
    n_vertices = graph.n_sites
    if n_vertices * n_vertices > PATH_ENUM_CAP:
        raise ValueError(f"{n_vertices}^2 ordered pairs exceeds the enumeration cap")
    # spread[c] = S(c), the summed distance from c to every value on a line
    spread = [0] + [(c - 1) * c // 2 + (N - c) * (N - c + 1) // 2 for c in range(1, N + 1)]
    free = N ** (d - 1)
    # the edge (a, b), a < b, runs up the axis whose stride is b - a
    axis_of = {N ** (d - 1 - ax): ax for ax in range(d)}
    verts = graph.vertices
    congestion: dict = {}
    weighted: dict = {}
    for a, b in graph.edges:
        u = verts[a]
        k = u[axis_of[b - a]]
        pairs = k * (N - k)
        # the other axes' S(c_i); free // N is N^(d-2), or 0 for d = 1 with no other axis
        others = sum(spread[c] for c in u) - spread[k]
        congestion[u, verts[b]] = 2 * pairs * free
        weighted[u, verts[b]] = pairs * (N * free + 2 * (free // N) * others)
    cbound = N ** (d + 1)
    wbound = d * N ** (d + 2)
    max_c = max(congestion.values())
    max_w = max(weighted.values())
    return PathCensus(d, N, d * (N - 1), congestion, weighted, max_c, cbound,
                      max_w, wbound, holds=(max_c <= cbound and max_w <= wbound))


# ---------------------------------------------------------------------------
# quadratic-form audits on exact discrete instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaAuditReport:
    n_functions: int
    n_sites: int
    n_states: int
    checks_run: int
    violations: tuple
    max_ratio_transfer: float      # lhs/rhs of the 6/3 transfer inequality
    max_ratio_swap: float          # lhs/rhs of the 4-constant swap inequality
    observed_swap_constant: float  # max nu((pi f - f)^2) / nu((D f)^2)
    max_ratio_path: float          # composite path inequality, lattice instances
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.violations


def lemma_audit(states: StateSet, measure: Measure,
                graph: Optional[InteractionGraph] = None,
                n_functions: int = 200, seed: int = 0) -> LemmaAuditReport:
    """Check the pairwise transfer/swap inequalities on random centered functions.

    All site pairs get the conditional-average operators regardless of the
    graph; a lattice graph additionally triggers the composite canonical-path
    inequality with its 96 constant.
    """
    if n_functions < 1:
        raise ValueError(f"need at least one test function, got n_functions = {n_functions}")
    n = len(states)
    if n < 2:
        raise ValueError(f"need at least 2 states, got {n}: every centered function "
                         f"on one state is 0")
    t0 = time.perf_counter()
    V = states.n_sites
    w = measure.weights
    rng = rng_for(seed)
    # column i is the i-th function drawn, centered under the measure
    F = rng.standard_normal((n_functions, n)).T
    F = F - w @ F

    # Df2[x, y] = nu((D_xy f)^2) and Pf2[x, y] = nu((pi_xy f - f)^2), one entry
    # per function; both are symmetric in (x, y) and vanish on the diagonal
    Df2 = np.zeros((V, V, n_functions))
    Pf2 = np.zeros((V, V, n_functions))
    pairs = list(itertools.combinations(range(V), 2))
    for x, y in pairs:
        df = pair_average_matrix(states, measure, x, y) @ F - F
        pf = F[exchange_permutation(states, x, y)] - F
        Df2[x, y] = Df2[y, x] = w @ (df * df)
        Pf2[x, y] = Pf2[y, x] = w @ (pf * pf)

    violations = []
    worst = {"swap": 0.0, "transfer": 0.0, "path": 0.0}
    checks = 0
    tiny = 1e-12

    def check(kind, key, lhs, rhs):
        """lhs <= rhs for every function; a vanishing rhs needs a vanishing lhs."""
        nonlocal checks
        checks += n_functions
        live = rhs > tiny
        ratio = np.divide(lhs, rhs, out=np.zeros(n_functions), where=live)
        worst[kind] = max(worst[kind], float(ratio.max()))
        violations.extend((kind, int(fi), key, float(ratio[fi]))
                          for fi in np.flatnonzero(ratio > 1.0 + 1e-9))
        violations.extend((f"{kind}-degenerate", int(fi), key, float(lhs[fi]))
                          for fi in np.flatnonzero(~live & (lhs > tiny)))

    # swap inequality: nu((pi_{x,y} f - f)^2) <= 4 nu((D_{x,y} f)^2)
    for x, y in pairs:
        check("swap", (x, y), Pf2[x, y], 4.0 * Df2[x, y])

    # transfer inequality over ordered triples (x, y, z), y != z
    for x, y, z in itertools.product(range(V), repeat=3):
        if x != y and y != z:
            check("transfer", (x, y, z), Df2[x, y], 6.0 * Pf2[x, z] + 3.0 * Df2[z, y])

    # composite canonical-path inequality with its 96 constant
    if graph is not None and graph.kind == "lattice":
        coords = graph.vertices
        site = {v: i for i, v in enumerate(coords)}
        for a, b in itertools.permutations(range(V), 2):
            path = canonical_path(coords[a], coords[b], graph.d, graph.N)
            idx = [site[v] for v in path.vertices]
            rhs = 96.0 * path.length * sum(Df2[u, v] for u, v in zip(idx, idx[1:]))
            check("path", (a, b), Df2[a, b], rhs)

    return LemmaAuditReport(
        n_functions=n_functions, n_sites=V, n_states=n, checks_run=checks,
        violations=tuple(violations), max_ratio_transfer=worst["transfer"],
        max_ratio_swap=worst["swap"], observed_swap_constant=4.0 * worst["swap"],
        max_ratio_path=worst["path"], elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# bound arithmetic
# ---------------------------------------------------------------------------

def caputo_bound(lam3, N: int):
    """Lower bound on the mean-field gap from the three-site value.

    Exact when the three-site gap eigenfunction is a sum of one-site terms;
    Fractions in give Fractions out.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    return (3 * lam3 - 1) * (1 - Fraction(2, N)) + Fraction(1, N)


def local_gap_lower_bound(lam_star, d: int, N: int):
    """Lattice gap from the complete-graph gap via canonical paths: /(96 d N^2)."""
    if lam_star < 0:
        raise ValueError("gap input must be nonnegative")
    return lam_star / (96 * d * N * N)


def sandwich(lam2, kappa, lam_star) -> tuple:
    """Two-sided comparison interval [2 lam2 lam*, 2 kappa lam*]."""
    if not 0 <= lam2 <= kappa:
        raise ValueError(f"inconsistent input: need 0 <= lam2 <= kappa, "
                         f"got lam2 = {lam2}, kappa = {kappa}")
    return (2 * lam2 * lam_star, 2 * kappa * lam_star)


# ---------------------------------------------------------------------------
# certified bound chains
# ---------------------------------------------------------------------------

@dataclass
class BoundStep:
    rule: str
    inequality: str
    value: object

    def to_json(self) -> dict:
        return {"rule": self.rule, "inequality": self.inequality,
                "value": _jsonable(self.value)}


@dataclass
class BoundChain:
    inputs: dict
    steps: list
    interval: tuple

    def to_json(self) -> dict:
        return {
            "inputs": {k: _jsonable(v) for k, v in self.inputs.items()},
            "steps": [s.to_json() for s in self.steps],
            "interval": [_jsonable(self.interval[0]), _jsonable(self.interval[1])],
        }

    def value_of(self, rule: str):
        for s in self.steps:
            if s.rule == rule:
                return s.value
        raise KeyError(rule)


def _jsonable(v):
    if isinstance(v, Fraction):
        return {"fraction": f"{v.numerator}/{v.denominator}", "float": float(v)}
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def certificate(lam3, lam2, d: int) -> BoundChain:
    """Chain the three-site recursion, path comparison and two-site sandwich.

    Produces constants c1 (uniform mean-field gap), c2 (conditional-average
    lattice gap times N^2) and c3 (model lattice gap times N^2), refusing
    when a hypothesis fails.  The recursion bound is affine in 1/N, so its
    infimum over N >= 2 and the large-N limit is the smaller of its value at
    N = 2 and the limit 3 lambda*(3) - 1.
    """
    if not lam3 > Fraction(1, 3):
        raise CertificateRefused("lambda*(3) > 1/3")
    if not lam2 > 0:
        raise CertificateRefused("lambda(2) > 0")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    c1 = min(3 * lam3 - 1, caputo_bound(lam3, 2))
    c2 = c1 / (96 * d)
    c3 = 2 * lam2 * c2
    steps = [
        BoundStep(RULE_RECURSION,
                  "lambda*(N, omega) >= (3 lambda*(3) - 1)(1 - 2/N) + 1/N "
                  ">= min(3 lambda*(3) - 1, 1/2) for every N >= 2 (affine in 1/N)",
                  c1),
        BoundStep(RULE_LATTICE,
                  "lambda*_lattice(N, omega) >= lambda*_complete(N^d, omega) / (96 d N^2)",
                  c2),
        BoundStep(RULE_SANDWICH,
                  "lambda_lattice(N, omega) >= 2 lambda(2) lambda*_lattice(N, omega)",
                  c3),
    ]
    return BoundChain(
        inputs={"lambda3": lam3, "lambda2": lam2, "d": d,
                "hypotheses": f"{RULE_POSITIVITY}: lambda*(3) > 1/3 and lambda(2) > 0"},
        steps=steps,
        interval=(c3, math.inf),
    )
