"""Exact generators and spectra for integer-valued configuration spaces.

Enumerates the conditioned state space in lexicographic order and ranks
compositions arithmetically (combinatorial number system), so every pair
move is computed for a whole edge at once.  The conditional average ranks
no block member: every member is already a row of the state table, and one
sort of the table by block and split lays each block out as one run, from
which the block's rows and columns are read.  The particle-jump and
conditional-average generators are assembled directly as CSR matrices and
symmetrized in sparse form; no n-by-n dense array is allocated except by an
explicit `spectrum()` or `toarray()`.  One solve serves all of the engine's
spectral entry points: LAPACK `eigh` up to 400 states, ARPACK `eigsh`
(implicitly restarted Lanczos) above, for one eigenvalue of the sparse
symmetrized generator with its known zero modes (sqrt(pi) on each connected
component of the generator's pattern) shifted to the bottom of the
spectrum.  The eigenpair residual is recorded on the generator.

Before enumerating, `exact_gap` and `build_generator` estimate the stored
entries (zero-range n(1 + 2|E|), simple-average n + |E| n (1 + 2 omega / V))
and the bytes they need, and raise `TooLargeError` when that exceeds the
machine's physical memory.  Measured reach on a 2-core, 7.8 GB machine
(scripts/reach.py, recorded in BENCH_12.json): zero-range with linear rates
on K4 at 50,116 states solves gap and kappa in under 0.5 s with 112 MB peak
RSS, and at 508,080 states (6.5M stored entries) in 12-13 s with 540 MB, where
one dense float64 n-by-n matrix alone would take 20 GB and 2 TB.

The two-site sweeps over totals (`two_site_spectrum`) do not go through
that engine.  On K2 the simple average is the projection onto constants at
fixed total, with gap and kappa 1/2, and the zero-range pair chain is a
birth-death chain whose symmetrized generator is tridiagonal: LAPACK
bisection and inverse iteration give its gap and kappa at O(omega) per
total.  Its entries hold no factorials, so linear rates reach totals in the
thousands; the engine above refuses them past omega ~ 1075 on K2, where
the stationary weights underflow to 0.

The simple average's blocks and the one-dimensional conditional kernel
matrices of the three-site reduction of the zero-range family read the
integer pair law `models.pair_law`, tabulated once per measure or sweep.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .models import InteractionGraph, ModelSpec, RateFunction, build_graph, pair_law

#: hard cap on enumerated state spaces
STATE_CAP = 2_000_000
#: the gap must exceed this; anything below it is an unexplained zero mode
ZERO_TOL = 1e-8
#: eigenvalues of the negated symmetrized generator below this are a bug
PSD_TOL = -1e-9
#: upper estimate of the peak bytes per stored generator entry while
#: assembling, symmetrizing and solving: COO triplets and their concatenation,
#: L, S, S^T and S + S^T (measured peak RSS per entry: ~75 B for zero-range
#: at 6.5M entries, ~86 B for simple-average K6 at omega = 20, 5.37M entries)
_BYTES_PER_NNZ = 100
#: upper estimate of the peak bytes per state beyond the generator: the state
#: table (per site), the weights and the Lanczos basis (per state)
_BYTES_PER_STATE_SITE = 16
_BYTES_PER_STATE = 320


class TooLargeError(ValueError):
    """State space exceeds the enumeration cap or memory; use the Monte Carlo route."""


# ---------------------------------------------------------------------------
# state enumeration, ranking and stationary weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSet:
    """All nonnegative integer configurations on `n_sites` sites summing to omega."""

    n_sites: int
    omega: int
    states: np.ndarray          # (n, n_sites) int64, lexicographic

    def __len__(self) -> int:
        return self.states.shape[0]

    @cached_property
    def index(self) -> dict:
        """tuple(config) -> row, built on first use."""
        return {tuple(row): i for i, row in enumerate(self.states.tolist())}

    @cached_property
    def binomials(self) -> np.ndarray:
        """binomials[r, p] = C(r + p, p): compositions of r into p + 1 parts."""
        B = np.ones((self.omega + 1, self.n_sites), dtype=np.int64)
        for p in range(1, self.n_sites):
            B[:, p] = np.cumsum(B[:, p - 1])
        return B


def state_count(V: int, omega: int) -> int:
    return math.comb(omega + V - 1, V - 1)


def enumerate_states(V: int, omega: int) -> StateSet:
    """Lexicographically ordered compositions of omega into V nonnegative parts."""
    if V < 1:
        raise ValueError(f"need at least one site, got V = {V}")
    if omega < 0:
        raise ValueError(f"total must be nonnegative, got {omega}")
    n = state_count(V, omega)
    if n > STATE_CAP:
        raise TooLargeError(
            f"{n} states for (V={V}, omega={omega}) exceeds the cap {STATE_CAP}; "
            "this regime is for the Monte Carlo estimators (gap-mc)")
    # stars and bars: lexicographic bar positions give lexicographic compositions
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(omega + V - 1), V - 1)),
        dtype=np.int64, count=n * (V - 1)).reshape(n, V - 1)
    fences = np.empty((n, V + 1), dtype=np.int64)
    fences[:, 0] = -1
    fences[:, 1:V] = bars
    fences[:, V] = omega + V - 1
    return StateSet(V, omega, np.diff(fences, axis=1) - 1)


def rank_states(states: StateSet, configs) -> np.ndarray:
    """Lexicographic rows of an (m, V) array of compositions of `states.omega`.

    Row = sum_j [C(r_j + p_j, p_j) - C(r_j - a_j + p_j, p_j)] with p_j = V - j - 1
    and r_j the total still left before site j: the j-th term counts the
    compositions that agree with a before site j and put less than a_j there.
    The last site's term is 0.  The sum runs one site at a time over all
    rows, each term a lookup in one column of the binomial table.
    """
    a = np.asarray(configs, dtype=np.int64)
    V = states.n_sites
    if a.ndim != 2 or a.shape[1] != V:
        raise ValueError(f"need an (m, {V}) array, got shape {a.shape}")
    if (a < 0).any() or (a.sum(axis=1) != states.omega).any():
        raise ValueError(f"configurations must be nonnegative and sum to {states.omega}")
    B = states.binomials
    row = np.zeros(len(a), dtype=np.int64)
    left = np.full(len(a), states.omega, dtype=np.int64)
    for j in range(V - 1):
        column = B[:, V - 1 - j]
        row += column[left]
        left -= a[:, j]
        row -= column[left]
    return row


@dataclass(frozen=True)
class Measure:
    """Normalized stationary weights over a StateSet, with the rates they come from."""

    states: StateSet
    weights: np.ndarray
    g: RateFunction

    @cached_property
    def pair_laws(self) -> tuple:
        """`models.pair_law` of each pair total 0..omega: the simple average's block rows."""
        lgf = self.g.log_factorials(self.states.omega)
        return tuple(pair_law(lgf, t)[0] for t in range(self.states.omega + 1))


def stationary_weights(g: RateFunction, states: StateSet) -> Measure:
    """Weights proportional to prod_x 1/g(eta_x)!, computed in log space.

    The fugacity factor is constant on a fixed-total state space and cancels.
    """
    if len(states) == 0:
        raise ValueError("empty state set")
    lgf = g.log_factorials(states.omega)
    logw = -lgf[states.states].sum(axis=1)
    logw -= logw.max()
    w = np.exp(logw)
    total = w.sum()
    if not np.isfinite(total) or total <= 0:
        raise ArithmeticError("non-finite stationary weights")
    w = w / total
    # the symmetrized generator divides by sqrt(w): a weight that underflowed
    # to 0 would turn into NaN there, which no eigensolver reports
    if not w.all():
        raise ArithmeticError(
            f"stationary weights underflow to 0: the log-weights span {-logw.min():.0f}, "
            "and float64 reaches only about 745 below the largest")
    return Measure(states, w, g)


# ---------------------------------------------------------------------------
# generator matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveReport:
    """How the last spectral solve of a generator was computed."""

    solver: str          # "dense" (LAPACK eigh) or "eigsh" (ARPACK Lanczos, zero modes shifted out)
    nnz: int             # stored entries of L
    residual: float      # max ||S v - lambda v|| over the zero modes, the gap pair and the kappa pair
    zero_modes: int      # connected components of L's pattern


@dataclass
class GeneratorMatrix:
    """Sparse generator L over a StateSet with its reversible measure.

    The symmetrized form S = D^{1/2} L D^{-1/2} (D = diag weights) is what
    gets diagonalized; reversibility makes S symmetric.  Each spectral entry
    point records how it solved in `solve_report`.
    """

    L: scipy.sparse.csr_matrix
    measure: Measure
    label: str = ""
    solve_report: Optional[SolveReport] = None

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    def _scaled(self) -> scipy.sparse.csr_matrix:
        """D^{1/2} L D^{-1/2}, entry by entry."""
        L = self.L
        d = np.sqrt(self.measure.weights)
        rows = np.repeat(np.arange(self.dim), np.diff(L.indptr))
        data = (d[rows] * L.data) / d[L.indices]
        return scipy.sparse.csr_matrix((data, L.indices, L.indptr), shape=L.shape)

    def symmetrized(self) -> scipy.sparse.csr_matrix:
        S = self._scaled()
        return 0.5 * (S + S.T)

    def symmetry_residual(self) -> float:
        S = self._scaled()
        return float(abs(S - S.T).max())

    def row_sum_residual(self) -> float:
        return float(np.abs(self.L.sum(axis=1)).max())

    def spectrum(self) -> np.ndarray:
        """All eigenvalues of -S, ascending (dense: small instances only)."""
        return np.linalg.eigvalsh(-self.symmetrized().toarray())


def _csr(n: int, rows: list, cols: list, vals: list, diag: np.ndarray) -> scipy.sparse.csr_matrix:
    """CSR matrix from disjoint off-diagonal triplets plus a diagonal; zeros dropped."""
    on = np.arange(n)
    M = scipy.sparse.csr_matrix(
        (np.concatenate([*vals, diag]), (np.concatenate([*rows, on]), np.concatenate([*cols, on]))),
        shape=(n, n))
    M.eliminate_zeros()
    return M


def _pair_blocks(states: StateSet, measure: Measure, x: int, y: int):
    """(rows, cols, vals) of the conditional average over the pair (x, y), 0-based sites.

    States that agree off the pair form a block; every row of a block with
    pair total t is `measure.pair_laws[t]`, over the splits a = 0..t at x.
    Every member is already a row of the state table, so the blocks come
    from one sort of it: a block is named by the rank of its state with t
    on y, and sorting by (block, a) lays each block out as one run in split
    order, which starts a places before a state with split a.  Row i then
    reads its t + 1 columns from that run and its values from the law of t.
    """
    S = states.states
    n = len(states)
    split = S[:, x]
    total = split + S[:, y]
    rep = S.copy()
    rep[:, x] = 0
    rep[:, y] = total
    order = np.lexsort((split, rank_states(states, rep)))
    run_start = np.empty(n, dtype=np.int64)
    run_start[order] = np.arange(n)
    run_start -= split
    size = total + 1
    # entry k of row i sits at offset[i] + k of the concatenated row entries,
    # and reads entry k of its run and of its law; the law of total t starts
    # at t (t + 1) / 2 in the concatenated laws
    offset = np.cumsum(size) - size
    entry = np.arange(offset[-1] + size[-1])
    rows = np.repeat(np.arange(n), size)
    cols = order[np.repeat(run_start - offset, size) + entry]
    vals = np.concatenate(measure.pair_laws)[np.repeat(total * size // 2 - offset, size) + entry]
    return rows, cols, vals


def pair_average_matrix(states: StateSet, measure: Measure, x: int, y: int) -> scipy.sparse.csr_matrix:
    """Stochastic matrix of the conditional average over the pair (x, y), 0-based sites."""
    n = len(states)
    rows, cols, vals = _pair_blocks(states, measure, x, y)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def exchange_permutation(states: StateSet, x: int, y: int) -> np.ndarray:
    """Row permutation of the state index under swapping sites x and y (0-based)."""
    swapped = states.states.copy()
    swapped[:, [x, y]] = swapped[:, [y, x]]
    return rank_states(states, swapped)


def build_simple_average_generator(graph: InteractionGraph, states: StateSet,
                                   measure: Measure) -> GeneratorMatrix:
    """Generator summing (conditional average - identity) over the graph's pairs."""
    if states.n_sites != graph.n_sites:
        raise ValueError(
            f"state set has {states.n_sites} sites but graph has {graph.n_sites}")
    n = len(states)
    scale = graph.pair_scaling
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    for (x, y) in graph.edges:
        r, c, v = _pair_blocks(states, measure, x, y)
        on = r == c
        stay = np.empty(n)
        stay[r[on]] = v[on]
        # add scale * E_ii, then subtract scale, edge by edge: this order fixes
        # L's rounding, and with it the eigenvectors picked inside degenerate
        # eigenspaces that the Monte Carlo checks use as observables
        diag = diag + scale * stay
        diag = diag - scale
        off = ~on
        rows.append(r[off])
        cols.append(c[off])
        vals.append(scale * v[off])
    return GeneratorMatrix(_csr(n, rows, cols, vals, diag), measure, label="simple-average")


def build_zero_range_generator(graph: InteractionGraph, states: StateSet,
                               g: RateFunction) -> GeneratorMatrix:
    """Particle-jump generator: site x fires toward a paired site at rate g(eta_x)."""
    if states.n_sites != graph.n_sites:
        raise ValueError(
            f"state set has {states.n_sites} sites but graph has {graph.n_sites}")
    n = len(states)
    scale = graph.pair_scaling
    gv = np.array([g(k) if k > 0 else 0.0 for k in range(states.omega + 1)])
    S = states.states
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    for (x, y) in graph.edges:
        for (u, v) in ((x, y), (y, x)):
            src = np.flatnonzero(S[:, u] > 0)
            rate = scale * gv[S[src, u]]
            moved = S[src]
            moved[:, u] -= 1
            moved[:, v] += 1
            rows.append(src)
            cols.append(rank_states(states, moved))
            vals.append(rate)
            diag[src] -= rate
    measure = stationary_weights(g, states)
    return GeneratorMatrix(_csr(n, rows, cols, vals, diag), measure, label="zero-range")


def estimated_nnz(model: ModelSpec, graph: InteractionGraph, omega: int) -> int:
    """Stored entries of the exact generator, from the sizes alone.

    A jump changes two sites, so zero-range has at most 2|E| targets per state;
    a pair average reaches every split of the pair total, 1 + 2 omega / V on
    average over the states.
    """
    n = state_count(graph.n_sites, omega)
    E = graph.n_edges
    if model.family == "zero-range":
        return n * (1 + 2 * E)
    return n + math.ceil(E * n * (1 + 2 * omega / graph.n_sites))


def physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _preflight(model: ModelSpec, graph: InteractionGraph, omega: int) -> None:
    """Refuse, before anything is allocated, a continuous family or an instance
    too large for memory."""
    if not model.is_discrete:
        raise ValueError("exact diagonalization covers the integer families; "
                         "use gap-galerkin or gap-mc for continuous models")
    n = state_count(graph.n_sites, omega)
    nnz = estimated_nnz(model, graph, omega)
    need = (_BYTES_PER_NNZ * nnz
            + n * (_BYTES_PER_STATE + _BYTES_PER_STATE_SITE * graph.n_sites))
    have = physical_memory()
    if need > have:
        raise TooLargeError(
            f"{model.family} on {graph.n_sites} sites at omega={omega}: {n} states and "
            f"about {nnz} stored entries need about {need / 2**30:.1f} GiB, more than "
            f"the {have / 2**30:.1f} GiB of physical memory; use the Monte Carlo "
            "estimators (gap-mc)")


def build_generator(model: ModelSpec, graph: InteractionGraph, states: StateSet) -> GeneratorMatrix:
    """Dispatch on the (discrete) model family."""
    _preflight(model, graph, states.omega)
    if model.family == "zero-range":
        return build_zero_range_generator(graph, states, model.g)
    measure = stationary_weights(model.g, states)
    return build_simple_average_generator(graph, states, measure)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def check_spectrum(what: str, eigenvalues, gap: float, null: float = 0.0,
                   null_tol: float = ZERO_TOL) -> None:
    """The one acceptance rule for a computed spectrum of -S; every reported gap passes it.

    `eigenvalues` are those the solve found, the gap among them; `null` is
    ||S q|| for the zero mode q the caller knows (0 if none).  Raises
    `ArithmeticError` naming `what` unless all are finite, `null` is at most
    `null_tol`, no eigenvalue is below `PSD_TOL` and the gap is above `ZERO_TOL`.
    """
    bottom = float(np.min(eigenvalues))
    # every comparison below is false on NaN, so non-finite values are refused first
    if not (np.isfinite(eigenvalues).all() and math.isfinite(null)):
        raise ArithmeticError(f"{what}: non-finite eigenvalue or residual (gap {gap}, null {null})")
    if null > null_tol:
        raise ArithmeticError(f"{what}: sqrt(pi) is not a zero mode: ||S sqrt(pi)|| = {null:.3e}")
    if bottom < PSD_TOL:
        raise ArithmeticError(f"{what} is not negative semidefinite: eigenvalue {bottom:.3e}")
    if gap <= ZERO_TOL:
        raise ArithmeticError(f"{what}: gap {gap:.3e} is not above {ZERO_TOL:.1e}")


def _solve(gen: GeneratorMatrix, want_kappa: bool):
    """(gap, top eigenvalue, gap eigenvector) of -S; records `gen.solve_report`.

    The zero eigenvalue has one mode per connected component of L's pattern:
    q_i, the normalized sqrt(pi) on component i.  Up to 400 states LAPACK
    returns every eigenvalue and the gap is the (components + 1)-th of -S from
    the bottom.  Above, the zero modes are shifted out rather than searched
    for: ARPACK gets S - c Q Q^T with c = 2 max|diag S|, the Gershgorin bound
    on -S's spectrum, so the q_i sit at -c, below everything else, and one
    eigenvalue at the top is -gap, the top of S on the complement of Q.  Q is
    applied through the component labels, never stored as an n-by-z array.
    The top eigenvalue of -S is computed only when `want_kappa` or when it is
    free.  On both paths the spectrum found goes through `check_spectrum`,
    with ||S q_i|| null within `ZERO_TOL`.
    """
    # imported here, not with the module: csgraph adds ~1 MB and its import
    # time to every process that imports gaplab, most of which never solve
    from scipy.sparse.csgraph import connected_components

    n = gen.dim
    zero_modes, labels = connected_components(gen.L, directed=False)
    if zero_modes >= n:
        gen.solve_report = SolveReport("dense", gen.L.nnz, 0.0, zero_modes)
        return math.inf, math.inf, None
    S = gen.symmetrized()
    q = np.sqrt(gen.measure.weights)
    q /= np.sqrt(np.bincount(labels, q * q))[labels]
    null = float(np.sqrt(np.bincount(labels, (S @ q) ** 2)).max())   # max ||S q_i||
    if n <= 400:
        solver = "dense"
        ev, U = np.linalg.eigh(-S.toarray())
        picked = [*range(zero_modes + 1), n - 1]
        lam, vec = -ev[picked], U[:, picked]
        gap, kappa, v = ev[zero_modes], ev[-1], U[:, zero_modes]
    else:
        solver = "eigsh"
        c = 2.0 * np.abs(S.diagonal()).max()

        def along_q(x):   # Q Q^T x
            return q * np.bincount(labels, q * x)[labels]

        op = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=lambda x: S @ x - c * along_q(x), dtype=float)
        # a fixed generic start vector: reproducible, and off the zero modes
        v0 = np.random.default_rng(0).standard_normal(n)
        lam, vec = scipy.sparse.linalg.eigsh(op, k=1, which="LA", v0=v0 - along_q(v0), tol=1e-11)
        gap, kappa, v = -lam[0], math.inf, vec[:, 0]
        if want_kappa:
            bottom, bottom_vec = scipy.sparse.linalg.eigsh(S, k=1, which="SA", v0=v0, tol=1e-11)
            kappa = -bottom[0]
            lam, vec = np.concatenate([lam, bottom]), np.hstack([vec, bottom_vec])
        ev = -lam
    residual = max(null, float(np.linalg.norm(S @ vec - vec * lam, axis=0).max()))
    gen.solve_report = SolveReport(solver, gen.L.nnz, residual, zero_modes)
    check_spectrum(f"generator ({solver} solve, {zero_modes} zero mode(s))", ev, gap, null)
    return float(gap), float(kappa), v


def spectral_gap(gen: GeneratorMatrix) -> float:
    """Smallest eigenvalue of the negated symmetrized generator above its zero modes.

    Returns +inf on a one-point state space (Dirac convention).
    Raises if the generator fails nonnegativity, which signals a construction bug.
    """
    return _solve(gen, want_kappa=False)[0]


def gap_and_kappa(gen: GeneratorMatrix) -> tuple[float, float]:
    """(spectral gap, largest eigenvalue) of the negated symmetrized generator."""
    gap, kappa, _ = _solve(gen, want_kappa=True)
    return gap, kappa


def gap_eigenfunction(gen: GeneratorMatrix) -> tuple[float, np.ndarray]:
    """Gap eigenvalue and its eigenfunction as a table over states (unit variance)."""
    gap, _, v = _solve(gen, want_kappa=False)
    if v is None:
        raise ArithmeticError("no nonzero mode found")
    return gap, v / np.sqrt(gen.measure.weights)


def exact_solve(model: ModelSpec, graph: InteractionGraph,
                omega: int) -> tuple[float, float, int, SolveReport]:
    """(gap, kappa, dimension, solve report) for a discrete model on a graph at total omega."""
    _preflight(model, graph, omega)
    states = enumerate_states(graph.n_sites, omega)
    gen = build_generator(model, graph, states)
    gap, kappa = gap_and_kappa(gen)
    return gap, kappa, len(states), gen.solve_report


def exact_gap(model: ModelSpec, graph: InteractionGraph, omega: int) -> tuple[float, float, int]:
    """(gap, kappa, dimension) for a discrete model on a graph at total omega."""
    return exact_solve(model, graph, omega)[:3]


# ---------------------------------------------------------------------------
# two-site sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoSiteRow:
    omega: int
    gap: float
    kappa: float


@dataclass(frozen=True)
class TwoSiteTable:
    family: str
    rows: tuple
    inf_gap: float
    sup_kappa: float
    trend: str
    solver: str           # "tridiagonal" (zero-range) or "projection" (simple average)
    max_residual: float   # max ||T v - lambda v|| over the gap and kappa pairs and ||T sqrt(pi)||
    note: str = "extremes over the swept totals only; no claim about the full infimum"

    def running_sup_kappa(self, omega: int) -> float:
        vals = [r.kappa for r in self.rows if r.omega <= omega and math.isfinite(r.kappa)]
        if not vals:
            raise ValueError(f"no finite rows at or below omega = {omega}")
        return max(vals)


def _pair_chain_spectrum(gv: np.ndarray, lgf: np.ndarray, omega: int,
                         s: float) -> tuple[float, float, float]:
    """(gap, kappa, residual) of the zero-range pair chain at total omega >= 1.

    The state is the occupation a = 0..omega of the first site, and a jump
    moves one particle, so -S is the unreduced symmetric tridiagonal T with
    d_a = s (g(a) + g(omega - a)) and e_a = -s sqrt(g(omega - a) g(a + 1)).
    g > 0 makes its spectrum simple with one zero mode, sqrt(pi), so the gap
    and kappa are eigenvalues 1 and omega.  Bisection (LAPACK stebz) finds
    them and inverse iteration (stein) their vectors, both O(omega); each
    eigenvalue is then the vector's Rayleigh quotient, which minimizes
    ||T v - lambda v||.  The three eigenvalues go through `check_spectrum`,
    with ||T sqrt(pi)|| null within `ZERO_TOL * max(1, kappa)`: the rounding
    of the summed log factorials in sqrt(pi) grows with ||T|| = kappa (1.3e-8
    at omega = 9000, linear rates).
    """
    a = np.arange(omega + 1)
    d = s * (gv[a] + gv[omega - a])
    e = -s * np.sqrt(gv[omega - a[:-1]] * gv[a[1:]])

    def apply(V):   # T V, column by column
        TV = d[:, None] * V
        TV[:-1] += e[:, None] * V[1:]
        TV[1:] += e[:, None] * V[:-1]
        return TV

    pairs = [scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=rng,
                                           lapack_driver="stebz")[1]
             for rng in ((0, 1), (omega, omega))]
    V = np.hstack(pairs)                     # zero mode, gap, kappa
    TV = apply(V)
    lam = (V * TV).sum(axis=0) / (V * V).sum(axis=0)
    q = np.sqrt(pair_law(lgf, omega)[0])[:, None]
    null = float(np.linalg.norm(apply(q)))
    residual = max(null, float(np.linalg.norm(TV[:, 1:] - V[:, 1:] * lam[1:], axis=0).max()))
    gap, kappa = float(lam[1]), float(lam[2])
    check_spectrum(f"pair chain at omega={omega}", lam, gap, null, ZERO_TOL * max(1.0, kappa))
    return gap, kappa, residual


def two_site_spectrum(model: ModelSpec, omegas: Sequence[int]) -> TwoSiteTable:
    """Pair spectrum per total: gap and top eigenvalue of -S on K2, O(omega) per total.

    The simple average on two sites is the L2(pi) projection onto constants at
    fixed total, so -S = s (I - Pi) with s the K2 pair scaling: gap and kappa
    are s for every total >= 1, with no solve.  The zero-range pair chain is a
    birth-death chain, solved as a tridiagonal (`_pair_chain_spectrum`) from
    one table of g up to the largest total.  Continuous families are refused.
    """
    if not model.is_discrete:
        raise ValueError(f"two-site sweeps over totals need a discrete family, "
                         f"got {model.family}")
    omegas = list(omegas)
    if not omegas:
        raise ValueError("empty omega range")
    if min(omegas) < 0:
        raise ValueError(f"totals must be nonnegative, got {min(omegas)}")
    s = build_graph("complete", N=2).pair_scaling
    if model.family == "zero-range":
        solver = "tridiagonal"
        gv = np.array([model.g(k) for k in range(max(omegas) + 1)])
        lgf = model.g.log_factorials(max(omegas))
    else:
        solver = "projection"
    rows = []
    max_residual = 0.0
    for om in omegas:
        if om == 0:
            rows.append(TwoSiteRow(0, math.inf, math.inf))
            continue
        if solver == "projection":
            gap = kappa = s
        else:
            gap, kappa, residual = _pair_chain_spectrum(gv, lgf, om, s)
            max_residual = max(max_residual, residual)
        rows.append(TwoSiteRow(om, gap, kappa))
    finite = [r.gap for r in rows if math.isfinite(r.gap)]
    inf_gap = min(finite) if finite else math.inf
    fkap = [r.kappa for r in rows if math.isfinite(r.kappa)]
    sup_kappa = max(fkap) if fkap else math.inf
    if len(finite) >= 2:
        if all(a >= b - 1e-12 for a, b in zip(finite, finite[1:])):
            trend = "nonincreasing"
        elif all(a <= b + 1e-12 for a, b in zip(finite, finite[1:])):
            trend = "nondecreasing"
        else:
            trend = "mixed"
    else:
        trend = "single-point"
    return TwoSiteTable(model.family, tuple(rows), inf_gap, sup_kappa, trend,
                        solver, max_residual)


# ---------------------------------------------------------------------------
# conditional kernel matrices for the three-site reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelMatrix:
    n: int
    matrix: np.ndarray
    spectrum: np.ndarray          # real eigenvalues, ascending
    stationary: np.ndarray        # left Perron-Frobenius vector, normalized
    detailed_balance_residual: float


@dataclass(frozen=True)
class _PairLawTable:
    """The integer pair laws of totals 0..m-1, from which every K_n (n <= m) is sliced.

    Row s of `rows` is the pmf of total s reversed and right-aligned, so the
    kernel K_n is the block rows[:n, m - n:].
    """

    lgf: np.ndarray        # log g(k)! for k = 0..m-1
    rows: np.ndarray       # (m, m)
    log_norm: np.ndarray   # log normalizer of each total

    @classmethod
    def build(cls, g: RateFunction, m: int) -> "_PairLawTable":
        lgf = g.log_factorials(m - 1)
        rows = np.zeros((m, m))
        log_norm = np.empty(m)
        for t in range(m):
            pmf, log_norm[t] = pair_law(lgf, t)
            rows[t, m - 1 - t:] = pmf[::-1]
        return cls(lgf, rows, log_norm)

    def kernel(self, n: int) -> KernelMatrix:
        m = len(self.lgf)
        K = self.rows[:n, m - n:].copy()
        # stationary law of the indexed coordinate: occupation n-i with the other
        # two sites holding i-1; weights in log space to dodge factorial overflow
        lpi = self.log_norm[:n] - self.lgf[n - 1::-1]
        lpi -= lpi.max()
        pi = np.exp(lpi)
        pi /= pi.sum()
        flux = pi[:, None] * K
        db = float(np.abs(flux - flux.T).max())
        if not db < 1e-7:
            raise ArithmeticError(f"kernel n={n} is not reversible: detailed-balance "
                                  f"residual {db:.2e}")
        d = np.sqrt(pi)
        S = (d[:, None] * K) / d[None, :]
        spec = np.linalg.eigvalsh(0.5 * (S + S.T))
        return KernelMatrix(n, K, spec, pi, db)


def kernel_matrix(g: RateFunction, n: int) -> KernelMatrix:
    """The n-by-n conditional kernel of one free coordinate given another.

    Entry (i, j), 1-based: zero when i <= n - j, otherwise the integer pair
    law P(a = n - j | total i - 1) of `models.pair_law`.  Rows are exactly
    stochastic.  Raises `ArithmeticError` when detailed balance fails.
    """
    if n < 1:
        raise ValueError("kernel size must be >= 1")
    return _PairLawTable.build(g, n).kernel(n)


@dataclass(frozen=True)
class KernelExtremes:
    mu1: float
    mu2: float
    table: tuple      # (n, min(Sp\{1}), max(Sp\{1}))


def kernel_spectrum_extremes(g: RateFunction, n_max: int) -> KernelExtremes:
    """Extremes of the kernel spectra with the top eigenvalue removed, n = 2..n_max.

    The pair laws are tabulated once; each K_n is a slice of that table, so
    the kernels are the ones `kernel_matrix` builds, bit for bit.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    laws = _PairLawTable.build(g, n_max)
    mu1, mu2 = math.inf, -math.inf
    rows = []
    for n in range(2, n_max + 1):
        ev = laws.kernel(n).spectrum
        top = int(np.argmin(np.abs(ev - 1.0)))
        if abs(ev[top] - 1.0) > 1e-9:
            raise ArithmeticError(
                f"kernel n={n}: no eigenvalue within 1e-9 of 1 (closest {ev[top]:.12f})")
        rest = np.delete(ev, top)
        lo, hi = float(rest.min()), float(rest.max())
        mu1, mu2 = min(mu1, lo), max(mu2, hi)
        rows.append((n, lo, hi))
    return KernelExtremes(mu1, mu2, tuple(rows))
