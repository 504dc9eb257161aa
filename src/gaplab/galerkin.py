"""Exact spectral computation on polynomial sectors for the continuous models.

The rotation and energy-redistribution dynamics map a homogeneous polynomial
to one of the same degree, so the generator's action matrix C on the
polynomials of degree <= D is block-diagonal by degree.  As functions on the
sphere, the polynomials of degree <= D are spanned by the homogeneous ones of
degrees D and D - 1: multiplying by the conserved (sum x^2)^m lifts a degree
of the same parity without changing the function, and a homogeneous
polynomial that vanishes on the sphere vanishes identically.  On the simplex
(sum x conserved) degree D alone spans them.  So the sector spectrum is the
spectrum of those top blocks of C, and no moment, Gram matrix or deflation
enters the gap.  The moment oracles below serve the one-site conditional
operator, solved by one exact rational elimination, and their own checks;
the acceptance battery reads the redistribution model's lambda*(N) from the
symmetric mode's exact degree-2 block.

The rotation dynamics split the full-mode blocks further.  They average over
the even part of the angle density, so L commutes with each sign flip
x_i -> -x_i and keeps the vector of exponent parities: each degree block
splits into parity classes, and assembly raises if an image leaves its class.
The spectrum is read from `eigvals` of the blocks, batched by size; only the
block that holds the gap is factored once more, for its eigenpair.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .discrete import (ZERO_TOL, TooLargeError, check_spectrum, enumerate_states,
                       physical_memory, state_count)
from .models import GammaExchangeSpec, InteractionGraph, ModelSpec, RhoSpec

#: an eigenvalue's imaginary part below this times its block's largest
#: |eigenvalue| is rounding; a larger one is refused
EIG_TOL = 1e-9
#: float64 copies of every block alive at once in a full-mode solve: the
#: blocks themselves and the blocks of one size stacked for `eigvals`
BLOCK_COPIES = 2
#: n-by-n float64 arrays alive beside those for the largest block, of n
#: elements: `eigvals`' working copy and workspace, then the shifted block
#: factored in place.  With room to spare: one degree block (the
#: redistribution model) is held at BLOCK_COPIES + BLOCK_DENSE_ARRAYS = 7 n^2
#: floats, the rule of the earlier solve that kept every eigenvector, where
#: peak RSS measured 3.1-3.2 n^2 at n = 3003 and 4368 (gamma V = 9 at
#: degree 6, V = 12 at 5).
BLOCK_DENSE_ARRAYS = 5
#: bytes per site of one listed full-mode element: `enumerate_states`' rows,
#: the element tuple and its parity key (measured 23-24 at V = 12..60)
ELEMENT_SITE_BYTES = 32


def _rising(x: Fraction, n: int) -> Fraction:
    r = Fraction(1)
    for t in range(n):
        r *= x + t
    return r


def _double_factorial(n: int) -> int:
    r = 1
    while n > 1:
        r *= n
        n -= 2
    return r


# ---------------------------------------------------------------------------
# block elements: the monomials or orbit sums of one degree
# ---------------------------------------------------------------------------

def _block_elements(n_vars: int, degree: int, mode: str) -> tuple:
    """The elements of one degree block, in lexicographic order.

    "full": the monomials' exponent tuples, n_vars long.  "symmetric": the
    partitions, each standing for the orbit sum of its monomials under site
    permutations, an invariant sector only on the complete graph.
    """
    if mode == "full":
        # by name: bench/hooks.py wraps discrete.enumerate_states as the exact engine's layer
        return tuple(map(tuple, enumerate_states(n_vars, degree).states.tolist()))
    return tuple(sorted(_partitions(degree, min(n_vars, degree))))


def sector_dimension(n_vars: int, degree: int, mode: str) -> int:
    """Elements of total degree <= degree, counted, not listed.

    Full: C(n_vars + degree, degree) monomials.  Symmetric: the partitions
    into at most n_vars parts, counted as their conjugates, parts <= n_vars.
    """
    if mode == "full":
        return comb(n_vars + degree, degree)
    count = [1] + [0] * degree
    for part in range(1, min(n_vars, degree) + 1):
        for t in range(part, degree + 1):
            count[t] += count[t - part]
    return sum(count)


def _orbit_monomials(part: tuple, n_vars: int) -> tuple:
    """The monomial exponent tuples of a partition's orbit sum.

    The partition is padded with zeros to n_vars sites, and its orbit comes
    in lexicographic order, one distinct arrangement at a time
    (next-permutation on a multiset).
    """
    k = sorted(part + (0,) * (n_vars - len(part)))
    out = [tuple(k)]
    n = len(k)
    while True:
        i = n - 2
        while i >= 0 and k[i] >= k[i + 1]:
            i -= 1
        if i < 0:
            return tuple(out)
        j = n - 1
        while k[j] <= k[i]:
            j -= 1
        k[i], k[j] = k[j], k[i]
        k[i + 1:] = reversed(k[i + 1:])
        out.append(tuple(k))


def _partitions(total: int, max_parts: int):
    """Nonincreasing tuples of at most max_parts positive parts summing to total.

    The recursion goes one part deep per level, so its depth is bounded by
    the total, not by max_parts.
    """
    def rec(rem, cap, acc):
        if rem == 0:
            yield acc
            return
        if len(acc) == max_parts:
            return
        for v in range(min(rem, cap), 0, -1):
            yield from rec(rem - v, v, acc + (v,))
    yield from rec(total, total, ())


# ---------------------------------------------------------------------------
# moment oracles
# ---------------------------------------------------------------------------

def _moment_key(k: Sequence[int]) -> tuple:
    """Nonzero exponents in nonincreasing order; exchangeable moments depend on nothing else."""
    return tuple(sorted((e for e in k if e), reverse=True))


class SphereMoments:
    """Monomial moments of the uniform measure on the sphere of squared radius omega."""

    def __init__(self, n_vars: int, omega=1):
        if n_vars < 2:
            raise ValueError("sphere needs at least two coordinates")
        self.n_vars = n_vars
        self.omega = Fraction(omega)
        if not self.omega > 0:
            raise ValueError("squared radius must be positive")
        self._cache: dict = {}

    def exact(self, k: Sequence[int]) -> Fraction:
        key = _moment_key(k)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if any(e % 2 for e in key):
            v = Fraction(0)
        else:
            ms = [e // 2 for e in key]
            M = sum(ms)
            num = 1
            for m in ms:
                num *= _double_factorial(2 * m - 1)
            den = 1
            for j in range(M):
                den *= self.n_vars + 2 * j
            v = self.omega ** M * Fraction(num, den)
        self._cache[key] = v
        return v


class DirichletMoments:
    """Monomial moments of the symmetric Dirichlet law scaled to total omega."""

    def __init__(self, n_vars: int, gamma, omega=1):
        if n_vars < 2:
            raise ValueError("simplex needs at least two coordinates")
        self.n_vars = n_vars
        self.gamma = Fraction(gamma)
        self.omega = Fraction(omega)
        if not self.gamma > 0 or not self.omega > 0:
            raise ValueError("shape and total must be positive")
        self._cache: dict = {}

    def exact(self, k: Sequence[int]) -> Fraction:
        key = _moment_key(k)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        K = sum(key)
        num = Fraction(1)
        for e in key:
            num *= _rising(self.gamma, e)
        v = self.omega ** K * num / _rising(self.n_vars * self.gamma, K)
        self._cache[key] = v
        return v


def beta_moment(a: int, b: int, gamma) -> Fraction:
    """E[beta^a (1-beta)^b] for the symmetric Beta law with shape gamma."""
    g = Fraction(gamma)
    return _rising(g, a) * _rising(g, b) / _rising(2 * g, a + b)


@functools.cache
def _laurent_coefficients(p: int, q: int) -> dict:
    """cos^p sin^q as {n: amplitude} over complex exponentials e^{in theta}.

    Cached: callers read the dict and never change it.
    """
    coeffs = {0: 1.0 + 0.0j}

    def convolve(cur, factor):
        out: dict = {}
        for n, c in cur.items():
            for dn, fc in factor.items():
                out[n + dn] = out.get(n + dn, 0.0) + c * fc
        return out

    cos_f = {1: 0.5 + 0.0j, -1: 0.5 + 0.0j}
    sin_f = {1: -0.5j, -1: 0.5j}
    for _ in range(p):
        coeffs = convolve(coeffs, cos_f)
    for _ in range(q):
        coeffs = convolve(coeffs, sin_f)
    return coeffs


def rho_trig_moment(rho: RhoSpec, p: int, q: int) -> float:
    """Integral of cos^p sin^q against the even part of the angle density."""
    total = 0.0 + 0.0j
    for n, c in _laurent_coefficients(p, q).items():
        total += c * rho.coefficient(abs(n)).real
    return float(total.real)


# ---------------------------------------------------------------------------
# pair actions: conditional average of a pair monomial
# ---------------------------------------------------------------------------

def pair_average_action(a: int, b: int, gamma) -> dict:
    """Conditional pair average of eta_x^a eta_y^b as {(p, q): rational coeff}.

    Under the redistribution with a symmetric Beta(gamma, gamma) fraction the
    total spreads binomially, weighted by the Beta moment.
    """
    bm = beta_moment(a, b, gamma)
    return {(m, a + b - m): bm * comb(a + b, m) for m in range(a + b + 1)}


def rho_pair_action(rho: RhoSpec, a: int, b: int) -> dict:
    """Symmetrized rotation average of eta_x^a eta_y^b under the angle density.

    Expands (x cos - y sin)^a (x sin + y cos)^b and integrates each angle
    monomial against the even part of the density, which reads rho_hat(n)
    for n up to a + b: Fourier data gives 0 past its series, and a density
    transformed to a lower order raises ValueError (`RhoSpec.coefficient`).
    At the uniform density (the Kac walk) every coefficient is a dyadic
    rational, and the float sums of the Fourier route give it without
    rounding (checked to a + b = 40).
    """
    out: dict = {}
    for p in range(a + 1):
        for q in range(b + 1):
            P, Q = p + b - q, a - p + q
            m = rho_trig_moment(rho, P, Q)
            if m == 0.0:
                continue
            coeff = comb(a, p) * comb(b, q) * (-1) ** (a - p) * m
            key = (p + q, a + b - p - q)
            out[key] = out.get(key, 0.0) + coeff
    return {k: v for k, v in out.items() if abs(v) > 1e-15}


# ---------------------------------------------------------------------------
# action matrix by degree blocks and its eigenvalue solve
# ---------------------------------------------------------------------------

@dataclass
class GalerkinPair:
    """The generator's action matrix C on the top degree blocks of a sector.

    `blocks` holds (elements, C_b) per invariant block b solved: C_b[t, s] is
    the coefficient of elements[t] in L(elements[s]).  A block is one degree
    d, or, for the rotation models in full mode, one parity class of degree
    d (`_parity_classes`); blocks come by degree, then class.  The full
    mode's blocks are float arrays; the symmetric mode's hold exact
    Fractions (object arrays), converted to floats by the solve.
    """

    mode: str
    n_vars: int
    basis_size: int         # dimension of the degree <= D sector, counted, not built
    blocks: tuple

    @property
    def basis(self) -> tuple:
        """The elements kept: those of the blocks, in block order."""
        return tuple(itertools.chain.from_iterable(e for e, _ in self.blocks))

    @property
    def assembly(self) -> str:
        return "monomial" if self.mode == "full" else "orbit-representative"


def _parity_classes(monomials: tuple) -> list:
    """The monomials grouped by their vector of exponent parities.

    Each class keeps the monomials' order; classes come in order of first
    appearance.
    """
    classes: dict = {}
    for k in monomials:
        key = 0
        for e in k:
            key = 2 * key + (e & 1)
        classes.setdefault(key, []).append(k)
    return [tuple(c) for c in classes.values()]


def _block_sizes(n_vars: int, degrees: Sequence[int], rotation: bool) -> list:
    """(count, size) of the full-mode blocks over `degrees`, counted, not listed.

    A rotation parity class of degree d with j odd exponents fixes which j
    sites are odd; halving the exponents maps it onto the monomials of
    degree (d - j)/2, so C(n_vars, j) classes hold that many each.  The
    redistribution model keeps one block per degree.
    """
    if not rotation:
        return [(1, state_count(n_vars, d)) for d in degrees]
    return [(comb(n_vars, j), state_count(n_vars, (d - j) // 2))
            for d in degrees for j in range(d % 2, min(d, n_vars) + 1, 2)]


def _full_mode_preflight(graph: InteractionGraph, degrees: Sequence[int],
                         rotation: bool) -> None:
    """Refuse, before any block is built, a full-mode sector whose blocks cannot be solved.

    The solve holds `BLOCK_COPIES` of every block and `BLOCK_DENSE_ARRAYS`
    arrays the size of the largest, and assembly the listed elements,
    `ELEMENT_SITE_BYTES` per site each; they must fit in physical memory.
    The largest rotation class, the even one, holds C(V + D//2 - 1, D//2)
    monomials; the redistribution model's only block all C(V + D - 1, D).
    """
    V = graph.n_sites
    sizes = _block_sizes(V, degrees, rotation)
    largest = max(n for _, n in sizes)
    need = (8 * (BLOCK_COPIES * sum(c * n * n for c, n in sizes)
                 + BLOCK_DENSE_ARRAYS * largest * largest)
            + ELEMENT_SITE_BYTES * V * sum(c * n for c, n in sizes))
    have = physical_memory()
    if need > have:
        top = max(degrees)
        hint = "; use --basis-mode symmetric" if graph.kind == "complete" else ""
        raise TooLargeError(
            f"full-mode sector of degree {top} on {V} sites "
            f"({state_count(V, top)} monomials of degree {top}, "
            f"{largest} in its largest block): it needs about {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of physical memory{hint}")


def assemble_galerkin(model: str, graph: InteractionGraph, degree: int = 4,
                      mode: str = "full", rho: Optional[RhoSpec] = None,
                      gamma=None) -> GalerkinPair:
    """Restrict the generator to the polynomial sector over the graph's sites.

    `model` is "kac-uniform", "kac-rho" (with `rho`) or "gamma" (with `gamma`),
    read as the `ModelSpec` of its family, which refuses the parameters as
    for any caller.  The Kac walk is the rotation sector at the uniform
    angle density.  Only the blocks of C that carry the sector's spectrum
    are built, and only their elements listed (see the module docstring):
    degrees D - 1 and D for the rotation models, D for the redistribution model.

    The full mode builds each block in floats over the graph's edges
    (`_pair_image`); for the rotation models each degree splits into its
    parity classes, and an image outside its class raises ArithmeticError.
    A sector whose blocks the solve cannot hold in physical memory is
    refused with `TooLargeError` before any element is listed
    (`_full_mode_preflight`).  The symmetric mode works on orbit sums in
    exact rationals; see `_orbit_block`.
    """
    family = {"kac-uniform": "kac-uniform", "kac-rho": "kac-rho",
              "gamma": "gamma-exchange"}.get(model)
    if family is None:
        raise ValueError(f"unknown sector model {model!r} (kac-uniform, kac-rho or gamma)")
    spec = ModelSpec(family, rho=rho, exchange=None if gamma is None else GammaExchangeSpec(gamma))
    if degree < 2:
        raise ValueError("degree must be at least 2")
    if mode not in ("full", "symmetric"):
        raise ValueError(f"unknown basis mode {mode!r}")
    V = graph.n_sites
    if mode == "symmetric" and graph.kind != "complete":
        raise ValueError("symmetric orbits are only invariant on the complete graph")

    rho = spec.angle_density()
    if rho is None:
        gamma = spec.exchange.gamma
        action = lambda a, b: pair_average_action(a, b, gamma)
        degrees = (degree,)
    else:
        action = lambda a, b: rho_pair_action(rho, a, b)
        degrees = (degree - 1, degree)

    # full mode works in floats, the symmetric mode in exact rationals; a
    # float coefficient of a rotation action converts to Fraction without rounding
    convert = float if mode == "full" else Fraction

    @functools.cache
    def cached_action(a, b):
        return {k: convert(v) for k, v in action(a, b).items()}

    rotation = rho is not None
    if mode == "full":
        _full_mode_preflight(graph, degrees, rotation)
    blocks = []
    for d in degrees:
        elements = _block_elements(V, d, mode)
        if mode == "symmetric":
            # K_N's pair scaling as the exact 1/N, not the float graph.pair_scaling
            blocks.append((elements, _orbit_block(elements, V, cached_action, Fraction(1, V))))
            continue
        classes = _parity_classes(elements) if rotation else [elements]
        blocks += zip(classes, _monomial_blocks(classes, graph.edges, cached_action,
                                                 graph.pair_scaling))
    return GalerkinPair(mode, V, sector_dimension(V, degree, mode), tuple(blocks))


def _pair_image(k: tuple, pairs, action, scale) -> dict:
    """Image of the monomial x^k under scale * sum over pairs of (P_xy - 1).

    `action(a, b)` is the pair average of x^a y^b as {(p, q): coeff}; pairs
    where both exponents are zero are fixed and skipped.  The result maps
    exponent tuples to coefficients, in the number type of `scale` and the
    action (floats stay floats, Fractions stay exact).
    """
    img: dict = {}
    for (x, y) in pairs:
        a, b = k[x], k[y]
        if a == 0 and b == 0:
            continue
        for (p, q), c in action(a, b).items():
            kk = list(k)
            kk[x] = p
            kk[y] = q
            key = tuple(kk)
            img[key] = img.get(key, 0) + scale * c
        img[k] = img.get(k, 0) - scale
    return img


def _closure_error(image, element) -> ArithmeticError:
    return ArithmeticError(f"sector closure violated: image {image} of {element} "
                           "lies outside its block")


def _monomial_blocks(classes: Sequence[tuple], edges, action, scale: float) -> list:
    """C on each class of monomials, in floats, one `_pair_image` per column.

    An image term outside its column's class raises `_closure_error`.
    """
    pos = {k: (c, row) for c, monomials in enumerate(classes) for row, k in enumerate(monomials)}
    blocks = []
    for c, monomials in enumerate(classes):
        C = np.zeros((len(monomials), len(monomials)))
        for l, k in enumerate(monomials):
            for key, v in _pair_image(k, edges, action, scale).items():
                cls, row = pos.get(key, (None, None))
                if cls != c:
                    raise _closure_error(key, k)
                C[row, l] += v
        blocks.append(C)
    return blocks


def _placements(counts: Counter, sites: int) -> int:
    """Distinct ways to put the multiset `counts` on `sites` sites, one part per site."""
    out = 1
    for i in range(sum(counts.values())):
        out *= sites - i
    for m in counts.values():
        out //= factorial(m)
    return out


def _orbit_block(parts: tuple, N: int, action, scale: Fraction) -> np.ndarray:
    """C on the orbit sums of one degree's partitions, in exact rationals.

    The partitions are read as they are: the representative k_s of orbit s
    carries the r_s parts of its partition on the first r_s sites.  L
    commutes with site permutations, so L(O_s) = sum_t C[t, s] O_t, and
    C[t, s] |orb t| is the mass of orbit t in L(O_s), which is |orb s| times
    its mass in L(x^{k_s}).  That image (`_pair_image`) is pushed forward
    over three edge classes: pairs inside the support, support x empty sites
    (each of the N - r_s empty sites acts alike, so one stands for all), and
    empty x empty (no action).  N enters only through the arrangement counts
    |orb s|, so the work is independent of N.  Returns an object array of
    Fractions.
    """
    index = {p: i for i, p in enumerate(parts)}
    orbit = [_placements(Counter(p), N) for p in parts]
    C = np.full((len(parts), len(parts)), Fraction(0), dtype=object)
    for l, p in enumerate(parts):
        r, empty = len(p), N - len(p)
        images = [_pair_image(p, itertools.combinations(range(r), 2), action, 1)]
        if empty:
            # one zero site at index r stands for the N - r that act alike
            images.append(_pair_image(p + (0,), [(i, r) for i in range(r)], action, empty))
        mass: dict = {}
        for img in images:
            for k, c in img.items():
                key = _moment_key(k)
                mass[key] = mass.get(key, 0) + c
        for key, m in mass.items():
            row = index.get(key)
            if row is None:
                raise _closure_error(key, p)
            if m:
                C[row, l] = scale * m * orbit[l] / orbit[row]
    return C


@dataclass(frozen=True)
class GalerkinGapReport:
    gap: float
    eigenvalues: np.ndarray        # spectrum of -L on the sector, ascending
    kept_dim: int                  # summed sizes of the blocks solved
    deflated: int                  # elements of degree <= D outside those blocks
    eig_residual: float            # ||C v + gap v|| for the unit gap eigenvector v
    eig_condition: float           # condition number of the gap eigenvalue
    mode: str
    n_vars: int
    gap_elements: tuple            # elements of the block that holds the gap
    gap_coefficients: np.ndarray   # the gap eigenvector's coefficients on them
    blocks: int                    # invariant blocks solved
    block_max: int                 # elements of the largest


def _gap_eigenpair(C: np.ndarray, gap: float) -> tuple:
    """Unit right and left eigenvectors (x, y) of C at eigenvalue -gap, from one LU.

    Inverse iteration on C + gap (1 + 1e-10) I: the gap's eigenvalue there is
    1e-10 gap, so each solve shrinks every other direction by ~1e-10 gap over
    its distance from the gap, and three solves from a fixed generic start
    vector reach rounding.  The left vector solves with the transpose of the
    same factors.  Sign rule: the largest |coefficient| of each is positive.
    """
    n = len(C)
    lu = scipy.linalg.lu_factor(C + gap * (1 + 1e-10) * np.eye(n), overwrite_a=True,
                                check_finite=False)
    start = np.random.default_rng(0).standard_normal(n)
    out = []
    for trans in (0, 1):
        v = start
        for _ in range(3):
            v = scipy.linalg.lu_solve(lu, v, trans=trans, check_finite=False)
            v /= np.linalg.norm(v)
        if not np.isfinite(v).all():
            raise ArithmeticError(f"inverse iteration at the sector gap {gap} broke down")
        out.append(v if v[np.argmax(np.abs(v))] > 0 else -v)
    return tuple(out)


def galerkin_eigensystem(pair: GalerkinPair) -> GalerkinGapReport:
    """The sector spectrum from the eigenvalues of each block of C.

    Blocks of one size go to `np.linalg.eigvals` as one stack.  L is
    self-adjoint, so a block whose eigenvalues have an imaginary part beyond
    EIG_TOL times its largest |eigenvalue| is refused with ArithmeticError,
    and the real spectrum must pass `discrete.check_spectrum`.  The gap is
    the smallest eigenvalue of -C above ZERO_TOL (on a tie, in the first
    block holding it).  Only that block is factored again, for the unit
    right and left gap eigenvectors x, y (`_gap_eigenpair`): x gives
    `gap_coefficients` on the block's elements, with its largest
    |coefficient| positive, and `eig_condition` is the gap's condition
    number 1/|y^T x| (for a repeated eigenvalue, that of the pair found).
    """
    blocks = [(elements, np.asarray(C, dtype=float)) for elements, C in pair.blocks]
    by_size: dict = {}
    for b, (_, C) in enumerate(blocks):
        by_size.setdefault(len(C), []).append(b)
    spectrum = []
    lowest = np.full(len(blocks), np.inf)      # per block, the smallest eigenvalue of -C above ZERO_TOL
    for members in by_size.values():
        stack = (blocks[members[0]][1][None] if len(members) == 1
                 else np.stack([blocks[b][1] for b in members]))
        lam = -np.linalg.eigvals(stack)
        imag = np.abs(lam.imag).max(axis=1)
        bad = np.flatnonzero(imag > EIG_TOL * np.abs(lam).max(axis=1))
        if len(bad):
            elements = blocks[members[bad[0]]][0]
            raise ArithmeticError(
                f"degree-{sum(elements[0])} block has eigenvalue imaginary parts up to "
                f"{imag[bad[0]]:.2e}; the sector operator is not self-adjoint")
        lam = lam.real
        spectrum.append(lam.ravel())
        lowest[members] = np.where(lam > ZERO_TOL, lam, np.inf).min(axis=1)
    b = int(np.argmin(lowest))
    if not np.isfinite(lowest[b]):
        raise ArithmeticError("no nonzero sector mode found")
    gap = float(lowest[b])
    spectrum = np.sort(np.concatenate(spectrum))
    check_spectrum("sector", spectrum, gap)
    elements, C = blocks[b]
    x, y = _gap_eigenpair(C, gap)
    kept = len(spectrum)
    return GalerkinGapReport(
        gap=gap,
        eigenvalues=spectrum,
        kept_dim=kept,
        deflated=pair.basis_size - kept,
        eig_residual=float(np.linalg.norm(C @ x + gap * x)),
        eig_condition=float(1.0 / abs(y @ x)),
        mode=pair.mode,
        n_vars=pair.n_vars,
        gap_elements=elements,
        gap_coefficients=x,
        blocks=len(blocks),
        block_max=max(by_size),
    )


def sector_polynomial(report: GalerkinGapReport):
    """Gap eigenfunction as a callable on configuration vectors.

    `f.stack(X)` evaluates it on each row of an (M, V) array in one numpy
    pass, from integer powers; it agrees with f row by row up to rounding.
    """
    terms = []
    for c, element in zip(report.gap_coefficients, report.gap_elements):
        if abs(c) < 1e-12:
            continue
        orbit = ((element,) if report.mode == "full"
                 else _orbit_monomials(element, report.n_vars))
        for k in orbit:
            terms.append((float(c), np.array(k, dtype=float)))
    exps = np.array([k for _, k in terms])
    coefs = np.array([c for c, _ in terms])
    degree = int(exps.max())
    # row v * (degree + 1) + k of the power table holds x_v ** k
    table_rows = (np.arange(exps.shape[1])[:, None] * (degree + 1) + exps.T).astype(np.intp)

    def f(x):
        x = np.asarray(x, dtype=float)
        return float(coefs @ np.prod(x[None, :] ** exps, axis=1))

    def stack(X):
        X = np.asarray(X, dtype=float).T
        powers = np.empty((X.shape[0], degree + 1, X.shape[1]))
        powers[:, 0] = 1.0
        for k in range(1, degree + 1):
            np.multiply(powers[:, k - 1], X, out=powers[:, k])
        table = powers.reshape(-1, X.shape[1])
        monomials = table[table_rows[0]]
        for r in table_rows[1:]:
            monomials *= table[r]
        return coefs @ monomials

    f.stack = stack
    return f


# ---------------------------------------------------------------------------
# one-dimensional conditional operator on the three-site simplex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionalOperatorReport:
    gamma: Fraction
    degree: int
    eigenvalues: tuple            # by polynomial degree n = 0..degree
    closed_form: tuple
    max_residual: float
    mu1: Fraction
    mu2: Fraction
    linear_eigen_residual: float
    triangular_residual: float
    min_formula_value: Fraction   # (1/3) min(2 + mu1, 2 - 2 mu2)


def _rational_solve(B: list, C: list) -> list:
    """B^-1 C for square Fraction matrices, by Gauss-Jordan elimination on [B | C].

    Each column pivots on its first nonzero entry at or below the diagonal;
    a column with none means B is singular, refused with ArithmeticError.
    """
    n = len(B)
    A = [list(b) + list(c) for b, c in zip(B, C)]
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k]), None)
        if piv is None:
            raise ArithmeticError(f"singular matrix: no pivot in column {k}")
        A[k], A[piv] = A[piv], A[k]
        A[k] = [v / A[k][k] for v in A[k]]
        for i in range(n):
            f = A[i][k]
            if i != k and f:
                A[i] = [a - f * b for a, b in zip(A[i], A[k])]
    return [row[n:] for row in A]


def conditional_moment_eigenvalue(n: int, gamma) -> Fraction:
    """Closed-form degree-n eigenvalue of the one-site conditional operator."""
    g = Fraction(gamma)
    return Fraction(-1) ** n * _rising(g, n) / _rising(2 * g, n)


def k_operator_check(gamma, degree: int = 6) -> ConditionalOperatorReport:
    """Build nu[phi(eta_2) | eta_1] on monomials via simplex moments and diagonalize.

    The assembly is exact-rational: the operator matrix is M = B^-1 C, with B
    the moments of eta_1 (positive definite) and C the pair moments, solved
    by one Gauss-Jordan elimination (`_rational_solve`).  M comes out
    triangular in the monomial basis, so its spectrum reads off the diagonal.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    g = Fraction(gamma)
    oracle = DirichletMoments(3, g, 1)
    n = degree + 1
    B = [[oracle.exact((i + j, 0, 0)) for j in range(n)] for i in range(n)]
    C = [[oracle.exact((i, j, 0)) for j in range(n)] for i in range(n)]
    M = _rational_solve(B, C)
    tri = max((abs(M[i][j]) for j in range(n) for i in range(j + 1, n)), default=Fraction(0))
    eigs = tuple(M[i][i] for i in range(n))
    closed = tuple(conditional_moment_eigenvalue(i, g) for i in range(n))
    resid = max(abs(a - b) for a, b in zip(eigs, closed))
    # linear eigenfunction zeta - 1/3 must map to -(1/2)(zeta - 1/3)
    vec = [Fraction(-1, 3), Fraction(1)] + [Fraction(0)] * (n - 2)
    img = [sum(M[i][j] * vec[j] for j in range(n)) for i in range(n)]
    lin = max(abs(img[i] + Fraction(1, 2) * vec[i]) for i in range(n))
    mu1 = Fraction(-1, 2)
    mu2 = (1 + g) / (2 * (1 + 2 * g))
    formula = Fraction(1, 3) * min(2 + mu1, 2 - 2 * mu2)
    return ConditionalOperatorReport(
        gamma=g, degree=degree, eigenvalues=eigs, closed_form=closed,
        max_residual=float(resid), mu1=min(eigs[1:]), mu2=max(eigs[1:]),
        linear_eigen_residual=float(lin), triangular_residual=float(tri),
        min_formula_value=formula)


# ---------------------------------------------------------------------------
# two-site spectrum of the rotation dynamics via angle modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleModeResult:
    gap: float
    kappa: float
    modes: tuple                 # (n, eigenvalue of the negated pair generator)
    truncated: bool
    note: str


def two_site_fourier_gap(rho: RhoSpec) -> AngleModeResult:
    """Pair-generator spectrum on the circle: mode n relaxes at (1 - Re rho_hat(n))/2.

    Fourier data of order K lists modes 1..K + 1: every higher mode has
    rho_hat(n) = 0 and mode K + 1's rate 1/2, so the extremes are exact.  A
    density lists modes 1..`RHO_DENSITY_ORDER`, the order it was transformed
    to, and is marked truncated.  `RhoSpec` holds only densities, whose
    |rho_hat(n)| < 1, so every rate lies strictly between 0 and 1."""
    truncated = rho.density is not None
    top = rho.order if truncated else rho.order + 1
    rates = [0.5 * (1.0 - rho.coefficient(n).real) for n in range(1, top + 1)]
    gap, kappa = min(rates), max(rates)
    check_spectrum("angle-mode spectrum", rates, gap)
    note = ("extremes over angle modes 1..%d%s" %
            (top, "; higher modes not examined" if truncated else "; exact (finite spectrum tail)"))
    return AngleModeResult(gap, kappa, tuple(enumerate(rates, start=1)), truncated, note)
