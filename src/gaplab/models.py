"""Model catalog: families, conservation laws, pair laws, interaction graphs.

A model is a collision family with its one parameter (an angle density, an
exchange spec or jump rates g), its conserved quantity and its two-site
collision mechanism.  This module fixes those ingredients, the integer pair
law and the geometry of who collides with whom; the exact, polynomial and
Monte Carlo engines all consume these definitions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

#: quadrature nodes used to Fourier-transform an angle density
RHO_QUADRATURE_NODES = 4096
#: number of Fourier coefficients extracted from an angle density
RHO_DENSITY_ORDER = 64


# ---------------------------------------------------------------------------
# jump-rate functions for integer site spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFunction:
    """Occupation-dependent jump rate g(k), defined for k >= 1; g(0) = 0."""

    name: str
    fn: Callable[[int], float]

    def __call__(self, k: int) -> float:
        if k < 0:
            raise ValueError(f"occupation number must be nonnegative, got {k}")
        if k == 0:
            return 0.0
        v = float(self.fn(k))
        if not 0.0 < v < math.inf:
            raise ValueError(f"rate function {self.name!r}: g({k}) = {v} "
                             "must be finite and positive")
        return v

    def log_factorials(self, k_max: int) -> np.ndarray:
        """Table of log(g(k)!) for k = 0..k_max, summed left to right in one pass."""
        logs = (math.log(self(j)) for j in range(1, k_max + 1))
        return np.fromiter(itertools.accumulate(logs, initial=0.0), dtype=float,
                           count=k_max + 1)


G_CONSTANT_ONE = RateFunction("constant-one", lambda k: 1.0)
G_IDENTITY = RateFunction("identity", lambda k: float(k))


def rate_from_table(pairs: Sequence[tuple[int, float]], name: str = "user-table") -> RateFunction:
    """Rate function from explicit (k, g(k)) pairs; a repeated k raises ValueError,
    and so does reading g(k) for a k outside the table."""
    table: dict = {}
    for k, v in pairs:
        if int(k) in table:
            raise ValueError(f"rate table {name!r} lists k = {int(k)} twice")
        table[int(k)] = float(v)
    if not table:
        raise ValueError("rate table is empty")

    def fn(k: int) -> float:
        if k not in table:
            raise ValueError(f"rate table {name!r} has no entry for k = {k}")
        return table[k]

    return RateFunction(name, fn)


def rate_by_name(name: str) -> RateFunction:
    if name in ("constant-one", "one", "1"):
        return G_CONSTANT_ONE
    if name in ("identity", "k"):
        return G_IDENTITY
    raise ValueError(f"unknown rate function {name!r} (expected constant-one or identity)")


# ---------------------------------------------------------------------------
# conservation laws and the integer pair law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservationLaw:
    """The per-site functional whose configuration sum is conserved."""

    form: str  # "square" or "identity"

    def __post_init__(self):
        if self.form not in ("square", "identity"):
            raise ValueError(f"unknown conservation law {self.form!r}")

    def site_value(self, v):
        return v * v if self.form == "square" else v


SQUARE = ConservationLaw("square")
IDENTITY = ConservationLaw("identity")


def pair_law(lgf: np.ndarray, s: int) -> tuple[np.ndarray, float]:
    """(pmf, log normalizer) of the new value a at x of an integer pair of total s.

    P(a | s) is proportional to 1/(g(a)! g(s-a)!), Caputo's simple average
    on the integers; `lgf[k]` = log g(k)! for k = 0..s at least.  The log
    normalizer is log sum_a 1/(g(a)! g(s-a)!).
    """
    head = lgf[:s + 1]
    lw = -(head + head[::-1])
    top = lw.max()
    lw -= top
    pmf = np.exp(lw)
    total = pmf.sum()
    pmf /= total
    return pmf, float(top + math.log(total))


# ---------------------------------------------------------------------------
# interaction graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteractionGraph:
    """A complete graph K_N (mean-field 1/N pair scaling) or the cube {1..N}^d
    with nearest-neighbor edges (unit scaling).

    Kind, size and dimension fix the rest: counts are arithmetic, and the
    vertex and edge tuples are built on first read, so a caller that never
    iterates them (the symmetric sector on K_N) never lists N(N-1)/2 edges.
    """

    kind: str                       # "complete" or "lattice"
    N: int                          # vertex count (complete) or linear size (lattice)
    d: int                          # lattice dimension; 1 for complete graphs

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"invalid size: N = {self.N} < 2")
        if self.kind not in ("complete", "lattice"):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if self.d is None or self.d < 1 or (self.kind == "complete" and self.d != 1):
            raise ValueError(f"invalid dimension: d = {self.d}")

    @property
    def n_sites(self) -> int:
        return self.N ** self.d

    @property
    def n_edges(self) -> int:
        if self.kind == "complete":
            return self.N * (self.N - 1) // 2
        return self.d * self.N ** (self.d - 1) * (self.N - 1)

    @property
    def pair_scaling(self) -> float:
        return 1.0 / self.N if self.kind == "complete" else 1.0

    @functools.cached_property
    def vertices(self) -> tuple:
        """Site labels: 1..N, or the lattice coordinates in lexicographic order."""
        if self.kind == "complete":
            return tuple(range(1, self.N + 1))
        return tuple(itertools.product(range(1, self.N + 1), repeat=self.d))

    @functools.cached_property
    def edges(self) -> tuple:
        """Unordered site-index pairs (a, b), a < b, in lexicographic order."""
        if self.kind == "complete":
            return tuple(itertools.combinations(range(self.N), 2))
        # the site one step up axis ax lies N^(d-1-ax) places further on
        steps = [self.N ** (self.d - 1 - ax) for ax in range(self.d)]
        return tuple(sorted((i, i + step) for i, v in enumerate(self.vertices)
                            for step, c in zip(steps, v) if c < self.N))


def build_graph(kind: str, d: Optional[int] = None, N: int = 2) -> InteractionGraph:
    """A complete graph K_N (`d` None or 1) or the cube {1..N}^d."""
    return InteractionGraph(kind, N, 1 if d is None and kind == "complete" else d)


# ---------------------------------------------------------------------------
# angle densities for the rotation model
# ---------------------------------------------------------------------------

def angle_midpoints(n: int) -> np.ndarray:
    """Midpoints of n equal cells of (-pi, pi]."""
    return -math.pi + 2 * math.pi * (np.arange(n) + 0.5) / n


class RhoSpec:
    """Angle density on (-pi, pi], as an evaluable density or Fourier data.

    Coefficients follow the convention rho_hat(n) = int e^{i n theta} rho dtheta,
    so rho_hat(0) = 1 for a probability density and rho_hat(-n) = conj(rho_hat(n)).
    Only n >= 0 is stored.

    The kind of data decides the tail.  Fourier data is the whole series:
    rho_hat(n) is 0 past the last listed term.  A density is transformed on
    the angle grid to order `RHO_DENSITY_ORDER`, and `coefficient` raises
    ValueError past that order.

    The constructor is the one place where a density is checked, for every
    caller: it raises ValueError, listing each failed check, unless rho_hat(0)
    = 1, every |rho_hat(n)| < 1 for n >= 1 (a bound of 1 is a point mass), and
    the density on the angle grid is nonnegative and integrates to 1.  So the
    simulator, the sector engine and the angle-mode spectrum only ever see a
    probability density.  `values` evaluates it at any angles.
    """

    def __init__(self, density: Optional[Callable[[float], float]] = None,
                 coefficients: Optional[Sequence[complex]] = None,
                 name: str = "rho"):
        if (density is None) == (coefficients is None):
            raise ValueError("give exactly one of density= or coefficients=")
        self.name = name
        self.density = density
        if coefficients is not None:
            self._coeffs = np.asarray(coefficients, dtype=complex)
            if len(self._coeffs) == 0:
                raise ValueError("need at least the order-0 coefficient")
        theta = angle_midpoints(RHO_QUADRATURE_NODES)
        #: the density at angle_midpoints(RHO_QUADRATURE_NODES)
        self.grid_values = self.values(theta)
        if density is not None:
            ns = np.arange(RHO_DENSITY_ORDER + 1)
            phase = np.exp(1j * np.outer(ns, theta))
            self._coeffs = (phase * self.grid_values).sum(axis=1) * (2 * math.pi / RHO_QUADRATURE_NODES)
        failed = [f"  [FAIL] {check}: residual {residual:.3g}" + (f" ({detail})" if detail else "")
                  for check, passed, residual, detail in self._checks() if not passed]
        if failed:
            raise ValueError(f"{name!r} is not a probability density on (-pi, pi]:\n"
                             + "\n".join(failed))

    def _checks(self) -> list:
        """(name, passed, residual, detail) of each density check."""
        c0 = self.coefficient(0)
        worst = max((abs(self.coefficient(n)) for n in range(1, self.order + 1)), default=0.0)
        neg = float(max(0.0, -self.grid_values.min()))
        mass = float(self.grid_values.sum() * 2 * math.pi / RHO_QUADRATURE_NODES)
        return [
            ("normalization rho_hat(0) = 1", abs(c0 - 1.0) < 1e-6, abs(c0 - 1.0),
             f"rho_hat(0) = {c0.real:.6g}"),
            ("coefficient bound |rho_hat(n)| <= 1", worst <= 1.0 + 1e-9, max(0.0, worst - 1.0),
             f"max |rho_hat| = {worst:.6g}"),
            # |rho_hat(n)| = 1 for n >= 1 forces a point mass, not a density
            ("no point-mass concentration", worst < 1.0 - 1e-12,
             max(0.0, worst - (1.0 - 1e-12)),
             "some |rho_hat(n)| >= 1 with n >= 1"),
            ("density nonnegative", neg < 1e-12, neg, ""),
            ("density integrates to 1", abs(mass - 1.0) < 1e-6, abs(mass - 1.0),
             f"integral = {mass:.8g}"),
        ]

    def values(self, theta: np.ndarray) -> np.ndarray:
        """The density at the angles `theta`: the density function called at
        each, or the Fourier series summed there with its cos and sin terms."""
        if self.density is not None:
            return np.array([self.density(t) for t in theta])
        dens = np.full(len(theta), self.coefficient(0).real / (2 * math.pi))
        for n in range(1, self.order + 1):
            c = self.coefficient(n)
            dens += (c.real * np.cos(n * theta) + c.imag * np.sin(n * theta)) / math.pi
        return dens

    @classmethod
    @functools.cache
    def uniform(cls) -> "RhoSpec":
        """The flat density of the Kac walk: one shared instance, checked once."""
        return cls(coefficients=[1.0], name="uniform")

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int) -> complex:
        """rho_hat(n); negative n via conjugate symmetry.

        Past `order` Fourier data gives 0; a density raises ValueError."""
        a = abs(n)
        if a > self.order:
            if self.density is None:
                return 0j
            raise ValueError(f"Fourier order {a} exceeds the order {self.order} "
                             f"to which density {self.name!r} was transformed")
        c = self._coeffs[a]
        return complex(c).conjugate() if n < 0 else complex(c)


# ---------------------------------------------------------------------------
# energy-exchange specification
# ---------------------------------------------------------------------------

def unit_rate(_: float) -> float:
    """The constant pair-rate factor 1, the default of both lambdas."""
    return 1.0


@dataclass
class GammaExchangeSpec:
    """Pair energy-redistribution model on the positive half line.

    The pair rate factors as lambda_s(total) * lambda_r(fraction), and the
    redistribution fraction is drawn from `kernel`: None for the closed-form
    symmetric Beta(gamma, gamma) kernel, or a nonnegative matrix on a uniform
    grid of [0, 1] with no zero row, normalized row by row.  With both lambdas
    `unit_rate` and the Beta kernel this is the simple average for the gamma
    measure.  The constructor refuses gamma <= 0 and any other kernel.
    """

    gamma: Fraction
    lambda_s: Callable[[float], float] = unit_rate
    lambda_r: Callable[[float], float] = unit_rate
    kernel: Optional[np.ndarray] = None

    def __post_init__(self):
        self.gamma = Fraction(self.gamma)
        if not self.gamma > 0:
            raise ValueError("shape parameter must be positive")
        if self.kernel is not None:
            if (not isinstance(self.kernel, np.ndarray) or self.kernel.ndim != 2
                    or self.kernel.shape[0] != self.kernel.shape[1]):
                raise ValueError("kernel must be None (the Beta kernel) or a square matrix")
            K = self.kernel.astype(float)
            if not (np.isfinite(K).all() and (K >= 0).all() and (K.sum(axis=1) > 0).all()):
                raise ValueError("kernel entries must be finite and nonnegative, "
                                 "with no row that sums to 0")

    def pair_rate(self, s: float, beta: float, scale: float) -> float:
        """(scale * lambda_s(s)) * lambda_r(beta) for a pair of total s at the
        fraction beta and the pair scaling `scale`, multiplied in that order;
        a negative or non-finite rate raises ValueError."""
        v = scale * self.lambda_s(s) * self.lambda_r(beta)
        if not 0.0 <= v < math.inf:
            raise ValueError(f"pair rate {v} at total s = {s}, fraction beta = {beta}: "
                             "lambda_s(s) * lambda_r(beta) must be finite and nonnegative")
        return v

    def grid(self) -> np.ndarray:
        """Cell midpoints of the kernel matrix's uniform grid on [0, 1]."""
        cells = self.kernel.shape[0]
        return (np.arange(cells) + 0.5) / cells

    def kernel_matrix(self) -> np.ndarray:
        """The kernel matrix with each row normalized to sum to 1."""
        rows = self.kernel.astype(float)
        return rows / rows.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# model specification and catalog
# ---------------------------------------------------------------------------

#: the one parameter field each family reads; None for the uniform Kac walk
FAMILY_FIELD = {
    "kac-uniform": None,
    "kac-rho": "rho",
    "gamma-exchange": "exchange",
    "zero-range": "g",
    "simple-average": "g",
}
FAMILIES = tuple(FAMILY_FIELD)

MODEL_IDS = {
    "kac": "kac-uniform",
    "kac-rho": "kac-rho",
    "gamma-exchange": "gamma-exchange",
    "zero-range": "zero-range",
    "simple-average": "simple-average",
}


@dataclass(frozen=True)
class ModelSpec:
    """A collision family plus its parameter; fixes the two-site operator.

    Each family reads exactly one of `rho`, `exchange` and `g` (none for
    `kac-uniform`, see `FAMILY_FIELD`); the others must stay None.
    `simple-average` is the integer conditional average with rates g; the
    continuous simple averages are `kac-uniform` (the sphere) and
    `gamma-exchange` with its default spec (the gamma measure).
    """

    family: str
    rho: Optional[RhoSpec] = None
    exchange: Optional[GammaExchangeSpec] = None
    g: Optional[RateFunction] = None

    def __post_init__(self):
        if self.family not in FAMILY_FIELD:
            raise ValueError(f"unknown family {self.family!r}")
        field = FAMILY_FIELD[self.family]
        for name in ("rho", "exchange", "g"):
            given = getattr(self, name) is not None
            if name == field and not given:
                raise ValueError(f"{self.family} needs {name}")
            if name != field and given:
                readers = " and ".join(f for f, read in FAMILY_FIELD.items() if read == name)
                raise ValueError(f"{self.family} does not read {name}; it belongs to {readers}")

    def angle_density(self) -> Optional[RhoSpec]:
        """The angle law of a rotation family: the Kac walk is the uniform density."""
        return RhoSpec.uniform() if self.family == "kac-uniform" else self.rho

    def law(self) -> ConservationLaw:
        """Rotations conserve the sum of squares, the other families the sum."""
        return SQUARE if self.family in ("kac-uniform", "kac-rho") else IDENTITY

    @property
    def is_discrete(self) -> bool:
        return FAMILY_FIELD[self.family] == "g"

    @property
    def constant_rates(self) -> bool:
        """Every pair collides at the same rate, whatever the configuration."""
        if self.family == "gamma-exchange":
            return self.exchange.lambda_s is unit_rate and self.exchange.lambda_r is unit_rate
        return self.family != "zero-range"


def model_from_id(model_id: str, *, g: Optional[RateFunction] = None,
                  gamma=None, rho: Optional[RhoSpec] = None) -> ModelSpec:
    """Resolve a CLI model identifier to a ModelSpec.

    The field the family reads is built from its argument, or from the
    family's default when that is None: the uniform rho, gamma = 1, g = 1.
    Every other argument is passed on to `ModelSpec`, which refuses a
    parameter the family does not read.
    """
    if model_id not in MODEL_IDS:
        raise ValueError(f"unknown model id {model_id!r} (choose from {sorted(MODEL_IDS)})")
    family = MODEL_IDS[model_id]
    fields = {"rho": rho, "g": g,
              "exchange": None if gamma is None else GammaExchangeSpec(gamma)}
    field = FAMILY_FIELD[family]
    if field is not None and fields[field] is None:
        fields[field] = {"rho": RhoSpec.uniform(), "exchange": GammaExchangeSpec(1),
                         "g": G_CONSTANT_ONE}[field]
    return ModelSpec(family, **fields)
