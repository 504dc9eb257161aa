import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab.models import (FAMILIES, FAMILY_FIELD, G_CONSTANT_ONE, G_IDENTITY,
                           GammaExchangeSpec, MODEL_IDS, InteractionGraph,
                           ModelSpec, RHO_DENSITY_ORDER, RhoSpec, SQUARE, angle_midpoints,
                           build_graph, model_from_id, rate_from_table, unit_rate)
from gaplab.simulate import initial_config, rayleigh_upper_bound, simulate


def _eager_graph(kind, d, N):
    """(vertices, edges, pair scaling) as the eager graph builder listed them."""
    if kind == "complete":
        vertices = tuple(range(1, N + 1))
        edges = tuple((i, j) for i in range(N) for j in range(i + 1, N))
        return vertices, edges, 1.0 / N
    vertices = tuple(itertools.product(range(1, N + 1), repeat=d))
    pos = {v: i for i, v in enumerate(vertices)}
    edges = []
    for v in vertices:
        for ax in range(d):
            if v[ax] < N:
                u = list(v)
                u[ax] += 1
                edges.append((pos[v], pos[tuple(u)]))
    return vertices, tuple(sorted(edges)), 1.0


class TestBuildGraph:
    def test_complete_four(self):
        g = build_graph("complete", N=4)
        assert len(g.edges) == 6
        assert g.pair_scaling == pytest.approx(1 / 4)

    def test_lattice_two_by_three(self):
        g = build_graph("lattice", d=2, N=3)
        assert g.n_sites == 9
        assert len(g.edges) == 12
        assert g.pair_scaling == 1.0

    def test_lattice_path(self):
        g = build_graph("lattice", d=1, N=2)
        assert g.n_sites == 2
        assert len(g.edges) == 1

    def test_invalid_size(self):
        with pytest.raises(ValueError, match="invalid size"):
            build_graph("complete", N=1)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError, match="invalid dimension"):
            build_graph("lattice", d=0, N=3)

    @given(N=st.integers(2, 12))
    def test_complete_edge_count(self, N):
        g = build_graph("complete", N=N)
        assert len(g.edges) == N * (N - 1) // 2
        assert g.n_edges == len(g.edges)

    @given(d=st.integers(1, 3), N=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_lattice_edge_count(self, d, N):
        g = build_graph("lattice", d=d, N=N)
        assert g.n_sites == N ** d
        assert len(g.edges) == d * N ** (d - 1) * (N - 1)
        assert g.n_edges == len(g.edges)
        # every edge joins vertices at L1 distance one
        for a, b in g.edges:
            u, v = g.vertices[a], g.vertices[b]
            assert sum(abs(x - y) for x, y in zip(u, v)) == 1

    def test_derived_structure_equals_the_eager_lists(self):
        cells = [("complete", 1, N) for N in range(2, 13)]
        cells += [("lattice", d, N) for d in (1, 2, 3) for N in range(2, 6)]
        for kind, d, N in cells:
            g = build_graph(kind, d=d, N=N)
            vertices, edges, scaling = _eager_graph(kind, d, N)
            assert g.vertices == vertices
            assert g.edges == edges
            assert g.pair_scaling == scaling
            assert g.n_sites == len(vertices)

    def test_counts_need_no_edge_list(self):
        # a regression lists about 2e6 edges here, not the 5e11 of K_{10^6}
        g = build_graph("complete", N=2000)
        assert (g.n_sites, g.n_edges, g.pair_scaling) == (2000, 1999000, 1 / 2000)
        assert "edges" not in g.__dict__ and "vertices" not in g.__dict__
        assert "edges" not in build_graph("complete", N=10**6).__dict__

    @pytest.mark.parametrize("kind, N, d, match", [
        ("complete", 1, 1, "invalid size"),
        ("torus", 3, 1, "unknown graph kind"),
        ("lattice", 3, 0, "invalid dimension"),
        ("complete", 3, 2, "invalid dimension"),
    ])
    def test_fields_checked_on_construction(self, kind, N, d, match):
        with pytest.raises(ValueError, match=match):
            InteractionGraph(kind, N, d)


class TestRateFunctions:
    def test_convention_at_zero(self):
        assert G_IDENTITY(0) == 0.0
        assert G_CONSTANT_ONE(0) == 0.0

    def test_log_factorial(self):
        assert G_IDENTITY.log_factorials(4)[4] == pytest.approx(math.log(24))
        assert G_CONSTANT_ONE.log_factorials(7)[7] == 0.0
        # the table is bitwise the left-to-right sum of logs
        for g in (G_IDENTITY, rate_from_table([(k, 1.0 + k / 3.0) for k in range(1, 30)])):
            table = g.log_factorials(25)
            for k in range(26):
                acc = 0.0
                for j in range(1, k + 1):
                    acc += math.log(g(j))
                assert table[k] == acc

    def test_table(self):
        g = rate_from_table([(1, 2.0), (2, 3.0)])
        assert g(2) == 3.0
        with pytest.raises(ValueError):
            g(3)

    def test_repeated_k_refused(self):
        with pytest.raises(ValueError, match="rate table 'g.table' lists k = 1 twice"):
            rate_from_table([(1, 1.0), (1, 5.0), (2, 2.0)], name="g.table")

    def test_nonpositive_rejected(self):
        g = rate_from_table([(1, 0.0)])
        with pytest.raises(ValueError, match="positive"):
            g(1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_non_finite_rejected(self, bad):
        g = rate_from_table([(1, 1.0), (2, bad)], name="g.table")
        assert g(1) == 1.0
        with pytest.raises(ValueError, match=r"rate function 'g.table': g\(2\) = "
                                             r".* must be finite and positive"):
            g(2)


class TestRhoSpec:
    def test_uniform_coefficients(self):
        rho = RhoSpec.uniform()
        assert rho.coefficient(0) == 1.0
        assert rho.coefficient(5) == 0.0

    def test_density_quadrature_uniform(self):
        rho = RhoSpec(density=lambda t: 1 / (2 * math.pi))
        assert rho.coefficient(0).real == pytest.approx(1.0, abs=1e-12)
        for n in range(1, 9):
            assert abs(rho.coefficient(n)) < 1e-12

    def test_cosine_density(self):
        rho = RhoSpec(density=lambda t: (1 + math.cos(t)) / (2 * math.pi))
        assert rho.coefficient(1).real == pytest.approx(0.5, abs=1e-10)
        assert abs(rho.coefficient(2)) < 1e-10

    def test_order_error(self):
        # a density is transformed to RHO_DENSITY_ORDER and refuses a higher coefficient
        rho = RhoSpec(density=lambda t: (1 + math.cos(t)) / (2 * math.pi))
        assert rho.order == RHO_DENSITY_ORDER
        assert abs(rho.coefficient(-RHO_DENSITY_ORDER)) < 1e-10
        for n in (RHO_DENSITY_ORDER + 1, -RHO_DENSITY_ORDER - 1):
            with pytest.raises(ValueError, match=f"order {RHO_DENSITY_ORDER + 1}"):
                rho.coefficient(n)

    def test_fourier_data_is_the_whole_series(self):
        rho = RhoSpec(coefficients=[1.0, 0.3])
        assert rho.order == 1
        assert rho.coefficient(2) == 0.0 and rho.coefficient(-40) == 0.0

    def test_negative_index_conjugate(self):
        rho = RhoSpec(coefficients=[1.0, 0.2 + 0.1j])
        assert rho.coefficient(-1) == (0.2 + 0.1j).conjugate()

    @given(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_fejer_densities_have_bounded_coefficients(self, amps):
        # |p(e^{i theta})|^2 is nonnegative; normalized it is a density, and
        # densities always have |rho_hat(n)| <= 1 with conjugate symmetry.
        def density(theta):
            p = sum(a * complex(math.cos(k * theta), math.sin(k * theta))
                    for k, a in enumerate(amps))
            return abs(p) ** 2

        mass = sum(abs(a) ** 2 for a in amps) * 2 * math.pi
        if mass < 1e-9:
            return
        rho = RhoSpec(density=lambda t: density(t) / mass)
        assert rho.coefficient(0).real == pytest.approx(1.0, abs=1e-8)
        for n in range(1, 7):
            assert abs(rho.coefficient(n)) <= 1.0 + 1e-9
            assert rho.coefficient(-n) == rho.coefficient(n).conjugate()


class TestRhoRefusal:
    """The constructor refuses any angle data that is not a probability density."""

    def test_uniform_rho_is_the_shared_spec(self):
        assert model_from_id("kac-rho").rho is RhoSpec.uniform()
        assert ModelSpec("kac-uniform").angle_density() is RhoSpec.uniform()

    def test_unnormalized_density_fails(self):
        with pytest.raises(ValueError, match=r"not a probability density") as err:
            RhoSpec(density=lambda t: 0.5 / (2 * math.pi))
        assert r"[FAIL] normalization rho_hat(0) = 1: residual 0.5 " in str(err.value)

    def test_cardioid_coefficients_pass(self):
        rho = RhoSpec(coefficients=[1.0, 0.5], name="cardioid")
        assert np.allclose(rho.grid_values, (1 + np.cos(angle_midpoints(4096))) / (2 * math.pi))

    @pytest.mark.parametrize("coefficients, failed", [
        ([1.0, 1.5], "coefficient bound"),
        ([1.0, 1.0], "no point-mass concentration"),
    ])
    def test_impossible_coefficients_fail(self, coefficients, failed):
        with pytest.raises(ValueError, match=re.escape(f"[FAIL] {failed}")) as err:
            RhoSpec(coefficients=coefficients)
        assert "normalization" not in str(err.value)

    def test_negative_density_fails(self):
        # normalized, |rho_hat(1)| = 3/4, but negative where cos(theta) < -2/3
        with pytest.raises(ValueError) as err:
            RhoSpec(density=lambda t: (1 + 1.5 * math.cos(t)) / (2 * math.pi))
        failed = [line for line in str(err.value).splitlines() if "[FAIL]" in line]
        assert len(failed) == 1 and failed[0].startswith("  [FAIL] density nonnegative:")

    def test_point_mass_residual_is_measured(self):
        # |rho_hat(1)| = 1 reaches 1e-12 past the point-mass threshold 1 - 1e-12
        with pytest.raises(ValueError) as err:
            RhoSpec(coefficients=[1.0, 1.0])
        line, = [l for l in str(err.value).splitlines() if "[FAIL] no point-mass" in l]
        residual = float(line.split("residual ")[1].split()[0])
        assert residual == pytest.approx(1e-12, rel=1e-3)

    def test_signed_fourier_series_fails(self):
        # every |rho_hat(n)| <= 1, but the series dips to -0.16: the simulator
        # once drew from its clipped positive part without a word
        with pytest.raises(ValueError, match=re.escape("[FAIL] density nonnegative")):
            RhoSpec(coefficients=[1.0, 0.9, 0.9] + [0.0] * 6)

    def test_values_sum_the_series_at_any_angle(self):
        rho = RhoSpec(coefficients=[1.0, 0.3 + 0.2j, 0.1])
        theta = np.array([-3.0, -0.5, 0.0, 1.0, 2.5])
        expect = (1 + 2 * (0.3 * np.cos(theta) + 0.2 * np.sin(theta))
                  + 2 * 0.1 * np.cos(2 * theta)) / (2 * math.pi)
        assert np.allclose(rho.values(theta), expect, rtol=0, atol=1e-15)
        density = RhoSpec(density=lambda t: (1 + math.cos(t)) / (2 * math.pi))
        assert list(density.values(theta)) == [(1 + math.cos(t)) / (2 * math.pi) for t in theta]


class TestGammaExchangeSpec:
    def test_cells_follow_the_kernel(self):
        spec = GammaExchangeSpec(gamma=1, kernel=np.ones((16, 16)))
        assert len(spec.grid()) == 16

    @pytest.mark.parametrize("kernel", ["simple-average", np.ones((4, 5)), np.ones(4)])
    def test_bad_kernel_refused(self, kernel):
        with pytest.raises(ValueError, match="Beta kernel"):
            GammaExchangeSpec(gamma=1, kernel=kernel)

    @pytest.mark.parametrize("kernel", [
        np.zeros((3, 3)), np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[1.0, -0.5], [0.5, 0.5]]), np.array([[1.0, np.nan], [0.5, 0.5]]),
        np.array([[1.0, np.inf], [0.5, 0.5]]),
    ], ids=["zeros", "zero-row", "negative", "nan", "inf"])
    def test_kernel_that_is_no_law_refused(self, kernel):
        with pytest.raises(ValueError, match="finite and nonnegative, with no row that sums to 0"):
            GammaExchangeSpec(gamma=1, kernel=kernel)

    @pytest.mark.parametrize("lambda_s, lambda_r", [
        (lambda s: -1.0, unit_rate), (unit_rate, lambda b: math.nan),
        (lambda s: math.inf, unit_rate)], ids=["negative", "nan", "inf"])
    def test_pair_rate_that_is_no_rate_refused(self, lambda_s, lambda_r):
        spec = GammaExchangeSpec(gamma=1, lambda_s=lambda_s, lambda_r=lambda_r)
        with pytest.raises(ValueError, match="at total s = 2.0, fraction beta = 0.25"):
            spec.pair_rate(2.0, 0.25, 1.0)


class TestModelCatalog:
    @pytest.mark.parametrize("mid", ["kac", "kac-rho", "gamma-exchange",
                                     "zero-range", "simple-average"])
    def test_ids_resolve(self, mid):
        integer = mid in ("zero-range", "simple-average")
        spec = model_from_id(mid, g=G_CONSTANT_ONE if integer else None,
                             gamma=1 if mid == "gamma-exchange" else None)
        assert spec.family in ("kac-uniform", "kac-rho", "gamma-exchange",
                               "zero-range", "simple-average")
        spec.law()

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown model id"):
            model_from_id("bogus")

    def test_pairings(self):
        assert model_from_id("kac").law().form == "square"
        assert model_from_id("zero-range", g=G_IDENTITY).law().form == "identity"
        assert model_from_id("gamma-exchange", gamma=2).law().form == "identity"

    def test_simple_average_refuses_a_shape(self):
        with pytest.raises(ValueError, match="gamma-exchange"):
            model_from_id("simple-average", gamma=2)

    @pytest.mark.parametrize("mid", ["kac", "kac-rho", "zero-range"])
    def test_foreign_shape_refused(self, mid):
        with pytest.raises(ValueError, match="gamma-exchange"):
            model_from_id(mid, gamma=2)

    @pytest.mark.parametrize("mid", ["kac", "gamma-exchange", "zero-range", "simple-average"])
    def test_foreign_density_refused(self, mid):
        with pytest.raises(ValueError, match="kac-rho"):
            model_from_id(mid, rho=RhoSpec.uniform())

    @pytest.mark.parametrize("mid", ["kac", "kac-rho", "gamma-exchange"])
    def test_foreign_rates_refused(self, mid):
        with pytest.raises(ValueError, match="zero-range and simple-average"):
            model_from_id(mid, g=G_IDENTITY)

    @pytest.mark.parametrize("mid", ["zero-range", "simple-average"])
    def test_integer_families_default_to_unit_rates(self, mid):
        assert model_from_id(mid).g is G_CONSTANT_ONE

    @pytest.mark.parametrize("family, fields", [
        ("kac-uniform", {"rho": RhoSpec.uniform()}),
        ("zero-range", {"g": G_IDENTITY, "exchange": GammaExchangeSpec(gamma=3)}),
        ("kac-rho", {"rho": RhoSpec.uniform(), "g": G_IDENTITY}),
        ("gamma-exchange", {"exchange": GammaExchangeSpec(gamma=1), "rho": RhoSpec.uniform()}),
        ("simple-average", {"g": G_IDENTITY, "rho": RhoSpec.uniform()}),
    ])
    def test_foreign_field_refused(self, family, fields):
        with pytest.raises(ValueError, match="does not read"):
            ModelSpec(family, **fields)

    @pytest.mark.parametrize("family", ["kac-rho", "gamma-exchange", "zero-range",
                                        "simple-average"])
    def test_missing_field_refused(self, family):
        with pytest.raises(ValueError, match="needs"):
            ModelSpec(family)

    def test_family_table(self):
        assert FAMILIES == tuple(FAMILY_FIELD)
        assert [MODEL_IDS[m] for m in MODEL_IDS if model_from_id(m).is_discrete] == [
            "zero-range", "simple-average"]
        assert [MODEL_IDS[m] for m in MODEL_IDS if model_from_id(m).law() is SQUARE] == [
            "kac-uniform", "kac-rho"]

    def test_constant_rates(self):
        assert model_from_id("simple-average").constant_rates
        assert model_from_id("kac-rho").constant_rates
        assert model_from_id("gamma-exchange", gamma=2).constant_rates
        assert not model_from_id("zero-range").constant_rates
        tilted = GammaExchangeSpec(gamma=2, lambda_r=lambda b: 0.5 + b)
        assert not ModelSpec("gamma-exchange", exchange=tilted).constant_rates


_CELLS = np.arange(32) + 0.5
CATALOG = {
    **{mid: model_from_id(mid) for mid in MODEL_IDS},
    "zero-range-identity": model_from_id("zero-range", g=G_IDENTITY),
    "kac-rho-cardioid": model_from_id("kac-rho", rho=RhoSpec(
        density=lambda t: (1 + math.cos(t)) / (2 * math.pi), name="cardioid")),
    "gamma-exchange-kernel": ModelSpec("gamma-exchange", exchange=GammaExchangeSpec(
        gamma=2, kernel=np.exp(-np.abs(_CELLS[:, None] - _CELLS[None, :]) / 4.0))),
    "gamma-exchange-lambda": ModelSpec("gamma-exchange", exchange=GammaExchangeSpec(
        gamma=1, lambda_s=lambda s: 1.0 + s, lambda_r=lambda b: 0.5 + b * (1 - b))),
}


class TestCatalogSmoke:
    """Every catalog entry starts, simulates and takes a Rayleigh bound."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_engines_accept_model(self, name):
        model = CATALOG[name]
        graph = build_graph("complete", N=3)
        omega = 3 if model.is_discrete else 1.0
        cfg = initial_config(model, graph, omega, seed=0)
        summary, _ = simulate(model, graph, cfg, 5.0, seed=0)
        assert summary.n_events > 0
        est = rayleigh_upper_bound(model, graph, lambda c: float(c[0]), omega=omega,
                                   dt=0.5, n_samples=20, seed=0)
        assert math.isfinite(est.estimate) and est.estimate > 0.0

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_each_jump_conserves_the_pair_total(self, name):
        model = CATALOG[name]
        graph = build_graph("complete", N=3)
        omega = 3 if model.is_discrete else 1.0
        power = 2 if model.law() is SQUARE else 1
        jumps = []

        def check(t, edge, before, after):
            x, y = graph.edges[edge]
            others = [i for i in range(graph.n_sites) if i not in (x, y)]
            assert np.array_equal(before[others], after[others])
            pair = lambda c: c[x] ** power + c[y] ** power
            assert pair(after) == pytest.approx(pair(before), rel=1e-12, abs=1e-12)
            jumps.append(edge)

        cfg = initial_config(model, graph, omega, seed=0)
        simulate(model, graph, cfg, 5.0, seed=0, event_callback=check)
        assert jumps
