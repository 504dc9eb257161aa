import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from gaplab import galerkin, verify
from gaplab.discrete import ZERO_TOL, TooLargeError, state_count
from gaplab.galerkin import (DirichletMoments, SphereMoments,
                             assemble_galerkin, beta_moment,
                             conditional_moment_eigenvalue,
                             galerkin_eigensystem, k_operator_check,
                             pair_average_action, rho_pair_action, rho_trig_moment, sector_polynomial,
                             two_site_fourier_gap)
from gaplab.models import RHO_DENSITY_ORDER, RhoSpec, build_graph

COSINE_RHO = RhoSpec(coefficients=[1.0, 0.5], name="cosine")
#: a von Mises density off center, so every rho_hat(n) is complex and nonzero
VON_MISES_RHO = RhoSpec(
    density=lambda t: math.exp(math.cos(t - 0.3)) / (2 * math.pi * scipy.special.i0(1.0)),
    name="von-mises")
CARDIOID_RHO = RhoSpec(density=lambda t: (1.0 + math.cos(t)) / (2.0 * math.pi),
                       name="cardioid")
UNIFORM = RhoSpec.uniform()


def _double_factorial(n):
    return math.prod(range(n, 0, -2))


def _kac_action(a, b):
    """Closed-form uniform rotation average of x^a y^b: odd pairs vanish, and
    an even pair averages to E[cos^a sin^b] (x^2 + y^2)^((a + b)/2)."""
    if a % 2 or b % 2:
        return {}
    T = Fraction(_double_factorial(a - 1) * _double_factorial(b - 1), _double_factorial(a + b))
    M = (a + b) // 2
    return {(2 * m, 2 * (M - m)): T * math.comb(M, m) for m in range(M + 1)}


def _wallis_oracle(p, q):
    """Independent recursion for the uniform angle moments."""
    if p % 2 or q % 2:
        return 0.0
    if p == 0 and q == 0:
        return 1.0
    if p >= 2:
        return _wallis_oracle(p - 2, q) * (p - 1) / (p + q)
    return _wallis_oracle(p, q - 2) * (q - 1) / (p + q)


class TestTrigMoments:
    def test_examples(self):
        assert rho_trig_moment(UNIFORM, 2, 0) == 0.5
        assert rho_trig_moment(UNIFORM, 2, 2) == 0.125
        assert rho_trig_moment(UNIFORM, 1, 0) == 0.0

    @pytest.mark.parametrize("p,q", list(itertools.product(range(0, 7), repeat=2)))
    def test_against_wallis_recursion(self, p, q):
        assert rho_trig_moment(UNIFORM, p, q) == pytest.approx(_wallis_oracle(p, q), abs=1e-14)

    def test_rho_cosine_against_quadrature(self):
        theta = np.linspace(-math.pi, math.pi, 20001)
        dens = (1 + np.cos(theta)) / (2 * math.pi)
        for p, q in [(2, 0), (1, 0), (2, 2), (3, 1)]:
            oracle = np.trapezoid(np.cos(theta) ** p * np.sin(theta) ** q * dens, theta)
            assert rho_trig_moment(COSINE_RHO, p, q) == pytest.approx(oracle, abs=1e-8)

    def test_order_error(self):
        # a density is transformed to RHO_DENSITY_ORDER; a moment past it is refused
        rho_trig_moment(CARDIOID_RHO, RHO_DENSITY_ORDER, 0)
        with pytest.raises(ValueError, match=f"order {RHO_DENSITY_ORDER + 1}"):
            rho_trig_moment(CARDIOID_RHO, RHO_DENSITY_ORDER + 1, 0)

    def test_fourier_data_is_the_whole_series(self):
        # cos^3 = (3 cos + cos 3)/4 against the cardioid: 3/4 rho_hat(1), as rho_hat(3) = 0
        assert rho_trig_moment(COSINE_RHO, 3, 0) == 0.375


class TestSphereMoments:
    def test_examples(self):
        assert SphereMoments(3).exact((2, 0, 0)) == pytest.approx(1 / 3)
        assert SphereMoments(3).exact((4,)) == pytest.approx(1 / 5)
        assert SphereMoments(5).exact((1, 1)) == 0.0

    def test_scaling_in_total(self):
        assert SphereMoments(4, 3).exact((2, 2)) == pytest.approx(
            9 * SphereMoments(4).exact((2, 2)))

    @pytest.mark.slow
    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(20240811)
        n = 1_000_000
        for _ in range(20):
            N = int(rng.integers(2, 5))
            k = rng.integers(0, 3, size=N) * 2  # even exponents exercise nonzero values
            x = rng.standard_normal((n, N))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            vals = np.prod(x ** k[None, :], axis=1)
            mc, se = vals.mean(), vals.std() / math.sqrt(n)
            expect = float(SphereMoments(N).exact(tuple(int(v) for v in k)))
            assert abs(mc - expect) < 4 * se + 1e-12


class TestSimplexMoments:
    def test_examples(self):
        assert DirichletMoments(3, 1).exact((1, 0, 0)) == pytest.approx(1 / 3)
        assert DirichletMoments(3, 1).exact((2, 0, 0)) == pytest.approx(1 / 6)
        assert DirichletMoments(3, 1, 2).exact((2, 0, 0)) == pytest.approx(4 / 6)

    @pytest.mark.slow
    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(77)
        n = 1_000_000
        for _ in range(20):
            N = int(rng.integers(2, 5))
            gamma = float(rng.choice([0.5, 1.0, 2.0]))
            k = rng.integers(0, 3, size=N)
            x = rng.dirichlet([gamma] * N, size=n)
            vals = np.prod(x ** k[None, :], axis=1)
            mc, se = vals.mean(), vals.std() / math.sqrt(n)
            expect = float(DirichletMoments(N, Fraction(gamma)).exact(tuple(int(v) for v in k)))
            assert abs(mc - expect) < 4 * se + 1e-12


class TestPairActions:
    def test_rotation_quadratic(self):
        act = rho_pair_action(UNIFORM, 2, 0)
        assert act == {(2, 0): 0.5, (0, 2): 0.5}

    def test_rotation_kills_odd(self):
        assert rho_pair_action(UNIFORM, 1, 0) == {}
        assert rho_pair_action(UNIFORM, 1, 1) == {}

    def test_redistribution_linear(self):
        act = pair_average_action(1, 0, 1)
        assert act == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}

    def test_redistribution_quadratic(self):
        act = pair_average_action(2, 0, 1)
        # E[beta^2] (x + y)^2 at uniform beta
        assert act == {(2, 0): Fraction(1, 3), (1, 1): Fraction(2, 3),
                       (0, 2): Fraction(1, 3)}

    @pytest.mark.parametrize("model", ["kac", "gamma-exchange", "gamma-exchange-simple-average"])
    def test_unknown_sector_model(self, model):
        with pytest.raises(ValueError, match="unknown sector model"):
            assemble_galerkin(model, build_graph("complete", N=3), degree=2, gamma=1)

    @pytest.mark.parametrize("model,kwargs,name", [
        ("kac-uniform", {"rho": UNIFORM}, "rho"),
        ("gamma", {"gamma": 1, "rho": UNIFORM}, "rho"),
        ("kac-uniform", {"gamma": 1}, "exchange"),
        ("kac-rho", {"rho": COSINE_RHO, "gamma": 1}, "exchange"),
    ])
    def test_unread_parameter_refused(self, model, kwargs, name):
        with pytest.raises(ValueError, match=f"does not read {name}"):
            assemble_galerkin(model, build_graph("complete", N=3), degree=2, **kwargs)

    @pytest.mark.parametrize("mode", ["full", "symmetric"])
    @pytest.mark.parametrize("gamma", [0, Fraction(-1, 2), -1])
    def test_nonpositive_shape_refused(self, gamma, mode):
        with pytest.raises(ValueError, match="shape parameter must be positive"):
            assemble_galerkin("gamma", build_graph("complete", N=3), degree=2,
                              mode=mode, gamma=gamma)

    def test_beta_moment(self):
        assert beta_moment(2, 0, 1) == Fraction(1, 3)
        assert beta_moment(1, 1, Fraction(1, 2)) == Fraction(1, 8)

    def test_uniform_action_is_the_closed_form(self):
        # the Fourier route at the uniform density is the Kac action exactly:
        # its dyadic coefficients come out of the float sums unrounded
        for a, b in itertools.product(range(17), repeat=2):
            if a + b <= 16:
                got = {k: Fraction(v) for k, v in rho_pair_action(UNIFORM, a, b).items()}
                assert got == _kac_action(a, b), (a, b)

    def test_rho_action_cosine_against_quadrature(self):
        # direct quadrature of the symmetrized rotation average of x^2
        theta = np.linspace(-math.pi, math.pi, 40001)
        dens = (1 + np.cos(theta)) / (2 * math.pi)
        c2 = np.trapezoid(np.cos(theta) ** 2 * dens, theta)
        s2 = np.trapezoid(np.sin(theta) ** 2 * dens, theta)
        cross = 0.0  # odd under the symmetrization
        act = rho_pair_action(COSINE_RHO, 2, 0)
        assert act[(2, 0)] == pytest.approx(c2, abs=1e-8)
        assert act[(0, 2)] == pytest.approx(s2, abs=1e-8)
        assert act.get((1, 1), 0.0) == pytest.approx(cross, abs=1e-8)


def _compositions(V, d):
    """Exponent tuples of degree d on V sites, lexicographic: a test-only recursion."""
    if V == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d + 1) for rest in _compositions(V - 1, d - a)]


def _degree_le_basis(V, D):
    """Every monomial of degree <= D on V sites, by degree, then lexicographic."""
    return [k for d in range(D + 1) for k in _compositions(V, d)]


class TestBlockElements:
    def test_full_count(self):
        assert galerkin.sector_dimension(3, 4, "full") == math.comb(3 + 4, 4)
        assert sum(len(galerkin._block_elements(3, d, "full")) for d in range(5)) == 35

    @pytest.mark.parametrize("V", range(1, 9))
    def test_full_elements_are_the_lexicographic_compositions(self, V):
        for d in range(7):
            elements = galerkin._block_elements(V, d, "full")
            assert elements == tuple(_compositions(V, d))
            assert all(type(e) is int for k in elements for e in k)

    def test_symmetric_orbits(self):
        assert galerkin._block_elements(3, 2, "symmetric") == ((1, 1), (2,))
        assert set(galerkin._orbit_monomials((1, 1), 3)) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}

    @pytest.mark.parametrize("N", range(1, 8))
    def test_orbit_expansion_matches_permutations(self, N):
        for d in range(5):
            for s in galerkin._block_elements(N, d, "symmetric"):
                padded = s + (0,) * (N - len(s))
                assert galerkin._orbit_monomials(s, N) == tuple(
                    sorted(set(itertools.permutations(padded))))

    @pytest.mark.parametrize("N", range(1, 8))
    def test_elements_are_the_partitions_of_full_monomials(self, N):
        for d in range(6):
            expect = sorted({tuple(sorted((e for e in k if e), reverse=True))
                             for k in galerkin._block_elements(N, d, "full")})
            assert list(galerkin._block_elements(N, d, "symmetric")) == expect
        assert galerkin.sector_dimension(N, 5, "symmetric") == sum(
            len(galerkin._block_elements(N, d, "symmetric")) for d in range(6))

    def test_partitions_at_large_N(self):
        elements = [k for d in range(5) for k in galerkin._block_elements(10**6, d, "symmetric")]
        assert all(len(k) <= 4 for k in elements)
        assert elements == [
            (), (1,), (1, 1), (2,), (1, 1, 1), (2, 1), (3,),
            (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
        assert galerkin.sector_dimension(10**6, 4, "symmetric") == 12

    @pytest.mark.parametrize("part", [(), (3,), (1, 1), (2, 1, 1)])
    def test_orbit_of_a_partition_fills_n_vars(self, part):
        N = 30
        orbit = galerkin._orbit_monomials(part, N)
        size = math.perm(N, len(part))
        for m in Counter(part).values():
            size //= math.factorial(m)
        assert len(orbit) == len(set(orbit)) == size
        assert all(len(k) == N for k in orbit)
        assert {tuple(e for e in sorted(k, reverse=True) if e) for k in orbit} == {part}


class TestPairImage:
    def test_kac_square_on_one_pair(self):
        img = galerkin._pair_image((2, 0), [(0, 1)], _kac_action, Fraction(1))
        assert img == {(2, 0): Fraction(-1, 2), (0, 2): Fraction(1, 2)}
        assert all(type(c) is Fraction for c in img.values())

    def test_pairs_with_both_exponents_zero_are_fixed(self):
        action = lambda a, b: pair_average_action(a, b, Fraction(1))
        assert galerkin._pair_image((1, 0, 0), [(1, 2)], action, 1.0) == {}
        img = galerkin._pair_image((1, 0, 0), [(0, 1), (0, 2), (1, 2)], action,
                                   Fraction(1, 3))
        assert img == {(1, 0, 0): Fraction(-1, 3), (0, 1, 0): Fraction(1, 6),
                       (0, 0, 1): Fraction(1, 6)}

    def test_float_scale_rounds_the_exact_image(self):
        action = lambda a, b: pair_average_action(a, b, Fraction(2))
        pairs = list(itertools.combinations(range(4), 2))
        k = (2, 1, 0, 1)
        exact = galerkin._pair_image(k, pairs, action, Fraction(1, 6))
        approx = galerkin._pair_image(k, pairs, action, 1 / 6)
        assert exact.keys() == approx.keys()
        for key, c in exact.items():
            assert type(approx[key]) is float
            assert approx[key] == pytest.approx(float(c), rel=1e-14, abs=1e-15)


class TestKacGalerkin:
    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_exact_values(self, N):
        pair = assemble_galerkin("kac-uniform", build_graph("complete", N=N), degree=4)
        assert galerkin_eigensystem(pair).gap == pytest.approx((N + 2) / (4 * N), abs=1e-9)

    def test_monotone_in_degree(self):
        graph = build_graph("complete", N=3)
        gaps = [galerkin_eigensystem(assemble_galerkin("kac-uniform", graph, degree=D)).gap
                for D in (2, 4, 6)]
        assert gaps[0] >= gaps[1] - 1e-12
        assert gaps[1] >= gaps[2] - 1e-12
        assert gaps[1] == pytest.approx(5 / 12, abs=1e-9)
        assert gaps[2] == pytest.approx(5 / 12, abs=1e-9)

    def test_symmetric_mode_exact_until_solve(self):
        pair = assemble_galerkin("kac-uniform", build_graph("complete", N=7), degree=4,
                                 mode="symmetric")
        assert pair.assembly == "orbit-representative"
        # the blocks of degrees 3 and 4 hold 3 + 5 of the 12 orbit sums, in
        # exact rationals; the solve sees them as well-conditioned floats
        assert [(elements, C.shape) for elements, C in pair.blocks] == [
            (((1, 1, 1), (2, 1), (3,)), (3, 3)),
            (((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)), (5, 5))]
        assert pair.basis_size == 12 and len(pair.basis) == 8
        assert all(type(c) is Fraction for _, C in pair.blocks for c in C.flat)
        rep = galerkin_eigensystem(pair)
        assert rep.kept_dim == 8 and rep.deflated == 4
        assert rep.eig_residual < 1e-14
        assert 1.0 <= rep.eig_condition < 2.0

    def test_symmetric_mode_needs_complete(self):
        with pytest.raises(ValueError, match="complete"):
            assemble_galerkin("kac-uniform", build_graph("lattice", d=1, N=3),
                              degree=4, mode="symmetric")

    def test_sector_closure(self):
        # rotation averaging is degree-homogeneous: the image of a pair
        # monomial carries exactly the original total degree
        for a, b in itertools.product(range(5), repeat=2):
            for (p, q) in rho_pair_action(UNIFORM, a, b):
                assert p + q == a + b

    def test_constant_in_null_space(self):
        # on the sphere the constant is (x1^2 + x2^2 + x3^2)^2, in the all-even
        # parity class of degree 4
        pair = assemble_galerkin("kac-uniform", build_graph("complete", N=3), degree=4)
        square = Counter(tuple(2 * (v == i) + 2 * (v == j) for v in range(3))
                         for i in range(3) for j in range(3))
        (elements, C), = [(e, C) for e, C in pair.blocks
                          if sum(e[0]) == 4 and not any(x % 2 for x in e[0])]
        assert set(square) <= set(elements)
        one = np.array([square[k] for k in elements], dtype=float)
        assert np.abs(C @ one).max() < 1e-12

    def test_eigenfunction_callable(self):
        pair = assemble_galerkin("kac-uniform", build_graph("complete", N=3), degree=4)
        rep = galerkin_eigensystem(pair)
        f = sector_polynomial(rep)
        x = np.array([0.3, -0.5, math.sqrt(1 - 0.09 - 0.25)])
        assert np.isfinite(f(x))

    def test_lattice_sector_gap_upper_bounds_complete(self):
        # fewer edges, unit scaling: local dynamics on 1d chains is slower
        lat = build_graph("lattice", d=1, N=4)
        comp = build_graph("complete", N=4)
        g_lat = galerkin_eigensystem(assemble_galerkin("kac-uniform", lat, degree=2)).gap
        g_comp = galerkin_eigensystem(assemble_galerkin("kac-uniform", comp, degree=2)).gap
        assert g_lat > 0
        assert g_comp > 0


def _count_exact_calls(monkeypatch) -> list:
    """Record one entry per call of either moment oracle's `exact`."""
    calls = []
    for cls in (SphereMoments, DirichletMoments):
        original = cls.exact

        def counted(self, k, original=original):
            calls.append(1)
            return original(self, k)
        monkeypatch.setattr(cls, "exact", counted)
    return calls


def _fraction_det(M: list) -> Fraction:
    """Determinant of a square Fraction matrix by elimination, in place."""
    n, det = len(M), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        det *= M[k][k]
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            for j in range(k, n):
                M[i][j] -= f * M[k][j]
    return det


class TestRationalSolve:
    def test_singular_matrix_is_refused(self):
        # row 1 is twice row 0, so column 1 has no pivot left
        B = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        with pytest.raises(ArithmeticError, match="singular matrix: no pivot in column 1"):
            galerkin._rational_solve(B, [[Fraction(1)], [Fraction(0)]])


class TestSymmetricSector:
    """Orbit-representative assembly against the full basis and the closed forms."""

    @pytest.mark.parametrize("degree", [4, 6])
    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_kac_agrees_with_full(self, N, degree):
        graph = build_graph("complete", N=N)
        full = galerkin_eigensystem(assemble_galerkin("kac-uniform", graph, degree=degree))
        sym = galerkin_eigensystem(assemble_galerkin("kac-uniform", graph, degree=degree,
                                                     mode="symmetric"))
        assert sym.gap == pytest.approx(full.gap, abs=1e-9)

    @pytest.mark.parametrize("gamma", [Fraction(1), Fraction(2)])
    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_gamma_agrees_with_full(self, N, gamma):
        graph = build_graph("complete", N=N)
        full = galerkin_eigensystem(assemble_galerkin("gamma", graph, degree=4, gamma=gamma))
        sym = galerkin_eigensystem(assemble_galerkin("gamma", graph, degree=4, gamma=gamma,
                                                     mode="symmetric"))
        assert sym.gap == pytest.approx(full.gap, abs=1e-9)

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_kac_rho_agrees_with_full(self, N):
        graph = build_graph("complete", N=N)
        full = galerkin_eigensystem(assemble_galerkin("kac-rho", graph, degree=4,
                                                      rho=CARDIOID_RHO)).gap
        sym_pair = assemble_galerkin("kac-rho", graph, degree=4, mode="symmetric",
                                     rho=CARDIOID_RHO)
        assert galerkin_eigensystem(sym_pair).gap == pytest.approx(full, abs=1e-9)

    @pytest.mark.parametrize("N", [10, 20, 50, 100, 1000])
    def test_closed_forms_at_large_N(self, N):
        graph = build_graph("complete", N=N)
        kac = galerkin_eigensystem(assemble_galerkin("kac-uniform", graph, degree=4,
                                                     mode="symmetric")).gap
        assert kac == pytest.approx((N + 2) / (4 * N), abs=1e-8)
        for gamma in (Fraction(1, 2), Fraction(2)):
            gap = galerkin_eigensystem(assemble_galerkin("gamma", graph, degree=4, gamma=gamma,
                                                         mode="symmetric")).gap
            expect = float((gamma * N + 1) / (N * (2 * gamma + 1)))
            assert gap == pytest.approx(expect, abs=1e-8)
        # the orbit sums read the graph's size and scaling, never its edges
        assert "edges" not in graph.__dict__

    @pytest.mark.parametrize("degree,N", [(4, 10**4), (4, 10**5), (6, 10**3), (6, 10**4),
                                          (10, 10**3), (10, 10**6), (12, 10**3),
                                          (12, 10**6)])
    @pytest.mark.parametrize("model,gamma", [("kac-uniform", None), ("gamma", Fraction(1)),
                                             ("gamma", Fraction(2))])
    def test_exact_rank_at_large_N(self, model, gamma, degree, N):
        # For N >= degree the conserved total is the only relation among the
        # orbit sums as functions: p2 = omega on the sphere, p1 = omega on the
        # simplex.  Their rank counts the partitions of totals <= degree with
        # no part 2 (kac-uniform) or no part 1 (gamma), which are as many as
        # the partitions of degree and degree - 1, or of degree alone: the
        # sizes of the blocks solved.
        p = [sum(1 for _ in galerkin._partitions(t, t)) for t in range(degree + 1)]
        banned = 2 if model == "kac-uniform" else 1
        rank = sum(banned not in q for total in range(degree + 1)
                   for q in galerkin._partitions(total, total))
        assert rank == (p[degree] + p[degree - 1] if model == "kac-uniform" else p[degree])
        kwargs = {"gamma": gamma} if gamma is not None else {}
        rep = galerkin_eigensystem(assemble_galerkin(
            model, build_graph("complete", N=N), degree=degree, mode="symmetric", **kwargs))
        assert rep.kept_dim == rank
        # N >= degree: the orbit sums of degree <= degree are all the partitions
        assert rep.deflated == sum(p) - rank
        expect = ((N + 2) / (4 * N) if gamma is None
                  else float((gamma * N + 1) / (N * (2 * gamma + 1))))
        assert abs(rep.gap - expect) <= 1e-13

    @pytest.mark.parametrize("N", [10, 1000])
    @pytest.mark.parametrize("model,gamma", [("kac-uniform", None), ("gamma", Fraction(2))])
    def test_closed_form_is_an_exact_eigenvalue(self, model, gamma, N):
        # K_N's operator in exact rationals: the closed form is a root of the
        # characteristic polynomial of the top block, so det(C + lambda I) = 0.
        # A float 1/N pair scaling (Fraction(1 / N) != Fraction(1, N)) leaves
        # it a nonzero determinant.
        kwargs = {"gamma": gamma} if gamma is not None else {}
        pair = assemble_galerkin(model, build_graph("complete", N=N), degree=4,
                                 mode="symmetric", **kwargs)
        lam = (Fraction(N + 2, 4 * N) if gamma is None
               else (gamma * N + 1) / (N * (2 * gamma + 1)))
        _, C = pair.blocks[-1]

        def det_at(mu):
            return _fraction_det([[C[i, j] + mu * (i == j) for j in range(len(C))]
                                  for i in range(len(C))])

        assert det_at(lam) == 0
        assert det_at(lam + Fraction(1, 10**12)) != 0

    def test_assembly_work_independent_of_N(self, monkeypatch):
        # the sector needs no moment, and the orbit sums take as many pair
        # images at N = 20 as at N = 1000
        calls = _count_exact_calls(monkeypatch)
        images = []
        pair_image = galerkin._pair_image

        def counted(*args):
            images.append(1)
            return pair_image(*args)
        monkeypatch.setattr(galerkin, "_pair_image", counted)

        def count(model, N, **kwargs):
            images.clear()
            assemble_galerkin(model, build_graph("complete", N=N), degree=4,
                              mode="symmetric", **kwargs)
            return len(images)

        assert count("kac-uniform", 20) == count("kac-uniform", 1000) > 0
        assert count("gamma", 20, gamma=2) == count("gamma", 1000, gamma=2) > 0
        assert calls == []

    def test_eigenfunction_matches_full_mode(self):
        graph = build_graph("complete", N=4)
        f_sym = sector_polynomial(galerkin_eigensystem(
            assemble_galerkin("kac-uniform", graph, degree=4, mode="symmetric")))
        f_full = sector_polynomial(galerkin_eigensystem(
            assemble_galerkin("kac-uniform", graph, degree=4)))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        a = np.array([f_sym(p) for p in x])
        b = np.array([f_full(p) for p in x])
        ratio = (a @ b) / (b @ b)
        assert abs(ratio) > 1e-6
        assert np.abs(a - ratio * b).max() < 1e-8 * np.abs(a).max()

    @pytest.mark.parametrize("mode", ["full", "symmetric"])
    @pytest.mark.parametrize("N", [3, 4])
    def test_stack_matches_rows(self, N, mode):
        f = sector_polynomial(galerkin_eigensystem(assemble_galerkin(
            "kac-uniform", build_graph("complete", N=N), degree=4, mode=mode)))
        rng = np.random.default_rng(N)
        x = rng.standard_normal((200, N))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        rows = np.array([f(p) for p in x])
        got = f.stack(x)
        assert got.shape == (200,)
        # relative to the stack's largest value: near a zero of f the two
        # summation orders leave the same absolute rounding
        assert np.abs(got - rows).max() <= 1e-14 * np.abs(rows).max()
        assert f.stack(x[:1])[0] == pytest.approx(rows[0], rel=1e-14, abs=1e-14)

    def test_closure_violation_raises(self, monkeypatch):
        def leaky(rho, a, b):
            return {(a + b, 1): 1.0}       # raises the total degree
        monkeypatch.setattr("gaplab.galerkin.rho_pair_action", leaky)
        with pytest.raises(ArithmeticError, match="closure"):
            assemble_galerkin("kac-uniform", build_graph("complete", N=5), degree=4,
                              mode="symmetric")


def _action_and_oracle(model, V, kwargs):
    """The float pair action of a sector model and the moments of its reference measure."""
    if model == "gamma":
        gamma = kwargs["gamma"]
        return ((lambda a, b: {k: float(v) for k, v in pair_average_action(a, b, gamma).items()}),
                DirichletMoments(V, gamma))
    rho = kwargs.get("rho", UNIFORM)
    return (lambda a, b: rho_pair_action(rho, a, b)), SphereMoments(V)


def _full_action_matrix(basis, graph, action):
    """C over the whole degree <= D basis: the column loop, before any degree block."""
    pos = {k: i for i, k in enumerate(basis)}
    C = np.zeros((len(basis), len(basis)))
    for l, k in enumerate(basis):
        for key, c in galerkin._pair_image(k, graph.edges, action, graph.pair_scaling).items():
            C[pos[key], l] += c
    return C


def _rayleigh_spectrum(C, basis, oracle):
    """The sector spectrum by the Gram route: the moments' Gram matrix B, the
    form A = -B C, and B's null space deflated in floats (tolerance 1e-10)."""
    B = np.array([[float(oracle.exact(tuple(x + y for x, y in zip(ki, kj)))) for kj in basis]
                  for ki in basis])
    A = -B @ C
    s, U = np.linalg.eigh(B)
    W = U[:, s > 1e-10 * s.max()] / np.sqrt(s[s > 1e-10 * s.max()])
    R = W.T @ A @ W
    return np.linalg.eigvalsh(0.5 * (R + R.T))


class TestFullModeBlocks:
    """Full-mode degree blocks against the whole action matrix and the Gram route."""

    @pytest.mark.parametrize("model,graph,degree,kwargs", [
        *[("kac-uniform", ("complete", N), 4, {}) for N in (3, 4, 5, 6)],
        ("kac-uniform", ("complete", 4), 6, {}),
        ("gamma", ("complete", 3), 2, {"gamma": Fraction(2)}),
        ("gamma", ("complete", 5), 2, {"gamma": Fraction(2)}),
        ("kac-uniform", ("complete", 8), 4, {}),
        ("gamma", ("complete", 5), 4, {"gamma": Fraction(1)}),
        ("kac-rho", ("complete", 3), 4, {"rho": CARDIOID_RHO}),
        ("kac-uniform", ("lattice", 2), 4, {}),
    ])
    def test_blocks_carry_the_sector_spectrum(self, monkeypatch, model, graph, degree,
                                              kwargs):
        kind, N = graph
        g = build_graph(kind, N=N) if kind == "complete" else build_graph(kind, d=2, N=N)
        calls = _count_exact_calls(monkeypatch)
        pair = assemble_galerkin(model, g, degree=degree, **kwargs)
        rep = galerkin_eigensystem(pair)
        assert calls == []
        action, oracle = _action_and_oracle(model, g.n_sites, kwargs)
        basis = _degree_le_basis(g.n_sites, degree)
        assert rep.kept_dim + rep.deflated == len(basis)
        C = _full_action_matrix(basis, g, action)
        pos = {k: i for i, k in enumerate(basis)}
        covered = []
        for elements, block in pair.blocks:
            rows = [pos[k] for k in elements]
            outside = np.setdiff1d(np.arange(len(basis)), rows)
            # the block is its rows and columns of C, bitwise, and C has no
            # entry between the block and anything outside it
            assert block.tobytes() == C[np.ix_(rows, rows)].tobytes()
            assert not C[np.ix_(outside, rows)].any() and not C[np.ix_(rows, outside)].any()
            covered += rows
        # the blocks partition the kept degrees: D - 1 and D, or D alone
        kept = (degree,) if model == "gamma" else (degree - 1, degree)
        assert sorted(covered) == [i for i, k in enumerate(basis) if sum(k) in kept]
        assert len(pair.blocks) == rep.blocks
        assert max(len(e) for e, _ in pair.blocks) == rep.block_max
        # the top blocks' spectrum is the Rayleigh problem's on all of the sector
        ref = _rayleigh_spectrum(C, basis, oracle)
        assert len(ref) == rep.kept_dim
        assert np.abs(ref - rep.eigenvalues).max() < 1e-8
        assert abs(ref[ref > ZERO_TOL][0] - rep.gap) < 1e-12

    @pytest.mark.parametrize("n_vars,degree", [(1, 3), (3, 4), (5, 3), (4, 6)])
    def test_basis_size_without_enumeration(self, n_vars, degree):
        basis = _degree_le_basis(n_vars, degree)
        assert state_count(n_vars, degree) == sum(sum(k) == degree for k in basis)
        assert galerkin.sector_dimension(n_vars, degree, "full") == len(basis)

    def test_refuses_what_cannot_fit_before_building(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("block elements listed before the preflight")
        monkeypatch.setattr(galerkin, "_block_elements", fail)
        assert state_count(12, 8) == 75_582
        # kac-uniform on K16 at degree 10: its even class alone holds C(20, 5) monomials
        with pytest.raises(TooLargeError, match="15504 in its largest block.*--basis-mode symmetric"):
            assemble_galerkin("kac-uniform", build_graph("complete", N=16), degree=10)
        with pytest.raises(TooLargeError, match="75582 monomials of degree 8"):
            assemble_galerkin("gamma", build_graph("complete", N=12), degree=8, gamma=1)

    @pytest.mark.parametrize("V,D", [(3, 4), (4, 5), (9, 4), (5, 6)])
    def test_block_sizes_are_counted_without_listing(self, V, D):
        # C(V, j) parity classes of C(V + m - 1, m) monomials, m = (d - j)/2, per j odd sites
        listed = Counter(len(c) for d in (D - 1, D)
                         for c in galerkin._parity_classes(galerkin._block_elements(V, d, "full")))
        counted = Counter()
        for count, size in galerkin._block_sizes(V, (D - 1, D), True):
            counted[size] += count
        assert counted == listed
        assert max(listed) == math.comb(V + D // 2 - 1, D // 2)
        assert galerkin._block_sizes(V, (D,), False) == [(1, state_count(V, D))]

    def test_preflight_sizes_the_parity_classes(self, monkeypatch):
        class Listed(Exception):
            pass

        def listed(*args, **kwargs):
            raise Listed
        monkeypatch.setattr(galerkin, "_block_elements", listed)
        # one degree-4 block of 20,475 monomials would need ~22 GiB; its largest
        # parity class holds C(26, 2) = 325
        with pytest.raises(Listed):
            assemble_galerkin("kac-uniform", build_graph("lattice", d=2, N=5), degree=4)

    @pytest.mark.parametrize("graph", [*[("complete", N) for N in range(3, 9)], ("lattice", 3)])
    def test_parity_classes_carry_the_degree_spectrum(self, graph):
        kind, N = graph
        g = build_graph(kind, N=N) if kind == "complete" else build_graph(kind, d=2, N=N)
        rep = galerkin_eigensystem(assemble_galerkin("kac-uniform", g, degree=4))
        action = lambda a, b: rho_pair_action(UNIFORM, a, b)
        unsplit = np.concatenate([
            -np.linalg.eigvals(galerkin._monomial_blocks(
                [galerkin._block_elements(g.n_sites, d, "full")], g.edges, action,
                g.pair_scaling)[0])
            for d in (3, 4)])
        assert np.abs(unsplit.imag).max() < 1e-12
        assert np.abs(np.sort(unsplit.real) - rep.eigenvalues).max() < 1e-12
        assert rep.eig_residual <= 1e-12

    def test_parity_breaking_action_is_refused(self, monkeypatch):
        def leaky(rho, a, b):
            # keeps the degree, so only the parity split can catch it
            return {(a + b - 1, 1): 1.0}
        monkeypatch.setattr("gaplab.galerkin.rho_pair_action", leaky)
        with pytest.raises(ArithmeticError, match="closure"):
            assemble_galerkin("kac-uniform", build_graph("complete", N=3), degree=4)

    @pytest.mark.parametrize("model,N,kwargs", [
        ("kac-uniform", 3, {}), ("kac-uniform", 5, {}), ("kac-rho", 4, {"rho": CARDIOID_RHO}),
        ("gamma", 4, {"gamma": Fraction(2)})])
    def test_gap_pair_is_the_eigenpair_of_its_block(self, model, N, kwargs):
        pair = assemble_galerkin(model, build_graph("complete", N=N), degree=4, **kwargs)
        rep = galerkin_eigensystem(pair)
        C = next(C for e, C in pair.blocks if e == rep.gap_elements)
        w, Y, X = scipy.linalg.eig(C, left=True)
        i = np.argmin(np.abs(w + rep.gap))
        x, y = X[:, i].real, Y[:, i].real
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        # the sign rule: the largest |coefficient| is positive
        assert rep.gap_coefficients[np.argmax(np.abs(rep.gap_coefficients))] > 0
        assert np.abs(np.abs(rep.gap_coefficients @ x) - 1.0) < 1e-12
        assert rep.eig_condition == pytest.approx(1.0 / abs(y @ x), rel=1e-10)
        assert rep.eig_residual <= 1e-12

    def test_complex_spectrum_is_refused(self):
        # a rotation of the plane has eigenvalues +-i; a self-adjoint sector never does
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
        pair = galerkin.GalerkinPair("full", 2, 3, ((((1, 0), (0, 1)), rotation),))
        with pytest.raises(ArithmeticError, match="imaginary"):
            galerkin_eigensystem(pair)

    def test_negative_spectrum_is_refused(self):
        # -C has eigenvalues -1/3 and 1/8; the solve once skipped the first and
        # reported 0.125 as the gap
        C = np.diag([1.0 / 3.0, -0.125])
        pair = galerkin.GalerkinPair("full", 2, 3, ((((1, 0), (0, 1)), C),))
        with pytest.raises(ArithmeticError, match="not negative semidefinite"):
            galerkin_eigensystem(pair)


class TestGammaGalerkin:
    @pytest.mark.parametrize("gamma", [Fraction(1, 2), Fraction(1), Fraction(2)])
    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_exact_values(self, gamma, N):
        pair = assemble_galerkin("gamma", build_graph("complete", N=N),
                                 degree=2, gamma=gamma)
        expect = float((gamma * N + 1) / (N * (2 * gamma + 1)))
        assert galerkin_eigensystem(pair).gap == pytest.approx(expect, abs=1e-9)


class TestConditionalOperator:
    def test_unit_shape_spectrum(self):
        rep = k_operator_check(Fraction(1), degree=6)
        expect = [Fraction(-1) ** n / (n + 1) for n in range(7)]
        assert list(rep.eigenvalues) == expect
        assert rep.max_residual == 0.0
        assert rep.triangular_residual == 0.0

    @pytest.mark.parametrize("gamma", [Fraction(1, 2), Fraction(1), Fraction(2),
                                       Fraction(5)])
    def test_mu_extremes(self, gamma):
        rep = k_operator_check(gamma, degree=6)
        assert rep.mu1 == Fraction(-1, 2)
        assert rep.mu2 == (1 + gamma) / (2 * (1 + 2 * gamma))
        assert rep.linear_eigen_residual == 0.0
        assert rep.min_formula_value == (1 + 3 * gamma) / (3 * (1 + 2 * gamma))

    def test_closed_form_helper(self):
        assert conditional_moment_eigenvalue(1, Fraction(3)) == Fraction(-1, 2)
        assert conditional_moment_eigenvalue(2, Fraction(1)) == Fraction(1, 3)


class TestGammaBlockIdentity:
    """Criterion 3's exact identity: the symmetric degree-2 block of the
    redistribution model on K_N has eigenvalues {0, -lambda*(N)} in rationals."""

    @pytest.mark.parametrize("gamma,lam", [
        (Fraction(1), Fraction(4, 9)),
        (Fraction(1, 2), Fraction(5, 12)),
        (Fraction(2), Fraction(7, 15)),
    ])
    def test_closed_form_at_three_sites(self, gamma, lam):
        assert verify.sector_closed_form("gamma", 3, gamma) == lam

    @pytest.mark.parametrize("N", [3, 4, 5, 10**6])
    @pytest.mark.parametrize("gamma", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_block_identity(self, gamma, N):
        assert verify.gamma_block_residual(gamma, N) == 0

    def test_criterion_is_exact(self):
        outcome = verify.check_gamma_exact_gap()
        assert outcome.passed
        assert outcome.detail.endswith("exact degree-2 block residual 0")

    @pytest.mark.parametrize("gamma", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_wrong_pair_law_is_detected(self, gamma, monkeypatch):
        # averaging with Beta shape gamma + 1 conserves (sum x)^2 still, but
        # puts the trace at the closed form of gamma + 1: 13/28 against 9/20
        # at gamma = 2, N = 4
        exact = galerkin.pair_average_action
        monkeypatch.setattr(galerkin, "pair_average_action",
                            lambda a, b, gamma: exact(a, b, gamma + 1))
        miss = (verify.sector_closed_form("gamma", 4, gamma + 1)
                - verify.sector_closed_form("gamma", 4, gamma))
        assert verify.gamma_block_residual(gamma, 4) == abs(miss) > 0
        if gamma == 2:
            assert miss == Fraction(1, 70)
        assert not verify.check_gamma_exact_gap().passed


class TestTwoSiteFourier:
    def test_uniform_collapse(self):
        res = two_site_fourier_gap(RhoSpec.uniform())
        assert res.gap == 0.5
        assert res.kappa == 0.5
        assert not res.truncated

    def test_cosine(self):
        # modes 1 and 2 are listed; every mode past 1 relaxes at 1/2, so kappa is exact
        res = two_site_fourier_gap(COSINE_RHO)
        assert res.modes == ((1, 0.25), (2, 0.5))
        assert res.gap == pytest.approx(0.25, abs=1e-12)
        assert res.kappa == pytest.approx(0.5, abs=1e-12)
        assert not res.truncated and "exact" in res.note

    def test_density_lists_the_modes_it_was_transformed_to(self):
        res = two_site_fourier_gap(CARDIOID_RHO)
        assert [n for n, _ in res.modes] == list(range(1, RHO_DENSITY_ORDER + 1))
        assert res.truncated and "not examined" in res.note
        assert res.gap == pytest.approx(0.25, abs=1e-12)
        assert res.kappa == pytest.approx(0.5, abs=1e-12)

    def test_kappa_bounded_by_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)

            def density(theta, amps=amps):
                p = sum(a * np.exp(1j * k * theta) for k, a in enumerate(amps))
                return abs(p) ** 2
            mass = float(sum(abs(a) ** 2 for a in amps) * 2 * math.pi)
            rho = RhoSpec(density=lambda t: density(t) / mass)
            res = two_site_fourier_gap(rho)
            assert res.kappa <= 1.0 + 1e-9

    def test_bound_arithmetic_reproduction(self):
        # pair gap times the collapsed complete-graph value: lam(2) (N+2)/(2N)
        for rho in (RhoSpec.uniform(), COSINE_RHO):
            res = two_site_fourier_gap(rho)
            for N in (3, 4, 6):
                lam_star = (N + 2) / (4 * N)
                lower = 2 * res.gap * lam_star
                assert lower == pytest.approx(res.gap * (N + 2) / (2 * N), abs=1e-14)

    def test_refuses_a_negative_rate(self):
        # Re rho_hat(1) = 1.5 would give mode 1 the rate -1/4, once returned as
        # the gap; no density has such a coefficient, so no spec can carry it
        with pytest.raises(ValueError, match=re.escape("[FAIL] coefficient bound")):
            RhoSpec(coefficients=[1.0, 1.5], name="signed")

    @pytest.mark.parametrize("rho", [COSINE_RHO, VON_MISES_RHO], ids=["cosine", "von-mises"])
    def test_k2_sector_spectrum_is_the_angle_modes(self, rho):
        # on K2 the degree D - 1 and D blocks hold the angle modes k = 0..D
        D = 6
        pair = assemble_galerkin("kac-rho", build_graph("complete", N=2), degree=D, rho=rho)
        sector = galerkin_eigensystem(pair).eigenvalues
        modes = np.array([0.0] + [rate for _, rate in two_site_fourier_gap(rho).modes[:D]])
        dist = np.abs(sector[:, None] - modes[None, :])
        assert dist.min(axis=1).max() < 1e-12
        assert dist.min(axis=0).max() < 1e-12

    def test_rejects_invalid_coefficients(self):
        # Re rho_hat(1) = -1.5 would give mode 1 the rate 1.25, above the bound kappa <= 1
        with pytest.raises(ValueError, match=re.escape("[FAIL] coefficient bound")):
            RhoSpec(coefficients=[1.0, -1.5])
