import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import bounds
from gaplab.bounds import (CertificateRefused, canonical_path, caputo_bound,
                           certificate, lemma_audit, local_gap_lower_bound,
                           path_census, sandwich,
                           RULE_LATTICE, RULE_RECURSION, RULE_SANDWICH)
from gaplab.discrete import (enumerate_states, exact_gap, pair_average_matrix,
                             stationary_weights)
from gaplab.models import G_CONSTANT_ONE, G_IDENTITY, ModelSpec, build_graph


class TestCanonicalPath:
    def test_axis_order(self):
        p = canonical_path((1, 1), (3, 3), d=2, N=3)
        assert p.vertices == ((1, 1), (2, 1), (3, 1), (3, 2), (3, 3))
        assert p.length == 4

    def test_trivial(self):
        assert canonical_path((2, 2), (2, 2), d=2, N=3).length == 0

    def test_descending_line(self):
        p = canonical_path(5, 2, d=1, N=6)
        assert p.vertices == ((5,), (4,), (3,), (2,))
        assert p.length == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            canonical_path((0, 1), (2, 2), d=2, N=3)

    @given(d=st.integers(1, 3), N=st.integers(2, 4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_length_is_l1_distance(self, d, N, data):
        coord = st.tuples(*[st.integers(1, N)] * d)
        x, y = data.draw(coord), data.draw(coord)
        p = canonical_path(x, y, d, N)
        assert p.length == sum(abs(a - b) for a, b in zip(x, y))
        assert p.length <= d * (N - 1)
        for u, v in zip(p.vertices, p.vertices[1:]):
            assert sum(abs(a - b) for a, b in zip(u, v)) == 1


class TestPathCensus:
    def test_max_lengths(self):
        assert path_census(1, 4).max_length == 3
        assert path_census(2, 3).max_length == 4

    def test_line_congestion_exhaustive(self):
        census = path_census(1, 3)
        # oracle: ordered pairs through edge {2,3} are (1,3),(2,3) and reverses
        edge = ((2,), (3,))
        count = 0
        for x in range(1, 4):
            for y in range(1, 4):
                if x == y:
                    continue
                verts = canonical_path(x, y, 1, 3).vertices
                if any({u, v} == {(2,), (3,)} for u, v in zip(verts, verts[1:])):
                    count += 1
        assert count == 4
        assert census.congestion[edge] == 4

    @pytest.mark.parametrize("d,N", [(1, 4), (1, 8), (2, 3), (2, 4), (3, 3)])
    def test_congestion_bounds(self, d, N):
        census = path_census(d, N)
        assert census.holds
        assert census.max_congestion <= N ** (d + 1)
        assert census.max_weighted <= d * N ** (d + 2)

    @pytest.mark.parametrize("d,N", [(d, N) for d in (1, 2, 3) for N in range(2, 6)] + [(4, 3)])
    def test_matches_the_path_loop(self, d, N):
        census = path_census(d, N)
        congestion, weighted, max_len = _loop_census(d, N)
        assert census.congestion == congestion
        assert census.weighted_congestion == weighted
        assert census.max_length == max_len
        assert census.max_congestion == max(congestion.values())
        assert census.max_weighted == max(weighted.values())
        assert all(type(v) is int for v in (*census.congestion.values(),
                                            *census.weighted_congestion.values()))

    @pytest.mark.parametrize("d,N,message", [(1, 1, "invalid size: N = 1 < 2"),
                                             (3, 0, "invalid size: N = 0 < 2"),
                                             (0, 4, "invalid dimension: d = 0"),
                                             (-1, 2, "invalid dimension: d = -1")])
    def test_refuses_an_empty_cube(self, d, N, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            path_census(d, N)


def _loop_census(d, N):
    """Congestion, weighted congestion and longest path, one canonical path at a time."""
    verts = list(itertools.product(range(1, N + 1), repeat=d))
    congestion, weighted, max_len = {}, {}, 0
    for x in verts:
        for y in verts:
            if x == y:
                continue
            path = canonical_path(x, y, d, N)
            max_len = max(max_len, path.length)
            for u, v in zip(path.vertices, path.vertices[1:]):
                e = (u, v) if u <= v else (v, u)
                congestion[e] = congestion.get(e, 0) + 1
                weighted[e] = weighted.get(e, 0) + path.length
    return congestion, weighted, max_len


class TestLemmaAudit:
    def test_small_instance_passes(self):
        graph = build_graph("lattice", d=1, N=3)
        states = enumerate_states(3, 2)
        measure = stationary_weights(G_CONSTANT_ONE, states)
        rep = lemma_audit(states, measure, graph, n_functions=100, seed=1)
        assert rep.passed
        assert rep.max_ratio_transfer <= 1.0 + 1e-9
        assert rep.max_ratio_swap <= 1.0 + 1e-9
        assert rep.observed_swap_constant <= 4.0 + 1e-9
        assert rep.max_ratio_path <= 1.0 + 1e-9

    @pytest.mark.parametrize("n_functions", [0, -3])
    def test_no_functions_is_refused(self, n_functions):
        # an audit of no functions checks nothing and must not read as a pass
        graph = build_graph("lattice", d=1, N=3)
        states = enumerate_states(3, 2)
        measure = stationary_weights(G_IDENTITY, states)
        with pytest.raises(ValueError, match="at least one test function"):
            lemma_audit(states, measure, graph, n_functions=n_functions)

    def test_one_state_is_refused(self):
        # omega = 0 leaves one state, where every centered function is 0
        graph = build_graph("lattice", d=1, N=3)
        states = enumerate_states(3, 0)
        measure = stationary_weights(G_IDENTITY, states)
        with pytest.raises(ValueError, match="at least 2 states"):
            lemma_audit(states, measure, graph)

    @pytest.mark.parametrize("g,d,N,omega", [(G_CONSTANT_ONE, 1, 3, 2), (G_IDENTITY, 2, 2, 3)])
    def test_swap_constant_is_four_times_the_swap_ratio(self, g, d, N, omega):
        graph = build_graph("lattice", d=d, N=N)
        states = enumerate_states(graph.n_sites, omega)
        rep = lemma_audit(states, stationary_weights(g, states), graph, n_functions=50, seed=7)
        assert rep.max_ratio_swap > 0
        assert rep.observed_swap_constant == 4 * rep.max_ratio_swap

    def _audit_with_average(self, monkeypatch, average):
        graph = build_graph("lattice", d=1, N=3)
        states = enumerate_states(3, 3)
        measure = stationary_weights(G_IDENTITY, states)
        monkeypatch.setattr(bounds, "pair_average_matrix", average)
        return lemma_audit(states, measure, graph, n_functions=20, seed=5)

    def test_lazy_average_breaks_the_swap_inequality(self, monkeypatch):
        # (I + P)/2 halves D_xy f, so nu((D f)^2) drops by 4 and the swap
        # inequality, tight up to a factor near 1, fails for some functions
        def lazy(states, measure, x, y):
            P = pair_average_matrix(states, measure, x, y)
            return 0.5 * (scipy.sparse.identity(len(states)) + P)

        rep = self._audit_with_average(monkeypatch, lazy)
        swaps = [v for v in rep.violations if v[0] == "swap"]
        assert not rep.passed and swaps
        for _, fi, key, ratio in swaps:
            assert 0 <= fi < rep.n_functions
            assert key in itertools.combinations(range(rep.n_sites), 2)
            assert ratio > 1.0 + 1e-9
        assert rep.max_ratio_swap == max(v[3] for v in swaps)

    def test_identity_average_makes_the_swap_degenerate(self, monkeypatch):
        # D_xy f = 0 for every f, while the exchange still moves f
        rep = self._audit_with_average(
            monkeypatch, lambda states, measure, x, y: scipy.sparse.identity(len(states)))
        kinds = {v[0] for v in rep.violations}
        assert "swap-degenerate" in kinds and "swap" not in kinds
        assert all(v[3] > 1e-12 for v in rep.violations)

    def test_one_function_is_enough(self):
        graph = build_graph("lattice", d=1, N=3)
        states = enumerate_states(3, 2)
        measure = stationary_weights(G_IDENTITY, states)
        rep = lemma_audit(states, measure, graph, n_functions=1)
        assert rep.checks_run > 0 and rep.passed

    def test_path_ratio_reads_sites_in_vertex_order(self):
        # recompute the canonical-path ratio from the public pieces: site i is
        # graph.vertices[i], and the audit draws f from Philox keyed by the seed
        graph = build_graph("lattice", d=2, N=3)
        states = enumerate_states(graph.n_sites, 2)
        measure = stationary_weights(G_IDENTITY, states)
        rep = lemma_audit(states, measure, graph, n_functions=5, seed=3)
        w, coords = measure.weights, graph.vertices
        site = {v: i for i, v in enumerate(coords)}
        E = {p: pair_average_matrix(states, measure, *p)
             for p in itertools.combinations(range(graph.n_sites), 2)}
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
        worst = 0.0
        for _ in range(5):
            f = rng.standard_normal(len(states))
            f -= w @ f

            def dirichlet(x, y):
                df = E[min(x, y), max(x, y)] @ f - f
                return float(w @ (df * df))

            for a, b in itertools.permutations(range(graph.n_sites), 2):
                path = canonical_path(coords[a], coords[b], graph.d, graph.N)
                idx = [site[v] for v in path.vertices]
                rhs = 96.0 * (len(idx) - 1) * sum(
                    dirichlet(x, y) for x, y in zip(idx, idx[1:]))
                worst = max(worst, dirichlet(a, b) / rhs)
        assert worst > 0
        assert rep.max_ratio_path == pytest.approx(worst, rel=1e-12)

    def test_deterministic_given_seed(self):
        graph = build_graph("lattice", d=1, N=3)
        states = enumerate_states(3, 3)
        measure = stationary_weights(G_IDENTITY, states)
        r1 = lemma_audit(states, measure, graph, n_functions=20, seed=9)
        r2 = lemma_audit(states, measure, graph, n_functions=20, seed=9)
        assert r1.max_ratio_transfer == r2.max_ratio_transfer
        assert r1.max_ratio_swap == r2.max_ratio_swap


class TestCaputoBound:
    def test_fixed_point_at_three(self):
        assert caputo_bound(Fraction(5, 12), 3) == Fraction(5, 12)

    def test_four(self):
        assert caputo_bound(Fraction(5, 12), 4) == Fraction(3, 8)

    def test_degenerate_level(self):
        for N in (2, 5, 17):
            assert caputo_bound(Fraction(1, 3), N) == Fraction(1, N)

    def test_exact_rational_identity(self):
        for N in range(2, 65):
            assert caputo_bound(Fraction(5, 12), N) == Fraction(N + 2, 4 * N)

    def test_floats_pass_through(self):
        assert caputo_bound(5 / 12, 4) == pytest.approx(3 / 8)


class TestLatticeConstants:
    def test_local_bound_values(self):
        assert local_gap_lower_bound(Fraction(1, 4), 1, 10) == Fraction(1, 38400)
        assert local_gap_lower_bound(Fraction(1, 4), 2, 10) == Fraction(1, 76800)


class TestSandwich:
    def test_degenerate_collapse(self):
        for N in (3, 5):
            lam_star = Fraction(N + 2, 4 * N)
            lo, hi = sandwich(Fraction(1, 2), Fraction(1, 2), lam_star)
            assert lo == hi == lam_star

    def test_vacuous_lower(self):
        lo, hi = sandwich(0, 1, 0.4)
        assert lo == 0 and hi == pytest.approx(0.8)

    def test_arithmetic(self):
        lo, hi = sandwich(Fraction(1, 4), Fraction(1, 2), Fraction(5, 12))
        assert (lo, hi) == (Fraction(5, 24), Fraction(5, 12))

    def test_inconsistent(self):
        with pytest.raises(ValueError, match="inconsistent"):
            sandwich(0.9, 0.5, 1.0)

    def test_interval_contains_exact_gap(self):
        # cross-module: exact particle-jump gap sits inside the certified interval
        model = ModelSpec("zero-range", g=G_IDENTITY)
        avg = ModelSpec("simple-average", g=G_IDENTITY)
        graph = build_graph("complete", N=3)
        for om in (1, 2, 4):
            lam = exact_gap(model, graph, om)[0]
            lam_star = exact_gap(avg, graph, om)[0]
            lo, hi = sandwich(1.0, float(om), lam_star)
            assert lo - 1e-9 <= lam <= hi + 1e-9


def _grid_recursion_step(lam3):
    """The recursion step as a minimum over N = 2..1024 and the large-N limit."""
    return min([3 * lam3 - 1] + [caputo_bound(lam3, N) for N in range(2, 1025)])


class TestCertificate:
    def test_recursion_step_equals_the_grid_minimum(self):
        lams = {Fraction(p, q) for q in range(2, 13) for p in range(q // 3 + 1, 2 * q)}
        lams = sorted(lam for lam in lams if lam > Fraction(1, 3))
        assert len(lams) > 50
        for lam3 in lams:
            got = certificate(lam3, Fraction(1), 1).value_of(RULE_RECURSION)
            expect = _grid_recursion_step(lam3)
            assert got == expect and type(got) is type(expect), lam3

    def test_recursion_step_holds_for_every_size(self):
        chain = certificate(Fraction(5, 12), Fraction(1, 2), 1)
        assert "every N >= 2" in chain.steps[0].inequality
        assert "grid" not in chain.inputs

    def test_rotation_chain(self):
        chain = certificate(Fraction(5, 12), Fraction(1, 2), 1)
        assert chain.value_of(RULE_RECURSION) == Fraction(1, 4)
        assert chain.value_of(RULE_LATTICE) == Fraction(1, 384)
        assert chain.value_of(RULE_SANDWICH) == Fraction(1, 384)
        assert chain.interval[0] == Fraction(1, 384)
        assert math.isinf(chain.interval[1])

    def test_redistribution_chain(self):
        chain = certificate(Fraction(4, 9), Fraction(1), 1)
        assert chain.value_of(RULE_RECURSION) == Fraction(1, 3)
        assert chain.value_of(RULE_LATTICE) == Fraction(1, 288)
        assert chain.value_of(RULE_SANDWICH) == Fraction(1, 144)

    def test_boundary_refused(self):
        with pytest.raises(CertificateRefused) as err:
            certificate(Fraction(1, 3), Fraction(1, 2), 1)
        assert "1/3" in err.value.hypothesis

    def test_nonpositive_pair_gap_refused(self):
        with pytest.raises(CertificateRefused) as err:
            certificate(Fraction(5, 12), 0, 1)
        assert "lambda(2)" in err.value.hypothesis

    def test_json_round_trip(self):
        import json
        chain = certificate(Fraction(5, 12), Fraction(1, 2), 2)
        doc = json.loads(json.dumps(chain.to_json()))
        assert doc["steps"][0]["rule"] == RULE_RECURSION
        assert doc["steps"][1]["value"]["fraction"] == "1/768"
        assert doc["interval"][1] == "inf"
        assert all("inequality" in s and s["inequality"] for s in doc["steps"])
