import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.stats
from scipy.sparse.csgraph import connected_components
from hypothesis import given, settings
from hypothesis import strategies as st

import gaplab.discrete as discrete
from gaplab import verify
from gaplab.discrete import (TooLargeError, build_generator,
                             build_simple_average_generator,
                             build_zero_range_generator, enumerate_states,
                             estimated_nnz, exact_gap, exchange_permutation,
                             gap_and_kappa, gap_eigenfunction, kernel_matrix,
                             kernel_spectrum_extremes, pair_average_matrix, rank_states,
                             spectral_gap, stationary_weights, two_site_spectrum)
from gaplab.models import (G_CONSTANT_ONE, G_IDENTITY, ModelSpec, RateFunction,
                           build_graph, model_from_id, pair_law, rate_from_table)
from gaplab.simulate import _Dynamics

GK = G_IDENTITY
G1 = G_CONSTANT_ONE


class TestEnumerateStates:
    def test_counts(self):
        assert len(enumerate_states(3, 2)) == 6
        assert len(enumerate_states(2, 0)) == 1
        assert len(enumerate_states(4, 3)) == 20

    def test_lexicographic_and_bijective(self):
        s = enumerate_states(3, 2)
        rows = [tuple(r) for r in s.states]
        assert rows == sorted(rows)
        assert all(sum(r) == 2 for r in rows)
        for i, r in enumerate(rows):
            assert s.index[r] == i

    def test_cap(self):
        # C(59, 29) states, far past STATE_CAP: refused before any is listed
        with pytest.raises(TooLargeError, match="exceeds the cap"):
            enumerate_states(30, 30)

    @given(V=st.integers(1, 5), omega=st.integers(0, 7), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rank_round_trip_and_exchange_involution(self, V, omega, data):
        s = enumerate_states(V, omega)
        n = len(s)
        assert np.array_equal(rank_states(s, s.states), np.arange(n))
        x = data.draw(st.integers(0, V - 1))
        y = data.draw(st.integers(0, V - 1))
        perm = exchange_permutation(s, x, y)
        assert np.array_equal(perm[perm], np.arange(n))
        for i in range(n):
            swapped = list(s.states[i])
            swapped[x], swapped[y] = swapped[y], swapped[x]
            assert perm[i] == s.index[tuple(swapped)]

    def test_exchange_of_a_named_state(self):
        s = enumerate_states(3, 3)
        perm = exchange_permutation(s, 0, 2)
        assert perm[s.index[(2, 0, 1)]] == s.index[(1, 0, 2)]
        assert perm[s.index[(1, 1, 1)]] == s.index[(1, 1, 1)]

    def test_rank_rejects_foreign_configurations(self):
        s = enumerate_states(3, 2)
        with pytest.raises(ValueError):
            rank_states(s, [[1, 1, 1]])
        with pytest.raises(ValueError):
            rank_states(s, [[3, -1, 0]])


class TestStationaryWeights:
    def test_linear_rate_matches_poisson_conditioning(self):
        # oracle: two iid Poisson(mu) conditioned on sum 2 is Binomial(2, 1/2)
        s = enumerate_states(2, 2)
        m = stationary_weights(GK, s)
        mu = 0.7
        pois = scipy.stats.poisson(mu).pmf
        joint = np.array([pois(a) * pois(2 - a) for a in range(3)])
        oracle = joint / joint.sum()
        got = {tuple(r): w for r, w in zip(map(tuple, s.states), m.weights)}
        assert got[(0, 2)] == pytest.approx(oracle[0], abs=1e-12)
        assert got[(1, 1)] == pytest.approx(oracle[1], abs=1e-12)
        assert got[(2, 0)] == pytest.approx(oracle[2], abs=1e-12)
        assert got[(1, 1)] == pytest.approx(0.5)

    def test_constant_rate_uniform(self):
        s = enumerate_states(2, 2)
        m = stationary_weights(G1, s)
        assert np.allclose(m.weights, 1 / 3)

    def test_symmetry(self):
        s = enumerate_states(3, 1)
        m = stationary_weights(GK, s)
        assert np.allclose(m.weights, 1 / 3)

    def test_normalization(self):
        s = enumerate_states(4, 6)
        m = stationary_weights(GK, s)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_occupations_stay_finite(self):
        g = RateFunction("steep", lambda k: float(k) ** 3)
        s = enumerate_states(2, 60)
        m = stationary_weights(g, s)
        assert np.isfinite(m.weights).all()

    @pytest.mark.parametrize("omega", [1080, 2000])
    def test_underflow_is_refused(self, omega):
        # linear rates on K2: the log-weights span log C(omega, omega/2), more
        # than float64 holds above omega ~ 1075.  The generator would divide by
        # the zero weights; the solve raised ArpackError or returned NaN
        with pytest.raises(ArithmeticError, match="underflow to 0"):
            stationary_weights(GK, enumerate_states(2, omega))
        with pytest.raises(ArithmeticError, match="underflow to 0"):
            exact_gap(ModelSpec("zero-range", g=GK), build_graph("complete", N=2), omega)


def _oracle_simple_average(V, omega, g):
    """Independent dense construction: conditional pmfs from raw factorial weights."""
    import itertools
    states = [s for s in itertools.product(range(omega + 1), repeat=V)
              if sum(s) == omega]
    pos = {s: i for i, s in enumerate(states)}

    def gfact(k):
        out = 1.0
        for j in range(1, k + 1):
            out *= g(j)
        return out

    w = np.array([1.0 / np.prod([gfact(e) for e in s]) for s in states])
    w /= w.sum()
    n = len(states)
    L = np.zeros((n, n))
    for i, s in enumerate(states):
        for x in range(V):
            for y in range(x + 1, V):
                tot = s[x] + s[y]
                splits = []
                for a in range(tot + 1):
                    t = list(s)
                    t[x], t[y] = a, tot - a
                    splits.append(pos[tuple(t)])
                pw = w[splits] / w[splits].sum()
                for j, p in zip(splits, pw):
                    L[i, j] += p / V
                L[i, i] -= 1.0 / V
    return L, w, states


def _per_total_pair_blocks(states, measure, x, y):
    """The conditional average's (rows, cols, vals), one pair total at a time,
    ranking every member of each block."""
    S = states.states
    reps = np.flatnonzero(S[:, x] == 0)
    totals = S[reps, y]
    rows, cols, vals = [], [], []
    for t in np.unique(totals):
        base = S[reps[totals == t]]
        m, size = len(base), int(t) + 1
        split = np.tile(np.arange(size), m)
        members = np.repeat(base, size, axis=0)
        members[:, x] = split
        members[:, y] = t - split
        T = rank_states(states, members).reshape(m, size)
        rows.append(np.repeat(T, size, axis=1).ravel())
        cols.append(np.tile(T, (1, size)).ravel())
        vals.append(np.tile(measure.pair_laws[t], m * size))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


class TestSimpleAverageGenerator:
    def test_two_site_gap_half_any_total(self):
        graph = build_graph("complete", N=2)
        for omega in (1, 3, 7):
            states = enumerate_states(2, omega)
            for g in (G1, GK):
                gen = build_simple_average_generator(graph, states,
                                                     stationary_weights(g, states))
                assert spectral_gap(gen) == pytest.approx(0.5, abs=1e-10)

    def test_dirac_total(self):
        graph = build_graph("complete", N=2)
        states = enumerate_states(2, 0)
        gen = build_simple_average_generator(graph, states,
                                             stationary_weights(G1, states))
        assert spectral_gap(gen) == math.inf

    def test_three_site_matches_oracle(self):
        graph = build_graph("complete", N=3)
        states = enumerate_states(3, 2)
        gen = build_simple_average_generator(graph, states,
                                             stationary_weights(G1, states))
        L_oracle, w_oracle, oracle_states = _oracle_simple_average(3, 2, lambda k: 1.0)
        # same lexicographic order by construction
        assert [tuple(r) for r in states.states] == oracle_states
        assert np.allclose(gen.L.toarray(), L_oracle, atol=1e-12)
        gap = spectral_gap(gen)
        assert gap == pytest.approx(4 / 9, abs=1e-10)
        assert gap > 1 / 3 + 0.05

    @pytest.mark.parametrize("V,omega", [(3, 3), (4, 3), (3, 5)])
    @pytest.mark.parametrize("g", [G1, GK], ids=["constant", "linear"])
    def test_pair_average_matrices_match_oracle(self, V, omega, g):
        states = enumerate_states(V, omega)
        L_oracle, _, oracle_states = _oracle_simple_average(V, omega, g)
        assert [tuple(r) for r in states.states] == oracle_states
        measure = stationary_weights(g, states)
        pairs = [(x, y) for x in range(V) for y in range(x + 1, V)]
        L = sum(pair_average_matrix(states, measure, x, y).toarray() for x, y in pairs)
        L = (L - len(pairs) * np.eye(len(states))) / V
        assert np.allclose(L, L_oracle, atol=1e-12)

    @pytest.mark.parametrize("kind,d,N", [("complete", None, 2), ("complete", None, 3),
                                          ("complete", None, 5), ("lattice", 1, 4),
                                          ("lattice", 2, 2), ("lattice", 2, 3)])
    @pytest.mark.parametrize("g", [G1, GK], ids=["constant", "linear"])
    def test_matches_the_per_total_blocks(self, kind, d, N, g, monkeypatch):
        # bitwise: the sorted state table gives the blocks that ranking each
        # member gave, so L and every pair operator keep their bytes
        graph = build_graph(kind, d=d, N=N)
        for omega in range(7):
            states = enumerate_states(graph.n_sites, omega)
            measure = stationary_weights(g, states)
            pairs = list(itertools.permutations(range(graph.n_sites), 2))
            got = [build_simple_average_generator(graph, states, measure).L]
            got += [pair_average_matrix(states, measure, x, y) for x, y in pairs]
            with monkeypatch.context() as m:
                m.setattr(discrete, "_pair_blocks", _per_total_pair_blocks)
                want = [build_simple_average_generator(graph, states, measure).L]
                want += [pair_average_matrix(states, measure, x, y) for x, y in pairs]
            for a, b in zip(got, want):
                assert a.indptr.tobytes() == b.indptr.tobytes()
                assert a.indices.tobytes() == b.indices.tobytes()
                assert a.data.tobytes() == b.data.tobytes()

    def test_pair_projection_property(self):
        # the conditional-average block E is a projection; D = E - I satisfies D^2 = -D
        states = enumerate_states(3, 3)
        measure = stationary_weights(GK, states)
        E = pair_average_matrix(states, measure, 0, 2).toarray()
        assert np.allclose(E @ E, E, atol=1e-12)
        D = E - np.eye(len(states))
        assert np.allclose(D @ D, -D, atol=1e-12)


class TestZeroRangeGenerator:
    def test_two_site_single_particle(self):
        graph = build_graph("complete", N=2)
        states = enumerate_states(2, 1)
        gen = build_zero_range_generator(graph, states, GK)
        ev = np.sort(np.linalg.eigvals(gen.L.toarray()).real)
        assert ev == pytest.approx([-1.0, 0.0], abs=1e-12)
        assert spectral_gap(gen) == pytest.approx(1.0, abs=1e-10)

    def test_two_site_three_particles(self):
        graph = build_graph("complete", N=2)
        states = enumerate_states(2, 3)
        gen = build_zero_range_generator(graph, states, GK)
        assert spectral_gap(gen) == pytest.approx(1.0, abs=1e-10)

    @given(V=st.integers(2, 4), omega=st.integers(1, 5),
           linear=st.booleans(), lattice=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_generator_invariants(self, V, omega, linear, lattice):
        g = GK if linear else G1
        graph = build_graph("lattice", d=1, N=V) if lattice else build_graph("complete", N=V)
        states = enumerate_states(V, omega)
        gen = build_zero_range_generator(graph, states, g)
        assert gen.row_sum_residual() < 1e-10
        assert gen.symmetry_residual() < 1e-9
        assert gen.spectrum().min() > -1e-9


class TestSpectralGap:
    def test_single_site_infinite(self):
        states = enumerate_states(1, 4)
        graph = build_graph("complete", N=2)  # unused; dim-1 short-circuits
        gen = build_zero_range_generator(build_graph("lattice", d=1, N=2),
                                         enumerate_states(2, 0), G1)
        assert spectral_gap(gen) == math.inf
        assert len(states) == 1

    def test_construction_bug_detected(self):
        graph = build_graph("complete", N=2)
        states = enumerate_states(2, 2)
        gen = build_zero_range_generator(graph, states, GK)
        gen.L *= -1.0  # sabotage: positive spectrum
        with pytest.raises(ArithmeticError, match="not negative semidefinite"):
            spectral_gap(gen)

    @pytest.mark.parametrize("omega, solver", [(3, "dense"), (500, "eigsh")])
    def test_non_finite_eigenvalues_detected(self, omega, solver, monkeypatch):
        # every comparison with NaN is false, so a NaN gap passed the null,
        # semidefiniteness and zero-mode checks and came back as the answer
        def nan_eigh(a):
            return np.full(len(a), np.nan), np.full(a.shape, np.nan)

        def nan_eigsh(op, k, **kwargs):
            return np.full(k, np.nan), np.full((op.shape[0], k), np.nan)

        monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", nan_eigsh)
        gen = build_zero_range_generator(build_graph("complete", N=2),
                                         enumerate_states(2, omega), GK)
        with pytest.raises(ArithmeticError, match="non-finite"):
            gap_and_kappa(gen)
        assert gen.solve_report.solver == solver

    def test_non_finite_kappa_detected(self, monkeypatch):
        # the gap comes from eigsh and is finite; kappa alone is poisoned
        def nan_lanczos(S, v0):
            return math.nan, np.full(S.shape[0], math.nan), 1

        monkeypatch.setattr(discrete, "_lanczos_bottom", nan_lanczos)
        gen = build_zero_range_generator(build_graph("complete", N=2),
                                         enumerate_states(2, 500), GK)
        assert spectral_gap(gen) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ArithmeticError, match="non-finite"):
            gap_and_kappa(gen)
        assert gen.solve_report.solver == "eigsh"

    @pytest.mark.parametrize("N, omega", [(3, 6), (4, 5)])
    def test_wrong_weights_are_refused_on_the_dense_path(self, N, omega):
        # weights off by 1e-5 relative noise: sqrt(pi) is no zero mode of S, yet
        # the dense solve once returned gap 0.9999999999 without checking it
        gen = build_zero_range_generator(build_graph("complete", N=N),
                                         enumerate_states(N, omega), GK)
        noise = np.random.default_rng(1).standard_normal(gen.dim)
        gen.measure = dataclasses.replace(gen.measure,
                                          weights=gen.measure.weights * (1 + 1e-5 * noise))
        with pytest.raises(ArithmeticError, match="not a zero mode"):
            spectral_gap(gen)
        assert gen.dim <= 400

    @pytest.mark.parametrize("eigenvalues, gap, null, refusal", [
        ([0.0, 0.5], 0.5, math.nan, "non-finite"),
        ([0.0, 0.5], 0.5, 2e-8, "not a zero mode"),
        ([-2e-9, 0.5], 0.5, 0.0, "not negative semidefinite"),
        ([0.0, 1e-8], 1e-8, 0.0, "not above"),
    ])
    def test_acceptance_rule(self, eigenvalues, gap, null, refusal):
        discrete.check_spectrum("spectrum", [-1e-9, 0.5], 0.5, 1e-8)
        with pytest.raises(ArithmeticError, match=refusal):
            discrete.check_spectrum("spectrum", eigenvalues, gap, null)


def _two_pairs():
    """Sites {0, 1} and {2, 3} with no edge between them: totals conserved per pair.

    No InteractionGraph has these edges, so the builder gets a stand-in with
    the three attributes it reads.
    """
    return SimpleNamespace(n_sites=4, edges=((0, 1), (2, 3)), pair_scaling=0.5)


class TestSparseSolve:
    # n between 500 and 1,500, both families, lattice and complete graphs
    CASES = [
        ("zero-range", G1, "lattice", 1, 6, 7),         # 792 states
        ("zero-range", GK, "complete", None, 4, 14),    # 680
        ("simple-average", GK, "complete", None, 5, 9),  # 715
        ("simple-average", G1, "lattice", 2, 2, 14),    # 680
    ]

    @pytest.mark.parametrize("family,g,kind,d,N,omega", CASES)
    def test_eigsh_matches_dense(self, family, g, kind, d, N, omega):
        graph = build_graph(kind, d=d, N=N)
        states = enumerate_states(graph.n_sites, omega)
        assert 500 <= len(states) <= 1500
        gen = build_generator(ModelSpec(family, g=g), graph, states)
        assert scipy.sparse.issparse(gen.L) and scipy.sparse.issparse(gen.symmetrized())
        gap, kappa = gap_and_kappa(gen)
        report = gen.solve_report
        assert report.solver == "eigsh" and report.zero_modes == 1
        assert report.nnz == gen.L.nnz <= estimated_nnz(ModelSpec(family, g=g), graph, omega)
        assert report.residual < 1e-9
        ev = np.linalg.eigvalsh(gen.symmetrized().toarray())
        assert gap == pytest.approx(-ev[-2], abs=1e-10)
        assert kappa == pytest.approx(-ev[0], abs=1e-10)
        assert spectral_gap(gen) == pytest.approx(gap, abs=1e-10)
        lam, f = gap_eigenfunction(gen)
        assert lam == pytest.approx(gap, abs=1e-10)
        w = gen.measure.weights
        Lf = gen.L @ f
        assert np.abs(Lf + lam * f).max() < 1e-8
        assert w @ (f * f) == pytest.approx(1.0, abs=1e-10)
        assert abs(w @ f) < 1e-10
        # the residual covers the zero mode sqrt(pi), which eigsh never sees
        assert np.linalg.norm(gen.symmetrized() @ np.sqrt(w)) <= report.residual * (1 + 1e-9)

    @pytest.mark.parametrize("make", [
        lambda: build_zero_range_generator(_two_pairs(), enumerate_states(4, 12), GK),
        lambda: build_generator(ModelSpec("zero-range", g=G1), build_graph("complete", N=4),
                                enumerate_states(4, 14)),
    ], ids=["two-pairs-13-components", "K4-connected"])
    def test_deflation_matches_label_sums(self, make):
        # Q Q^T x through the sparse n-by-z Q sums each component in index
        # order, as bincounts over the component labels do, so the shifted
        # operator, the gap and its eigenvector are the same bits
        gen = make()
        n = gen.dim
        _, labels = connected_components(gen.L, directed=False)
        S = gen.symmetrized()
        q = np.sqrt(gen.measure.weights)
        q /= np.sqrt(np.bincount(labels, q * q))[labels]
        c = 2.0 * np.abs(S.diagonal()).max()

        def along_q(x):
            return q * np.bincount(labels, q * x)[labels]

        op = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=lambda x: S @ x - c * along_q(x), dtype=float)
        v0 = np.random.default_rng(0).standard_normal(n)
        lam, vec = scipy.sparse.linalg.eigsh(op, k=1, which="LA", v0=v0 - along_q(v0),
                                             tol=1e-11)
        gap, f = gap_eigenfunction(gen)
        assert gen.solve_report.solver == "eigsh"
        assert gap == -lam[0]
        assert np.array_equal(f, vec[:, 0] / np.sqrt(gen.measure.weights))

    def test_small_instances_solve_dense(self):
        graph = build_graph("complete", N=3)
        gen = build_generator(ModelSpec("zero-range", g=GK), graph, enumerate_states(3, 5))
        assert gap_and_kappa(gen) == (pytest.approx(1.0, abs=1e-12), pytest.approx(5.0, abs=1e-12))
        assert gen.solve_report.solver == "dense"
        assert gen.solve_report.residual < 1e-12

    @pytest.mark.parametrize("omega", [3, 12])   # 20 states (dense), 455 (eigsh)
    def test_disconnected_zero_modes(self, omega):
        # one zero mode per split of the total between the two pairs; every
        # pair with a particle has gap 1 under linear rates
        states = enumerate_states(4, omega)
        gen = build_zero_range_generator(_two_pairs(), states, GK)
        gap, kappa = gap_and_kappa(gen)
        assert gen.solve_report.zero_modes == omega + 1
        assert gen.solve_report.solver == ("dense" if omega == 3 else "eigsh")
        assert gap == pytest.approx(1.0, abs=1e-9)
        assert spectral_gap(gen) == pytest.approx(1.0, abs=1e-9)
        lam, f = gap_eigenfunction(gen)
        assert lam == pytest.approx(1.0, abs=1e-9)
        assert np.abs(gen.L @ f + lam * f).max() < 1e-8
        assert kappa == pytest.approx(float(omega), abs=1e-8)
        # f has pi-mean 0 on every component, not only overall
        _, labels = connected_components(gen.L, directed=False)
        w = gen.measure.weights
        assert np.abs(np.bincount(labels, w * f)).max() < 1e-10

    @pytest.mark.parametrize("shift", [1e-9, 1e-3])
    def test_zero_mode_off_null(self, shift):
        # L - shift * I moves every eigenvalue, sqrt(pi)'s too: S sqrt(pi) =
        # -shift sqrt(pi).  Below the zero tolerance that shows as the residual;
        # above it the solve refuses instead of reporting gap + shift
        graph = build_graph("complete", N=4)
        gen = build_generator(ModelSpec("zero-range", g=GK), graph, enumerate_states(4, 14))
        assert gen.dim == 680
        gen.L = (gen.L - shift * scipy.sparse.identity(gen.dim, format="csr")).tocsr()
        if shift < discrete.ZERO_TOL:
            gap, _ = gap_and_kappa(gen)
            assert gen.solve_report.solver == "eigsh"
            assert gap == pytest.approx(1.0 + shift, abs=1e-10)
            assert gen.solve_report.residual >= shift * (1 - 1e-6)
        else:
            with pytest.raises(ArithmeticError, match="not a zero mode"):
                spectral_gap(gen)

    def test_preflight_refuses_before_enumerating(self, monkeypatch):
        model = ModelSpec("simple-average", g=GK)
        k4 = build_graph("complete", N=4)
        # 585,276 states and about 267M stored entries at omega = 150
        assert estimated_nnz(model, k4, 150) == pytest.approx(2.67e8, rel=0.01)

        def refuse(*args, **kwargs):
            raise AssertionError("states enumerated despite the preflight")

        monkeypatch.setattr(discrete, "enumerate_states", refuse)
        # about 1.2e9 stored entries, over 100 GiB
        with pytest.raises(TooLargeError, match="physical memory"):
            exact_gap(model, k4, 220)

    @pytest.mark.parametrize("model", [ModelSpec("kac-uniform"), model_from_id("kac-rho"),
                                       model_from_id("gamma-exchange")],
                             ids=["kac-uniform", "kac-rho", "gamma-exchange"])
    def test_continuous_family_refused_before_enumerating(self, model, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("states enumerated for a continuous family")

        monkeypatch.setattr(discrete, "enumerate_states", refuse)
        with pytest.raises(ValueError, match="exact diagonalization covers the integer "
                                             "families; use gap-galerkin or gap-mc"):
            exact_gap(model, build_graph("complete", N=3), 2)

    def test_preflight_lists_no_edges(self):
        graph = build_graph("complete", N=2000)
        with pytest.raises(TooLargeError, match="physical memory"):
            exact_gap(ModelSpec("zero-range", g=GK), graph, 50)
        assert "edges" not in graph.__dict__


class TestKappaLanczos:
    def test_matches_arpack_on_a_clustered_top(self):
        # zero-range g = 1 on K4 at omega = 30: the next eigenvalue of -S is
        # 5.7e-7 below the top, where ARPACK takes 821 matvecs
        gen = build_generator(ModelSpec("zero-range", g=G1), build_graph("complete", N=4),
                              enumerate_states(4, 30))
        assert gen.dim == 5456
        _, kappa = gap_and_kappa(gen)
        report = gen.solve_report
        S = gen.symmetrized()
        v0 = np.random.default_rng(0).standard_normal(gen.dim)
        bottom = scipy.sparse.linalg.eigsh(S, k=1, which="SA", v0=v0, tol=1e-11,
                                           return_eigenvectors=False)
        assert kappa == pytest.approx(-bottom[0], rel=1e-12)
        assert report.solver == "eigsh" and 0 < report.kappa_steps < 10 * gen.dim
        assert report.residual < 1e-9
        spectral_gap(gen)
        assert gen.solve_report.kappa_steps == 0

    def test_eigenvector_start_breaks_down_at_step_one(self):
        d = np.array([3.0, 0.1, 7.25, 1.5, 2.0])
        start = np.zeros(len(d))
        start[2] = 4.0
        theta, x, steps = discrete._lanczos_bottom(scipy.sparse.diags(d).tocsr(), start)
        # the invariant span{e_2} ends the recurrence: its eigenvalue, not
        # the bottom of the spectrum, and exactly
        assert (theta, steps) == (7.25, 1)
        assert np.array_equal(x, np.eye(len(d))[2])

    def test_step_cap_refused(self):
        # 1000 distinct eigenvalues 1e-3 apart: far more than 15 steps to converge
        S = scipy.sparse.diags(np.linspace(1.0, 2.0, 1000)).tocsr()
        v0 = np.random.default_rng(0).standard_normal(1000)
        with pytest.raises(ArithmeticError, match="did not converge in 15 steps"):
            discrete._lanczos_bottom(S, v0, max_steps=15)

    def test_non_finite_operator_stops_at_once(self):
        S = scipy.sparse.diags([1.0, math.nan, 2.0]).tocsr()
        theta, x, steps = discrete._lanczos_bottom(S, np.ones(3))
        assert math.isnan(theta) and np.isnan(x).all() and steps == 1

    def test_lattice_comparison_solves_no_kappa(self, monkeypatch):
        # the check reads gaps alone; its 495- and 1,287-state cells take the
        # eigsh branch, where a kappa solve would run the recurrence
        def refuse(S, v0, **kwargs):
            raise AssertionError("kappa solved")

        monkeypatch.setattr(discrete, "_lanczos_bottom", refuse)
        outcome = verify.check_lattice_comparison(fast=False)
        assert outcome.passed, outcome.detail


G_INVERSE = rate_from_table([(k, 1.0 + 1.0 / k) for k in range(1, 61)],
                            name="one-plus-inverse")


class TestTwoSiteSpectrum:
    def test_linear_rate(self):
        table = two_site_spectrum(ModelSpec("zero-range", g=GK), range(1, 11))
        for row in table.rows:
            assert row.gap == pytest.approx(1.0, abs=1e-9)
            assert row.kappa == pytest.approx(float(row.omega), abs=1e-9)
        assert table.inf_gap == pytest.approx(1.0, abs=1e-9)
        # criterion 7 checks lambda_2 = 1 <= kappa(1) with no tolerance
        assert table.rows[0].kappa == 1.0

    @pytest.mark.parametrize("g", [G1, GK, G_INVERSE], ids=lambda g: g.name)
    def test_zero_range_matches_exact_engine(self, g):
        model = ModelSpec("zero-range", g=g)
        table = two_site_spectrum(model, range(61))
        assert table.solver == "tridiagonal"
        assert table.max_residual < 1e-12
        k2 = build_graph("complete", N=2)
        for row in table.rows[1:]:
            gap, kappa, _ = exact_gap(model, k2, row.omega)
            assert row.gap == pytest.approx(gap, rel=1e-10, abs=0)
            assert row.kappa == pytest.approx(kappa, rel=1e-10, abs=0)

    @pytest.mark.parametrize("g", [G1, GK, G_INVERSE], ids=lambda g: g.name)
    def test_simple_average_is_the_projection(self, g):
        # on two sites the pair average is the projection onto constants at
        # fixed total: -S = s (I - Pi), gap and kappa both the pair scaling 1/2
        model = ModelSpec("simple-average", g=g)
        table = two_site_spectrum(model, range(61))
        assert table.solver == "projection" and table.max_residual == 0.0
        assert table.rows[0].gap == table.rows[0].kappa == math.inf
        k2 = build_graph("complete", N=2)
        for row in table.rows[1:]:
            assert row.gap == row.kappa == 0.5
            gap, kappa, _ = exact_gap(model, k2, row.omega)
            assert gap == pytest.approx(0.5, abs=1e-12)
            assert kappa == pytest.approx(0.5, abs=1e-12)

    def test_reach_beyond_the_exact_engine(self):
        # the exact engine's weights underflow above omega ~ 1075 with linear
        # rates; the pair chain's entries hold no factorials.  With g = 1 the
        # chain is the reflecting walk: eigenvalues 1 - cos(pi k / (omega + 1))
        omega = 5000
        linear = two_site_spectrum(ModelSpec("zero-range", g=GK), [omega]).rows[0]
        assert linear.gap == pytest.approx(1.0, rel=1e-12)
        assert linear.kappa == pytest.approx(float(omega), rel=1e-12)
        walk = two_site_spectrum(ModelSpec("zero-range", g=G1), [omega])
        h = math.pi / (omega + 1)
        assert walk.rows[0].gap == pytest.approx(2 * math.sin(h / 2) ** 2, rel=1e-9)
        assert walk.rows[0].kappa == pytest.approx(1 + math.cos(h), rel=1e-12)
        assert walk.max_residual < 1e-12

    @pytest.mark.parametrize("omega", [9000, 12000])
    def test_zero_mode_tolerance_scales_with_kappa(self, omega):
        # ||T sqrt(pi)|| reaches 1.3e-8 at omega = 9000 with linear rates,
        # above the absolute ZERO_TOL, while the gap is still exactly 1
        row = two_site_spectrum(ModelSpec("zero-range", g=GK), [omega]).rows[0]
        assert row.gap == pytest.approx(1.0, abs=1e-8)
        assert row.kappa == pytest.approx(float(omega), abs=1e-8)

    def test_sqrt_pi_off_null_is_refused(self, monkeypatch):
        # a pair law that is not the chain's stationary law
        def tilted(lgf, s):
            pmf, log_norm = pair_law(lgf, s)
            pmf = pmf * np.arange(1, s + 2)
            return pmf / pmf.sum(), log_norm

        monkeypatch.setattr(discrete, "pair_law", tilted)
        with pytest.raises(ArithmeticError, match="not a zero mode"):
            two_site_spectrum(ModelSpec("zero-range", g=G1), range(1, 4))

    @pytest.mark.parametrize("model_id, kwargs", [
        ("gamma-exchange", {"gamma": 2}), ("kac", {}), ("kac-rho", {}),
    ])
    def test_continuous_families_are_refused(self, model_id, kwargs):
        model = model_from_id(model_id, **kwargs)
        with pytest.raises(ValueError, match=model.family):
            two_site_spectrum(model, range(1, 4))

    def test_negative_total_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            two_site_spectrum(ModelSpec("simple-average", g=G1), [2, -1])

    def test_constant_rate_decays(self):
        # oracle: the pair chain is a reflecting nearest-neighbor walk on
        # {0..omega}; its halved tridiagonal form has an explicit spectrum
        table = two_site_spectrum(ModelSpec("zero-range", g=G1), range(1, 31))
        gaps = [r.gap for r in table.rows]
        assert table.trend == "nonincreasing"
        assert gaps[-1] < 0.01
        for row in table.rows:
            om = row.omega
            diag = np.full(om + 1, 1.0)
            diag[0] = diag[-1] = 0.5
            off = np.full(om, -0.5)
            ev = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
            assert row.gap == pytest.approx(np.sort(ev)[1], abs=1e-9)

    def test_dirac_row(self):
        table = two_site_spectrum(ModelSpec("zero-range", g=G1), [0])
        assert table.rows[0].gap == math.inf
        assert table.rows[0].kappa == math.inf

    def test_empty_range(self):
        with pytest.raises(ValueError, match="empty"):
            two_site_spectrum(ModelSpec("zero-range", g=G1), [])


class TestKernelMatrix:
    def test_constant_rate_two(self):
        km = kernel_matrix(G1, 2)
        assert np.allclose(km.matrix, [[0, 1], [0.5, 0.5]], atol=1e-12)
        # quadratic-formula oracle for the 2x2 spectrum
        tr, det = km.matrix.trace(), np.linalg.det(km.matrix)
        disc = math.sqrt(tr * tr - 4 * det)
        roots = sorted([(tr - disc) / 2, (tr + disc) / 2])
        assert km.spectrum == pytest.approx(roots, abs=1e-12)
        assert km.spectrum == pytest.approx([-0.5, 1.0], abs=1e-12)

    def test_constant_rate_three(self):
        km = kernel_matrix(G1, 3)
        expect = np.array([[0, 0, 1], [0, 0.5, 0.5], [1 / 3, 1 / 3, 1 / 3]])
        assert np.allclose(km.matrix, expect, atol=1e-12)
        # characteristic-polynomial oracle
        roots = np.sort(np.roots(np.poly(expect)))
        assert km.spectrum == pytest.approx(roots, abs=1e-9)
        rest = sorted(set(np.round(km.spectrum, 9)) - {1.0})
        assert rest == pytest.approx([-0.5, 1 / 3], abs=1e-9)

    def test_linear_rate_two(self):
        km = kernel_matrix(GK, 2)
        assert np.allclose(km.matrix, [[0, 1], [0.5, 0.5]], atol=1e-12)

    @given(n=st.integers(1, 25), linear=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_rows_stochastic(self, n, linear):
        km = kernel_matrix(GK if linear else G1, n)
        assert np.abs(km.matrix.sum(axis=1) - 1.0).max() < 1e-12
        assert km.detailed_balance_residual < 1e-12

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_closed_form_spectra(self, n):
        # raw (unsymmetrized) eigenvalues as an independent route
        ev1 = np.sort(np.linalg.eigvals(kernel_matrix(G1, n).matrix).real)
        assert ev1 == pytest.approx(sorted((-1.0) ** j / (j + 1) for j in range(n)),
                                    abs=1e-9)
        ev2 = np.sort(np.linalg.eigvals(kernel_matrix(GK, n).matrix).real)
        assert ev2 == pytest.approx(sorted((-0.5) ** j for j in range(n)), abs=1e-9)


    @pytest.mark.parametrize("g", [G1, GK], ids=lambda g: g.name)
    def test_matches_the_loop_it_replaced(self, g):
        # entries are exp(lw - max) / sum where the loop took exp(lw - log_norm):
        # one rounding apart; the log normalizers, hence pi, are the same floats
        for n in range(1, 61):
            K_ref, pi_ref = _loop_kernel_matrix(g, n)
            km = kernel_matrix(g, n)
            assert ((km.matrix == 0) == (K_ref == 0)).all()
            assert np.abs(km.matrix - K_ref).max() < 1e-14
            assert km.stationary.tobytes() == pi_ref.tobytes()
            S_ref = (np.sqrt(pi_ref)[:, None] * K_ref) / np.sqrt(pi_ref)[None, :]
            spec_ref = np.linalg.eigvalsh(0.5 * (S_ref + S_ref.T))
            assert np.abs(km.spectrum - spec_ref).max() < 1e-13

    def test_detailed_balance_failure_raises(self, monkeypatch):
        # a pair law that favours one site breaks reversibility; there is no
        # silent fallback to a non-symmetric eigensolver
        def tilted(lgf, s):
            pmf, log_norm = pair_law(lgf, s)
            pmf = pmf * np.arange(1, s + 2)
            return pmf / pmf.sum(), log_norm

        monkeypatch.setattr(discrete, "pair_law", tilted)
        with pytest.raises(ArithmeticError, match="detailed-balance"):
            kernel_matrix(G1, 6)


def _loop_kernel_matrix(g, n):
    """The entry-by-entry kernel assembly that `kernel_matrix` replaced: (K, pi)."""
    lgf = g.log_factorials(n - 1)
    K = np.zeros((n, n))
    log_norm = np.empty(n)
    for i in range(1, n + 1):
        terms = np.array([-(lgf[l] + lgf[i - 1 - l]) for l in range(i)])
        m = terms.max()
        log_norm[i - 1] = m + math.log(np.exp(terms - m).sum())
        for j in range(1, n + 1):
            m_occ = n - j
            if i > m_occ:
                K[i - 1, j - 1] = math.exp(-(lgf[m_occ] + lgf[i - 1 - m_occ]) - log_norm[i - 1])
    lpi = np.array([-lgf[n - i] + log_norm[i - 1] for i in range(1, n + 1)])
    lpi -= lpi.max()
    pi = np.exp(lpi)
    return K, pi / pi.sum()


G_TABLE = rate_from_table([(k, 1.0 + 0.5 * (k % 3) + 0.1 * k) for k in range(1, 13)],
                          name="wiggly")


class TestPairLaw:
    """The integer pair law P(a | s) of models.pair_law against every engine that uses it."""

    @pytest.mark.parametrize("g", [G1, GK, G_TABLE], ids=lambda g: g.name)
    @pytest.mark.parametrize("s", range(13))
    def test_engines_agree(self, g, s):
        pmf, _ = pair_law(g.log_factorials(s), s)
        # exact engine: every row of the K2 pair average at total s
        states = enumerate_states(2, s)
        P = pair_average_matrix(states, stationary_weights(g, states), 0, 1).toarray()
        assert np.abs(P - pmf[None, :]).max() < 1e-14
        # three-site reduction: the last kernel row, column j holding a = n - j
        km = kernel_matrix(g, s + 1)
        assert np.abs(km.matrix[-1] - pmf[::-1]).max() < 1e-14
        # simulator: the outcome weights of a pair of total s, bit for bit
        dyn = _Dynamics(ModelSpec("simple-average", g=g), build_graph("complete", N=2))
        _, weights, xs, ys = dyn.outcomes(np.array([s, 0], dtype=np.int64), 0, 1)
        assert weights.tobytes() == pmf.tobytes()
        assert list(xs) == list(range(s + 1)) and list(ys) == list(range(s, -1, -1))

    @pytest.mark.parametrize("g", [G1, GK, G_TABLE], ids=lambda g: g.name)
    def test_generator_block_rows_are_the_pair_law(self, g):
        # every block of the pair (x, y) with pair total t has the row pair_law(lgf, t),
        # bit for bit: in the pair average and, scaled, off the generator's diagonal
        graph = build_graph("complete", N=3)
        states = enumerate_states(3, 5)
        measure = stationary_weights(g, states)
        gen = build_generator(ModelSpec("simple-average", g=g), graph, states)
        lgf = g.log_factorials(states.omega)
        for (x, y) in graph.edges:
            P = pair_average_matrix(states, measure, x, y)
            for i, row in enumerate(states.states):
                t = int(row[x] + row[y])
                members = np.repeat(row[None, :], t + 1, axis=0)
                members[:, x] = np.arange(t + 1)
                members[:, y] = t - members[:, x]
                block = rank_states(states, members)
                pmf = pair_law(lgf, t)[0]
                assert P[i, block].toarray().ravel().tobytes() == pmf.tobytes()
                off = block != i
                moves = gen.L[i, block[off]].toarray().ravel()
                assert moves.tobytes() == (graph.pair_scaling * pmf[off]).tobytes()

    @pytest.mark.parametrize("s", range(13))
    def test_linear_rate_normalizer(self, s):
        # sum_a 1/(a! (s-a)!) = 2^s / s!
        _, log_norm = pair_law(GK.log_factorials(s), s)
        assert math.exp(log_norm) == pytest.approx(2.0 ** s / math.factorial(s), rel=1e-13)


class TestKernelExtremes:
    def test_constant_rate(self):
        ext = kernel_spectrum_extremes(G1, 40)
        assert ext.mu2 == pytest.approx(1 / 3, abs=1e-6)
        assert ext.mu1 == pytest.approx(-0.5, abs=1e-9)
        assert ext.mu1 > -1.0

    def test_linear_rate(self):
        ext = kernel_spectrum_extremes(GK, 40)
        assert ext.mu2 == pytest.approx(1 / 4, abs=1e-6)
        assert ext.mu1 == pytest.approx(-0.5, abs=1e-9)
        assert ext.mu1 > -1.0

    def test_needs_two(self):
        with pytest.raises(ValueError):
            kernel_spectrum_extremes(G1, 1)

    @pytest.mark.parametrize("g", [G1, GK], ids=lambda g: g.name)
    def test_sweep_equals_one_kernel_at_a_time(self, g):
        rows = []
        for n in range(2, 101):
            ev = kernel_matrix(g, n).spectrum
            rest = np.delete(ev, int(np.argmin(np.abs(ev - 1.0))))
            rows.append((n, float(rest.min()), float(rest.max())))
        ext = kernel_spectrum_extremes(g, 100)
        assert ext.table == tuple(rows)
        assert (ext.mu1, ext.mu2) == (min(r[1] for r in rows), max(r[2] for r in rows))


class TestIterativeEigenPath:
    @pytest.mark.slow
    def test_large_state_space_free_particles(self):
        # above the dense cutoff the extremal solve takes over; linear rates
        # on the complete graph are independent walkers, so the gap is exactly 1
        model = ModelSpec("zero-range", g=GK)
        graph = build_graph("complete", N=3)
        gap, kappa, dim = exact_gap(model, graph, 100)
        assert dim == 5151
        assert gap == pytest.approx(1.0, abs=1e-8)
        assert kappa == pytest.approx(100.0, abs=1e-6)


class TestCaputoRecursionInvariant:
    @pytest.mark.slow
    @pytest.mark.parametrize("g", [G1, GK], ids=["constant", "linear"])
    def test_recursion_lower_bound(self, g):
        model = ModelSpec("simple-average", g=g)
        lam3 = min(exact_gap(model, build_graph("complete", N=3), om)[0]
                   for om in range(1, 13))
        for N in (3, 4, 5):
            graph = build_graph("complete", N=N)
            for om in range(1, 13):
                lam, _, _ = exact_gap(model, graph, om)
                bound = (3 * lam3 - 1) * (1 - 2 / N) + 1 / N
                assert lam >= bound - 1e-9, (N, om, lam, bound)
