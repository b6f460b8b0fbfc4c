import importlib
from fractions import Fraction

import pytest

from proxrem.constructions import (
    FIG1_SIGMA,
    ConstructionSpec,
    bipartite_T1,
    bipartite_blowup,
    bipartite_equal,
    build,
    check_expected,
    dicycle,
    extremal_tournament,
    fig1_blowup,
    fig1_graph,
    ham_extremal,
    hub_digraph,
)
from proxrem.digraph import (
    Digraph,
    NotStrongError,
    degree_summary,
    is_regular,
    is_strong,
    is_symmetric,
    is_tournament,
)
from proxrem.metrics import (
    distance_layers,
    proximity_remoteness,
    radius_diameter,
    sigma_ecc_vectors,
)

from oracles import bfs_distances, bipartite_facts_oracle, brute_isomorphic
from test_metrics import kernel_runs, sweeps  # noqa: F401  (fixtures)

constructions_mod = importlib.import_module("proxrem.constructions")


class TestDicycle:
    def test_small(self):
        D = dicycle(3)
        assert D.m == 3
        assert proximity_remoteness(D)[0] == Fraction(3, 2)

    def test_n2_is_complete(self):
        D = dicycle(2)
        assert D.m == 2 and proximity_remoteness(D)[0] == 1

    def test_six(self):
        pi, rho, _ = proximity_remoteness(dicycle(6))
        assert pi == rho == 3

    def test_too_small(self):
        with pytest.raises(ValueError):
            dicycle(1)


class TestExtremalTournament:
    def test_n3_is_directed_triangle(self):
        assert brute_isomorphic(extremal_tournament(3), dicycle(3))

    def test_n5(self):
        T = extremal_tournament(5)
        _, rho, _ = proximity_remoteness(T)
        assert rho == Fraction(5, 2)
        assert [layer.bit_count() for layer in distance_layers(T.rows, T.n, 0)] == [1, 1, 1, 1, 1]

    def test_n4_sigma_and_degree(self):
        T = extremal_tournament(4)
        sigmas, _ = sigma_ecc_vectors(T)
        assert sigmas[0] == 6
        assert T.rows[0].bit_count() == 1

    def test_remoteness_range(self):
        for n in range(3, 41):
            T = extremal_tournament(n)
            assert is_tournament(T) and is_strong(T)
            _, rho, _ = proximity_remoteness(T)
            assert rho == Fraction(n, 2)


class TestHubDigraph:
    def test_rad_one(self):
        assert radius_diameter(hub_digraph(5, 3))[0] == 1

    def test_diam_exceeds_twice_rad(self):
        rad, diam = radius_diameter(hub_digraph(4, 1))
        assert diam == 3 > 2 * rad

    def test_n3_c2(self):
        D = hub_digraph(3, 2)
        assert D.m == 5 and is_strong(D)

    def test_invariants_grid(self):
        for n in range(3, 16):
            for c in range(1, n):
                D = hub_digraph(n, c)
                rad, diam = radius_diameter(D)
                _, rho, _ = proximity_remoteness(D)
                assert rad == 1 and diam == n - 1
                assert rho == Fraction(n, 2)

    def test_c_out_of_range(self):
        with pytest.raises(ValueError):
            hub_digraph(5, 5)


class TestHamExtremal:
    def test_minimal_member_is_dicycle(self):
        assert ham_extremal(5, [(4, 0)]) == dicycle(5)

    def test_full_backward_closure(self):
        n = 6
        arcs = [(a, b) for a in range(n) for b in range(a)]
        D = ham_extremal(n, arcs)
        sigmas, eccs = sigma_ecc_vectors(D)
        assert eccs[0] == n - 1
        assert Fraction(max(sigmas), n - 1) == Fraction(n, 2)

    def test_empty_not_strong(self, sweeps):
        with pytest.raises(NotStrongError) as err:
            ham_extremal(4, [])
        assert err.value.pair == (1, 0)
        assert sweeps == []  # the pair comes from the kernel memo

    def test_forward_shortcut_rejected(self):
        with pytest.raises(ValueError, match="forward shortcut"):
            ham_extremal(5, [(4, 0), (0, 2)])

    def test_reverse_consecutive_allowed(self):
        D = ham_extremal(4, [(3, 0), (1, 0), (2, 1)])
        assert is_strong(D)


class TestBipartiteFamilies:
    def test_equal_half1_is_c4(self):
        D = bipartite_equal(1)
        pi, rho, _ = proximity_remoteness(D)
        assert pi == rho == 2
        assert brute_isomorphic(D, dicycle(4))

    def test_equal_half2(self):
        D = bipartite_equal(2)
        assert all(r.bit_count() == 2 for r in D.rows)
        assert bipartite_facts_oracle(D).bad is None
        pi, rho, _ = proximity_remoteness(D)
        assert pi == rho

    def test_equal_half3_mu(self):
        D = bipartite_equal(3)
        assert set(bipartite_facts_oracle(D).mu) == {3}

    def test_T1_fixed_values(self):
        D = bipartite_T1()
        ds = degree_summary(D)
        assert ds.out_degrees == (3, 3, 3, 3, 2, 2, 2, 2, 2, 2)
        pi, rho, _ = proximity_remoteness(D)
        assert pi == rho == 2
        assert not is_regular(D)

    def test_blowup_t1_identity(self):
        assert bipartite_blowup(1) == bipartite_T1()

    def test_blowup_t2(self):
        D = bipartite_blowup(2)
        assert D.n == 20
        pi, rho, _ = proximity_remoteness(D)
        assert pi == rho
        assert set(bipartite_facts_oracle(D).mu) == {2}

    def test_blowup_t3_mu(self):
        assert set(bipartite_facts_oracle(bipartite_blowup(3)).mu) == {3}


class TestFig1:
    def test_degree_sequence(self):
        ds = degree_summary(fig1_graph())
        assert sorted(ds.out_degrees) == [3] * 6 + [4] * 3

    def test_all_sigma_equal(self):
        sigmas, _ = sigma_ecc_vectors(fig1_graph())
        assert set(sigmas) == {FIG1_SIGMA}

    def test_connected_symmetric(self):
        G = fig1_graph()
        assert is_strong(G) and is_symmetric(G)

    def test_blowup_identity(self):
        assert fig1_blowup(1) == fig1_graph()

    def test_blowup_sigma_relation(self):
        # each copy collects t copies of every base distance plus the t-1
        # same-vertex copies at distance 2
        for t in (2, 3):
            sigmas, _ = sigma_ecc_vectors(fig1_blowup(t))
            assert set(sigmas) == {t * FIG1_SIGMA + 2 * (t - 1)}

    def test_blowup_same_vertex_distance(self):
        G = fig1_blowup(2)
        for x in range(9):
            assert bfs_distances(G, 2 * x)[2 * x + 1] == 2


class TestSpecRegistry:
    def test_build_each_family(self):
        cases = [
            ("dicycle", (6,)),
            ("extremal_tournament", (5,)),
            ("hub_digraph", (6, 2)),
            ("ham_extremal", (4, 3, 0)),
            ("bipartite_equal", (2,)),
            ("bipartite_T1", ()),
            ("bipartite_blowup", (2,)),
            ("fig1_graph", ()),
            ("fig1_blowup", (2,)),
        ]
        for family, params in cases:
            spec = ConstructionSpec(family, params)
            D = build(spec)
            assert is_strong(D)
            assert check_expected(spec, D) == []

    def test_bipartite_families_recover_the_parts_once(self, monkeypatch):
        structure = constructions_mod.bipartite_tournament_structure
        calls = []
        monkeypatch.setattr(
            constructions_mod, "bipartite_tournament_structure", lambda D: calls.append(D.n) or structure(D)
        )
        assert check_expected(ConstructionSpec("bipartite_blowup", (2,))) == []
        assert calls == [20]

    @pytest.mark.parametrize("family, params", [("hub_digraph", (8, 3)), ("bipartite_blowup", (2,))])
    def test_check_expected_runs_the_kernel_once_and_no_sweep(self, kernel_runs, sweeps, family, params):
        spec = ConstructionSpec(family, params)
        D = build(spec)
        assert check_expected(spec, D) == []
        assert kernel_runs == [D.rows]
        assert sweeps == []

    @pytest.mark.parametrize(
        "family, params, D, failures",
        [
            ("bipartite_T1", (), Digraph(6, (32, 24, 48, 5, 1, 2)), ["bad witness (0, 2)", "pi 9/5 != rho 3"]),
            ("bipartite_blowup", (3,), bipartite_blowup(2), ["class sizes {2} != {3}"]),
            ("bipartite_equal", (2,), bipartite_T1(), ["expected the degenerate regular case"]),
            ("bipartite_blowup", (1,), dicycle(5), ["no bipartite tournament structure"]),
        ],
    )
    def test_bipartite_failure_strings(self, family, params, D, failures):
        assert check_expected(ConstructionSpec(family, params), D) == failures

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            build(ConstructionSpec("moebius", (5,)))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            build(ConstructionSpec("dicycle", (5, 2)))

    def test_expected_invariants_across_params(self):
        for n in range(2, 12):
            assert check_expected(ConstructionSpec("dicycle", (n,))) == []
        for n in range(3, 12):
            assert check_expected(ConstructionSpec("extremal_tournament", (n,))) == []
        for t in range(1, 4):
            assert check_expected(ConstructionSpec("bipartite_blowup", (t,))) == []
            assert check_expected(ConstructionSpec("fig1_blowup", (t,))) == []
        for h in range(1, 4):
            assert check_expected(ConstructionSpec("bipartite_equal", (h,))) == []
