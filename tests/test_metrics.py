import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrem.constructions import (
    FIG1_SIGMA,
    bipartite_T1,
    bipartite_blowup,
    dicycle,
    extremal_tournament,
    fig1_graph,
    hub_digraph,
)
from proxrem.digraph import (
    Digraph,
    NotStrongError,
    find_unreachable_pair,
    from_edge_list,
    is_strong,
)
from proxrem.metrics import (
    CSV_HEADER,
    bfs_profile,
    g_of,
    is_p_king,
    metrics_report,
    proximity_remoteness,
    radius_diameter,
    sigma_ecc_vectors,
)
from proxrem.search import enumerate_class, random_strong_digraph

from oracles import fw_metrics, rotational_tournament, transitive_tournament
from test_digraph import random_digraphs


class TestProfiles:
    def test_dicycle_profile(self):
        p = bfs_profile(dicycle(5), 0)
        assert p.distance_degree == (1, 1, 1, 1, 1)
        assert p.sigma == 10 and p.ecc == 4 and p.complete

    def test_fig1_leaf_profile(self):
        p = bfs_profile(fig1_graph(), 0)
        assert p.distance_degree == (1, 3, 4, 1)
        assert p.sigma == FIG1_SIGMA

    def test_fig1_hub_profile(self):
        p = bfs_profile(fig1_graph(), 6)
        assert p.distance_degree == (1, 4, 2, 2)
        assert p.sigma == FIG1_SIGMA

    def test_incomplete_profile_flags(self):
        p = bfs_profile(from_edge_list(3, [(0, 1)]), 0)
        assert not p.complete
        assert p.sigma is None and p.ecc is None
        assert p.dist == (0, 1, None)

    def test_profile_invariants_random(self):
        rng = Random(7)
        for _ in range(100):
            D = random_strong_digraph(rng.randint(2, 6), rng)
            for u in range(D.n):
                p = bfs_profile(D, u)
                assert p.distance_degree[0] == 1
                assert sum(p.distance_degree) == D.n
                assert all(k >= 1 for k in p.distance_degree)
                assert p.sigma == g_of(p.distance_degree)


class TestGOf:
    def test_examples(self):
        assert g_of((1, 3, 4, 1)) == 14
        assert g_of((1, 1, 1, 1, 1)) == 10
        assert g_of((1, 9)) == 9

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=8), st.data())
    def test_unit_moved_to_new_tail_increases(self, xs, data):
        # moving one unit from position i to a fresh final position raises g
        positions = [i for i, x in enumerate(xs) if x > 0]
        if not positions:
            xs = xs + [1]
            positions = [len(xs) - 1]
        i = data.draw(st.sampled_from(positions))
        moved = list(xs)
        moved[i] -= 1
        moved.append(1)
        assert g_of(moved) > g_of(xs)


class TestProximityRemoteness:
    def test_dicycle(self):
        for n in (3, 5, 8):
            pi, rho, _ = proximity_remoteness(dicycle(n))
            assert pi == rho == Fraction(n, 2)

    def test_complete(self):
        n = 4
        K = from_edge_list(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        pi, rho, _ = proximity_remoteness(K)
        assert pi == rho == 1

    def test_T1(self):
        pi, rho, _ = proximity_remoteness(bipartite_T1())
        assert pi == rho == 2
        sigmas, _ = sigma_ecc_vectors(bipartite_T1())
        assert set(sigmas) == {18}

    def test_witnesses_smallest_label(self):
        T = extremal_tournament(5)
        _, _, (pw, rw) = proximity_remoteness(T)
        sigmas, _ = sigma_ecc_vectors(T)
        assert sigmas[pw] == min(sigmas) and all(s > sigmas[pw] for s in sigmas[:pw])
        assert sigmas[rw] == max(sigmas) and all(s < sigmas[rw] for s in sigmas[:rw])

    def test_not_strong_names_pair(self):
        D = from_edge_list(3, [(0, 1), (1, 2)])
        with pytest.raises(NotStrongError) as exc:
            proximity_remoteness(D)
        u, v = exc.value.pair
        assert not is_strong(D)
        assert f"from {u} to {v}" in str(exc.value)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            proximity_remoteness(Digraph(1, (0,)))

    def test_report_pair_matches_reachability_pair_exhaustive(self):
        # The report leaves strongness to the kernel; the pair it names must
        # still be the one the reachability pass from vertex 0 finds.
        non_strong = 0
        for n in range(2, 5):
            for D in enumerate_class("all_digraphs", n):
                pair = find_unreachable_pair(D)
                if pair is None:
                    continue
                non_strong += 1
                with pytest.raises(NotStrongError) as exc:
                    metrics_report(D)
                assert exc.value.pair == pair
        assert non_strong == (4 - 1) + (64 - 18) + (4096 - 1606)


class TestRadiusDiameter:
    def test_hub(self):
        for n, c in ((4, 1), (5, 3), (8, 7)):
            rad, diam = radius_diameter(hub_digraph(n, c))
            assert rad == 1 and diam == n - 1

    def test_dicycle(self):
        rad, diam = radius_diameter(dicycle(6))
        assert rad == diam == 5

    def test_complete(self):
        K = from_edge_list(3, [(u, v) for u in range(3) for v in range(3) if u != v])
        assert radius_diameter(K) == (1, 1)


class TestPKing:
    def test_max_out_degree_is_2_king(self):
        rng = Random(11)
        for _ in range(80):
            n = rng.randint(2, 7)
            rows = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        rows[u] |= 1 << v
                    else:
                        rows[v] |= 1 << u
            T = Digraph(n, rows)
            best = max(r.bit_count() for r in T.rows)
            for v in range(n):
                if T.rows[v].bit_count() == best:
                    assert is_p_king(T, v, 2)

    def test_good_bipartite_all_4_kings(self):
        for D in (bipartite_T1(), bipartite_blowup(2)):
            assert all(is_p_king(D, v, 4) for v in range(D.n))

    def test_dicycle_not_4_king(self):
        assert not is_p_king(dicycle(6), 0, 4)

    def test_transitive_source(self):
        T = transitive_tournament(5)
        assert is_p_king(T, 0, 1)
        assert not is_p_king(T, 4, 4)


class TestOracleAgreement:
    def test_random_strong_digraphs(self):
        rng = Random(20250808)
        for _ in range(500):
            n = rng.randint(2, 6)
            D = random_strong_digraph(n, rng, arc_prob=rng.choice((0.3, 0.5, 0.7)))
            pi, rho, _ = proximity_remoteness(D)
            rad, diam = radius_diameter(D)
            assert fw_metrics(D) == (pi, rho, rad, diam)

    def test_oracle_rejects_non_strong(self):
        assert fw_metrics(from_edge_list(3, [(0, 1), (1, 2)])) is None


class TestReportInvariants:
    def test_chain_inequalities(self):
        rng = Random(3)
        for _ in range(150):
            D = random_strong_digraph(rng.randint(2, 6), rng)
            r = metrics_report(D)
            assert r.proximity <= r.remoteness
            assert r.radius <= r.diameter
            assert r.proximity <= r.radius
            assert r.remoteness <= r.diameter
            assert 1 <= r.diameter <= D.n - 1

    def test_bounds_small_orders(self):
        rng = Random(5)
        for _ in range(150):
            D = random_strong_digraph(rng.randint(3, 6), rng)
            pi, rho, _ = proximity_remoteness(D)
            assert 1 <= pi <= rho <= Fraction(D.n, 2)

    def test_sigma_lower_bound(self):
        rng = Random(9)
        for _ in range(150):
            D = random_strong_digraph(rng.randint(2, 6), rng)
            sigmas, _ = sigma_ecc_vectors(D)
            for u, s in enumerate(sigmas):
                assert s >= D.n - 1
                assert (s == D.n - 1) == (D.rows[u].bit_count() == D.n - 1)

    def test_undirected_proximity_background_bound(self):
        # connected even-order graphs: pi <= (n+1)/4 + 1/(4(n-1))
        rng = Random(13)
        checked = 0
        while checked < 60:
            n = rng.choice((4, 6, 8))
            rows = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
            G = Digraph(n, rows)
            if not is_strong(G):
                continue
            checked += 1
            pi, _, _ = proximity_remoteness(G)
            assert pi <= Fraction(n + 1, 4) + Fraction(1, 4 * (n - 1))


class TestSerialization:
    def test_json_rationals(self):
        rep = metrics_report(dicycle(5))
        obj = rep.as_json_dict()
        assert obj["proximity"] == {"num": 5, "den": 2, "display": "2.500000"}
        assert obj["pi_equals_rho"] is True
        json.dumps(obj)

    def test_csv_row_matches_header(self):
        rep = metrics_report(extremal_tournament(5))
        assert len(rep.csv_row().split(",")) == len(CSV_HEADER.split(","))
