import importlib
import json
import pickle
from fractions import Fraction
from random import Random

import pytest

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
    reach_within,
)
from proxrem.metrics import (
    CSV_HEADER,
    distance_layers,
    metrics_report,
    proximity_remoteness,
    radius_diameter,
    sigma_ecc_vectors,
)
from proxrem.search import enumerate_class

from oracles import (
    bfs_distances,
    floyd_warshall,
    fw_metrics,
    rotational_tournament,
    sample_strong_digraph,
    transitive_tournament,
)
from test_digraph import random_digraphs

# the modules, not the functions the package re-exports under the same names
metrics_mod = importlib.import_module("proxrem.metrics")
digraph_mod = importlib.import_module("proxrem.digraph")
search_mod = importlib.import_module("proxrem.search")
verifiers_mod = importlib.import_module("proxrem.verifiers")


def _distance_degree(D, u):
    """The distance-degree sequence of u: the size of each BFS layer from u."""
    return tuple(layer.bit_count() for layer in distance_layers(D.rows, D.n, u))


class TestProfiles:
    def test_dicycle_profile(self):
        D = dicycle(5)
        assert _distance_degree(D, 0) == (1, 1, 1, 1, 1)
        sigmas, eccs = sigma_ecc_vectors(D)
        assert sigmas[0] == 10 and eccs[0] == 4

    def test_fig1_leaf_profile(self):
        assert _distance_degree(fig1_graph(), 0) == (1, 3, 4, 1)
        assert sigma_ecc_vectors(fig1_graph())[0][0] == FIG1_SIGMA

    def test_fig1_hub_profile(self):
        assert _distance_degree(fig1_graph(), 6) == (1, 4, 2, 2)
        assert sigma_ecc_vectors(fig1_graph())[0][6] == FIG1_SIGMA

    def test_incomplete_profile_flags(self):
        D = from_edge_list(3, [(0, 1)])
        assert _distance_degree(D, 0) == (1, 1)
        assert bfs_distances(D, 0) == [0, 1, None]
        with pytest.raises(NotStrongError):
            sigma_ecc_vectors(D)

    def test_profile_invariants_random(self):
        rng = Random(7)
        for _ in range(100):
            D = sample_strong_digraph(rng.randint(2, 6), rng)
            sigmas, eccs = sigma_ecc_vectors(D)
            for u in range(D.n):
                layers = distance_layers(D.rows, D.n, u)
                dist = bfs_distances(D, u)
                assert layers == [sum(1 << v for v in range(D.n) if dist[v] == d) for d in range(len(layers))]
                degree = _distance_degree(D, u)
                assert degree[0] == 1 and sum(degree) == D.n
                assert all(k >= 1 for k in degree)
                assert sigmas[u] == sum(d * k for d, k in enumerate(degree)) == sum(dist)
                assert eccs[u] == len(layers) - 1 == max(dist)


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


def _reaches_all_within(D, u, p):
    """u is a p-king: every vertex lies within distance p of u."""
    return reach_within(D.rows, u, p) == (1 << D.n) - 1


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
                    assert _reaches_all_within(T, v, 2)

    def test_good_bipartite_all_4_kings(self):
        for D in (bipartite_T1(), bipartite_blowup(2)):
            assert all(_reaches_all_within(D, v, 4) for v in range(D.n))

    def test_dicycle_not_4_king(self):
        assert not _reaches_all_within(dicycle(6), 0, 4)

    def test_transitive_source(self):
        T = transitive_tournament(5)
        assert _reaches_all_within(T, 0, 1)
        assert not _reaches_all_within(T, 4, 4)


class TestOracleAgreement:
    def test_random_strong_digraphs(self):
        rng = Random(20250808)
        for _ in range(500):
            n = rng.randint(2, 6)
            D = sample_strong_digraph(n, rng, arc_prob=rng.choice((0.3, 0.5, 0.7)))
            pi, rho, _ = proximity_remoteness(D)
            rad, diam = radius_diameter(D)
            assert fw_metrics(D) == (pi, rho, rad, diam)

    def test_oracle_rejects_non_strong(self):
        assert fw_metrics(from_edge_list(3, [(0, 1), (1, 2)])) is None


class TestReportInvariants:
    def test_chain_inequalities(self):
        rng = Random(3)
        for _ in range(150):
            D = sample_strong_digraph(rng.randint(2, 6), rng)
            r = metrics_report(D)
            assert r.proximity <= r.remoteness
            assert r.radius <= r.diameter
            assert r.proximity <= r.radius
            assert r.remoteness <= r.diameter
            assert 1 <= r.diameter <= D.n - 1

    def test_bounds_small_orders(self):
        rng = Random(5)
        for _ in range(150):
            D = sample_strong_digraph(rng.randint(3, 6), rng)
            pi, rho, _ = proximity_remoteness(D)
            assert 1 <= pi <= rho <= Fraction(D.n, 2)

    def test_sigma_lower_bound(self):
        rng = Random(9)
        for _ in range(150):
            D = sample_strong_digraph(rng.randint(2, 6), rng)
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


@pytest.fixture
def kernel_runs(monkeypatch):
    """Records the rows of every distance-kernel run, whichever module calls it;
    each lane of a ``lane_bfs`` run counts as one run."""
    runs = []
    kernel = digraph_mod.distance_sums
    lanes = metrics_mod.lane_bfs

    def counted(rows, n):
        runs.append(tuple(rows))
        return kernel(rows, n)

    def lanes_counted(L, col):
        runs.extend(zip(*map(L.lanes, col)))
        return lanes(L, col)

    for mod in (digraph_mod, search_mod):
        monkeypatch.setattr(mod, "distance_sums", counted)
    for mod in (metrics_mod, search_mod):
        monkeypatch.setattr(mod, "lane_bfs", lanes_counted)
    return runs


@pytest.fixture
def sweeps(monkeypatch):
    """Records the arguments of every ``reach_within`` run, whichever module
    calls it."""
    runs = []
    reach = digraph_mod.reach_within

    def counted(*args):
        runs.append(args)
        return reach(*args)

    for mod in (digraph_mod, verifiers_mod):
        monkeypatch.setattr(mod, "reach_within", counted)
    return runs


def _non_strong_digraphs():
    return [D for n in (2, 3) for D in enumerate_class("all_digraphs", n) if fw_metrics(D) is None]


class TestKernelMemo:
    """A Digraph runs the distance kernel once and keeps its result."""

    def test_one_kernel_run_per_digraph(self, kernel_runs):
        D = extremal_tournament(6)
        sigma_ecc_vectors(D)
        proximity_remoteness(D)
        radius_diameter(D)
        metrics_report(D)
        assert kernel_runs == [D.rows]
        sigma_ecc_vectors(Digraph(D.n, D.rows))  # an equal digraph has its own memo
        assert len(kernel_runs) == 2

    def test_returned_lists_are_fresh(self):
        D = hub_digraph(6, 4)
        dist = floyd_warshall(D)
        expected = ([sum(r) for r in dist], [max(r) for r in dist])
        sigmas, eccs = sigma_ecc_vectors(D)
        assert (sigmas, eccs) == expected
        sigmas[0] = -1
        eccs.append(99)
        sigmas.sort()
        again = sigma_ecc_vectors(D)
        assert again == expected
        assert again[0] is not sigmas and again[1] is not eccs

    def test_non_strong_memo_reraises_the_same_pair(self, kernel_runs):
        cases = _non_strong_digraphs()
        assert len(cases) > 30
        for D in cases:
            fresh = Digraph(D.n, D.rows)
            with pytest.raises(NotStrongError) as first:
                sigma_ecc_vectors(D)
            runs = len(kernel_runs)
            with pytest.raises(NotStrongError) as second:
                sigma_ecc_vectors(D)
            assert len(kernel_runs) == runs  # served from the memo
            assert second.value.pair == first.value.pair
            u, v = first.value.pair
            assert floyd_warshall(D)[u][v] is None
            # find_unreachable_pair reads the memo's pair
            assert find_unreachable_pair(D) == find_unreachable_pair(fresh) == (u, v)
            assert not is_strong(D)
            assert len(kernel_runs) == runs + 1  # the fresh copy's one run

    def test_strong_memo_answers_find_unreachable_pair(self, kernel_runs, sweeps):
        D = rotational_tournament(7)
        sigma_ecc_vectors(D)
        assert find_unreachable_pair(D) is None
        assert is_strong(D)
        assert kernel_runs == [D.rows] and sweeps == []
        # a fresh digraph: one kernel run fills the memo, which the metrics read
        fresh = Digraph(D.n, D.rows)
        assert find_unreachable_pair(fresh) is None
        assert kernel_runs == [D.rows, D.rows]
        sigma_ecc_vectors(fresh)
        proximity_remoteness(fresh)
        radius_diameter(fresh)
        metrics_report(fresh)
        assert kernel_runs == [D.rows, D.rows] and sweeps == []

    @pytest.mark.parametrize("D", [extremal_tournament(5), from_edge_list(3, [(0, 1), (1, 2)])])
    def test_pickle_equality_and_hash_ignore_the_memo(self, D):
        fresh = Digraph(D.n, D.rows)
        blank = pickle.dumps(fresh)
        assert D.reverse_rows == fresh.reverse_rows
        try:
            sigma_ecc_vectors(D)
        except NotStrongError:
            pass
        assert pickle.dumps(D) == blank
        copy = pickle.loads(pickle.dumps(D))
        assert copy == D == fresh
        assert hash(copy) == hash(D) == hash(fresh)
        assert {D: 1}[fresh] == 1
        assert find_unreachable_pair(copy) == find_unreachable_pair(D)
