"""The distance kernels and the frontier primitive against the oracles.

``distance_sums``, ``distance_layers`` and ``reach_within`` all read the
one scalar BFS, ``bfs_layers``, which expands frontiers through
``frontier_bits``, a table up to FRONTIER_TABLE_CAP and a decoding mapping
above it, so every order from 1 to 27 is checked on both sides of the cap
against Floyd-Warshall and a plain queue BFS.  The lane
kernel ``lane_bfs`` must equal ``distance_sums`` lane for lane, on both
sides of each lane-width and byte-plane boundary.
"""

import importlib
from array import array
from random import Random

import pytest

from proxrem.digraph import (
    FRONTIER_TABLE_CAP,
    Digraph,
    distance_sums,
    find_unreachable_pair,
    frontier_bits,
    reach_within,
)
from proxrem.metrics import Lanes, distance_layers, lane_bfs
from proxrem.search import enumerate_class

from oracles import bfs_distances, floyd_warshall, unreachable_pair_oracle

metrics_mod = importlib.import_module("proxrem.metrics")


def expected(D):
    """(sigmas, eccs) or (None, pair) from the matrix oracle, the pair being
    the smallest source with incomplete reach and its smallest missing vertex."""
    dist = floyd_warshall(D)
    for u, row in enumerate(dist):
        if None in row:
            return None, (u, row.index(None))
    return [sum(row) for row in dist], [max(row) for row in dist]


def check_instance(D):
    n = D.n
    assert distance_sums(D.rows, n) == expected(D)
    for u in range(n):
        dist = bfs_distances(D, u)
        depth = max(d for d in dist if d is not None)
        layers = [sum(1 << v for v, d in enumerate(dist) if d == k) for k in range(depth + 1)]
        assert distance_layers(D.rows, n, u) == layers
        for steps in range(n + 1):
            within = sum(1 << v for v, d in enumerate(dist) if d is not None and d <= steps)
            assert reach_within(D.rows, u, steps) == within


def random_digraph(n, arc_prob, rng):
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < arc_prob:
                rows[u] |= 1 << v
    return Digraph(n, rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_small_digraph_matches_the_oracles(n):
    for D in enumerate_class("all_digraphs", n):
        check_instance(D)


class ReadRows(list):
    """Adjacency rows that record which rows the BFS expands."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, v):
        self.read.append(v)
        return super().__getitem__(v)


def test_bfs_expands_only_the_layers_asked_for():
    path = ReadRows([1 << (v + 1) for v in range(5)] + [0])  # the dipath 0 -> 1 -> ... -> 5
    assert reach_within(path, 0, 2) == 0b111 and path.read == [0, 1]
    assert reach_within(path, 0, 0) == 0b1 and path.read == [0, 1]
    complete = ReadRows([0b1111 & ~(1 << u) for u in range(4)])
    assert distance_sums(complete, 4) == ([3] * 4, [1] * 4)
    assert complete.read == [0, 1, 2, 3]  # each source stops at its first layer


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_unreachable_pair_rule(n):
    """``analyze`` reports the pair ``distance_sums`` finds and ``verify
    --input`` the pair ``find_unreachable_pair`` finds: on every non-strong
    digraph both are the smallest u, then the smallest v, with no dipath."""
    non_strong = 0
    for D in enumerate_class("all_digraphs", n):
        want = unreachable_pair_oracle(D)
        if want is not None:
            non_strong += 1
            assert distance_sums(D.rows, n)[1] == find_unreachable_pair(D) == want
    assert non_strong == {2: 3, 3: 46, 4: 2490}[n]


@pytest.mark.parametrize("n", range(1, 28))
def test_random_digraphs_match_the_oracles_across_the_cap(n):
    rng = Random(1000 + n)
    strong = set()
    # sparse draws are mostly not strong, dense ones mostly strong
    for arc_prob in (0.1, 2.5 / n, 0.5):
        for _ in range(4):
            D = random_digraph(n, arc_prob, rng)
            check_instance(D)
            strong.add(distance_sums(D.rows, n)[0] is not None)
    assert strong == ({True} if n == 1 else {True, False})


def test_frontier_bits_lists_the_set_vertices():
    for n in (1, 5, FRONTIER_TABLE_CAP, FRONTIER_TABLE_CAP + 1, 27):
        bits = frontier_bits(n)
        rng = Random(n)
        for mask in [0, 1, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(50)]:
            assert list(bits[mask]) == [v for v in range(n) if mask >> v & 1]
    assert len(frontier_bits(FRONTIER_TABLE_CAP)) == 2 ** FRONTIER_TABLE_CAP
    assert frontier_bits(FRONTIER_TABLE_CAP) is frontier_bits(FRONTIER_TABLE_CAP)


def lane_distance_sums(batch, n):
    """``lane_bfs`` on row tuples, one lane each, packed with plain shifts:
    per row tuple its (sigmas, eccs) lists, or (None, None) if not strong."""
    L = Lanes(n, len(batch))
    sigmas, eccs, bad = lane_bfs(L, [sum(rows[v] << (L.w * i) for i, rows in enumerate(batch)) for v in range(n)])
    if bad == L.E:
        return [(None, None)] * len(batch)
    return [
        (None, None) if b else (list(s), list(e))
        for s, e, b in zip(zip(*map(L.lanes, sigmas)), zip(*map(L.lanes, eccs)), L.lanes(bad))
    ]


def per_digraph(batch, n):
    """``distance_sums`` on each row tuple, with (None, None) where it finds
    an unreachable pair: the lane kernel's result, one digraph at a time."""
    out = []
    for rows in batch:
        sigmas, eccs = distance_sums(rows, n)
        out.append((sigmas, eccs) if sigmas is not None else (None, None))
    return out


@pytest.mark.parametrize(
    "cls, n, parts",
    [("all_digraphs", n, None) for n in (1, 2, 3, 4)]
    + [("tournaments", n, None) for n in (1, 2, 3, 4, 5, 6)]
    + [("symmetric_digraphs", n, None) for n in (1, 2, 3, 4, 5)]
    + [("bipartite_tournaments", None, (2, 3)), ("bipartite_tournaments", None, (3, 3))],
)
def test_lanes_agree_on_every_small_instance(cls, n, parts):
    batch = [D.rows for D in enumerate_class(cls, n, parts)]
    order = n if parts is None else sum(parts)
    for start in range(0, len(batch), 1024):
        chunk = batch[start:start + 1024]
        assert lane_distance_sums(chunk, order) == per_digraph(chunk, order)


#: Both sides of each lane-width boundary: 7 | 8 (w = 8 | 16), 15 | 16
#: (16 | 32) and 31 | 32 (32 | 64); and of each byte-plane boundary of the
#: kernel: 8 | 9, 16 | 17 and 24 | 25, where vertex 8, 16 or 24 is the first
#: of plane 1, 2 or 3.
LANE_ORDERS = (1, 7, 8, 9, 15, 16, 17, 24, 25, 27, 31, 32)


@pytest.mark.parametrize("n", LANE_ORDERS)
@pytest.mark.parametrize("size", [0, 1, 2, 1025])
def test_lanes_agree_on_random_batches(n, size):
    rng = Random(7000 + 100 * n + size)
    # sparse draws are mostly not strong, dense ones mostly strong
    digraphs = [random_digraph(n, rng.choice((0.1, 2.5 / n, 0.5, 0.9)), rng) for _ in range(size)]
    batch = [D.rows for D in digraphs]
    got = lane_distance_sums(batch, n)
    assert got == per_digraph(batch, n)
    for D, lane in zip(digraphs[:40], got):
        sigmas, eccs = expected(D)  # Floyd-Warshall
        assert lane == ((sigmas, eccs) if sigmas is not None else (None, None))
    if size == 1025:
        assert {lane[0] is None for lane in got} == ({False} if n == 1 else {True, False})


def test_lane_edge_cases():
    assert lane_distance_sums([], 5) == []
    assert lane_distance_sums([(0,)], 1) == [([0], [0])]
    assert lane_distance_sums([(0,)] * 3, 1) == [([0], [0])] * 3
    for w, code in metrics_mod._LANE_CODES.items():
        assert array(code).itemsize * 8 == w
    assert sorted(metrics_mod._LANE_CODES) == [8, 16, 32, 64]
    cycle = [1 << ((v + 1) % 63) for v in range(63)]
    assert lane_distance_sums([cycle], 63) == [distance_sums(cycle, 63)]
    for n in (0, 64, 100):
        with pytest.raises(ValueError, match="1 <= n < 64"):
            lane_distance_sums([(0,) * n], n)
