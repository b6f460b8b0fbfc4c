"""The Digraph helpers that walk set bits, against plain double-loop oracles.

Every walk reads ``frontier_bits(n)``, a table up to FRONTIER_TABLE_CAP and a
per-mask decoder above it, so each case runs on both sides of the cap.  The
oracles test one bit at a time and share no code with the library.
"""

from random import Random

import pytest

from proxrem.digraph import (
    FRONTIER_TABLE_CAP,
    Digraph,
    bipartite_tournament_structure,
    blow_up,
    permute,
)

ORDERS = range(1, 28)


def arc(D, u, v):
    return (D.rows[u] >> v) & 1


def arcs_oracle(D):
    return [(u, v) for u in range(D.n) for v in range(D.n) if arc(D, u, v)]


def reverse_oracle(D):
    return tuple(sum(1 << u for u in range(D.n) if arc(D, u, v)) for v in range(D.n))


def permute_oracle(D, perm):
    rows = [0] * D.n
    for u in range(D.n):
        for v in range(D.n):
            if arc(D, u, v):
                rows[perm[u]] |= 1 << perm[v]
    return tuple(rows)


def blow_up_oracle(D, t):
    n = D.n * t
    return tuple(sum(1 << y for y in range(n) if arc(D, x // t, y // t)) for x in range(n))


def bipartite_oracle(D):
    """Parts of an oriented complete bipartite graph, or None: group each
    vertex with the first part whose first member it is not adjacent to,
    then check every ordered pair against the definition."""
    n = D.n
    parts = []
    for v in range(n):
        for part in parts:
            if not (arc(D, part[0], v) or arc(D, v, part[0])):
                part.append(v)
                break
        else:
            parts.append([v])
    for u in range(n):
        for v in range(n):
            if u != v:
                same = any(u in p and v in p for p in parts)
                count = arc(D, u, v) + arc(D, v, u)
                if count != (0 if same else 1):
                    return None
    if len(parts) != 2:
        return None
    return tuple(sorted(map(tuple, parts), key=lambda p: (len(p), p[0])))


def random_digraphs(n, rng):
    """Seeded digraphs of order n at several densities, plus two that are
    not strong: all arcs removed from vertex 0, and all arcs into it."""
    out = []
    for density in (0.1, 0.3, 0.5, 0.8, 0.95):
        out.append(Digraph(n, [
            sum(1 << v for v in range(n) if v != u and rng.random() < density) for u in range(n)
        ]))
    dense = out[-1]
    out.append(Digraph(n, (0,) + dense.rows[1:]))
    out.append(Digraph(n, [r & ~1 for r in dense.rows]))
    return out


def random_multipartite(n, k, rng):
    """An orientation of a complete multipartite graph with at most k parts;
    with k = 2, a bipartite tournament unless every vertex drew one part."""
    label = [rng.randrange(k) for _ in range(n)]
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if label[u] != label[v]:
                if rng.random() < 0.5:
                    rows[u] |= 1 << v
                else:
                    rows[v] |= 1 << u
    return Digraph(n, rows)


def test_orders_straddle_the_table_cap():
    assert min(ORDERS) <= FRONTIER_TABLE_CAP < max(ORDERS)


@pytest.mark.parametrize("n", ORDERS)
def test_arcs_reverse_rows_and_permute(n):
    rng = Random(1000 + n)
    for D in random_digraphs(n, rng):
        assert list(D.arcs()) == arcs_oracle(D)
        assert D.reverse_rows == reverse_oracle(D)
        perm = list(range(n))
        rng.shuffle(perm)
        assert permute(D, perm).rows == permute_oracle(D, perm)


@pytest.mark.parametrize("n", ORDERS)
def test_blow_up(n):
    rng = Random(2000 + n)
    for D in random_digraphs(n, rng)[::2]:
        t = rng.randrange(1, 4)
        assert blow_up(D, t).rows == blow_up_oracle(D, t)


@pytest.mark.parametrize("n, t", [(3, 5), (4, 4), (5, 3), (7, 2), (13, 1), (9, 3)])
def test_blow_ups_past_the_cap(n, t):
    """Blow-ups of orders at or below the cap that reach orders above it."""
    rng = Random(3000 + n * t)
    for D in random_digraphs(n, rng) + [random_multipartite(n, 2, rng)]:
        B = blow_up(D, t)
        assert B.n > FRONTIER_TABLE_CAP
        assert B.rows == blow_up_oracle(D, t)
        assert list(B.arcs()) == arcs_oracle(B)
        assert B.reverse_rows == reverse_oracle(B)
        got = bipartite_tournament_structure(B)
        assert (got and got.parts) == bipartite_oracle(B)


@pytest.mark.parametrize("n", ORDERS)
def test_multipartite_structure(n):
    """Bipartite recognition on two-part instances and their near misses."""
    rng = Random(4000 + n)
    cases = random_digraphs(n, rng)
    for _ in range(3):
        D = random_multipartite(n, 2, rng)
        cases.append(D)
        if D.m:  # near misses: one cross pair doubled, one cross pair dropped
            u, v = rng.choice(arcs_oracle(D))
            rows = list(D.rows)
            rows[v] |= 1 << u
            cases.append(Digraph(n, rows))
            rows[v] &= ~(1 << u)
            rows[u] &= ~(1 << v)
            cases.append(Digraph(n, rows))
    recognized = 0
    for D in cases:
        got = bipartite_tournament_structure(D)
        want = bipartite_oracle(D)
        assert (got and got.parts) == want, D.rows
        recognized += want is not None
    assert recognized or n == 1
