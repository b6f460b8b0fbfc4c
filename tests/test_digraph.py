import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrem.constructions import (
    bipartite_T1,
    bipartite_blowup,
    bipartite_equal,
    dicycle,
    extremal_tournament,
    fig1_graph,
    hub_digraph,
)
from proxrem.digraph import (
    Digraph,
    bipartite_tournament_structure,
    blow_up,
    complement,
    degree_summary,
    from_edge_list,
    from_undirected_edge_list,
    is_regular,
    is_strong,
    is_symmetric,
    is_tournament,
    permute,
)

from oracles import brute_bipartition, is_regular_oracle, is_tournament_oracle, rotational_tournament


def random_digraphs(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            lambda rows: Digraph(n, rows),
            st.tuples(*[
                st.integers(0, (1 << n) - 1).map(lambda r, u=u: r & ~(1 << u))
                for u in range(n)
            ]),
        )
    )


def every_digraph(n):
    """All 2^(n(n-1)) labeled digraphs of order n, one arc per code bit."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for code in range(1 << len(pairs)):
        yield from_edge_list(n, [p for k, p in enumerate(pairs) if code >> k & 1])


def every_tournament(n):
    """All 2^(n(n-1)/2) labeled tournaments of order n, one orientation per
    code bit."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for code in range(1 << len(pairs)):
        yield from_edge_list(n, [(v, u) if code >> k & 1 else (u, v) for k, (u, v) in enumerate(pairs)])


SMALL_DIGRAPHS = [D for n in range(1, 5) for D in every_digraph(n)] + list(every_tournament(5))


class TestConstructors:
    def test_from_edge_list_dicycle(self):
        D = from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
        assert D == dicycle(3)

    def test_from_edge_list_k2(self):
        D = from_edge_list(2, [(0, 1), (1, 0)])
        assert D.m == 2 and is_strong(D)

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            from_edge_list(4, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\(1, 5\)"):
            from_edge_list(3, [(1, 5)])

    def test_duplicates_collapse(self):
        D = from_edge_list(3, [(0, 1), (0, 1), (1, 2)])
        assert D.m == 2

    def test_undirected_path(self):
        D = from_undirected_edge_list(3, [(0, 1), (1, 2)])
        assert set(D.arcs()) == {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert is_symmetric(D)

    def test_undirected_fig1(self):
        D = fig1_graph()
        assert D.n == 9 and D.m == 30 and is_symmetric(D)

    def test_single_vertex(self):
        D = from_undirected_edge_list(1, [])
        assert D.n == 1 and D.m == 0


class TestStrong:
    def test_dicycle_strong(self):
        assert is_strong(dicycle(5))

    def test_dipath_not_strong(self):
        assert not is_strong(from_edge_list(3, [(0, 1), (1, 2)]))

    def test_extremal_tournament_strong(self):
        assert is_strong(extremal_tournament(4))

    def test_single_vertex_strong(self):
        assert is_strong(Digraph(1, (0,)))

    def test_symmetric_strong_is_connectivity(self):
        connected = from_undirected_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        split = from_undirected_edge_list(4, [(0, 1), (2, 3)])
        assert is_strong(connected)
        assert not is_strong(split)


class TestComplement:
    def test_complete_to_arcless(self):
        K = from_edge_list(3, [(u, v) for u in range(3) for v in range(3) if u != v])
        assert complement(K).m == 0

    def test_arcless_to_complete(self):
        D = Digraph(4, (0, 0, 0, 0))
        assert complement(D).m == 12

    def test_dicycle3_reverses(self):
        assert complement(dicycle(3)) == dicycle(3).reverse()

    @settings(max_examples=60)
    @given(random_digraphs())
    def test_involution(self, D):
        assert complement(complement(D)) == D


class TestDegrees:
    def test_dicycle_degrees(self):
        ds = degree_summary(dicycle(6))
        assert ds.max_semi == ds.min_semi == 1

    def test_T1_degrees(self):
        ds = degree_summary(bipartite_T1())
        assert ds.out_degrees[:4] == (3, 3, 3, 3)
        assert ds.out_degrees[4:] == (2,) * 6

    def test_hub_out_degree(self):
        D = hub_digraph(5, 2)
        assert degree_summary(D).out_degrees[0] == 4

    @settings(max_examples=60)
    @given(random_digraphs())
    def test_degree_sums_equal_m(self, D):
        ds = degree_summary(D)
        assert sum(ds.out_degrees) == sum(ds.in_degrees) == D.m

    @settings(max_examples=60)
    @given(random_digraphs())
    def test_semi_extremes(self, D):
        ds = degree_summary(D)
        assert ds.min_semi == min(ds.min_out, ds.min_in)
        assert ds.max_semi == max(ds.max_out, ds.max_in)


class TestRegularity:
    def test_dicycle_regular(self):
        assert is_regular(dicycle(7))

    def test_rotational_regular(self):
        assert is_regular(rotational_tournament(5))

    def test_blowup_family_not_regular(self):
        for t in range(1, 4):
            assert not is_regular(bipartite_blowup(t))

    def test_agrees_with_the_oracle(self):
        """Every digraph of order <= 4 and every tournament of order 5."""
        # d-regular digraphs of order n are the 0/1 matrices with zero
        # diagonal and line sums d: derangements for d = 1 and d = n - 2,
        # so 1 + 2 + (1 + 2 + 1) + (1 + 9 + 9 + 1), and 24 regular tournaments
        assert sum(map(is_regular_oracle, SMALL_DIGRAPHS)) == 1 + 2 + 4 + 20 + 24
        for D in SMALL_DIGRAPHS:
            assert is_regular(D) == is_regular_oracle(D), D.rows


class TestTournament:
    def test_extremal_is_tournament(self):
        assert is_tournament(extremal_tournament(4))

    def test_dicycle3_yes_dicycle4_no(self):
        assert is_tournament(dicycle(3))
        assert not is_tournament(dicycle(4))

    def test_complete_not_tournament(self):
        K = from_edge_list(3, [(u, v) for u in range(3) for v in range(3) if u != v])
        assert not is_tournament(K)

    def test_tournament_arc_count(self):
        for n in (3, 5, 8):
            T = extremal_tournament(n)
            assert T.m == n * (n - 1) // 2

    def test_agrees_with_the_oracle(self):
        """Every digraph of order <= 4 and every tournament of order 5."""
        assert sum(map(is_tournament_oracle, SMALL_DIGRAPHS)) == 1 + 2 + 8 + 64 + 1024
        for D in SMALL_DIGRAPHS:
            assert is_tournament(D) == is_tournament_oracle(D), D.rows


class TestBipartiteStructure:
    def test_T1_parts(self):
        s = bipartite_tournament_structure(bipartite_T1())
        assert s is not None and tuple(len(p) for p in s.parts) == (4, 6)

    def test_tournament_has_none(self):
        assert bipartite_tournament_structure(extremal_tournament(4)) is None

    def test_equal_parts(self):
        s = bipartite_tournament_structure(bipartite_equal(2))
        assert s is not None and tuple(len(p) for p in s.parts) == (4, 4)
        assert s.parts[0] == (0, 1, 2, 3)

    def test_brute_force_agreement_n4(self):
        # every labeled digraph on 4 vertices
        for D in every_digraph(4):
            got = bipartite_tournament_structure(D)
            want = brute_bipartition(D)
            if want is None:
                assert got is None
            else:
                assert got is not None and got.parts == want

    @settings(max_examples=80)
    @given(random_digraphs(6))
    def test_brute_force_agreement_sampled(self, D):
        got = bipartite_tournament_structure(D)
        want = brute_bipartition(D)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.parts == want

    def test_multipartite_recognition(self):
        # more than two parts is not bipartite: a tournament (n singleton
        # parts) and an orientation of the complete tripartite K_{1,1,2}
        assert bipartite_tournament_structure(extremal_tournament(4)) is None
        D = from_edge_list(
            4, [(0, 1), (1, 2), (1, 3), (2, 0), (3, 0)]
        )
        assert bipartite_tournament_structure(D) is None
        # dicycle(4) is an orientation of K_{2,2}; dicycle(5) is nothing partite
        s = bipartite_tournament_structure(dicycle(4))
        assert s is not None and s.parts == ((0, 2), (1, 3))
        assert bipartite_tournament_structure(dicycle(5)) is None
        # 2-cycle is not an orientation
        two = from_edge_list(2, [(0, 1), (1, 0)])
        assert bipartite_tournament_structure(two) is None
        # a single vertex has no second part
        assert bipartite_tournament_structure(Digraph(1, (0,))) is None


class TestBlowUp:
    def test_identity_at_t1(self):
        D = extremal_tournament(4)
        assert blow_up(D, 1) == D

    def test_arc_count(self):
        for t in (1, 2, 3):
            D = dicycle(4)
            assert blow_up(D, t).m == t * t * D.m

    def test_copies_not_adjacent(self):
        B = blow_up(dicycle(3), 3)
        for x in range(3):
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert not B.has_arc(x * 3 + i, x * 3 + j)

    def test_bipartite_blowup_parts(self):
        s = bipartite_tournament_structure(bipartite_blowup(2))
        assert s is not None and tuple(len(p) for p in s.parts) == (8, 12)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            blow_up(dicycle(3), 0)


class TestPermute:
    def test_roundtrip(self):
        D = extremal_tournament(5)
        perm = [2, 0, 4, 1, 3]
        inverse = [perm.index(i) for i in range(5)]
        assert permute(permute(D, perm), inverse) == D

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute(dicycle(3), [0, 0, 1])
