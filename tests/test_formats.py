import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrem.constructions import dicycle, extremal_tournament, fig1_graph
from proxrem.digraph import Digraph, from_undirected_edge_list, is_symmetric
from proxrem.formats import (
    EdgeListInfo,
    parse_edge_list,
    read_digraph6,
    read_edge_list,
    read_graph6,
    write_digraph6,
    write_edge_list,
    write_graph6,
)

from test_digraph import random_digraphs


class TestEdgeList:
    def test_roundtrip_directed(self):
        D = extremal_tournament(5)
        assert read_edge_list(write_edge_list(D)) == D

    def test_roundtrip_undirected(self):
        G = fig1_graph()
        text = write_edge_list(G, directed=False)
        assert "undirected" in text.splitlines()[0]
        assert read_edge_list(text) == G

    def test_comments_and_blank_lines(self):
        text = "# a comment\nn 3 directed\n\n0 1  # trailing\n1 2\n"
        D = read_edge_list(text)
        assert set(D.arcs()) == {(0, 1), (1, 2)}

    def test_duplicate_count_reported(self):
        text = "n 3 directed\n0 1\n0 1\n1 2\n"
        D, info = parse_edge_list(text)
        assert D.m == 2 and info.duplicate_pairs == 1

    def test_undirected_duplicate_is_unordered(self):
        text = "n 3 undirected\n0 1\n1 0\n"
        D, info = parse_edge_list(text)
        assert D.m == 2 and info.duplicate_pairs == 1

    @pytest.mark.parametrize("directed", [True, False])
    def test_duplicate_counts_match_a_set_oracle(self, directed):
        rng = Random(5 if directed else 6)
        for n in (2, 3, 5, 14):
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(3 * n)]
            pairs += pairs[: n // 2] + [(v, u) for u, v in pairs[: n // 2]]
            rng.shuffle(pairs)
            mode = "directed" if directed else "undirected"
            text = f"n {n} {mode}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
            keys = {(u, v) if directed else frozenset((u, v)) for u, v in pairs}
            rows = [0] * n
            for u, v in pairs:
                rows[u] |= 1 << v
                if not directed:
                    rows[v] |= 1 << u
            D, info = parse_edge_list(text)
            assert D.rows == tuple(rows)
            assert info == EdgeListInfo(directed=directed, duplicate_pairs=len(pairs) - len(keys))

    def test_both_orientations_of_one_edge(self):
        assert parse_edge_list("n 2 directed\n0 1\n1 0\n")[1].duplicate_pairs == 0
        assert parse_edge_list("n 2 undirected\n0 1\n1 0\n")[1].duplicate_pairs == 1
        assert parse_edge_list("n 2 undirected\n0 1\n1 0\n1 0\n0 1\n")[1].duplicate_pairs == 3

    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    @pytest.mark.parametrize("body, message", [
        ("0 1\n0 1\n1 1\n", "loop pair (1, 1) is not allowed"),
        ("0 1\n1 0\n2 5\n2 5\n", "pair (2, 5) has a label outside 0..2"),
        ("0 1\n-1 2\n", "pair (-1, 2) has a label outside 0..2"),
    ])
    def test_bad_pairs_raise_after_duplicates(self, mode, body, message):
        with pytest.raises(ValueError) as exc:
            parse_edge_list(f"n 3 {mode}\n" + body)
        assert str(exc.value) == message

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            read_edge_list("0 1\n")

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="line 1"):
            read_edge_list("n 3 sideways\n")

    def test_bad_pair_line(self):
        with pytest.raises(ValueError, match="line 2"):
            read_edge_list("n 3 directed\n0 1 2\n")

    def test_undirected_output_needs_symmetry(self):
        with pytest.raises(ValueError):
            write_edge_list(dicycle(3), directed=False)


class TestDigraph6:
    def test_known_single_arc(self):
        D = Digraph(2, (2, 0))  # arc 0 -> 1
        assert write_digraph6(D) == "&AO"
        assert read_digraph6("&AO") == D

    def test_header_accepted(self):
        D = dicycle(4)
        assert read_digraph6(">>digraph6<<" + write_digraph6(D)) == D

    def test_missing_amp(self):
        with pytest.raises(ValueError, match="byte 0"):
            read_digraph6("AO")

    def test_truncated(self):
        with pytest.raises(ValueError, match="byte"):
            read_digraph6("&D")

    def test_loop_bit_rejected(self):
        # n=2 with matrix bits 1000 -> loop at vertex 0
        with pytest.raises(ValueError, match="loop"):
            read_digraph6("&A" + chr(0b100000 + 63))

    def test_nonzero_padding_rejected(self):
        with pytest.raises(ValueError, match="padding"):
            read_digraph6("&A" + chr(0b000001 + 63))

    @pytest.mark.parametrize(
        "text, byte, found",
        [("&BP_garbage", 4, "g"), ("&BP_\n&BP_", 4, "\n"), ("&BP_ &BP_", 4, " "), ("&AO?", 3, "?")],
    )
    def test_trailing_data_rejected(self, text, byte, found):
        with pytest.raises(ValueError, match=re.escape(f"byte {byte}: trailing data {found!r}")):
            read_digraph6(text)

    def test_surrounding_whitespace_stripped(self):
        D = read_digraph6("&BP_")
        assert read_digraph6("  &BP_\n") == read_digraph6(">>digraph6<<&BP_\r\n") == D

    def test_large_order_roundtrip(self):
        for n in (62, 63, 100):
            D = dicycle(n)
            s = write_digraph6(D)
            assert read_digraph6(s) == D
            assert write_digraph6(read_digraph6(s)) == s

    @settings(max_examples=80)
    @given(random_digraphs())
    def test_roundtrip(self, D):
        s = write_digraph6(D)
        assert read_digraph6(s) == D
        assert write_digraph6(read_digraph6(s)) == s


class TestGraph6:
    def test_known_strings(self):
        P3 = from_undirected_edge_list(3, [(0, 1), (1, 2)])
        assert write_graph6(P3) == "Bg"
        K4 = from_undirected_edge_list(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert write_graph6(K4) == "C~"
        assert read_graph6("Bg") == P3
        assert read_graph6("C~") == K4

    def test_header_accepted(self):
        G = fig1_graph()
        assert read_graph6(">>graph6<<" + write_graph6(G)) == G

    @pytest.mark.parametrize("text, byte, found", [("Bwxyz", 2, "x"), ("Bw\nBw", 2, "\n"), ("C~?", 2, "?")])
    def test_trailing_data_rejected(self, text, byte, found):
        with pytest.raises(ValueError, match=re.escape(f"byte {byte}: trailing data {found!r}")):
            read_graph6(text)

    def test_surrounding_whitespace_stripped(self):
        assert read_graph6(" Bw\n") == read_graph6(">>graph6<<Bw") == read_graph6("Bw")

    def test_requires_symmetric(self):
        with pytest.raises(ValueError):
            write_graph6(dicycle(3))

    @settings(max_examples=60)
    @given(random_digraphs())
    def test_roundtrip_symmetrized(self, D):
        G = Digraph(D.n, tuple(r | rr for r, rr in zip(D.rows, D.reverse_rows)))
        assert is_symmetric(G)
        s = write_graph6(G)
        assert read_graph6(s) == G
        assert write_graph6(read_graph6(s)) == s
