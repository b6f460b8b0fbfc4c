"""Reading and writing digraphs: edge-list text, digraph6 and graph6.

Edge-list text format: a header line ``n <count> directed|undirected``
followed by one ``u v`` pair per line (0-based labels); ``#`` starts a
comment.  digraph6 is the ``&``-headed format packing the full n x n
adjacency matrix row by row, 6 bits per printable byte; graph6 packs the
upper triangle column by column.  Writers emit the canonical headerless
form, so write(read(s)) == s for canonical input strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .digraph import Digraph, from_edge_list, from_undirected_edge_list, is_symmetric


@dataclass(frozen=True)
class EdgeListInfo:
    """What the edge-list parser saw besides the digraph itself."""

    directed: bool
    duplicate_pairs: int


def parse_edge_list(text: str) -> Tuple[Digraph, EdgeListInfo]:
    """Parse the edge-list text format.

    Duplicate pairs collapse to one arc/edge; their count is reported in
    the returned info rather than treated as an error.
    """
    header = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            tokens = line.split()
            if len(tokens) != 3 or tokens[0] != "n":
                raise ValueError(
                    f"line {lineno}: expected header 'n <count> directed|undirected'"
                )
            try:
                count = int(tokens[1])
            except ValueError:
                raise ValueError(f"line {lineno}: vertex count {tokens[1]!r} is not an integer")
            if tokens[2] not in ("directed", "undirected"):
                raise ValueError(f"line {lineno}: mode must be 'directed' or 'undirected'")
            header = (count, tokens[2] == "directed")
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            pairs.append((int(tokens[0]), int(tokens[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: labels must be integers, got {line!r}")
    if header is None:
        raise ValueError("missing header line 'n <count> directed|undirected'")
    n, directed = header
    D = (from_edge_list if directed else from_undirected_edge_list)(n, pairs)
    dupes = len(pairs) - (D.m if directed else D.m // 2)
    return D, EdgeListInfo(directed=directed, duplicate_pairs=dupes)


def read_edge_list(text: str) -> Digraph:
    return parse_edge_list(text)[0]


def write_edge_list(D: Digraph, directed: bool = True) -> str:
    """Render a digraph in the edge-list text format."""
    lines = [f"n {D.n} {'directed' if directed else 'undirected'}"]
    if directed:
        lines.extend(f"{u} {v}" for u, v in D.arcs())
    else:
        if not is_symmetric(D):
            raise ValueError("undirected output requires a symmetric digraph")
        lines.extend(f"{u} {v}" for u, v in D.arcs() if u < v)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6 / digraph6
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
_D6_HEADER = ">>digraph6<<"


def _encode_size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 0x3F) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise ValueError(f"vertex count {n} exceeds the graph6 size encoding")


def _decode_size(data: str, pos: int) -> Tuple[int, int]:
    if pos >= len(data):
        raise ValueError(f"byte {pos}: truncated size field")
    c = ord(data[pos])
    if c != 126:
        if not 63 <= c <= 126:
            raise ValueError(f"byte {pos}: invalid size byte {data[pos]!r}")
        return c - 63, pos + 1
    if pos + 1 < len(data) and ord(data[pos + 1]) == 126:
        chunk, start = 6, pos + 2
    else:
        chunk, start = 3, pos + 1
    if start + chunk > len(data):
        raise ValueError(f"byte {pos}: truncated size field")
    n = 0
    for i in range(chunk):
        c = ord(data[start + i])
        if not 63 <= c <= 126:
            raise ValueError(f"byte {start + i}: invalid size byte {data[start + i]!r}")
        n = (n << 6) | (c - 63)
    return n, start + chunk


#: A data byte per 6-bit group written as text, and the inverse table for
#: ``str.translate``: the codec packs and unpacks whole groups, never
#: single bits.
_GROUP_BYTE = {format(k, "06b"): chr(k + 63) for k in range(64)}
_BYTE_GROUP = str.maketrans({c: g for g, c in _GROUP_BYTE.items()})


def _encode_bits(bits: str) -> str:
    """Pack a string of 0s and 1s, 6 bits per printable byte, zero-padded."""
    bits += "0" * (-len(bits) % 6)
    return "".join([_GROUP_BYTE[bits[i : i + 6]] for i in range(0, len(bits), 6)])


def _decode_bits(data: str, pos: int, count: int) -> str:
    """The ``count`` bits of the data bytes from ``pos`` to the end, as a
    string of 0s and 1s.  The data must hold exactly the bytes of ``count``
    bits: a byte after them is an error.  An error names the first bad
    byte; it is looked for only once a whole-string test has failed."""
    need = (count + 5) // 6
    if pos + need > len(data):
        raise ValueError(f"byte {pos}: expected {need} data bytes, found {len(data) - pos}")
    if pos + need < len(data):
        raise ValueError(f"byte {pos + need}: trailing data {data[pos + need]!r} after the last data byte")
    chunk = data[pos : pos + need]
    if chunk and (min(chunk) < "?" or max(chunk) > "~"):
        i = next(i for i, c in enumerate(chunk) if not "?" <= c <= "~")
        raise ValueError(f"byte {pos + i}: invalid data byte {chunk[i]!r}")
    bits = chunk.translate(_BYTE_GROUP)
    if "1" in bits[count:]:
        raise ValueError(f"byte {pos + bits.index('1', count) // 6}: nonzero padding bit")
    return bits[:count]


def write_digraph6(D: Digraph) -> str:
    """Encode as digraph6: '&', the size, then the full matrix row-major."""
    n = D.n
    return "&" + _encode_size(n) + _encode_bits("".join([format(r, f"0{n}b")[::-1] for r in D.rows]))


def read_digraph6(s: str) -> Digraph:
    data = s.strip()
    if data.startswith(_D6_HEADER):
        data = data[len(_D6_HEADER):]
    if not data.startswith("&"):
        raise ValueError("byte 0: digraph6 string must start with '&'")
    n, pos = _decode_size(data, 1)
    if n < 1:
        raise ValueError("digraph6 string encodes an empty vertex set")
    bits = _decode_bits(data, pos, n * n)
    diagonal = bits[:: n + 1]
    if "1" in diagonal:
        raise ValueError(f"matrix has a loop at vertex {diagonal.index('1')}")
    return Digraph(n, [int(bits[u * n : u * n + n][::-1], 2) for u in range(n)])


def write_graph6(D: Digraph) -> str:
    """Encode a symmetric digraph as graph6 (upper triangle, column-major)."""
    if not is_symmetric(D):
        raise ValueError("graph6 output requires a symmetric digraph")
    n, rows = D.n, D.rows
    return _encode_size(n) + _encode_bits("".join([str(rows[i] >> j & 1) for j in range(1, n) for i in range(j)]))


def read_graph6(s: str) -> Digraph:
    data = s.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    n, pos = _decode_size(data, 0)
    if n < 1:
        raise ValueError("graph6 string encodes an empty vertex set")
    bits = _decode_bits(data, pos, n * (n - 1) // 2)
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k] == "1":
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Digraph(n, rows)
