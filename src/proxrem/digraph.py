"""Labeled digraphs stored as packed adjacency bit rows.

Vertices are the integers 0..n-1.  Row ``u`` is a Python int whose bit ``v``
is set exactly when the arc (u, v) is present; loops and parallel arcs are
excluded by construction.  Undirected graphs are modeled as symmetric
digraphs (both arcs for every edge).  Instances are immutable after
construction and safe to share between threads and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


class NotStrongError(ValueError):
    """An operation required strong connectivity and the input lacks it.

    ``pair`` names one ordered pair (u, v) with no dipath from u to v.
    """

    def __init__(self, pair: Tuple[int, int]):
        self.pair = pair
        super().__init__(
            f"digraph is not strong: no dipath from {pair[0]} to {pair[1]}"
        )


class Digraph:
    """Immutable simple digraph on vertices 0..n-1.

    The reverse rows (``_rev``) and the distance kernel's result (``_dist``,
    filled and read only by ``cached_distance_sums``) are cached on first
    use.  Each is a pure function of the rows and its write is idempotent,
    so the instance stays immutable and safe to share; equality, hashing and
    pickling ignore both.
    """

    __slots__ = ("n", "rows", "_rev", "_dist")

    def __init__(self, n: int, rows: Sequence[int]):
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        mask = (1 << n) - 1
        for u, r in enumerate(rows):
            if r & ~mask:
                raise ValueError(f"row {u} targets vertices outside 0..{n - 1}")
            if (r >> u) & 1:
                raise ValueError(f"loop pair ({u}, {u}) is not allowed")
        self.n = n
        self.rows = rows
        self._rev: Optional[Tuple[int, ...]] = None
        self._dist = None

    @property
    def m(self) -> int:
        """Number of arcs."""
        return sum(r.bit_count() for r in self.rows)

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def arcs(self) -> Iterator[Tuple[int, int]]:
        """All arcs (u, v) in lexicographic order."""
        bits = frontier_bits(self.n)
        for u, r in enumerate(self.rows):
            for v in bits[r]:
                yield (u, v)

    def out_degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    @property
    def reverse_rows(self) -> Tuple[int, ...]:
        """Adjacency rows of the arc-reversed digraph (computed once)."""
        if self._rev is None:
            bits = frontier_bits(self.n)
            rev = [0] * self.n
            for u, r in enumerate(self.rows):
                for v in bits[r]:
                    rev[v] |= 1 << u
            self._rev = tuple(rev)
        return self._rev

    def reverse(self) -> "Digraph":
        return Digraph(self.n, self.reverse_rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __reduce__(self):
        return Digraph, (self.n, self.rows)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DegreeSummary:
    """Per-vertex degrees with the six classical extremes."""

    out_degrees: Tuple[int, ...]
    in_degrees: Tuple[int, ...]
    max_out: int
    min_out: int
    max_in: int
    min_in: int
    max_semi: int
    min_semi: int

    def as_json_dict(self) -> dict:
        return {
            "out_degrees": list(self.out_degrees),
            "in_degrees": list(self.in_degrees),
            "max_out": self.max_out,
            "min_out": self.min_out,
            "max_in": self.max_in,
            "min_in": self.min_in,
            "max_semi": self.max_semi,
            "min_semi": self.min_semi,
        }


@dataclass(frozen=True)
class PartiteStructure:
    """A partition of the vertex set, ordered by (size, smallest label)."""

    parts: Tuple[Tuple[int, ...], ...]


def _check_pair(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"pair ({u}, {v}) has a label outside 0..{n - 1}")
    if u == v:
        raise ValueError(f"loop pair ({u}, {v}) is not allowed")


def from_edge_list(n: int, pairs: Iterable[Tuple[int, int]]) -> Digraph:
    """Build a digraph from ordered pairs; duplicates collapse to one arc."""
    rows = [0] * n
    for u, v in pairs:
        _check_pair(n, u, v)
        rows[u] |= 1 << v
    return Digraph(n, rows)


def from_undirected_edge_list(n: int, pairs: Iterable[Tuple[int, int]]) -> Digraph:
    """Build a symmetric digraph: each edge {u, v} yields both arcs."""
    rows = [0] * n
    for u, v in pairs:
        _check_pair(n, u, v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Digraph(n, rows)


#: Largest order whose frontier masks are all tabulated (2**12 entries).
FRONTIER_TABLE_CAP = 12


class _DecodedBits:
    """``frontier_bits`` above the table cap: decodes each mask on lookup."""

    __slots__ = ()

    def __getitem__(self, mask: int) -> List[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out


@cache
def frontier_bits(n: int):
    """The frontier primitive and the one set-bit walk: ``frontier_bits(n)[mask]``
    lists the vertices of an n-bit ``mask`` in increasing order, so a BFS step
    is ``for v in bits[frontier]: nxt |= rows[v]``, written once, in
    ``bfs_layers``.  Up to FRONTIER_TABLE_CAP it is a tuple indexed by every
    mask, built on first use; above it, a mapping that decodes the mask on
    demand."""
    if n > FRONTIER_TABLE_CAP:
        return _DecodedBits()
    table = [()]
    for v in range(n):
        table += [t + (v,) for t in table]
    return tuple(table)


def bfs_layers(rows: Sequence[int], source: int) -> Iterator[int]:
    """The one scalar BFS: yields the mask of ``source``, then the layer of
    vertices at distance 1, 2, ... from it, until no new vertex is reached.
    Each layer is expanded only when the next one is asked for."""
    bits = frontier_bits(len(rows))
    seen = frontier = 1 << source
    while frontier:
        yield frontier
        nxt = 0
        for v in bits[frontier]:
            nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= frontier


def reach_within(rows: Sequence[int], source: int, steps: int) -> int:
    """Bitmask of the vertices within ``steps`` arcs of ``source`` (itself
    included); with steps >= n - 1, every vertex reachable from it."""
    seen = 0
    for layer in islice(bfs_layers(rows, source), steps + 1):
        seen |= layer
    return seen


def distance_sums(rows: Sequence[int], n: int):
    """Per-vertex distance sums and eccentricities of the digraph on ``rows``.

    Returns (sigmas, eccs), or (None, (u, v)) naming an unreachable ordered
    pair when the digraph is not strong: the smallest source that misses a
    vertex, with the smallest vertex it misses.  This is the kernel for a
    single digraph, over ``bfs_layers``; a source stops at the layer that
    completes its reach.
    """
    full = (1 << n) - 1
    sigmas = []
    eccs = []
    for u in range(n):
        seen = sig = 0
        for d, layer in enumerate(bfs_layers(rows, u)):
            sig += d * layer.bit_count()
            seen |= layer
            if seen == full:
                break
        else:
            missing = ~seen & full
            return None, (u, (missing & -missing).bit_length() - 1)
        sigmas.append(sig)
        eccs.append(d)
    return sigmas, eccs


def cached_distance_sums(D: Digraph, known=None):
    """``distance_sums`` of D, run at most once per Digraph and kept in its
    ``_dist`` slot: (sigmas, eccs) as tuples, or (None, (u, v)).  A strong
    result ``known`` from a kernel with the same output is kept in its place."""
    dist = D._dist
    if dist is None:
        sigmas, eccs = distance_sums(D.rows, D.n) if known is None else known
        dist = D._dist = (None, eccs) if sigmas is None else (tuple(sigmas), tuple(eccs))
    return dist


def is_strong(D: Digraph) -> bool:
    """True when every ordered vertex pair is joined by a dipath.

    A single vertex counts as strong.
    """
    return find_unreachable_pair(D) is None


def find_unreachable_pair(D: Digraph) -> Optional[Tuple[int, int]]:
    """Some ordered pair (u, v) with no (u, v)-dipath, or None if strong.

    The pair is the one ``distance_sums`` names, read from D's kernel memo,
    which the first call fills.
    """
    sigmas, pair = cached_distance_sums(D)
    return pair if sigmas is None else None


def complement(D: Digraph) -> Digraph:
    """Arc (u, v) present iff u != v and (u, v) absent from D."""
    n = D.n
    full = (1 << n) - 1
    return Digraph(n, tuple((full & ~D.rows[u] & ~(1 << u)) for u in range(n)))


def is_symmetric(D: Digraph) -> bool:
    """True when the digraph models an undirected graph (arcs come in pairs)."""
    return D.rows == D.reverse_rows


def degree_summary(D: Digraph) -> DegreeSummary:
    out = tuple(r.bit_count() for r in D.rows)
    inn = tuple(r.bit_count() for r in D.reverse_rows)
    max_out, min_out = max(out), min(out)
    max_in, min_in = max(inn), min(inn)
    return DegreeSummary(
        out_degrees=out,
        in_degrees=inn,
        max_out=max_out,
        min_out=min_out,
        max_in=max_in,
        min_in=min_in,
        max_semi=max(max_out, max_in),
        min_semi=min(min_out, min_in),
    )


def is_regular(D) -> bool:
    """True when every out-degree and every in-degree equals one d.  Reads
    only ``D.n`` and ``D.rows``, so any record with those fields will do."""
    rows = D.rows
    d = rows[0].bit_count()
    return all(r.bit_count() == d for r in rows) and all(
        sum(r >> v & 1 for r in rows) == d for v in range(D.n)
    )


def is_tournament(D) -> bool:
    """True when every unordered pair carries exactly one arc: n(n-1)/2 arcs
    and no 2-cycle.  Reads only ``D.n`` and ``D.rows``, so any record with
    those fields will do."""
    n, rows = D.n, D.rows
    bits = frontier_bits(n)
    return 2 * sum(r.bit_count() for r in rows) == n * (n - 1) and not any(
        rows[v] >> u & 1 for u, r in enumerate(rows) for v in bits[r]
    )


def bipartite_tournament_structure(D: Digraph) -> Optional[PartiteStructure]:
    """The bipartition of an oriented complete bipartite graph, or None.

    Vertex 0's part is vertex 0 and the vertices it shares no arc with.  The
    input qualifies when the other part is not empty, no pair carries two
    arcs, and every vertex is adjacent to exactly the other part.  The parts
    are ordered by (size, smallest label).
    """
    n, rows, rev = D.n, D.rows, D.reverse_rows
    full = (1 << n) - 1
    part = full & ~(rows[0] | rev[0])
    other = full & ~part
    if not other:
        return None
    for u in range(n):
        if rows[u] & rev[u] or (rows[u] | rev[u]) != (other if part >> u & 1 else part):
            return None
    bits = frontier_bits(n)
    parts = sorted((tuple(bits[part]), tuple(bits[other])), key=lambda p: (len(p), p[0]))
    return PartiteStructure(parts=tuple(parts))


def blow_up(D: Digraph, t: int) -> Digraph:
    """Replace each vertex by t independent copies, preserving adjacency.

    Vertex x maps to copies x*t .. x*t+t-1; copies of adjacent vertices are
    fully joined in the arc's direction, copies of one vertex stay
    non-adjacent.  blow_up(D, 1) equals D under this labeling.
    """
    if t < 1:
        raise ValueError(f"blow-up factor must be >= 1, got {t}")
    bits = frontier_bits(D.n)
    block = (1 << t) - 1
    rows = []
    for r in D.rows:
        e = 0
        for v in bits[r]:
            e |= block << (v * t)
        rows.extend([e] * t)
    return Digraph(D.n * t, rows)


def permute(D: Digraph, perm: Sequence[int]) -> Digraph:
    """Relabel vertices: vertex v becomes perm[v]."""
    n = D.n
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    bits = frontier_bits(n)
    rows = [0] * n
    for u, r in enumerate(D.rows):
        img = 0
        for v in bits[r]:
            img |= 1 << perm[v]
        rows[perm[u]] = img
    return Digraph(n, rows)
