"""Labeled digraphs stored as packed adjacency bit rows.

Vertices are the integers 0..n-1.  Row ``u`` is a Python int whose bit ``v``
is set exactly when the arc (u, v) is present; loops and parallel arcs are
excluded by construction.  Undirected graphs are modeled as symmetric
digraphs (both arcs for every edge).  Instances are immutable after
construction and safe to share between threads and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple


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
    """Immutable simple digraph on vertices 0..n-1."""

    __slots__ = ("n", "rows", "_rev")

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

    @property
    def m(self) -> int:
        """Number of arcs."""
        return sum(r.bit_count() for r in self.rows)

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def arcs(self) -> Iterator[Tuple[int, int]]:
        """All arcs (u, v) in lexicographic order."""
        for u, r in enumerate(self.rows):
            while r:
                low = r & -r
                yield (u, low.bit_length() - 1)
                r ^= low

    def out_degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def in_degree(self, u: int) -> int:
        return self.reverse_rows[u].bit_count()

    @property
    def reverse_rows(self) -> Tuple[int, ...]:
        """Adjacency rows of the arc-reversed digraph (computed once)."""
        if self._rev is None:
            n = self.n
            rev = [0] * n
            for u, r in enumerate(self.rows):
                bit = 1 << u
                while r:
                    low = r & -r
                    rev[low.bit_length() - 1] |= bit
                    r ^= low
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

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(p) for p in self.parts)


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


def reach_within(rows: Sequence[int], source: int, steps: int) -> int:
    """Bitmask of the vertices within ``steps`` arcs of ``source`` (itself
    included); with steps >= n - 1, every vertex reachable from it."""
    seen = frontier = 1 << source
    for _ in range(steps):
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        if not frontier:
            break
        seen |= frontier
    return seen


def is_strong(D: Digraph) -> bool:
    """True when every ordered vertex pair is joined by a dipath.

    A single vertex counts as strong.
    """
    return find_unreachable_pair(D) is None


def find_unreachable_pair(D: Digraph) -> Optional[Tuple[int, int]]:
    """Some ordered pair (u, v) with no (u, v)-dipath, or None if strong.

    Decided by forward and backward reachability from vertex 0, which is
    equivalent to a full strong-components pass for this yes/no question.
    """
    n = D.n
    full = (1 << n) - 1
    fwd = reach_within(D.rows, 0, n - 1)
    if fwd != full:
        missing = (~fwd & full)
        return (0, (missing & -missing).bit_length() - 1)
    bwd = reach_within(D.reverse_rows, 0, n - 1)
    if bwd != full:
        missing = (~bwd & full)
        return ((missing & -missing).bit_length() - 1, 0)
    return None


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


def is_regular(D: Digraph) -> bool:
    """True when the minimum and maximum semi-degrees coincide."""
    ds = degree_summary(D)
    return ds.min_semi == ds.max_semi


def is_tournament(D: Digraph) -> bool:
    """True when every unordered pair carries exactly one arc."""
    n = D.n
    rows = D.rows
    rev = D.reverse_rows
    full = (1 << n) - 1
    for u in range(n):
        if rows[u] & rev[u]:
            return False
        if (rows[u] | rev[u] | (1 << u)) != full:
            return False
    return True


def multipartite_tournament_structure(D: Digraph) -> Optional[PartiteStructure]:
    """The partition of an oriented complete multipartite graph, or None.

    The parts are recovered as the connected components of the
    non-adjacency relation, then validated: at least two parts, no arc
    inside a part, exactly one arc across every cross pair.  Parts are
    ordered by (size, smallest label).  A tournament comes back as n
    singleton parts.
    """
    n = D.n
    if n < 2:
        return None
    rows = D.rows
    rev = D.reverse_rows
    full = (1 << n) - 1
    # An orientation never carries both arcs of a pair.
    for u in range(n):
        if rows[u] & rev[u]:
            return None
    nonadj = [full & ~(rows[u] | rev[u] | (1 << u)) for u in range(n)]
    unvisited = full
    comps = []
    while unvisited:
        start = (unvisited & -unvisited).bit_length() - 1
        comp = reach_within(nonadj, start, n - 1)
        comps.append(comp)
        unvisited &= ~comp
    if len(comps) < 2:
        return None
    for comp in comps:
        other = full & ~comp
        c = comp
        while c:
            low = c & -c
            u = low.bit_length() - 1
            # no arc inside the part, an arc across every cross pair
            if rows[u] & comp:
                return None
            if (rows[u] | rev[u]) & other != other:
                return None
            c ^= low
    parts = sorted(
        (tuple(v for v in range(n) if (comp >> v) & 1) for comp in comps),
        key=lambda p: (len(p), p[0]),
    )
    return PartiteStructure(parts=tuple(parts))


def bipartite_tournament_structure(D: Digraph) -> Optional[PartiteStructure]:
    """The bipartition of an oriented complete bipartite graph, or None."""
    structure = multipartite_tournament_structure(D)
    if structure is None or len(structure.parts) != 2:
        return None
    return structure


def blow_up(D: Digraph, t: int) -> Digraph:
    """Replace each vertex by t independent copies, preserving adjacency.

    Vertex x maps to copies x*t .. x*t+t-1; copies of adjacent vertices are
    fully joined in the arc's direction, copies of one vertex stay
    non-adjacent.  blow_up(D, 1) equals D under this labeling.
    """
    if t < 1:
        raise ValueError(f"blow-up factor must be >= 1, got {t}")
    n = D.n
    block = (1 << t) - 1
    expanded = []
    for u in range(n):
        r = D.rows[u]
        e = 0
        while r:
            low = r & -r
            e |= block << ((low.bit_length() - 1) * t)
            r ^= low
        expanded.append(e)
    rows = []
    for u in range(n):
        rows.extend([expanded[u]] * t)
    return Digraph(n * t, rows)


def permute(D: Digraph, perm: Sequence[int]) -> Digraph:
    """Relabel vertices: vertex v becomes perm[v]."""
    n = D.n
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    rows = [0] * n
    for u in range(n):
        r = D.rows[u]
        img = 0
        while r:
            low = r & -r
            img |= 1 << perm[low.bit_length() - 1]
            r ^= low
        rows[perm[u]] = img
    return Digraph(n, rows)
