"""Isomorphism via individualization–refinement canonical labeling.

The search follows McKay & Piperno, *Practical graph isomorphism II*
(J. Symb. Comput. 2014).  An ordered partition of the vertices is refined
to an equitable one: each cell of a splitter queue splits every cell by
the vertices' (out-count, in-count) into it, the sub-cells taking the
place of their cell in key order.  A node of the search tree individualizes
one vertex of the first non-singleton cell and refines again; a discrete
partition is a leaf, and lists the vertices in a labeling.  The canonical
form is the smallest row-major adjacency bit matrix, packed into bytes,
over the leaves.  Refinement and the choice of target cell commute with
relabeling, so isomorphic digraphs reach the same minimum, and equal forms
are relabelings of one matrix: two digraphs are isomorphic exactly when
their forms agree.

Two leaves with the same matrix give an automorphism.  A child whose
vertex shares an orbit with an explored child, under the automorphisms
found so far that fix the node's individualized vertices, roots a subtree
with the same leaf matrices and is skipped; a leaf that repeats the matrix
of a leaf in an earlier sibling subtree ends its own subtree the same way.

Bipartite tournaments need no part-respecting variant.  Their parts are the
components of the non-adjacency relation, which every isomorphism preserves,
so it maps parts onto parts of equal size: plain forms classify them up to
relabelings within the parts and, when the sizes agree, a swap of the parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .digraph import Digraph, frontier_bits

#: Largest order canonicalized, the largest order the distance kernel is tested at.
CANONICAL_CEILING = 27


@dataclass(frozen=True)
class CanonicalForm:
    n: int
    bytes: bytes


def _refine(rows, rev, lab: List[int], size: List[int], queue: List[int]) -> None:
    """Refine the ordered partition in place to an equitable one.

    A cell is a run ``lab[s:s + size[s]]`` named by its start ``s``; the
    first sub-cell of a split keeps the start.  ``queue`` holds the starts of
    the splitter cells; every sub-cell a split makes joins it.
    """
    n = len(lab)
    queued = [False] * n
    for s in queue:
        queued[s] = True
    cells = n - size.count(0)
    i = 0
    while i < len(queue) and cells < n:
        s = queue[i]
        i += 1
        queued[s] = False
        mask = 0
        for v in lab[s:s + size[s]]:
            mask |= 1 << v
        start = 0
        while start < n:
            length = size[start]
            if length > 1:
                cell = lab[start:start + length]
                keys = [(rows[v] & mask).bit_count() << 5 | (rev[v] & mask).bit_count() for v in cell]
                if keys.count(keys[0]) != length:
                    order = sorted(range(length), key=keys.__getitem__)
                    lab[start:start + length] = [cell[j] for j in order]
                    first = start
                    for at in range(1, length):
                        if keys[order[at]] != keys[order[at - 1]]:
                            size[first] = start + at - first
                            if not queued[first]:
                                queued[first] = True
                                queue.append(first)
                            first = start + at
                            cells += 1
                    size[first] = start + length - first
                    queued[first] = True
                    queue.append(first)
            start += length


def _leaf_key(rows, lab: List[int]) -> int:
    """The row-major adjacency bit matrix of the labeling ``lab`` as one int."""
    n = len(lab)
    bits = frontier_bits(n)
    column = [0] * n
    for i, v in enumerate(lab):
        column[v] = 1 << (n - 1 - i)
    key = 0
    for v in lab:
        row = 0
        for u in bits[rows[v]]:
            row |= column[u]
        key = key << n | row
    return key


def _close_orbits(reached: set, generators: List[List[int]], prefix: List[int]) -> None:
    """Close ``reached`` in place under the generators that fix every vertex
    of ``prefix``."""
    gens = [g for g in generators if all(g[p] == p for p in prefix)]
    stack = list(reached)
    while stack:
        v = stack.pop()
        for g in gens:
            u = g[v]
            if u not in reached:
                reached.add(u)
                stack.append(u)


def _smallest_leaf(rows, rev, lab: List[int], size: List[int]) -> int:
    """The smallest leaf key of the search tree below the equitable partition
    ``(lab, size)``, pruned by the automorphisms its leaves reveal."""
    n = len(lab)
    seen: Dict[int, Tuple[List[int], List[int]]] = {}  # leaf key -> (path, labeling)
    generators: List[List[int]] = []
    prefix: List[int] = []

    def visit(lab: List[int], size: List[int]) -> Optional[int]:
        """Explore one node; returns the depth to jump back to, if any."""
        target = next((s for s in range(n) if size[s] > 1), None)
        if target is None:
            key = _leaf_key(rows, lab)
            if key not in seen:
                seen[key] = (prefix[:], lab)
                return None
            path, other = seen[key]
            g = [0] * n
            for u, v in zip(other, lab):
                g[u] = v
            generators.append(g)
            # g fixes the shared prefix and maps the explored sibling subtree
            # where the two paths part onto the current one: leave it.
            depth = 0
            while path[depth] == prefix[depth]:
                depth += 1
            return depth
        depth = len(prefix)
        cell = lab[target:target + size[target]]
        explored: set = set()
        for w in cell:
            if w in explored:
                continue
            child = lab[:]
            child[target:target + len(cell)] = [w] + [v for v in cell if v != w]
            child_size = size[:]
            child_size[target] = 1
            child_size[target + 1] = len(cell) - 1
            _refine(rows, rev, child, child_size, [target])
            prefix.append(w)
            jump = visit(child, child_size)
            prefix.pop()
            if jump is not None and jump < depth:
                return jump
            explored.add(w)
            _close_orbits(explored, generators, prefix)
        return None

    visit(lab, size)
    return min(seen)


def canonical_form(D: Digraph) -> CanonicalForm:
    """Minimal adjacency matrix over the leaves of the individualization–
    refinement tree rooted at the unit partition."""
    n = D.n
    if n > CANONICAL_CEILING:
        raise ValueError(f"canonical form is capped at order {CANONICAL_CEILING}; got order {n}")
    rows, rev = D.rows, D.reverse_rows
    lab = list(range(n))
    size = [n] + [0] * (n - 1)
    _refine(rows, rev, lab, size, [0])
    key = _smallest_leaf(rows, rev, lab, size)
    nbits = n * n
    nbytes = (nbits + 7) // 8
    return CanonicalForm(n=n, bytes=(key << (nbytes * 8 - nbits)).to_bytes(nbytes, "big"))


def are_isomorphic(A: Digraph, B: Digraph) -> bool:
    """True when A and B have the same canonical form."""
    return A.n == B.n and canonical_form(A) == canonical_form(B)
