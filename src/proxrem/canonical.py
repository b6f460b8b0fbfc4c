"""Isomorphism via colour-refined minimal adjacency matrices.

Colour refinement (the first stage of McKay & Piperno's partition
refinement) splits the vertices into cells by out- and in-degree, then by
the colours of out- and in-neighbours, until no cell splits.  The canonical
form is the smallest row-major adjacency bit matrix, packed into bytes, over
the labelings that list the cells in colour order, each cell permuted.
Refinement commutes with relabeling, so isomorphic digraphs reach the same
minimum, and equal forms are relabelings of one matrix: two digraphs are
isomorphic exactly when their forms agree.  Part-respecting forms seed the
colours with the part index, both orders when the parts have equal size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations, product
from math import factorial, prod
from typing import Iterable, List, Optional, Sequence, Tuple

from .digraph import Digraph

#: Largest number of labelings searched (10!, the full search at order 10).
CANONICAL_CEILING = factorial(10)


@dataclass(frozen=True)
class CanonicalForm:
    n: int
    bytes: bytes


def _rank(keys: Sequence) -> List[int]:
    index = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [index[k] for k in keys]


def _cells(D: Digraph, seed: Sequence[int]) -> List[List[int]]:
    """Vertices grouped by refined colour, in colour order.  A round keys each
    vertex by its colour and its out- and in-neighbour count in every cell."""
    n = D.n
    rows, rev = D.rows, D.reverse_rows
    colour = _rank(seed)
    count = max(colour) + 1
    while count < n:
        masks = [0] * count
        for v, c in enumerate(colour):
            masks[c] |= 1 << v
        refined = _rank([
            (colour[v], *[(rows[v] & m).bit_count() for m in masks],
             *[(rev[v] & m).bit_count() for m in masks])
            for v in range(n)
        ])
        refined_count = max(refined) + 1
        if refined_count == count:
            break
        colour, count = refined, refined_count
    cells: List[List[int]] = [[] for _ in range(count)]
    for v, c in enumerate(colour):
        cells[c].append(v)
    return cells


def _labelings(cells: List[List[int]]) -> Iterable[Tuple[int, ...]]:
    if len(cells) == 1:
        # Vertex-transitive inputs never split: skip flattening per labeling.
        return permutations(cells[0])
    return (tuple(chain.from_iterable(c)) for c in product(*map(permutations, cells)))


def _seeds(n: int, parts: Optional[Sequence[Sequence[int]]]) -> List[List[int]]:
    if parts is None:
        return [[0] * n]
    if sorted(v for p in parts for v in p) != list(range(n)):
        raise ValueError("parts must cover every vertex exactly once")
    if len(parts) != 2:
        raise ValueError("part-respecting canonical form supports two parts")
    a, b = parts
    seconds = (b, a) if len(a) == len(b) else (b,)
    return [[int(v in second) for v in range(n)] for second in seconds]


def canonical_form(
    D: Digraph, parts: Optional[Sequence[Sequence[int]]] = None
) -> CanonicalForm:
    """Minimal adjacency matrix over the colour-refined (part-respecting)
    labelings."""
    n = D.n
    all_cells = [_cells(D, seed) for seed in _seeds(n, parts)]
    size = sum(prod(factorial(len(c)) for c in cells) for cells in all_cells)
    if size > CANONICAL_CEILING:
        raise ValueError(
            f"canonical form is capped at {CANONICAL_CEILING} labelings "
            f"(exhaustive search within refined cells); got {size} at order {n}"
        )
    rows = D.rows
    best: Optional[Tuple[int, ...]] = None
    for p in chain.from_iterable(map(_labelings, all_cells)):
        r = rows[p[0]]
        r0 = 0
        for q in p:
            r0 = (r0 << 1) | ((r >> q) & 1)
        if best is not None and r0 > best[0]:
            continue
        key = [r0]
        for i in range(1, n):
            r = rows[p[i]]
            ri = 0
            for q in p:
                ri = (ri << 1) | ((r >> q) & 1)
            key.append(ri)
        tkey = tuple(key)
        if best is None or tkey < best:
            best = tkey
    assert best is not None
    acc = 0
    for ri in best:
        acc = (acc << n) | ri
    nbits = n * n
    nbytes = (nbits + 7) // 8
    acc <<= nbytes * 8 - nbits
    return CanonicalForm(n=n, bytes=acc.to_bytes(nbytes, "big"))


def are_isomorphic(A: Digraph, B: Digraph) -> bool:
    """True when A and B have the same canonical form."""
    return A.n == B.n and canonical_form(A) == canonical_form(B)
