"""Structure analysis of strong bipartite tournaments.

A bipartite tournament is *bad* when some vertex's out-neighborhood nests
properly inside another's (checked within each part; across parts a proper
nesting would need an empty out-neighborhood, impossible in a strong
instance), otherwise *good*.  Good strong instances have eccentricity at
most 4 everywhere, which pins each vertex's distance profile down to a
closed form in (out-degree, out-neighborhood class size); that closed form
is what decides proximity == remoteness here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .digraph import (
    Digraph,
    PartiteStructure,
    bipartite_tournament_structure,
)
from .metrics import sigma_ecc_vectors


@dataclass(frozen=True)
class BipartiteReport:
    """Equality-criterion verdict for one strong bipartite tournament."""

    structure: PartiteStructure
    good: bool
    bad_witness: Optional[Tuple[int, int]]
    per_vertex: Tuple[Tuple[int, int, int, int], ...]  # (vertex, out_deg, mu, sigma)
    constant_c: Optional[int]
    pi_equals_rho: bool

    def as_json_dict(self) -> dict:
        return {
            "parts": [list(p) for p in self.structure.parts],
            "good": self.good,
            "bad_witness": list(self.bad_witness) if self.bad_witness else None,
            "per_vertex": [
                {"vertex": v, "out_degree": d, "mu": mu, "sigma": s}
                for v, d, mu, s in self.per_vertex
            ],
            "constant_c": self.constant_c,
            "pi_equals_rho": self.pi_equals_rho,
        }


def require_bipartite_tournament(D: Digraph) -> PartiteStructure:
    structure = bipartite_tournament_structure(D)
    if structure is None:
        raise ValueError("input is not an orientation of a complete bipartite graph")
    return structure


def part_lookup(parts: Sequence[Sequence[int]], n: int) -> List[Sequence[int]]:
    """``lookup[v]`` is the part containing vertex v."""
    lookup: List[Sequence[int]] = [()] * n
    for part in parts:
        for v in part:
            lookup[v] = part
    return lookup


def bad_witness(rows: Sequence[int], parts: Sequence[Sequence[int]]) -> Optional[Tuple[int, int]]:
    """The smallest pair (u, v) of one part with the out-neighborhood of u
    properly contained in that of v, or None when the instance is good.

    Each part lists its vertices in increasing order, in any order of the
    parts: u runs over every vertex in turn, so the first pair found is the
    smallest.
    """
    part_of = part_lookup(parts, len(rows))
    for u, ru in enumerate(rows):
        for v in part_of[u]:
            rv = rows[v]
            if ru != rv and ru & rv == ru:
                return (u, v)
    return None


def class_sizes(rows: Sequence[int], parts: Sequence[Sequence[int]]) -> List[int]:
    """mu per vertex: how many vertices of its part share its out-neighborhood."""
    mu = [0] * len(rows)
    for part in parts:
        counts: Dict[int, int] = {}
        for v in part:
            counts[rows[v]] = counts.get(rows[v], 0) + 1
        for v in part:
            mu[v] = counts[rows[v]]
    return mu


def shared_value(values: Sequence[int]) -> Optional[int]:
    """The one value every entry takes, or None."""
    distinct = set(values)
    return distinct.pop() if len(distinct) == 1 else None


def class_constants(
    rows: Sequence[int], parts: Sequence[Sequence[int]], mu: Sequence[int]
) -> List[int]:
    """c(v) = 2*(mu(v) - d+(v)) + |other part| per vertex.

    On a good strong instance the distance sum of v is c(v) + 2n - 4 (see
    ``formula_sigmas``), so proximity equals remoteness exactly when c is
    constant.
    """
    n = len(rows)
    c = [0] * n
    for part in parts:
        other = n - len(part)
        for v in part:
            c[v] = 2 * (mu[v] - rows[v].bit_count()) + other
    return c


def formula_sigmas(c: Sequence[int]) -> List[int]:
    """Closed-form distance sums 2*(mu - d+) + 2*|own part| + 3*|other part| - 4
    of a good strong instance, from its class constants."""
    shift = 2 * len(c) - 4
    return [x + shift for x in c]


def beats_half(rows: Sequence[int], parts: Sequence[Sequence[int]]) -> bool:
    """True when every vertex beats exactly half of the opposite part."""
    n = len(rows)
    for part in parts:
        other = n - len(part)
        for v in part:
            if 2 * rows[v].bit_count() != other:
                return False
    return True


def check_equality_criterion(D: Digraph) -> BipartiteReport:
    """Full verdict: good/bad, per-vertex table, the constant, and whether
    the exact metrics agree that proximity equals remoteness."""
    structure = require_bipartite_tournament(D)
    sigmas, _ = sigma_ecc_vectors(D)
    rows, parts = D.rows, structure.parts
    witness = bad_witness(rows, parts)
    mu = class_sizes(rows, parts)
    per_vertex = tuple((v, rows[v].bit_count(), mu[v], sigmas[v]) for v in range(D.n))
    return BipartiteReport(
        structure=structure,
        good=witness is None,
        bad_witness=witness,
        per_vertex=per_vertex,
        constant_c=shared_value(class_constants(rows, parts, mu)) if witness is None else None,
        pi_equals_rho=min(sigmas) == max(sigmas),
    )

