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
    NotStrongError,
    PartiteStructure,
    bipartite_tournament_structure,
    find_unreachable_pair,
)
from .metrics import sigma_ecc_vectors


@dataclass(frozen=True)
class NeighborhoodClass:
    """Vertices of one part sharing an identical out-neighborhood."""

    representative: int
    members: Tuple[int, ...]

    @property
    def mu(self) -> int:
        return len(self.members)


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


def bad_witness(rows: Sequence[int], part_of: Sequence[Sequence[int]]) -> Optional[Tuple[int, int]]:
    """The smallest pair (u, v) of one part with the out-neighborhood of u
    properly contained in that of v, or None when the instance is good.

    ``part_of[u]`` lists the vertices of u's part in increasing order (see
    ``part_lookup``), so the first pair found is the smallest.
    """
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


def classify_good_bad(D: Digraph) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """(good, witness): witness is the smallest pair (u, v) with
    the out-neighborhood of u properly contained in that of v."""
    witness = bad_witness(D.rows, part_lookup(require_bipartite_tournament(D).parts, D.n))
    return witness is None, witness


def neighborhood_classes(D: Digraph) -> List[NeighborhoodClass]:
    """Equivalence classes of equal out-neighborhoods within each part."""
    classes: List[NeighborhoodClass] = []
    for part in require_bipartite_tournament(D).parts:
        groups: Dict[int, List[int]] = {}
        for v in part:
            groups.setdefault(D.rows[v], []).append(v)
        for members in groups.values():
            members.sort()
            classes.append(
                NeighborhoodClass(representative=members[0], members=tuple(members))
            )
    classes.sort(key=lambda c: c.representative)
    return classes


def mu_values(D: Digraph) -> Dict[int, int]:
    """Class size (mu) per vertex."""
    return dict(enumerate(class_sizes(D.rows, require_bipartite_tournament(D).parts)))


def _good_strong_classes(D: Digraph, what: str) -> Tuple[Sequence[Sequence[int]], List[int]]:
    """(parts, mu) of a good strong bipartite tournament; raises ValueError
    on other input (NotStrongError when it is not strong)."""
    parts = require_bipartite_tournament(D).parts
    pair = find_unreachable_pair(D)
    if pair is not None:
        raise NotStrongError(pair)
    witness = bad_witness(D.rows, part_lookup(parts, D.n))
    if witness is not None:
        raise ValueError(f"{what} needs a good instance; bad witness {witness}")
    return parts, class_sizes(D.rows, parts)


def sigma_by_formula(D: Digraph, v: int) -> int:
    """Closed-form distance sum for a vertex of a good strong bipartite
    tournament: 2*(mu(v) - d+(v)) + 2*|own part| + 3*|other part| - 4.

    The form relies on every vertex having eccentricity at most 4, which
    holds exactly for good strong instances; both preconditions are
    enforced.
    """
    parts, mu = _good_strong_classes(D, "formula")
    if not 0 <= v < D.n:
        raise ValueError(f"vertex {v} outside 0..{D.n - 1}")
    return formula_sigmas(class_constants(D.rows, parts, mu))[v]


def equality_constant(D: Digraph) -> Optional[int]:
    """The shared constant c with 2*(mu - d+) + |other part| == c for every
    vertex, or None when no such constant exists."""
    parts = require_bipartite_tournament(D).parts
    return shared_value(class_constants(D.rows, parts, class_sizes(D.rows, parts)))


def check_equality_criterion(D: Digraph) -> BipartiteReport:
    """Full verdict: good/bad, per-vertex table, the constant, and whether
    the exact metrics agree that proximity equals remoteness."""
    structure = require_bipartite_tournament(D)
    sigmas, _ = sigma_ecc_vectors(D)
    rows, parts = D.rows, structure.parts
    witness = bad_witness(rows, part_lookup(parts, D.n))
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


def check_cor_reg(D: Digraph) -> bool:
    """Degree test for constant-class instances: every vertex must beat
    exactly half of the opposite part.

    Preconditions: good, strong, and one shared class size over all
    vertices of both parts; raises ValueError otherwise.
    """
    parts, mu = _good_strong_classes(D, "degree test")
    if shared_value(mu) is None:
        raise ValueError("degree test needs one class size shared by every vertex")
    return beats_half(D.rows, parts)
