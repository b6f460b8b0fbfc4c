"""Exact distance invariants: per-vertex profiles, proximity and remoteness.

All whole-digraph quantities are exact: distance sums are integers and the
averaged invariants are ``fractions.Fraction`` values, so equality tests
such as proximity == remoteness carry no tolerance at all.  Floating point
appears only in display strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .digraph import (
    DegreeSummary,
    Digraph,
    NotStrongError,
    degree_summary,
    is_regular,
    is_symmetric,
    is_tournament,
    reach_within,
)


def distance_layers(rows: Sequence[int], n: int, source: int) -> List[int]:
    """BFS layer bitmasks from ``source``; layers[i] holds distance-i vertices."""
    seen = 1 << source
    frontier = 1 << source
    layers = [frontier]
    while True:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= rows[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        if not frontier:
            return layers
        layers.append(frontier)
        seen |= frontier


@dataclass(frozen=True)
class DistanceProfile:
    """BFS output from one source vertex.

    ``dist`` holds None for unreachable vertices.  ``sigma`` is the total
    distance to all other vertices and is None (undefined, never a sentinel)
    unless every vertex is reachable; ``ecc`` is likewise None when the
    profile is incomplete.  ``distance_degree`` counts vertices per distance
    over the reachable set.
    """

    source: int
    dist: Tuple[Optional[int], ...]
    ecc: Optional[int]
    sigma: Optional[int]
    distance_degree: Tuple[int, ...]
    complete: bool


def bfs_profile(D: Digraph, source: int) -> DistanceProfile:
    if not 0 <= source < D.n:
        raise ValueError(f"source {source} outside 0..{D.n - 1}")
    layers = distance_layers(D.rows, D.n, source)
    dist: List[Optional[int]] = [None] * D.n
    sigma = 0
    for d, layer in enumerate(layers):
        sigma += d * layer.bit_count()
        while layer:
            low = layer & -layer
            dist[low.bit_length() - 1] = d
            layer ^= low
    degree_seq = tuple(layer.bit_count() for layer in layers)
    complete = sum(degree_seq) == D.n
    return DistanceProfile(
        source=source,
        dist=tuple(dist),
        ecc=len(layers) - 1 if complete else None,
        sigma=sigma if complete else None,
        distance_degree=degree_seq,
        complete=complete,
    )


def g_of(xs: Sequence[int]) -> int:
    """Weighted sum of a sequence by position: sum of i * xs[i]."""
    return sum(i * x for i, x in enumerate(xs))


def distance_sums(rows: Sequence[int], n: int):
    """Per-vertex distance sums and eccentricities of the digraph on ``rows``.

    Returns (sigmas, eccs), or (None, (u, v)) naming an unreachable ordered
    pair when the digraph is not strong.  This is the one distance kernel:
    the exhaustive scans call it once per instance, so the BFS stays an
    inline loop.
    """
    full = (1 << n) - 1
    sigmas = []
    eccs = []
    for u in range(n):
        seen = frontier = 1 << u
        sig = d = 0
        while seen != full:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            if not frontier:
                missing = ~seen & full
                return None, (u, (missing & -missing).bit_length() - 1)
            d += 1
            sig += d * frontier.bit_count()
            seen |= frontier
        sigmas.append(sig)
        eccs.append(d)
    return sigmas, eccs


def sigma_ecc_vectors(D: Digraph) -> Tuple[List[int], List[int]]:
    """Per-vertex distance sums and eccentricities; requires a strong digraph."""
    sigmas, eccs = distance_sums(D.rows, D.n)
    if sigmas is None:
        raise NotStrongError(eccs)
    return sigmas, eccs


def proximity_remoteness(D: Digraph) -> Tuple[Fraction, Fraction, Tuple[int, int]]:
    """Exact (proximity, remoteness, (witness_min, witness_max)).

    Witnesses are the smallest labels attaining the minimum and maximum
    average distance.  Raises NotStrongError naming an unreachable ordered
    pair on non-strong input.
    """
    if D.n < 2:
        raise ValueError("proximity and remoteness need at least 2 vertices")
    sigmas, _ = sigma_ecc_vectors(D)
    smin = min(sigmas)
    smax = max(sigmas)
    den = D.n - 1
    return (
        Fraction(smin, den),
        Fraction(smax, den),
        (sigmas.index(smin), sigmas.index(smax)),
    )


def radius_diameter(D: Digraph) -> Tuple[int, int]:
    """Minimum and maximum eccentricity; requires a strong digraph."""
    _, eccs = sigma_ecc_vectors(D)
    return min(eccs), max(eccs)


def is_p_king(D: Digraph, u: int, p: int) -> bool:
    """True when every vertex lies within distance p of u."""
    if not 0 <= u < D.n:
        raise ValueError(f"vertex {u} outside 0..{D.n - 1}")
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    return reach_within(D.rows, u, p) == (1 << D.n) - 1


@dataclass(frozen=True)
class MetricsReport:
    """Whole-digraph invariants of a strong digraph."""

    n: int
    m: int
    proximity: Fraction
    remoteness: Fraction
    prox_witness: int
    rem_witness: int
    radius: int
    diameter: int
    degrees: DegreeSummary
    is_strong: bool
    is_regular: bool
    is_tournament: bool
    is_symmetric: bool

    def as_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "proximity": rational_json(self.proximity),
            "remoteness": rational_json(self.remoteness),
            "pi_equals_rho": self.proximity == self.remoteness,
            "prox_witness": self.prox_witness,
            "rem_witness": self.rem_witness,
            "radius": self.radius,
            "diameter": self.diameter,
            "degree_summary": self.degrees.as_json_dict(),
            "is_strong": self.is_strong,
            "is_regular": self.is_regular,
            "is_tournament": self.is_tournament,
            "is_symmetric": self.is_symmetric,
        }

    def csv_row(self) -> str:
        d = self.degrees
        fields = [
            self.n,
            self.m,
            self.proximity.numerator,
            self.proximity.denominator,
            rational_display(self.proximity),
            self.remoteness.numerator,
            self.remoteness.denominator,
            rational_display(self.remoteness),
            self.prox_witness,
            self.rem_witness,
            self.radius,
            self.diameter,
            d.max_out,
            d.min_out,
            d.max_in,
            d.min_in,
            d.max_semi,
            d.min_semi,
            int(self.is_regular),
            int(self.is_tournament),
            int(self.is_symmetric),
        ]
        return ",".join(str(f) for f in fields)


CSV_HEADER = (
    "n,m,pi_num,pi_den,pi,rho_num,rho_den,rho,prox_witness,rem_witness,"
    "radius,diameter,max_out,min_out,max_in,min_in,max_semi,min_semi,"
    "is_regular,is_tournament,is_symmetric"
)


def rational_display(q: Fraction) -> str:
    return f"{q.numerator / q.denominator:.6f}"


def rational_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator, "display": rational_display(q)}


def metrics_report(D: Digraph) -> MetricsReport:
    """Compute the full invariant report; raises NotStrongError when needed."""
    sigmas, eccs = sigma_ecc_vectors(D)
    if D.n < 2:
        raise ValueError("metrics report needs at least 2 vertices")
    smin, smax = min(sigmas), max(sigmas)
    den = D.n - 1
    return MetricsReport(
        n=D.n,
        m=D.m,
        proximity=Fraction(smin, den),
        remoteness=Fraction(smax, den),
        prox_witness=sigmas.index(smin),
        rem_witness=sigmas.index(smax),
        radius=min(eccs),
        diameter=max(eccs),
        degrees=degree_summary(D),
        is_strong=True,
        is_regular=is_regular(D),
        is_tournament=is_tournament(D),
        is_symmetric=is_symmetric(D),
    )
