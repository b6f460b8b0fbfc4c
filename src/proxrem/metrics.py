"""Exact distance invariants: per-vertex profiles, proximity and remoteness.

All whole-digraph quantities are exact: distance sums are integers and the
averaged invariants are ``fractions.Fraction`` values, so equality tests
such as proximity == remoteness carry no tolerance at all.  Floating point
appears only in display strings.

Distance sums and eccentricities come from one of two kernels with the
same results.  ``digraph.distance_sums`` reads the one scalar BFS,
``digraph.bfs_layers``, on one digraph: the ``Digraph`` memo, which
``sigma_ecc_vectors`` reads, and the rediscovery search call it, and
``distance_layers`` and ``bfs_profile`` read the same layers.
``lane_distance_sums`` runs the BFS on a batch of digraphs of one order at
once, one per lane of a few big integers: the exhaustive scan loop
(``search._scan``) calls it on the screened instances of each block.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from .digraph import (
    DegreeSummary,
    Digraph,
    NotStrongError,
    bfs_layers,
    cached_distance_sums,
    degree_summary,
    frontier_bits,
    is_regular,
    is_symmetric,
    is_tournament,
    reach_within,
)


def distance_layers(rows: Sequence[int], n: int, source: int) -> List[int]:
    """BFS layer bitmasks from ``source``; layers[i] holds distance-i vertices."""
    return list(bfs_layers(rows, source))


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
    bits = frontier_bits(D.n)
    dist: List[Optional[int]] = [None] * D.n
    sigma = 0
    for d, layer in enumerate(layers):
        sigma += d * layer.bit_count()
        for v in bits[layer]:
            dist[v] = d
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


#: An unsigned array typecode per lane width in bits, chosen by item size.
_LANE_CODES = {array(code).itemsize * 8: code for code in "BHILQ"}


def _lane_width(n: int) -> int:
    """The smallest lane width w of 8, 16, 32 and 64 with n < w and n*n < 2**w:
    a lane holds a vertex mask with its carry bit n, and a distance sum."""
    if n >= 1:
        for w in (8, 16, 32, 64):
            if n < w and n * n < 1 << w:
                return w
    raise ValueError(f"lane_distance_sums needs 1 <= n < 64, got n={n}")


def _to_lanes(x: int, code: str, nbytes: int) -> array:
    """The w-bit lanes of x, lane 0 first."""
    lanes = array(code, x.to_bytes(nbytes, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def lane_distance_sums(batch: Sequence[Sequence[int]], n: int) -> List[tuple]:
    """``digraph.distance_sums`` of many digraphs of order n at once.

    Each row tuple of ``batch`` is one w-bit lane of a few big integers, so
    every bitwise operation below steps the BFS of the whole batch (SWAR:
    Warren, *Hacker's Delight*, ch. 5).  ``col[v]`` holds row v of every
    lane and E bit 0 of every lane.  From each source u, U is the unreached
    set of each lane and F its frontier; a round adds the lane popcount of
    U to the distance sum and 1 to the eccentricity where U is not empty,
    and expands F by the rows its vertices select,
    ``((F >> v) & E) * full & col[v]``.  Every lane takes as many rounds as
    the slowest one, at most n, so a lane's sum stays below n*n.

    Returns one (sigmas, eccs) pair of lists per row tuple, equal to
    ``distance_sums``, or (None, None) for a digraph that is not strong.
    The set-up and the lane conversions make a one-lane call cost several
    times a ``distance_sums`` call, so single digraphs go there.
    """
    w = _lane_width(n)
    if not batch:
        return []
    code = _LANE_CODES[w]
    count = len(batch)
    nbytes = count * w // 8

    def every_lane(value: int) -> int:
        return int.from_bytes(value.to_bytes(w // 8, "little") * count, "little")

    def every_byte(value: int) -> int:
        return int.from_bytes(bytes((value,)) * nbytes, "little")

    # struct packs the rows a few times faster than array's constructor does
    flat = array(code, struct.pack(f"{count * n}{code}", *chain.from_iterable(batch)))
    if sys.byteorder == "big":
        flat.byteswap()
    col = [int.from_bytes(flat[v::n], "little") for v in range(n)]
    full = (1 << n) - 1
    E, FULL = every_lane(1), every_lane(full)
    m1, m2, m4 = every_byte(0x55), every_byte(0x33), every_byte(0x0F)
    # (f, mask) adds each pair of neighbouring f-bit fields into one 2f-bit
    # field.  A round's popcount of U sits in bytes, whose sums over at most
    # n rounds stay below 8 * n < 256 for w <= 32; at w = 64 each round also
    # adds its bytes into 16-bit fields.  The rest run once per source.
    fields = [(f, every_lane(sum(((1 << f) - 1) << s for s in range(0, w, 2 * f)))) for f in (8, 16, 32) if f < w]
    per_round = fields[:1] if w == 64 else []
    per_source = fields[len(per_round):]
    expand = list(enumerate(col))
    bad = 0  # bit 0 of a lane: some source misses a vertex
    sigmas, eccs = [], []
    for u in range(n):
        U = FULL ^ (E << u)
        F = col[u] & U
        sig = ecc = 0
        while U:
            x = U - ((U >> 1) & m1)
            x = (x & m2) + ((x >> 2) & m2)
            x = (x + (x >> 4)) & m4
            for f, mask in per_round:
                x = (x & mask) + ((x >> f) & mask)
            sig += x
            ecc += ((U + FULL) >> n) & E
            if not F:
                break
            U ^= F
            nxt = 0
            for v, c in expand:
                nxt |= ((F >> v) & E) * full & c
            F = nxt & U
        bad |= ((U + FULL) >> n) & E
        if bad == E:
            return [(None, None)] * count
        for f, mask in per_source:
            sig = (sig & mask) + ((sig >> f) & mask)
        sigmas.append(_to_lanes(sig, code, nbytes))
        eccs.append(_to_lanes(ecc, code, nbytes))
    return [
        (None, None) if b else (list(s), list(e))
        for s, e, b in zip(zip(*sigmas), zip(*eccs), _to_lanes(bad, code, nbytes))
    ]


def sigma_ecc_vectors(D: Digraph) -> Tuple[List[int], List[int]]:
    """Per-vertex distance sums and eccentricities as fresh lists, from the
    kernel result cached on D; requires a strong digraph."""
    sigmas, eccs = cached_distance_sums(D)
    if sigmas is None:
        raise NotStrongError(eccs)
    return list(sigmas), list(eccs)


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
    if D.n < 2:  # a single vertex is strong, so this hides no NotStrongError
        raise ValueError("metrics report needs at least 2 vertices")
    pi, rho, (prox_witness, rem_witness) = proximity_remoteness(D)
    radius, diameter = radius_diameter(D)
    return MetricsReport(
        n=D.n,
        m=D.m,
        proximity=pi,
        remoteness=rho,
        prox_witness=prox_witness,
        rem_witness=rem_witness,
        radius=radius,
        diameter=diameter,
        degrees=degree_summary(D),
        is_strong=True,
        is_regular=is_regular(D),
        is_tournament=is_tournament(D),
        is_symmetric=is_symmetric(D),
    )
