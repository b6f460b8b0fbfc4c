"""Exact distance invariants: per-vertex distance sums, proximity and remoteness.

All whole-digraph quantities are exact: distance sums are integers and the
averaged invariants are ``fractions.Fraction`` values, so equality tests
such as proximity == remoteness carry no tolerance at all.  Floating point
appears only in display strings.

Distance sums and eccentricities come from one of two kernels with the
same results.  ``digraph.distance_sums`` reads the one scalar BFS,
``digraph.bfs_layers``, on one digraph: the ``Digraph`` memo, which
``sigma_ecc_vectors`` reads, and the rediscovery search call it, and
``distance_layers`` reads the same layers.
``lane_bfs`` runs the BFS on many digraphs of one order at once, one per
lane of a few big integers, and returns its results as lane integers: the
exhaustive scan loop (``search._scan``) calls it on each block's columns
cut to the screened instances by ``Lanes.select``, and the claims' lane
tests (``verifiers.LaneFacts``) read its lanes.  It is built on ``Lanes``,
the lane primitives.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import List, Sequence, Tuple

from .digraph import (
    DegreeSummary,
    Digraph,
    NotStrongError,
    bfs_layers,
    cached_distance_sums,
    degree_summary,
    is_regular,
    is_symmetric,
    is_tournament,
)


def distance_layers(rows: Sequence[int], n: int, source: int) -> List[int]:
    """BFS layer bitmasks from ``source``; layers[i] holds distance-i vertices."""
    return list(bfs_layers(rows, source))


#: An unsigned array typecode per lane width in bits, chosen by item size.
_LANE_CODES = {array(code).itemsize * 8: code for code in "BHILQ"}


def _lane_width(n: int) -> int:
    """The smallest lane width w of 8, 16, 32 and 64 with n < w and n*n < 2**w:
    a lane holds a vertex mask with its carry bit n, and a distance sum.
    Every lane value of order n (a vertex mask, a degree, an eccentricity, a
    distance sum) is then below 2**(w-1), so the top bit of a lane is free."""
    if n >= 1:
        for w in (8, 16, 32, 64):
            if n < w and n * n < 1 << w:
                return w
    raise ValueError(f"lanes need 1 <= n < 64, got n={n}")


class Lanes:
    """Lane-wise arithmetic on ``count`` w-bit lanes of one big integer, lane
    i in bits w*i..w*i+w-1 (SWAR: Warren, *Hacker's Delight*, ch. 5), for
    digraphs of order n: w is ``_lane_width(n)``.  Every value a lane holds
    is below 2**(w-1), so the top bit of each lane is a guard bit and no
    carry or borrow below crosses into the next lane.  A *mask* holds 0 or 1
    in each lane; ``E`` is the mask of every lane and ``FULL`` the vertex set
    in every lane.  ``lanes`` converts to an array, and ``select`` keeps
    some of the lanes of a list of lane ints."""

    __slots__ = (
        "n", "count", "w", "code", "nbytes", "E", "FULL", "m1", "m2", "m4", "fields", "_guard", "_below",
    )

    def __init__(self, n: int, count: int):
        w = self.w = _lane_width(n)
        self.n, self.count = n, count
        self.code, self.nbytes = _LANE_CODES[w], count * w // 8
        self.E = int.from_bytes((1).to_bytes(w // 8, "little") * count, "little")
        self.FULL = self.every((1 << n) - 1)
        self._guard = self.every(1 << (w - 1))
        self._below = self._guard - self.E  # 2**(w-1) - 1 in every lane
        ones = int.from_bytes(b"\x01" * (w // 8), "little")  # 1 in every byte of a lane
        self.m1, self.m2, self.m4 = (self.every(b * ones) for b in (0x55, 0x33, 0x0F))
        # (f, mask) adds each pair of neighbouring f-bit fields into one 2f-bit field
        self.fields = [
            (f, self.every(sum(((1 << f) - 1) << s for s in range(0, w, 2 * f)))) for f in (8, 16, 32) if f < w
        ]

    def every(self, value: int) -> int:
        """``value`` (below 2**w) in every lane."""
        return value * self.E

    def lanes(self, x: int) -> array:
        """The lanes of x, lane 0 first."""
        lanes = array(self.code, x.to_bytes(self.nbytes, "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        return lanes

    def select(self, xs: Sequence[int], keep: int) -> List[int]:
        """Each lane int of ``xs`` cut to the lanes the mask ``keep`` selects,
        in order: one transpose into a record per lane, one ``compress`` and
        one transpose back, moving lanes as raw bytes.  Up to 8 ints of 1-byte
        lanes go as one 64-bit item per record, which ``compress`` moves faster."""
        if keep == self.E:
            return list(xs)
        size, nbytes, m = self.w // 8, self.nbytes, len(xs)
        chosen = keep.to_bytes(nbytes, "little")[::size]
        if size == 1 and m <= 8:
            records = bytearray(8 * self.count)
            for j, x in enumerate(xs):
                records[j::8] = x.to_bytes(nbytes, "little")
            kept = struct.pack(f"{keep.bit_count()}Q", *compress(array("Q", records), chosen))
            return [int.from_bytes(kept[j::8], "little") for j in range(m)]
        records = array(self.code, bytes(m * nbytes))
        for j, x in enumerate(xs):
            records[j::m] = array(self.code, x.to_bytes(nbytes, "little"))
        kept = array(self.code, b"".join([r for r, in compress(struct.iter_unpack(f"{m * size}s", records), chosen)]))
        return [int.from_bytes(kept[j::m], "little") for j in range(m)]

    def at_least(self, x: int, k: int) -> int:
        """The mask of lanes with x >= k: the guard bit of x + 2**(w-1) - k."""
        if k <= 0:
            return self.E
        if k > 1 << self.w - 1:
            return 0
        return (x + self._guard - self.every(k)) >> self.w - 1 & self.E

    def at_most(self, x: int, k: int) -> int:
        """The mask of lanes with x <= k."""
        return self.E ^ self.at_least(x, k + 1)

    def equal(self, x: int, k: int) -> int:
        """The mask of lanes with x == k."""
        return self.at_least(x, k) ^ self.at_least(x, k + 1)

    def nonzero(self, x: int) -> int:
        """The mask of lanes with x != 0: the guard bit of x + 2**(w-1) - 1."""
        return (x + self._below) >> self.w - 1 & self.E

    def ge(self, x: int, y: int) -> int:
        """The mask of lanes with x >= y: the guard bit of (x | guard) - y."""
        return ((x | self._guard) - y) >> self.w - 1 & self.E

    def minimum(self, xs: Sequence[int]) -> int:
        lane = (1 << self.w) - 1
        low = xs[0]
        for x in xs[1:]:
            low ^= (low ^ x) & self.ge(low, x) * lane
        return low

    def maximum(self, xs: Sequence[int]) -> int:
        lane = (1 << self.w) - 1
        high = xs[0]
        for x in xs[1:]:
            high ^= (high ^ x) & self.ge(x, high) * lane
        return high

    def byte_counts(self, x: int) -> int:
        """The popcount of each byte of x, in that byte."""
        x -= (x >> 1) & self.m1
        x = (x & self.m2) + ((x >> 2) & self.m2)
        return (x + (x >> 4)) & self.m4

    @staticmethod
    def fold(x: int, fields) -> int:
        for f, mask in fields:
            x = (x & mask) + ((x >> f) & mask)
        return x

    def popcount(self, x: int) -> int:
        return self.fold(self.byte_counts(x), self.fields)

    def successors(self, F: int, col: Sequence[int]) -> int:
        """The out-neighbours of the vertex set F of each lane: the union of
        the rows ``col[v]`` (row v of every lane) its vertices select."""
        E, full = self.E, (1 << self.n) - 1
        nxt = 0
        for v, c in enumerate(col):
            nxt |= ((F >> v) & E) * full & c
        return nxt


def lane_bfs(L: Lanes, col: Sequence[int]) -> Tuple[List[int], List[int], int]:
    """The distance kernel of ``L.count`` digraphs of order ``L.n`` at once,
    one per lane: ``col[v]`` holds row v of every lane.

    From each source u, U is the unreached set of each lane and F its
    frontier; a round adds the lane popcount of U to the distance sum and 1
    to the eccentricity where U is not empty, and expands F by
    ``L.successors``.  Every lane takes as many rounds as the slowest one,
    at most n, so a lane's sum stays below n*n.  Returns (sigmas, eccs,
    not_strong): per source u the lane ints of sigma(u) and ecc(u), and the
    mask of lanes in which some source misses a vertex.  When no lane is
    strong the lists stop early; their values on a lane that is not strong
    are meaningless but stay below n*n.
    """
    E, FULL, n = L.E, L.FULL, L.n
    # A round's popcount of U sits in bytes, whose sums over at most n
    # rounds stay below 8 * n < 256 for w <= 32; at w = 64 each round also
    # adds its bytes into 16-bit fields.  The rest run once per source.
    per_round = L.fields[:1] if L.w == 64 else []
    per_source = L.fields[len(per_round):]
    bad = 0
    sigmas, eccs = [], []
    for u in range(n):
        U = FULL ^ (E << u)
        F = col[u] & U
        sig = ecc = 0
        while U:
            sig += L.fold(L.byte_counts(U), per_round)
            ecc += L.nonzero(U)
            if not F:
                break
            U ^= F
            F = L.successors(F, col) & U
        bad |= L.nonzero(U)
        if bad == E:
            break
        sigmas.append(L.fold(sig, per_source))
        eccs.append(ecc)
    return sigmas, eccs, bad


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
