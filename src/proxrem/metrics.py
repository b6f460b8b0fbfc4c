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
the lane primitives.  Inside, it works on byte planes, eight vertices to a
plane and one byte per lane, and counts each vertex's distance in vertical
binary counters; a lane's distance sum stays below n*n, so up to n = 15 it
adds up in bytes (see its docstring).
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
    some of the lanes of a list of lane ints.

    The distance kernel reads a vertex set as P = ceil(n/8) byte *planes*
    in one int: plane p, at bits 8*count*p and up, holds vertices 8p..8p+7
    of every lane, one byte per lane, whatever w is.  ``split`` cuts a lane
    int into its planes and ``widen`` puts one plane of byte values back at
    width w; at w = 8 (n <= 7) the one plane is the lane int as given.
    ``B`` is 1 in every byte of plane 0, ``Ev[v]`` is vertex v's bit in
    every byte of its plane and ``FULLP`` the vertex set.  A full plane has
    no guard bit, so there ``any_byte`` tests bytes without one.
    ``successors`` is the one BFS step on planes, which the kernel and
    prop-3.1's lane test read."""

    __slots__ = (
        "n", "count", "w", "code", "nbytes", "E", "FULL", "m1", "m2", "m4", "fields", "_guard", "_below",
        "P", "B", "Ev", "FULLP", "_low7", "_plane",
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
        self.P, S = (n + 7) // 8, 8 * count
        B = self.B = int.from_bytes(b"\x01" * count, "little")
        self._low7, self._plane = 0x7F * B, 0xFF * B
        self.Ev = [B << (S * (v >> 3) + (v & 7)) for v in range(n)]
        self.FULLP = sum(((1 << min(8, n - 8 * p)) - 1) * B << S * p for p in range(self.P))

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

    def same(self, xs: Sequence[int]) -> int:
        """The mask of lanes in which every lane int of xs holds one value."""
        diff = 0
        for x in xs[1:]:
            diff |= x ^ xs[0]
        return self.E ^ self.nonzero(diff)

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

    def popcount(self, x: int) -> int:
        x = self.byte_counts(x)
        for f, mask in self.fields:
            x = (x & mask) + ((x >> f) & mask)
        return x

    def split(self, x: int) -> int:
        """The lane int x as planes: one byte slice per plane."""
        if self.w == 8:
            return x
        raw = x.to_bytes(self.nbytes, "little")
        return int.from_bytes(b"".join([raw[p :: self.w // 8] for p in range(self.P)]), "little")

    def widen(self, x: int) -> int:
        """The plane x of byte values as a lane int of width w."""
        if self.w == 8:
            return x
        wide = bytearray(self.nbytes)
        wide[:: self.w // 8] = x.to_bytes(self.count, "little")
        return int.from_bytes(wide, "little")

    def planes_add(self, x: int) -> int:
        """The bytewise sum of the planes of x, as one plane; no byte sum may
        pass 255."""
        total = x
        for p in range(1, self.P):
            total += x >> 8 * self.count * p
        return total & self._plane

    def any_byte(self, x: int) -> int:
        """The mask of the lanes in which some byte of the planes of x is not
        0: bit 7 of y + 0x7F in each byte of y, the OR of the planes, while
        n < 8 leaves bit 7 free; bit 7 of ((y & 0x7F) + 0x7F) | y on full
        planes, which have no guard bit."""
        y, low = x, self._low7
        if self.n < 8:
            return (y + low) >> 7 & self.B
        for p in range(1, self.P):
            y |= x >> 8 * self.count * p
        return ((y & low) + low | y) >> 7 & self.B

    def successor_table(self, cols: Sequence[int]) -> list:
        """What ``successors`` reads of the columns ``cols``: per vertex v
        its bit ``Ev[v]``, the shift that takes that bit to bit 0 of plane
        0, row v of every lane as planes, and the offsets of the planes in
        which that row is not 0."""
        table, S = [], 8 * self.count
        for v, c in enumerate(cols):
            row = self.split(c)
            ups = tuple(S * q for q in range(self.P) if row >> S * q & self._plane)
            table.append((self.Ev[v], S * (v >> 3) + (v & 7), row, ups))
        return table

    def successors(self, F: int, table: Sequence[tuple]) -> int:
        """The out-neighbours of the vertex set F (planes) of each lane: the
        union of the rows its vertices select, from ``successor_table``.  A
        vertex in no lane's F and a row plane that is 0 are skipped."""
        nxt = 0
        for e, down, row, ups in table:
            pick = F & e
            if pick:
                pick = (pick >> down) * 0xFF
                for up in ups:
                    nxt |= (pick << up if up else pick) & row
        return nxt


def lane_bfs(L: Lanes, col: Sequence[int]) -> Tuple[List[int], List[int], int]:
    """The distance kernel of ``L.count`` digraphs of order ``L.n`` at once,
    one per lane: ``col[v]`` holds row v of every lane.

    It runs on byte planes (see ``Lanes``): each column is split once, and
    every vertex set is an int of P planes.  From each source u, U is the
    unreached set of each lane and F its frontier; a round adds 1 to the
    eccentricity where U is not empty and to the count of every vertex of
    U, and expands F by ``Lanes.successors``.  Every lane takes as many
    rounds as the slowest one, at most n, so a count is at most n.

    The counts are vertical counters: level j holds bit j of every count.
    The sets U of successive rounds are nested, so before round r every
    vertex of U has count r-1, and adding 1 XORs U into the levels where
    r-1 and r differ, about two per round.  sigma(u), the sum of the counts,
    is the sum over j of 2**j times the popcount of level j, once per
    source.  A lane's sum is at most n*n, below 256 for n <= 15, so there
    the sums add up in bytes and widen once; above, each level's popcount
    (at most n) widens to w before the sum.

    Returns (sigmas, eccs, not_strong) as lane ints of width w: per source u
    sigma(u) and ecc(u), and the mask of lanes in which some source misses
    a vertex.  When no lane is strong the lists stop early; their values on
    a lane that is not strong are meaningless but stay below n*n.
    """
    n, B = L.n, L.B
    any_byte, successors, byte_counts = L.any_byte, L.successors, L.byte_counts
    table = L.successor_table(col)
    bad = 0
    sigmas, eccs = [], []
    for u, (e, _, row, _) in enumerate(table):
        U = L.FULLP ^ e
        F = row & U
        levels: List[int] = []
        ecc = rounds = 0
        while U:
            ecc += any_byte(U)
            rounds += 1
            flips = (rounds ^ (rounds - 1)).bit_length()
            for j in range(min(flips, len(levels))):
                levels[j] ^= U
            if flips > len(levels):
                levels.append(U)
            if not F:
                break
            U ^= F
            F = successors(F, table) & U
        bad |= any_byte(U)
        if bad == B:
            break
        counts = [byte_counts(level) for level in levels]
        if n < 16:
            sigmas.append(L.widen(L.planes_add(sum(c << j for j, c in enumerate(counts)))))
        else:
            sigmas.append(sum(L.widen(L.planes_add(c)) << j for j, c in enumerate(counts)))
        eccs.append(L.widen(ecc))
    return sigmas, eccs, L.widen(bad)


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
