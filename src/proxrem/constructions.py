"""Deterministic generators for the named extremal families.

Vertex numbering convention: a family described with vertices v_1..v_n maps
to labels 0..n-1 (v_1 -> 0); bipartite families label part A first, then
part B.  Every generator returns a strong digraph and documents the exact
invariants it attains; ``check_expected`` re-verifies those invariants on a
built instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .bipartite import bad_witness, class_sizes
from .digraph import (
    Digraph,
    blow_up,
    bipartite_tournament_structure,
    degree_summary,
    from_edge_list,
    from_undirected_edge_list,
    is_regular,
    is_strong,
    is_symmetric,
    is_tournament,
)
from .metrics import proximity_remoteness, radius_diameter, sigma_ecc_vectors


def dicycle(n: int) -> Digraph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0.

    Attains proximity == remoteness == n/2 and radius == diameter == n-1.
    """
    if n < 2:
        raise ValueError(f"dicycle needs n >= 2, got {n}")
    return Digraph(n, tuple(1 << ((i + 1) % n) for i in range(n)))


def extremal_tournament(n: int) -> Digraph:
    """The unique strong tournament with remoteness n/2.

    Forward path arcs i -> i+1 plus every long backward arc j -> i for
    j > i+1.  Vertex 0 attains the remoteness with eccentricity n-1.
    """
    if n < 3:
        raise ValueError(f"extremal tournament needs n >= 3, got {n}")
    rows = [0] * n
    for i in range(n - 1):
        rows[i] |= 1 << (i + 1)
    for j in range(n):
        for i in range(j - 1):
            rows[j] |= 1 << i
    return Digraph(n, rows)


def hub_digraph(n: int, c: int) -> Digraph:
    """Hub vertex 0 beating everyone, a cycle through 1..n-1, return arc c -> 0.

    Radius 1 (at the hub), diameter n-1, remoteness n/2: radius and
    remoteness pull apart as far as they can.
    """
    if n < 3:
        raise ValueError(f"hub digraph needs n >= 3, got {n}")
    if not 1 <= c <= n - 1:
        raise ValueError(f"c must lie in 1..{n - 1}, got {c}")
    rows = [0] * n
    for j in range(1, n):
        rows[0] |= 1 << j
    for p in range(1, n - 1):
        rows[p] |= 1 << (p + 1)
    rows[n - 1] |= 1 << 1
    rows[c] |= 1
    return Digraph(n, rows)


def ham_extremal(n: int, back_arcs: Iterable[Tuple[int, int]]) -> Digraph:
    """A member of the remoteness == n/2 family built over a spanning dipath.

    The digraph is the dipath 0 -> 1 -> ... -> n-1 plus the given backward
    arcs (a, b) with a > b; forward shortcut arcs (a, b) with b > a+1 are
    rejected because they would lower the eccentricity of vertex 0.  The
    result must be strong.
    """
    if n < 2:
        raise ValueError(f"ham extremal needs n >= 2, got {n}")
    rows = [0] * n
    for i in range(n - 1):
        rows[i] |= 1 << (i + 1)
    for a, b in back_arcs:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise ValueError(f"invalid arc pair ({a}, {b})")
        if b > a + 1:
            raise ValueError(f"forward shortcut arc ({a}, {b}) is forbidden")
        if b == a + 1:
            continue  # already a dipath arc
        rows[a] |= 1 << b
    D = Digraph(n, rows)
    sigma_ecc_vectors(D)  # raises NotStrongError with the kernel memo's pair
    return D


def bipartite_equal(half: int) -> Digraph:
    """Equal-parts bipartite tournament from four blocks of size ``half``.

    Parts A = A1|A2 and B = B1|B2; arcs A1 -> B1 -> A2 -> B2 -> A1 in full.
    Each vertex beats exactly half of the opposite part, so proximity
    equals remoteness; note the instance is regular (all semi-degrees equal
    ``half``), the degenerate case of this family.
    """
    if half < 1:
        raise ValueError(f"half must be >= 1, got {half}")
    h = half
    n = 4 * h
    a1 = range(0, h)
    a2 = range(h, 2 * h)
    b1 = range(2 * h, 3 * h)
    b2 = range(3 * h, 4 * h)
    mask = lambda rng: sum(1 << v for v in rng)
    rows = [0] * n
    for v in a1:
        rows[v] = mask(b1)
    for v in a2:
        rows[v] = mask(b2)
    for v in b1:
        rows[v] = mask(a2)
    for v in b2:
        rows[v] = mask(a1)
    return Digraph(n, rows)


#: Out-neighborhoods of the A-side of the fixed 10-vertex bipartite
#: tournament: A = {0,1,2,3}, B = {4..9}, every pair of A-vertices shares
#: exactly one out-neighbor, so no out-neighborhood nests in another.
_T1_OUT = {0: (4, 5, 6), 1: (4, 7, 8), 2: (5, 7, 9), 3: (6, 8, 9)}


def bipartite_T1() -> Digraph:
    """The fixed 10-vertex good bipartite tournament with parts of size 4 and 6.

    Every A-vertex has out-degree 3, every B-vertex out-degree 2, all
    out-neighborhood classes are singletons, and all distance sums agree,
    so proximity equals remoteness while the digraph is not regular.
    """
    rows = [0] * 10
    for a, outs in _T1_OUT.items():
        for b in outs:
            rows[a] |= 1 << b
    for b in range(4, 10):
        for a in range(4):
            if not (rows[a] >> b) & 1:
                rows[b] |= 1 << a
    return Digraph(10, rows)


def bipartite_blowup(t: int) -> Digraph:
    """Blow-up of the 10-vertex instance: parts 4t and 6t, classes of size t."""
    return blow_up(bipartite_T1(), t)


#: Edge list of the order-9 non-regular graph whose vertices all share the
#: same distance sum (14 from each vertex, verified by BFS).
FIG1_EDGES: Tuple[Tuple[int, int], ...] = (
    (0, 3), (0, 6), (0, 7),
    (1, 4), (1, 6), (1, 8),
    (2, 5), (2, 7), (2, 8),
    (3, 6), (3, 7),
    (4, 6), (4, 8),
    (5, 7), (5, 8),
)

#: Distance sum from every vertex of the order-9 graph (BFS-verified).
FIG1_SIGMA = 14


def fig1_graph() -> Digraph:
    """Order-9 connected non-regular graph with all distance sums equal."""
    return from_undirected_edge_list(9, FIG1_EDGES)


def fig1_blowup(t: int) -> Digraph:
    """Blow-up of the order-9 graph; every vertex copy has distance sum
    t * FIG1_SIGMA + 2*(t-1), so proximity still equals remoteness."""
    return blow_up(fig1_graph(), t)


@dataclass(frozen=True)
class ConstructionSpec:
    """A family name plus its integer parameters.

    ``ham_extremal`` takes (n, a0, b0, a1, b1, ...) with the backward arcs
    flattened; the other families take the parameters listed in FAMILIES.
    """

    family: str
    params: Tuple[int, ...] = ()


#: name -> (builder, parameter names): the one registry ``build`` reads.
FAMILIES: Dict[str, Tuple[Callable[..., Digraph], Tuple[str, ...]]] = {
    "dicycle": (dicycle, ("n",)),
    "extremal_tournament": (extremal_tournament, ("n",)),
    "hub_digraph": (hub_digraph, ("n", "c")),
    "ham_extremal": (lambda n, *arcs: ham_extremal(n, zip(arcs[::2], arcs[1::2])), ("n", "*arcs")),
    "bipartite_equal": (bipartite_equal, ("half",)),
    "bipartite_T1": (bipartite_T1, ()),
    "bipartite_blowup": (bipartite_blowup, ("t",)),
    "fig1_graph": (fig1_graph, ()),
    "fig1_blowup": (fig1_blowup, ("t",)),
}


def build(spec: ConstructionSpec) -> Digraph:
    fam, p = spec.family, spec.params
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {fam!r}; expected one of {sorted(FAMILIES)}")
    builder, names = FAMILIES[fam]
    if "*arcs" in names:
        if len(p) < 1 or (len(p) - 1) % 2:
            raise ValueError(f"{fam} takes n plus flattened arc pairs")
    elif len(p) != len(names):
        raise ValueError(f"{fam} takes parameters {names}, got {p}")
    return builder(*p)


def check_expected(spec: ConstructionSpec, D: Optional[Digraph] = None) -> List[str]:
    """Verify the documented invariants of a family instance.

    Returns a list of human-readable failures (empty means all good).  The
    checks recompute everything from scratch with the exact metrics.
    """
    if D is None:
        D = build(spec)
    fam, p = spec.family, spec.params
    bad: List[str] = []

    def expect(cond: bool, msg: str) -> None:
        if not cond:
            bad.append(msg)

    if not is_strong(D):
        return ["not strong"]
    n = D.n
    if n < 2:
        return bad
    pi, rho, _ = proximity_remoteness(D)
    rad, diam = radius_diameter(D)

    if fam == "dicycle":
        expect(pi == rho == Fraction(n, 2), f"pi/rho {pi}/{rho} != {n}/2")
        expect(rad == diam == n - 1, f"rad/diam {rad}/{diam} != {n - 1}")
    elif fam == "extremal_tournament":
        expect(is_tournament(D), "not a tournament")
        expect(rho == Fraction(n, 2), f"rho {rho} != {n}/2")
        sigmas, eccs = sigma_ecc_vectors(D)
        expect(sigmas[0] == max(sigmas), "vertex 0 does not attain remoteness")
        expect(eccs[0] == n - 1, f"ecc(0) = {eccs[0]} != {n - 1}")
    elif fam == "hub_digraph":
        expect(rad == 1, f"rad {rad} != 1")
        expect(diam == n - 1, f"diam {diam} != {n - 1}")
        expect(rho == Fraction(n, 2), f"rho {rho} != {n}/2")
    elif fam == "ham_extremal":
        sigmas, eccs = sigma_ecc_vectors(D)
        expect(eccs[0] == n - 1, f"ecc(0) = {eccs[0]} != {n - 1}")
        expect(rho == Fraction(n, 2), f"rho {rho} != {n}/2")
    elif fam in ("bipartite_equal", "bipartite_T1", "bipartite_blowup"):
        structure = bipartite_tournament_structure(D)
        expect(structure is not None, "no bipartite tournament structure")
        if structure is not None:
            witness = bad_witness(D.rows, structure.parts)
            expect(witness is None, f"bad witness {witness}")
            expect(pi == rho, f"pi {pi} != rho {rho}")
            if fam == "bipartite_blowup":
                t = p[0]
                mus = set(class_sizes(D.rows, structure.parts))
                expect(mus == {t}, f"class sizes {mus} != {{{t}}}")
                expect(not is_regular(D), "unexpectedly regular")
            if fam == "bipartite_T1":
                expect(not is_regular(D), "unexpectedly regular")
            if fam == "bipartite_equal":
                # Degenerate member: this family is regular by construction.
                expect(is_regular(D), "expected the degenerate regular case")
    elif fam == "fig1_graph":
        expect(is_symmetric(D), "not symmetric")
        expect(not is_regular(D), "unexpectedly regular")
        sigmas, _ = sigma_ecc_vectors(D)
        expect(min(sigmas) == max(sigmas) == FIG1_SIGMA, f"sigma values {sorted(set(sigmas))}")
    elif fam == "fig1_blowup":
        t = p[0]
        expect(is_symmetric(D), "not symmetric")
        sigmas, _ = sigma_ecc_vectors(D)
        want = t * FIG1_SIGMA + 2 * (t - 1)
        expect(min(sigmas) == max(sigmas) == want, f"sigma values {sorted(set(sigmas))} != {want}")
        expect(pi == rho, f"pi {pi} != rho {rho}")
        if t > 1:
            expect(not is_regular(D), "unexpectedly regular")
    return bad
