"""Independent reference implementations used only to cross-check results.

Nothing here shares code with the library's BFS/bitmask paths: distances
come from a Floyd-Warshall-style relaxation over an explicit matrix, and
the structural checks below are direct quantifier transcriptions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from proxrem.digraph import Digraph

INF = None


def floyd_warshall(D: Digraph) -> List[List[Optional[int]]]:
    n = D.n
    dist: List[List[Optional[int]]] = [[INF] * n for _ in range(n)]
    for u in range(n):
        dist[u][u] = 0
        for v in range(n):
            if u != v and D.has_arc(u, v):
                dist[u][v] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik is INF:
                continue
            di = dist[i]
            for j in range(n):
                dkj = dk[j]
                if dkj is INF:
                    continue
                if di[j] is INF or dik + dkj < di[j]:
                    di[j] = dik + dkj
    return dist


def bfs_distances(D: Digraph, source: int) -> List[Optional[int]]:
    """Distances from ``source`` by a queue-based BFS over ``has_arc``."""
    dist: List[Optional[int]] = [INF] * D.n
    dist[source] = 0
    queue = [source]
    for u in queue:
        for v in range(D.n):
            if dist[v] is INF and D.has_arc(u, v):
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def fw_metrics(D: Digraph):
    """(pi, rho, rad, diam) via the matrix oracle; None when not strong."""
    n = D.n
    dist = floyd_warshall(D)
    sigmas = []
    eccs = []
    for u in range(n):
        row = [dist[u][v] for v in range(n) if v != u]
        if any(d is INF for d in row):
            return None
        sigmas.append(sum(row))
        eccs.append(max(row) if row else 0)
    return (
        Fraction(min(sigmas), n - 1),
        Fraction(max(sigmas), n - 1),
        min(eccs),
        max(eccs),
    )


def unreachable_pair_oracle(D: Digraph) -> Optional[Tuple[int, int]]:
    """The smallest u, then the smallest v, with no (u, v)-dipath by the
    matrix oracle; None when D is strong."""
    dist = floyd_warshall(D)
    return next(((u, v) for u in range(D.n) for v in range(D.n) if dist[u][v] is INF), None)


def sample_strong_digraph(n: int, rng, arc_prob: float = 0.5, max_tries: int = 10000) -> Digraph:
    """Each arc present with probability ``arc_prob``, redrawn until the
    matrix oracle finds every pair joined by a dipath."""
    for _ in range(max_tries):
        rows = [0] * n
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < arc_prob:
                    rows[u] |= 1 << v
        D = Digraph(n, rows)
        if unreachable_pair_oracle(D) is None:
            return D
    raise RuntimeError(f"no strong digraph found in {max_tries} tries")


def sample_strong_orientation(n: int, pairs, rng, max_tries: int = 10000) -> Digraph:
    """Each pair (u, v) of ``pairs`` oriented u -> v or v -> u with
    probability 1/2 (all pairs: a tournament; the pairs across two parts: a
    bipartite tournament), redrawn until the matrix oracle finds every pair
    joined by a dipath."""
    for _ in range(max_tries):
        rows = [0] * n
        for u, v in pairs:
            if rng.random() < 0.5:
                u, v = v, u
            rows[u] |= 1 << v
        D = Digraph(n, rows)
        if unreachable_pair_oracle(D) is None:
            return D
    raise RuntimeError(f"no strong orientation found in {max_tries} tries")


def gray_order_oracle(cls: str, pairs: List[Tuple[int, int]], n: int, codes=None) -> List[Tuple[int, ...]]:
    """The adjacency rows of each code of ``codes`` (every code of the class
    by default, code c at index c), for a class whose code bit k decides
    pair k = (u, v) of ``pairs``.  Code c stands
    for Gray(c) = c XOR (c >> 1), decoded one bit at a time into an n x n
    matrix: in ``all_digraphs`` the bit is the arc u -> v; in
    ``symmetric_digraphs`` it is both arcs; in the oriented classes 0 is
    u -> v and 1 is v -> u."""
    out = []
    for c in range(2 ** len(pairs)) if codes is None else codes:
        gray = c ^ (c >> 1)
        adj = [[False] * n for _ in range(n)]
        for k, (u, v) in enumerate(pairs):
            bit = (gray >> k) & 1 == 1
            if cls == "all_digraphs":
                adj[u][v] = bit
            elif cls == "symmetric_digraphs":
                adj[u][v] = adj[v][u] = bit
            elif bit:
                adj[v][u] = True
            else:
                adj[u][v] = True
        out.append(tuple(sum(2 ** v for v in range(n) if adj[u][v]) for u in range(n)))
    return out


def is_tournament_oracle(D: Digraph) -> bool:
    """Every unordered pair {u, v} carries exactly one of its two arcs."""
    return all(D.has_arc(u, v) + D.has_arc(v, u) == 1 for u in range(D.n) for v in range(u + 1, D.n))


def is_regular_oracle(D: Digraph) -> bool:
    """The out-degrees and in-degrees counted from the arc list are all one
    value."""
    n = D.n
    out, inn = [0] * n, [0] * n
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and D.has_arc(u, v)]
    for u, v in arcs:
        out[u] += 1
        inn[v] += 1
    return len(set(out + inn)) == 1


def brute_bipartition(D: Digraph) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """All-bipartitions scan: is D an orientation of a complete bipartite
    graph with nonempty parts?  Returns the parts ordered by (size, label)."""
    n = D.n
    for mask in range(1, (1 << n) - 1):
        part_a = tuple(v for v in range(n) if (mask >> v) & 1)
        part_b = tuple(v for v in range(n) if not (mask >> v) & 1)
        ok = True
        for u in range(n):
            for v in range(u + 1, n):
                same = ((mask >> u) & 1) == ((mask >> v) & 1)
                forward = D.has_arc(u, v)
                backward = D.has_arc(v, u)
                if same and (forward or backward):
                    ok = False
                elif not same and forward + backward != 1:
                    ok = False
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return tuple(sorted((part_a, part_b), key=lambda p: (len(p), p[0])))  # type: ignore[return-value]
    return None


def brute_isomorphic(A: Digraph, B: Digraph) -> bool:
    """All-permutations isomorphism test."""
    if A.n != B.n:
        return False
    n = A.n
    for perm in permutations(range(n)):
        if all(
            A.has_arc(u, v) == B.has_arc(perm[u], perm[v])
            for u in range(n)
            for v in range(n)
            if u != v
        ):
            return True
    return False


def _cycle_types(n: int):
    """(representative permutation, number of permutations) for every cycle
    type of S_n."""

    def partitions(rest: int, largest: int):
        if rest == 0:
            yield []
            return
        for k in range(min(rest, largest), 0, -1):
            for tail in partitions(rest - k, k):
                yield [k] + tail

    for lengths in partitions(n, n):
        perm: List[int] = []
        for k in lengths:
            start = len(perm)
            perm += [start + (i + 1) % k for i in range(k)]
        count = factorial(n)
        for k in set(lengths):
            m = lengths.count(k)
            count //= k**m * factorial(m)
        yield perm, count


def _cycle_lengths(perm: List[int]) -> List[int]:
    seen = [False] * len(perm)
    lengths = []
    for s in range(len(perm)):
        length, v = 0, s
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def bipartite_orbit_count(a: int, b: int) -> int:
    """Isomorphism classes of orientations of K_{a,b}, by Burnside's lemma.

    The group is S_a x S_b acting on the a*b pairs, plus the part swaps when
    a = b.  A part-keeping element fixes 2^(cycles on the pairs)
    orientations.  A swap sends the pair (i, j) to (rho[j], pi[i]) with its
    arc reversed, so a fixed orientation alternates along each cycle: it
    fixes 2^(cycles) when every cycle has even length, and none otherwise.
    """
    pairs = [(i, j) for i in range(a) for j in range(b)]
    index = {pair: k for k, pair in enumerate(pairs)}
    total = 0
    for sigma, sigma_count in _cycle_types(a):
        for tau, tau_count in _cycle_types(b):
            on_pairs = [index[sigma[i], tau[j]] for i, j in pairs]
            total += sigma_count * tau_count * 2 ** len(_cycle_lengths(on_pairs))
    order = factorial(a) * factorial(b)
    if a == b:
        for pi in permutations(range(a)):
            for rho in permutations(range(b)):
                lengths = _cycle_lengths([index[rho[j], pi[i]] for i, j in pairs])
                if all(k % 2 == 0 for k in lengths):
                    total += 2 ** len(lengths)
        order *= 2
    assert total % order == 0
    return total // order


def rotational_tournament(n: int) -> Digraph:
    """Tournament on odd n where i beats i+1 .. i+(n-1)/2 (mod n)."""
    assert n % 2 == 1
    rows = [0] * n
    for i in range(n):
        for k in range(1, (n - 1) // 2 + 1):
            rows[i] |= 1 << ((i + k) % n)
    return Digraph(n, rows)


def quadratic_residue_tournament(p: int) -> Digraph:
    """Paley tournament on a prime p = 3 (mod 4): i beats j when j - i is a
    nonzero square mod p."""
    assert p % 4 == 3
    squares = {(x * x) % p for x in range(1, p)}
    rows = [0] * p
    for i in range(p):
        for j in range(p):
            if (j - i) % p in squares:
                rows[i] |= 1 << j
    return Digraph(p, rows)


def transitive_tournament(n: int) -> Digraph:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            rows[i] |= 1 << j
    return Digraph(n, rows)


# ---------------------------------------------------------------------------
# Claim oracles: each claim's bound and equality cases transcribed from the
# statement, on Floyd-Warshall distances and plain quantifiers.  Each
# function returns {claim id: instance passes}.
# ---------------------------------------------------------------------------

def _distance_facts(D: Digraph):
    """(dist, sigma, ecc) with sigma/ecc None when D is not strong."""
    n = D.n
    dist = floyd_warshall(D)
    if any(dist[u][v] is INF for u in range(n) for v in range(n)):
        return dist, None, None
    sigma = [sum(dist[u]) for u in range(n)]
    ecc = [max(dist[u]) for u in range(n)]
    return dist, sigma, ecc


def fw_distance_sums(D: Digraph) -> Optional[List[int]]:
    """sigma(u) per vertex by the matrix oracle; None when D is not strong."""
    return _distance_facts(D)[1]


def _out_degree(D: Digraph, u: int) -> int:
    return sum(1 for v in range(D.n) if v != u and D.has_arc(u, v))


def _in_degree(D: Digraph, u: int) -> int:
    return sum(1 for v in range(D.n) if v != u and D.has_arc(v, u))


def is_dicycle_oracle(D: Digraph) -> bool:
    """Following the unique out-arc from vertex 0 visits every vertex once."""
    n = D.n
    if any(_out_degree(D, u) != 1 for u in range(n)):
        return False
    seen, u = set(), 0
    for _ in range(n):
        seen.add(u)
        u = next(v for v in range(n) if v != u and D.has_arc(u, v))
    return u == 0 and len(seen) == n


def is_complete_oracle(D: Digraph) -> bool:
    return all(D.has_arc(u, v) for u in range(D.n) for v in range(D.n) if u != v)


def is_near_regular_oracle(D: Digraph) -> bool:
    """Every out-degree is (n-1)/2 (odd n, regular) or n/2 - 1 or n/2 (even
    n, almost regular)."""
    n = D.n
    allowed = {(n - 1) // 2} if n % 2 else {n // 2 - 1, n // 2}
    return all(_out_degree(D, u) in allowed for u in range(n))


def max_out_two_step_oracle(D: Digraph) -> bool:
    """prop-3.1's statement on any digraph: every maximum-out-degree vertex
    is within Floyd-Warshall distance 2 of every vertex."""
    n = D.n
    dist = floyd_warshall(D)
    out = [_out_degree(D, u) for u in range(n)]
    leaders = [u for u in range(n) if out[u] == max(out)]
    return all(dist[u][v] is not INF and dist[u][v] <= 2 for u in leaders for v in range(n))


def thm22_certificates_oracle(D: Digraph) -> List[List[int]]:
    """Every certificate of thm-2.2's equality case on a strong digraph:
    from each start u of eccentricity n-1, the vertices ordered by their
    Floyd-Warshall distance from u (one vertex per distance), kept when a
    vertex of out-degree n-1 is among its last two."""
    n = D.n
    dist = floyd_warshall(D)
    found = []
    for u in range(n):
        if max(dist[u]) == n - 1:
            order = sorted(range(n), key=lambda v: dist[u][v])
            if any(_out_degree(D, v) == n - 1 for v in order[-2:]):
                found.append(order)
    return found


def general_claims(D: Digraph):
    """thm-2.1-pi, thm-2.1-rho and thm-2.2 on a strong digraph, n >= 3."""
    n = D.n
    _, sigma, ecc = _distance_facts(D)
    assert sigma is not None and n >= 3
    pi, rho = Fraction(min(sigma), n - 1), Fraction(max(sigma), n - 1)
    half = Fraction(n, 2)
    pi_ok = (
        1 <= pi <= half
        and (pi == 1) == any(_out_degree(D, u) == n - 1 for u in range(n))
        and (pi == half) == is_dicycle_oracle(D)
    )
    rho_ok = (
        1 <= rho <= half
        and (rho == 1) == is_complete_oracle(D)
        and (rho == half) == any(e == n - 1 for e in ecc)
    )
    certificate = bool(thm22_certificates_oracle(D))
    spread_ok = rho - pi <= half - 1 and (rho - pi == half - 1) == certificate
    return {"thm-2.1-pi": pi_ok, "thm-2.1-rho": rho_ok, "thm-2.2": spread_ok}


def extremal_tournament_oracle(n: int) -> Digraph:
    """v_i beats v_{i+1} and every v_j with j < i - 1."""
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if j == i + 1 or j < i - 1:
                rows[i] |= 1 << j
    return Digraph(n, rows)


def is_iso_to_extremal_oracle(D: Digraph) -> bool:
    """All-permutations test, run only when the score sequences agree (an
    isomorphism invariant)."""
    T = extremal_tournament_oracle(D.n)
    scores = sorted(_out_degree(D, u) for u in range(D.n))
    if scores != sorted(_out_degree(T, u) for u in range(T.n)):
        return False
    return brute_isomorphic(D, T)


def tournament_claims(D: Digraph, extremal: Optional[bool] = None):
    """prop-3.1 on any tournament; thm-3.2-pi, thm-3.2-rho and thm-3.3 on a
    strong one with n >= 3.  ``extremal`` is D's isomorphism to the
    extremal tournament when the caller knows it by construction; None
    runs ``is_iso_to_extremal_oracle``, which costs n! once the scores
    match."""
    n = D.n
    _, sigma, _ = _distance_facts(D)
    out = [_out_degree(D, u) for u in range(n)]
    verdicts = {"prop-3.1": max_out_two_step_oracle(D)}
    if sigma is None or n < 3:
        return verdicts
    pi, rho = Fraction(min(sigma), n - 1), Fraction(max(sigma), n - 1)
    if n % 2:
        pi_cap = rho_floor = Fraction(3, 2)
    else:
        pi_cap = Fraction(3, 2) - Fraction(1, 2 * (n - 1))
        rho_floor = Fraction(3, 2) + Fraction(1, 2 * (n - 1))
    near_regular = is_near_regular_oracle(D)
    verdicts["thm-3.2-pi"] = (
        Fraction(n, n - 1) <= pi <= pi_cap
        and (pi == Fraction(n, n - 1)) == (max(out) == n - 2)
        and (pi == pi_cap) == near_regular
    )
    verdicts["thm-3.2-rho"] = (
        rho_floor <= rho <= Fraction(n, 2)
        and (rho == rho_floor) == near_regular
        and (rho == Fraction(n, 2)) == (is_iso_to_extremal_oracle(D) if extremal is None else extremal)
    )
    regular = len({*out, *(_in_degree(D, u) for u in range(n))}) == 1
    verdicts["thm-3.3"] = (pi == rho) == regular
    return verdicts


class BipartiteFacts(NamedTuple):
    part_of: List[FrozenSet[int]]  # part_of[v]: the vertices of v's part
    bad: Optional[Tuple[int, int]]
    mu: List[int]
    c: List[int]
    beats_half: bool


def bipartite_facts_oracle(D: Digraph) -> BipartiteFacts:
    """The parts, the smallest bad pair, mu and c per vertex, and the
    beats-half test of a bipartite tournament, from frozenset
    out-neighbourhoods.

    Two vertices share a part exactly when no arc joins them.  The bad pair
    is the smallest (u, v) of one part with N+(u) a proper subset of N+(v),
    None on a good instance.  mu(v) counts the vertices of v's part whose
    out-neighbourhood is N+(v); c(v) = 2*(mu(v) - d+(v)) + |other part|.
    ``beats_half`` says every vertex beats exactly half of the other part.
    """
    n = D.n
    part_of = [
        frozenset(w for w in range(n) if not D.has_arc(v, w) and not D.has_arc(w, v)) for v in range(n)
    ]
    first, second = set(part_of)  # exactly two parts
    assert not first & second and len(first | second) == n
    assert not any(D.has_arc(u, v) and D.has_arc(v, u) for u in range(n) for v in range(n))
    nbhd = [frozenset(w for w in range(n) if D.has_arc(v, w)) for v in range(n)]
    bad = min(((u, v) for u in range(n) for v in part_of[u] if nbhd[u] < nbhd[v]), default=None)
    mu = [sum(1 for w in part_of[v] if nbhd[w] == nbhd[v]) for v in range(n)]
    other = [n - len(part_of[v]) for v in range(n)]
    c = [2 * (mu[v] - len(nbhd[v])) + other[v] for v in range(n)]
    beats_half = all(2 * len(nbhd[v]) == other[v] for v in range(n))
    return BipartiteFacts(part_of, bad, mu, c, beats_half)


def bipartite_claims(D: Digraph):
    """lem-3.4 .. cor-3.8 on a strong bipartite tournament."""
    n = D.n
    _, sigma, ecc = _distance_facts(D)
    assert sigma is not None
    facts = bipartite_facts_oracle(D)
    bad, mu = facts.bad is not None, facts.mu
    out = [_out_degree(D, u) for u in range(n)]
    own = [len(facts.part_of[v]) for v in range(n)]
    other = [n - own[v] for v in range(n)]
    equal = min(sigma) == max(sigma)
    constant_mu = len(set(mu)) == 1
    return {
        "lem-3.4": not (bad and equal),
        "lem-3.5": bad or all(e <= 4 for e in ecc),
        "lem-3.6": bad
        or all(sigma[v] == 2 * (mu[v] - out[v]) + 2 * own[v] + 3 * other[v] - 4 for v in range(n)),
        "cor-3.7": equal == (not bad and len(set(facts.c)) == 1),
        "cor-3.8": bad or not constant_mu or equal == facts.beats_half,
    }
