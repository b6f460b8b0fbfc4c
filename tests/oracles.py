"""Independent reference implementations used only to cross-check results.

Nothing here shares code with the library's BFS/bitmask paths: distances
come from a Floyd-Warshall-style relaxation over an explicit matrix, and
the structural checks below are direct quantifier transcriptions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import List, Optional, Tuple

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


def rotational_tournament(n: int) -> Digraph:
    """Tournament on odd n where i beats i+1 .. i+(n-1)/2 (mod n)."""
    assert n % 2 == 1
    rows = [0] * n
    for i in range(n):
        for k in range(1, (n - 1) // 2 + 1):
            rows[i] |= 1 << ((i + k) % n)
    return Digraph(n, rows)


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


def _out_degree(D: Digraph, u: int) -> int:
    return sum(1 for v in range(D.n) if v != u and D.has_arc(u, v))


def _in_degree(D: Digraph, u: int) -> int:
    return sum(1 for v in range(D.n) if v != u and D.has_arc(v, u))


def _is_dicycle(D: Digraph) -> bool:
    """Following the unique out-arc from vertex 0 visits every vertex once."""
    n = D.n
    if any(_out_degree(D, u) != 1 for u in range(n)):
        return False
    seen, u = set(), 0
    for _ in range(n):
        seen.add(u)
        u = next(v for v in range(n) if v != u and D.has_arc(u, v))
    return u == 0 and len(seen) == n


def general_claims(D: Digraph):
    """thm-2.1-pi, thm-2.1-rho and thm-2.2 on a strong digraph, n >= 3."""
    n = D.n
    dist, sigma, ecc = _distance_facts(D)
    assert sigma is not None and n >= 3
    pi, rho = Fraction(min(sigma), n - 1), Fraction(max(sigma), n - 1)
    half = Fraction(n, 2)
    pi_ok = (
        1 <= pi <= half
        and (pi == 1) == any(_out_degree(D, u) == n - 1 for u in range(n))
        and (pi == half) == _is_dicycle(D)
    )
    complete = all(D.has_arc(u, v) for u in range(n) for v in range(n) if u != v)
    rho_ok = (
        1 <= rho <= half
        and (rho == 1) == complete
        and (rho == half) == any(e == n - 1 for e in ecc)
    )
    # a start of eccentricity n-1 orders the vertices by their distance from it
    certificate = False
    for u in range(n):
        if ecc[u] == n - 1:
            order = sorted(range(n), key=lambda v: dist[u][v])
            if any(_out_degree(D, v) == n - 1 for v in order[-2:]):
                certificate = True
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


def tournament_claims(D: Digraph):
    """prop-3.1 on any tournament; thm-3.2-pi, thm-3.2-rho and thm-3.3 on a
    strong one with n >= 3."""
    n = D.n
    dist, sigma, _ = _distance_facts(D)
    out = [_out_degree(D, u) for u in range(n)]
    leaders = [u for u in range(n) if out[u] == max(out)]
    verdicts = {
        "prop-3.1": all(dist[u][v] is not INF and dist[u][v] <= 2 for u in leaders for v in range(n))
    }
    if sigma is None or n < 3:
        return verdicts
    pi, rho = Fraction(min(sigma), n - 1), Fraction(max(sigma), n - 1)
    if n % 2:
        pi_cap = rho_floor = Fraction(3, 2)
        near_regular = all(d == (n - 1) // 2 for d in out)
    else:
        pi_cap = Fraction(3, 2) - Fraction(1, 2 * (n - 1))
        rho_floor = Fraction(3, 2) + Fraction(1, 2 * (n - 1))
        near_regular = all(d in (n // 2 - 1, n // 2) for d in out)
    verdicts["thm-3.2-pi"] = (
        Fraction(n, n - 1) <= pi <= pi_cap
        and (pi == Fraction(n, n - 1)) == (max(out) == n - 2)
        and (pi == pi_cap) == near_regular
    )
    verdicts["thm-3.2-rho"] = (
        rho_floor <= rho <= Fraction(n, 2)
        and (rho == rho_floor) == near_regular
        and (rho == Fraction(n, 2)) == is_iso_to_extremal_oracle(D)
    )
    regular = len({*out, *(_in_degree(D, u) for u in range(n))}) == 1
    verdicts["thm-3.3"] = (pi == rho) == regular
    return verdicts


def bipartite_claims(D: Digraph):
    """lem-3.4 .. cor-3.8 on a strong bipartite tournament."""
    n = D.n
    _, sigma, ecc = _distance_facts(D)
    assert sigma is not None
    parts = brute_bipartition(D)
    assert parts is not None
    part_of = {v: p for p in parts for v in p}
    out = [_out_degree(D, u) for u in range(n)]
    nbhd = [frozenset(v for v in range(n) if D.has_arc(u, v)) for u in range(n)]
    bad = any(nbhd[u] < nbhd[v] for u in range(n) for v in part_of[u])
    mu = [sum(1 for w in part_of[v] if nbhd[w] == nbhd[v]) for v in range(n)]
    own = [len(part_of[v]) for v in range(n)]
    other = [n - own[v] for v in range(n)]
    equal = min(sigma) == max(sigma)
    c = {2 * (mu[v] - out[v]) + other[v] for v in range(n)}
    constant_mu = len(set(mu)) == 1
    beats_half = all(2 * out[v] == other[v] for v in range(n))
    return {
        "lem-3.4": not (bad and equal),
        "lem-3.5": bad or all(e <= 4 for e in ecc),
        "lem-3.6": bad
        or all(sigma[v] == 2 * (mu[v] - out[v]) + 2 * own[v] + 3 * other[v] - 4 for v in range(n)),
        "cor-3.7": equal == (not bad and len(c) == 1),
        "cor-3.8": bad or not constant_mu or equal == beats_half,
    }
