"""The exhaustive failure counts against independent claim oracles.

The scan and the reference verifiers share one definition per claim, so
comparing them checks plumbing only.  These tests compare the counts with
``oracles.py``, which transcribes each statement on Floyd-Warshall
distances and shares no code with the library.  They also check, on the
oracle's BFS distances, the three lemmas that make the lane tests of
thm-2.2 and thm-3.2-rho exact (see ``verifiers._thm_2_2_lanes`` and
``verifiers._thm_3_2_rho_lanes``), against an oracle certificate search
and brute isomorphism, and compare every claim's lane verdict and report
with the oracles on seeded instances of orders 8 to 27.
"""

from functools import lru_cache
from random import Random

import pytest

from proxrem.constructions import (
    bipartite_blowup,
    bipartite_equal,
    dicycle,
    extremal_tournament,
    ham_extremal,
    hub_digraph,
)
from proxrem.digraph import Digraph, is_strong, permute
from proxrem.search import enumerate_class, exhaustive_verify
from proxrem.verifiers import CLAIMS, InstanceFacts, _is_extremal, _thm22_certificate, resolve_theorems, verify

from oracles import (
    bfs_distances,
    bipartite_claims,
    general_claims,
    is_iso_to_extremal_oracle,
    quadratic_residue_tournament,
    rotational_tournament,
    sample_strong_digraph,
    sample_strong_orientation,
    thm22_certificates_oracle,
    tournament_claims,
    unreachable_pair_oracle,
)
from test_lanes import _bits, _clean, _lane_facts

GENERAL = ("thm-2.1", "thm-2.2")
TOURNAMENT = ("thm-3.2", "thm-3.3", "prop-3.1")
BIPARTITE = ("lem-3.4", "lem-3.5", "lem-3.6", "cor-3.7", "cor-3.8")


def oracle_failures(oracle, cls, n=None, parts=None, strong_only=True):
    fails = {}
    for D in enumerate_class(cls, n, parts):
        if strong_only and not is_strong(D):
            continue
        for claim, ok in oracle(D).items():
            fails[claim] = fails.get(claim, 0) + (not ok)
    return fails


CASES = [
    (GENERAL, general_claims, "all_digraphs", 4, None, True),
    (TOURNAMENT, tournament_claims, "tournaments", 4, None, False),
    (TOURNAMENT, tournament_claims, "tournaments", 5, None, False),
    (TOURNAMENT, tournament_claims, "tournaments", 6, None, False),
    (BIPARTITE, bipartite_claims, "bipartite_tournaments", None, (2, 3), True),
    (BIPARTITE, bipartite_claims, "bipartite_tournaments", None, (3, 3), True),
]


@pytest.mark.parametrize(
    "claims, oracle, cls, n, parts, strong_only", CASES, ids=[f"{c[2]}-{c[3] or c[4]}" for c in CASES]
)
def test_failure_counts_match_oracles(claims, oracle, cls, n, parts, strong_only):
    got = exhaustive_verify(list(claims), cls, n=n, parts=parts).failure_counts
    assert got == oracle_failures(oracle, cls, n, parts, strong_only)
    if n == 6:
        # the even-order refutation: counts recorded in the README
        assert got["thm-3.2-pi"] == 2400 and got["thm-3.2-rho"] == 1200


def extremal_predicted(D):
    """thm-3.2-rho's predicted upper case: isomorphism onto the extremal
    tournament, decided by the spanning-path pattern certificate."""
    return verify("thm-3.2-rho", D).details["upper"]["predicted"]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pattern_certificate_matches_brute_isomorphism(n):
    for D in enumerate_class("tournaments", n):
        if is_strong(D):
            assert extremal_predicted(D) == is_iso_to_extremal_oracle(D)


# ---------------------------------------------------------------------------
# The lemmas behind the exact structural lane tests
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _strong_instances(cls, n=None, parts=None):
    """(rows, sigma per vertex, ecc per vertex, out-degree per vertex) of
    every strong instance of a class, from the oracle's BFS."""
    out = []
    for D in enumerate_class(cls, n, parts):
        dist = [bfs_distances(D, u) for u in range(D.n)]
        if all(d is not None for row in dist for d in row):
            degrees = [sum(D.has_arc(u, v) for v in range(D.n)) for u in range(D.n)]
            out.append((D.rows, [sum(row) for row in dist], [max(row) for row in dist], degrees))
    return out


ALL_DIGRAPHS = [("all_digraphs", n, None) for n in (1, 2, 3, 4)]
TOURNAMENTS = [("tournaments", n, None) for n in (3, 4, 5, 6)]
SYMMETRIC = [("symmetric_digraphs", n, None) for n in range(1, 7)]
#: a part of one vertex leaves no strong instance
BIPARTITE_PARTS = [("bipartite_tournaments", None, (a, b)) for a in range(2, 4) for b in range(a, 7) if a * b <= 12]


def _ids(v):
    return str(v).replace(" ", "")


@pytest.mark.parametrize("cls, n, parts", ALL_DIGRAPHS + TOURNAMENTS, ids=_ids)
def test_l1_sigma_reaches_its_cap_exactly_on_a_spanning_path(cls, n, parts):
    """L1: sigma(u) <= n(n-1)/2, with equality iff ecc(u) = n-1; and
    sigma(v) = n-1 iff d+(v) = n-1."""
    instances = _strong_instances(cls, n, parts)
    assert instances
    for rows, sigmas, eccs, degrees in instances:
        order = len(rows)
        cap = order * (order - 1) // 2
        for s, e, d in zip(sigmas, eccs, degrees):
            assert s <= cap and (s == cap) == (e == order - 1), rows
            assert (s == order - 1) == (d == order - 1), rows


@pytest.mark.parametrize("cls, n, parts", ALL_DIGRAPHS + SYMMETRIC + TOURNAMENTS + BIPARTITE_PARTS, ids=_ids)
def test_l2_thm22_certificate_iff_long_and_dominant_vertices(cls, n, parts):
    """L2: thm-2.2's certificate exists iff max ecc = n-1 and max out = n-1.
    The oracle searches every start of eccentricity n-1; the library's
    certificate exists exactly when the oracle finds one, and the ordering
    thm-2.2's report carries is one of the oracle's, with its dominant
    vertex among the last two."""
    instances = _strong_instances(cls, n, parts)
    assert instances
    for rows, sigmas, eccs, degrees in instances:
        order = len(rows)
        certificates = thm22_certificates_oracle(Digraph(order, rows))
        assert bool(certificates) == (max(eccs) == order - 1 and max(degrees) == order - 1), rows
        found = _thm22_certificate(InstanceFacts(rows, sigmas, eccs)) is not None
        assert found == bool(certificates), rows
        if certificates and order >= CLAIMS["thm-2.2"].min_n:
            witnesses = verify("thm-2.2", Digraph(order, rows)).witnesses
            ordering, dominant = witnesses["ordering"], witnesses["dominant_vertex"]
            assert ordering in certificates, rows
            assert dominant in ordering[-2:] and degrees[dominant] == order - 1, rows


@pytest.mark.parametrize("cls, n, parts", TOURNAMENTS, ids=_ids)
def test_l3_extremal_iff_a_vertex_of_eccentricity_n_minus_1(cls, n, parts):
    """L3: a strong tournament is the extremal one iff max ecc = n-1, by
    the library's pattern walk and by brute isomorphism."""
    held = 0
    for rows, sigmas, eccs, _ in _strong_instances(cls, n, parts):
        extremal = _is_extremal(InstanceFacts(rows, sigmas, eccs))
        assert extremal == (max(eccs) == n - 1) == is_iso_to_extremal_oracle(Digraph(n, rows)), rows
        held += extremal
    assert held


# ---------------------------------------------------------------------------
# Claims at orders 8 to 27 against the oracles
# ---------------------------------------------------------------------------
#
# The exhaustive lane tests stop at order 8 (bipartite (2,6)).  Here seeded
# families and random strong instances of orders 8 to 27, on both sides of
# each byte-plane boundary of the lane kernel (8|9, 16|17, 24|25), are packed
# into one lane set per order and checked claim by claim: the lane test marks
# a lane clean iff the oracle passes the instance iff verify's report is ok.


def _assert_lanes_and_reports_match(batch, ranges, claims, verdicts):
    """``verdicts[i]`` is the oracle's {claim: passes} for batch[i]."""
    f = _lane_facts([D.rows for D in batch], batch[0].n, ranges)
    assert _bits(f.lanes, f.strong) == [1] * len(batch)
    clean = {t: _bits(f.lanes, _clean(t, f)) for t in claims}
    for i, (D, passes) in enumerate(zip(batch, verdicts)):
        for t in claims:
            assert clean[t][i] == passes[t] == verify(t, D).ok, (t, D.rows)


def _random_perm(n, rng):
    return rng.sample(range(n), n)


def _reverse_cycles(D, sample, tries=200):
    """D with each vertex cycle ``sample()`` draws reversed where it is a
    directed cycle, which keeps every out-degree."""
    rows = list(D.rows)
    for _ in range(tries):
        cycle = sample()
        arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
        if all(rows[s] >> t & 1 for s, t in arcs):
            for s, t in arcs:
                rows[s] ^= 1 << t
                rows[t] ^= 1 << s
    return Digraph(D.n, rows)


@pytest.mark.parametrize("n", [8, 9, 16, 17, 24, 25, 27])
def test_general_claims_at_large_orders(n):
    """thm-2.1 and thm-2.2 on the hub digraph (thm-2.2's equality case), the
    dicycle, the complete digraph, ham_extremal members and random strong
    digraphs, dense and sparse."""
    rng = Random(800 + n)
    back = [(a, b) for a in range(n) for b in range(a - 1)]
    batch = [
        hub_digraph(n, n - 1),
        permute(hub_digraph(n, n - 1), _random_perm(n, rng)),
        dicycle(n),
        Digraph(n, [((1 << n) - 1) ^ (1 << v) for v in range(n)]),
        ham_extremal(n, [(n - 1, 0)]),
        ham_extremal(n, [(n - 1, 0)] + rng.sample(back, n)),
    ]
    batch += [sample_strong_digraph(n, rng) for _ in range(3)]
    batch += [sample_strong_digraph(n, rng, arc_prob=3 / n) for _ in range(3)]
    _assert_lanes_and_reports_match(batch, None, resolve_theorems(GENERAL), [general_claims(D) for D in batch])


def _near_regular(n):
    """An almost regular tournament of even order n: the rotational
    tournament of order n+1 less its last vertex."""
    return Digraph(n, [r & ~(1 << n) for r in rotational_tournament(n + 1).rows[:n]])


@pytest.mark.parametrize("n", [8, 9, 11, 16, 17, 19, 23, 24, 25, 27])
def test_tournament_claims_at_large_orders(n):
    """thm-3.2, thm-3.3 and prop-3.1 on relabelled extremal tournaments, the
    same with one arc reversed, rotational and quadratic-residue tournaments
    (thm-3.3's equality case), almost regular ones at even n, the regular or
    almost regular ones reached from them by reversing directed triangles,
    and random strong ones.  The oracle's isomorphism test costs n!, so each
    instance's isomorphism to the extremal tournament is the one known by
    construction: only the relabelled extremal tournaments are, and every
    other instance has other scores."""
    rng = Random(900 + n)
    extremal = [permute(extremal_tournament(n), _random_perm(n, rng)) for _ in range(3)]
    batch = list(extremal)
    for T in extremal:
        degrees = [r.bit_count() for r in T.rows]
        # reversing u -> v keeps the scores only when d+(u) = d+(v) + 1
        arcs = [(u, v) for u in range(n) for v in range(n) if T.rows[u] >> v & 1 and degrees[u] != degrees[v] + 1]
        u, v = rng.choice(arcs)
        rows = list(T.rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        if unreachable_pair_oracle(Digraph(n, rows)) is None:
            batch.append(Digraph(n, rows))
    near_regular = rotational_tournament(n) if n % 2 else _near_regular(n)
    batch.append(near_regular)
    for _ in range(3):
        D = _reverse_cycles(near_regular, lambda: rng.sample(range(n), 3))
        if unreachable_pair_oracle(D) is None:
            batch.append(D)
    if n % 4 == 3 and all(n % p for p in range(2, n)):
        batch.append(quadratic_residue_tournament(n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    batch += [sample_strong_orientation(n, pairs, rng) for _ in range(6)]
    assert len(batch) > 8
    scores = lambda D: sorted(r.bit_count() for r in D.rows)
    for D in batch[len(extremal) :]:
        assert scores(D) != scores(extremal_tournament(n)), D.rows
    verdicts = [tournament_claims(D, extremal=i < len(extremal)) for i, D in enumerate(batch)]
    _assert_lanes_and_reports_match(batch, None, resolve_theorems(TOURNAMENT), verdicts)


@pytest.mark.parametrize(
    "parts, families",
    [
        ((4, 4), [bipartite_equal(2)]),
        ((4, 5), []),
        ((4, 6), [bipartite_blowup(1)]),
        ((8, 8), [bipartite_equal(4)]),
        ((8, 9), []),
        ((8, 12), [bipartite_blowup(2)]),
        ((12, 12), [bipartite_equal(6)]),
        ((12, 13), []),
    ],
    ids=lambda v: str(v).replace(" ", "") if isinstance(v, tuple) else "",
)
def test_bipartite_claims_at_large_orders(parts, families):
    """lem-3.4 to cor-3.8 on bipartite_equal and bipartite_blowup (good, a
    constant class size, equal distance sums), the same relabelled within
    their parts, the ones reached from them by reversing directed 4-cycles
    (good: one out-degree per part), and random strong bipartite
    tournaments (mostly bad)."""
    a, b = parts
    n = a + b
    rng = Random(1000 + 100 * a + b)
    batch = list(families)
    square = lambda: [v for pair in zip(rng.sample(range(a), 2), rng.sample(range(a, n), 2)) for v in pair]
    for D in families:
        batch.append(permute(D, rng.sample(range(a), a) + rng.sample(range(a, n), b)))
        for _ in range(3):
            E = _reverse_cycles(D, square)
            if unreachable_pair_oracle(E) is None:
                batch.append(E)
    pairs = [(u, v) for u in range(a) for v in range(a, n)]
    batch += [sample_strong_orientation(n, pairs, rng) for _ in range(8)]
    verdicts = [bipartite_claims(D) for D in batch]
    _assert_lanes_and_reports_match(batch, (range(a), range(a, n)), resolve_theorems(BIPARTITE), verdicts)
