"""The exhaustive failure counts against independent claim oracles.

The scan and the reference verifiers share one definition per claim, so
comparing them checks plumbing only.  These tests compare the counts with
``oracles.py``, which transcribes each statement on Floyd-Warshall
distances and shares no code with the library.  They also check, on the
oracle's BFS distances, the three lemmas that make the lane tests of
thm-2.2 and thm-3.2-rho exact (see ``verifiers._thm_2_2_lanes`` and
``verifiers._thm_3_2_rho_lanes``).
"""

from functools import lru_cache

import pytest

from proxrem.digraph import is_strong
from proxrem.search import enumerate_class, exhaustive_verify
from proxrem.verifiers import InstanceFacts, _is_extremal, _thm22_certificate, verify

from oracles import (
    bfs_distances,
    bipartite_claims,
    general_claims,
    is_iso_to_extremal_oracle,
    tournament_claims,
)

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
    """L2: thm-2.2's certificate exists iff max ecc = n-1 and max out = n-1."""
    instances = _strong_instances(cls, n, parts)
    assert instances
    for rows, sigmas, eccs, degrees in instances:
        order = len(rows)
        found = _thm22_certificate(InstanceFacts(rows, sigmas, eccs)) is not None
        assert found == (max(eccs) == order - 1 and max(degrees) == order - 1), rows


@pytest.mark.parametrize("cls, n, parts", TOURNAMENTS, ids=_ids)
def test_l3_extremal_iff_a_vertex_of_eccentricity_n_minus_1(cls, n, parts):
    """L3: a strong tournament is the extremal one iff max ecc = n-1."""
    held = 0
    for rows, sigmas, eccs, _ in _strong_instances(cls, n, parts):
        extremal = _is_extremal(InstanceFacts(rows, sigmas, eccs))
        assert extremal == (max(eccs) == n - 1), rows
        held += extremal
    assert held
