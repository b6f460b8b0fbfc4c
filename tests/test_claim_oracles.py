"""The exhaustive failure counts against independent claim oracles.

The scan and the reference verifiers share one definition per claim, so
comparing them checks plumbing only.  These tests compare the counts with
``oracles.py``, which transcribes each statement on Floyd-Warshall
distances and shares no code with the library.
"""

import pytest

from proxrem.digraph import is_strong
from proxrem.search import enumerate_class, exhaustive_verify
from proxrem.verifiers import verify

from oracles import (
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

