"""Acceptance suite: one test per criterion, one printed verdict line each.

Heavy enumerations run single-threaded so the stated runtime budgets are
measured honestly.  The even-order tournament criterion is expected to fail:
the printed equality characterizations for the proximity upper bound and
remoteness lower bound are refuted exhaustively at order 6 (counterexample
certificates included); the corrected characterizations are asserted in
test_verifiers.py.  That test is marked xfail(strict=True) so the defect
stays visible without masking a regression elsewhere.
"""

from fractions import Fraction
from random import Random

import pytest

from proxrem.canonical import are_isomorphic, canonical_form
from proxrem.constructions import (
    FIG1_SIGMA,
    bipartite_T1,
    bipartite_blowup,
    bipartite_equal,
    dicycle,
    extremal_tournament,
    fig1_blowup,
    fig1_graph,
    hub_digraph,
)
from proxrem.digraph import is_regular, is_strong, is_symmetric
from proxrem.formats import read_digraph6
from proxrem.metrics import (
    proximity_remoteness,
    radius_diameter,
    sigma_ecc_vectors,
)
from proxrem.search import (
    SearchQuery,
    enumerate_class,
    exhaustive_verify,
    rediscover_sigma_equal_graph,
    search,
)
from proxrem.verifiers import verify_sec5_facts

from oracles import bipartite_facts_oracle, fw_metrics, is_iso_to_extremal_oracle, sample_strong_digraph


def verdict(capsys, name, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"{name}{tail}"


@pytest.fixture(scope="module")
def digraphs5_scan():
    return exhaustive_verify(["thm-2.1", "thm-2.2"], "all_digraphs", n=5, shards=1)


@pytest.fixture(scope="module")
def tournament_scans():
    ids = ["thm-3.2", "thm-3.3", "prop-3.1"]
    return {n: exhaustive_verify(ids, "tournaments", n=n, shards=1) for n in (5, 6, 7)}


def test_criterion_1_proximity_remoteness_bounds_n5(digraphs5_scan, capsys):
    r = digraphs5_scan
    ok = (
        r.scanned == 1 << 20
        and r.failure_counts["thm-2.1-pi"] == 0
        and r.failure_counts["thm-2.1-rho"] == 0
        and r.elapsed < 300
    )
    verdict(
        capsys,
        "criterion-1 pi/rho bounds + equality on all n=5 digraphs",
        ok,
        f"scanned={r.scanned} strong={r.strong_count} elapsed={r.elapsed:.1f}s",
    )


def test_criterion_2_spread_bound_n5(digraphs5_scan, capsys):
    r = digraphs5_scan
    ok = r.failure_counts["thm-2.2"] == 0 and r.elapsed < 300
    verdict(
        capsys,
        "criterion-2 rho-pi spread bound + equality on all n=5 digraphs",
        ok,
        f"strong={r.strong_count} elapsed={r.elapsed:.1f}s",
    )


def test_criterion_3_tournament_oracle_odd_orders(tournament_scans, capsys):
    total_elapsed = sum(r.elapsed for r in tournament_scans.values())
    ok = True
    details = []
    for n in (5, 7):
        r = tournament_scans[n]
        bad = {k: v for k, v in r.failure_counts.items() if v}
        details.append(f"n={n} strong={r.strong_count} fails={sum(bad.values())}")
        ok = ok and not bad
    r6 = tournament_scans[6]
    ok = ok and r6.failure_counts["thm-3.3"] == 0 and r6.failure_counts["prop-3.1"] == 0
    ok = ok and total_elapsed < 900
    verdict(
        capsys,
        "criterion-3 tournament bounds/characterizations, odd orders + n=6 equality-iff-regular",
        ok,
        "; ".join(details) + f"; total elapsed={total_elapsed:.1f}s",
    )


def test_criterion_3_even_order_bounds_and_safe_characterizations(capsys):
    # order 6, checked directly: the window bounds, the proximity lower
    # characterization and the remoteness upper characterization all hold
    n = 6

    bad = 0
    strong = 0
    for D in enumerate_class("tournaments", n):
        if not is_strong(D):
            continue
        strong += 1
        sigmas, _ = sigma_ecc_vectors(D)
        smin, smax = min(sigmas), max(sigmas)
        degs = [r.bit_count() for r in D.rows]
        if not (n <= smin and 2 * smin <= 3 * n - 4):
            bad += 1
        elif not (3 * n - 2 <= 2 * smax <= n * (n - 1)):
            bad += 1
        elif (smin == n) != (max(degs) == n - 2):
            bad += 1
        elif (2 * smax == n * (n - 1)) != is_iso_to_extremal_oracle(D):
            bad += 1
    verdict(
        capsys,
        "criterion-3 n=6 bounds, pi-lower and rho-upper characterizations",
        bad == 0 and strong == 22320,
        f"strong={strong} violations={bad}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="printed even-order equality characterizations (regular-or-almost-"
    "regular) are refuted exhaustively at n=6: the proximity cap is attained "
    "by non-almost-regular tournaments (max out-degree n/2 suffices) and "
    "almost-regularity neither implies nor follows from the remoteness floor",
)
def test_criterion_3_even_order_equality_characterizations(tournament_scans, capsys):
    r = tournament_scans[6]
    pi_fails = r.failure_counts["thm-3.2-pi"]
    rho_fails = r.failure_counts["thm-3.2-rho"]
    sample = [c["digraph6"] for c in r.certificates[:3]]
    verdict(
        capsys,
        "criterion-3 n=6 pi-upper/rho-lower equality as printed",
        pi_fails == 0 and rho_fails == 0,
        f"pi-upper mismatches={pi_fails} rho-lower mismatches={rho_fails} sample={sample}",
    )


def test_criterion_4_bipartite_lemmas(capsys):
    ids = ["lem-3.4", "lem-3.5", "lem-3.6", "cor-3.7", "cor-3.8"]
    scanned = strong = fails = 0
    for a in range(1, 5):
        for b in range(a, 10 - a):
            r = exhaustive_verify(ids, "bipartite_tournaments", parts=(a, b), shards=1)
            scanned += r.scanned
            strong += r.strong_count
            fails += sum(r.failure_counts.values())
    verdict(
        capsys,
        "criterion-4 bipartite lemmas over all part sizes a+b<=9",
        fails == 0,
        f"scanned={scanned} strong={strong} fails={fails}",
    )


def test_criterion_5_construction_invariants(capsys):
    import time

    t0 = time.time()
    ok = True
    for n in range(3, 101):
        _, rho, _ = proximity_remoteness(extremal_tournament(n))
        ok = ok and rho == Fraction(n, 2)
    for n in range(2, 101):
        pi, rho, _ = proximity_remoteness(dicycle(n))
        ok = ok and pi == rho == Fraction(n, 2)
    for n in range(3, 51):
        for c in range(1, n):
            D = hub_digraph(n, c)
            rad, diam = radius_diameter(D)
            _, rho, _ = proximity_remoteness(D)
            ok = ok and rad == 1 and diam == n - 1 and rho == Fraction(n, 2)
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    verdict(capsys, "criterion-5 construction invariants", ok, f"elapsed={elapsed:.1f}s")


def test_criterion_6_bipartite_equality_family(capsys):
    ok = True
    details = []
    for t in range(1, 6):
        D = bipartite_blowup(t)
        facts = bipartite_facts_oracle(D)
        good = facts.bad is None
        pi, rho, _ = proximity_remoteness(D)
        mus = set(facts.mu)
        ok = ok and good and is_strong(D) and pi == rho and mus == {t} and not is_regular(D)
    for h in range(1, 6):
        D = bipartite_equal(h)
        good = bipartite_facts_oracle(D).bad is None
        pi, rho, _ = proximity_remoteness(D)
        ok = ok and good and is_strong(D) and pi == rho
        # degenerate member: the equal-blocks family is regular, flag it
        ok = ok and is_regular(D)
        details.append(f"equal({h})=regular")
    verdict(
        capsys,
        "criterion-6 bipartite pi=rho family (blowups non-regular, equal-blocks flagged regular)",
        ok,
    )


def test_criterion_7_order9_graph_family(capsys):
    G = fig1_graph()
    sigmas, _ = sigma_ecc_vectors(G)
    ok = is_strong(G) and is_symmetric(G) and not is_regular(G)
    ok = ok and min(sigmas) == max(sigmas) == FIG1_SIGMA
    copies = {}
    for t in range(1, 5):
        B = fig1_blowup(t)
        bs, _ = sigma_ecc_vectors(B)
        pi, rho, _ = proximity_remoteness(B)
        copies[t] = sorted(set(bs))
        ok = ok and pi == rho
        # oracle-verified relation: each copy sums t copies of every base
        # distance plus 2 per same-vertex copy
        ok = ok and set(bs) == {t * FIG1_SIGMA + 2 * (t - 1)}
    verdict(
        capsys,
        "criterion-7 order-9 equal-sigma graph and blow-ups",
        ok,
        f"sigma_base={FIG1_SIGMA} per-copy sums={copies}",
    )


def test_criterion_8_radius_remoteness_separations(capsys):
    ok = True
    for n in range(4, 21):
        ok = ok and verify_sec5_facts("hub", n).ok
        ok = ok and verify_sec5_facts("hub", n, 1).ok
    for n in range(3, 21):
        ok = ok and verify_sec5_facts("dicycle", n).ok
    verdict(capsys, "criterion-8 hub/dicycle radius-remoteness separations", ok)


def test_criterion_9_metric_oracle_equivalence(capsys):
    rng = Random(987654321)
    checked = 0
    ok = True
    for _ in range(10000):
        n = rng.randint(2, 6)
        D = sample_strong_digraph(n, rng, arc_prob=rng.choice((0.3, 0.5, 0.7)))
        pi, rho, _ = proximity_remoteness(D)
        rad, diam = radius_diameter(D)
        if fw_metrics(D) != (pi, rho, rad, diam):
            ok = False
            break
        checked += 1
    verdict(
        capsys,
        "criterion-9 BFS metrics equal matrix-relaxation oracle",
        ok and checked == 10000,
        f"instances={checked}",
    )


def test_criterion_10_shard_determinism(capsys):
    specs = [
        ("tournaments", 5, None, ("strong", "pi_eq_rho")),
        ("all_digraphs", 4, None, ("strong", "rho_eq_half_n")),
        ("bipartite_tournaments", None, (4, 4), ("strong", "good", "pi_eq_rho")),
    ]
    ok = True
    for cls, n, parts, preds in specs:
        outs = []
        for shards in (1, 2, 8):
            q = SearchQuery(cls=cls, n=n, parts=parts, predicates=preds, shards=shards)
            outs.append([d6 for d6, _ in search(q).matches])
        ok = ok and outs[0] == outs[1] == outs[2] and bool(outs[0])
    verdict(capsys, "criterion-10a identical output for 1/2/8 shards", ok)


def test_criterion_10_seeded_rediscovery(capsys):
    degrees = (3, 3, 3, 3, 3, 3, 4, 4, 4)
    budget = 60000
    result = rediscover_sigma_equal_graph(
        degrees, seed=20250808, budget=budget, target=fig1_graph()
    )
    ok = result.success and result.digraph6 is not None
    confirmed = False
    if ok:
        found = read_digraph6(result.digraph6)
        sigmas, _ = sigma_ecc_vectors(found)
        confirmed = (
            is_strong(found)
            and is_symmetric(found)
            and not is_regular(found)
            and min(sigmas) == max(sigmas)
            and are_isomorphic(found, fig1_graph())
            and canonical_form(found) == canonical_form(fig1_graph())
        )
    verdict(
        capsys,
        "criterion-10b seeded n=9 rediscovery, verifier-confirmed",
        ok and confirmed,
        f"iterations={result.iterations}/{budget} sigma_equal_hits={result.sigma_equal_hits}",
    )
