"""Quick check of the benchmark: each workload's calls at the smallest sizes,
and the exact counts the tracer must report for them.

    python3 -m pytest -q perfbench
"""

import importlib
import json
from itertools import islice

import run
from tracer import Tracer, replay
from workloads import BIPARTITE_CLAIMS, GENERAL_CLAIMS, ROOT, T32_CLAIMS, WORKLOADS, Call, import_proxrem

import_proxrem()
search_mod = importlib.import_module("proxrem.search")
verifiers_mod = importlib.import_module("proxrem.verifiers")

SMALL_SCANS = (
    Call("all_digraphs", n=3, claims=GENERAL_CLAIMS),
    Call("tournaments", n=4, claims=T32_CLAIMS),
    Call("bipartite_tournaments", parts=(2, 3), claims=BIPARTITE_CLAIMS),
)
SMALL_SEARCHES = (
    Call("tournaments", n=4, predicates=("strong", "equality_thm_3_2_rho")),
    Call("bipartite_tournaments", parts=(2, 3), predicates=("strong", "good")),
)
SMALL_GENERIC = Call("symmetric_digraphs", n=4, claims=GENERAL_CLAIMS)


def traced(calls):
    tracer = Tracer()
    with tracer.installed():
        results = [tracer.call("search", c.run, search_mod) for c in calls]
    return tracer, results


def count(tracer, name):
    return tracer.totals(name).calls


def test_generic_path_counts():
    tracer, [r] = traced([SMALL_GENERIC])
    assert r.strong_count > 0
    assert count(tracer, "search") == 1
    # thm-2.1-pi, thm-2.1-rho and thm-2.2 each compute the kernel once.
    assert count(tracer, "verifiers.claim") == r.checked == 3 * r.strong_count
    assert count(tracer, "metrics.sigma_ecc_vectors") == 3 * r.strong_count
    assert count(tracer, "digraph.find_unreachable_pair") == 3 * r.strong_count


def test_dedup_search_counts():
    tracer, results = traced(SMALL_SEARCHES)
    labeled = sum(r.dedup_stats["labeled_matches"] for r in results)
    classes = sum(r.dedup_stats["classes"] for r in results)
    assert 0 < classes < labeled
    assert count(tracer, "canonical.canonical_form") == labeled
    assert count(tracer, "formats.write_digraph6") == labeled
    assert count(tracer, "formats.read_digraph6") == labeled + classes
    assert count(tracer, "metrics.metrics_report") == classes
    assert count(tracer, "verifiers.claim") == 0


def test_fast_scans_bypass_the_reference_verifiers():
    tracer, results = traced(SMALL_SCANS)
    assert count(tracer, "verifiers.claim") == 0
    assert count(tracer, "metrics.sigma_ecc_vectors") == 0
    assert count(tracer, "digraph.find_unreachable_pair") == 0
    assert count(tracer, "metrics.distance_layers") > 0
    certificates = sum(len(r.certificates) for r in results)
    assert certificates > 0  # the even-order tournament refutation
    assert count(tracer, "formats.write_digraph6") == certificates


def test_self_time_excludes_children():
    tracer, _ = traced([SMALL_GENERIC])
    top = tracer.totals("search")
    claim = tracer.totals("verifiers.claim")
    assert 0 < top.self_s < top.total_s
    assert 0 < claim.self_s < claim.total_s <= top.total_s - top.self_s


def test_tracer_restores_every_boundary():
    before = [dict(vars(search_mod)), dict(vars(verifiers_mod)), dict(verifiers_mod.THEOREMS)]
    with Tracer().installed():
        assert verifiers_mod.THEOREMS != before[2]
    assert [dict(vars(search_mod)), dict(vars(verifiers_mod)), dict(verifiers_mod.THEOREMS)] == before


def test_replay_visits_every_instance():
    instances, enum_s, kernel_s = replay("tournaments", 4, None)
    assert instances == 2 ** 6
    assert enum_s > 0 and kernel_s > 0


def test_wrong_answer_is_flagged():
    result = SMALL_GENERIC.run(search_mod)
    call = Call("symmetric_digraphs", n=4, claims=GENERAL_CLAIMS, expect=SMALL_GENERIC.answer(result))
    assert not call.wrong(result)
    result.failure_counts["thm-2.2"] += 1
    assert call.wrong(result)


def test_seed_fixes_pass_orders():
    calls = WORKLOADS["scan-oriented"]
    first = list(islice(run.pass_orders(calls, 5), 6))
    assert first == list(islice(run.pass_orders(calls, 5), 6))
    assert all(sorted(o, key=calls.index) == list(calls) for o in first)


def test_reported_metrics_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    calls = SMALL_SCANS + SMALL_SEARCHES + (SMALL_GENERIC,)
    tracer, results = traced(calls)
    values = run.layer_metrics(tracer, list(zip(calls, results)), [replay("tournaments", 4, None)], 1.0, 1.0)
    assert set(values) == {m["name"] for m in spec["per_layer"]}


def test_clock_rescales_by_the_reference_loop(monkeypatch):
    samples = iter([run.REF_S, 3 * run.REF_S])
    monkeypatch.setattr(run, "reference_s", lambda: next(samples))
    clock = run.Clock()
    # The host ran at half the reference speed on average.
    assert clock.at_reference_speed(4.0) == 2.0
