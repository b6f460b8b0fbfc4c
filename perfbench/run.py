"""Benchmark of proxrem's exhaustive scans, run from the root of a checkout:

    python3 perfbench/run.py --workload scan-oriented --seed 3 --seconds 20 --trace 0

One pass makes the workload's public calls (see workloads.py) in an order
drawn from the seed, and checks every answer against the expected table.
Passes repeat until ``--seconds`` have gone by, with at least two.

Times are given at the reference speed.  On a shared host, neighbouring
load slowed the same call by up to 2x for a minute or more, which no run
length averages out.  So a fixed pure-Python loop, independent of proxrem,
is timed before and after every timed call, and the call's wall time is
scaled by REF_S over the loop's mean time: what the call would take on the
host running at the speed where the loop takes REF_S.  Raw wall times are
printed beside them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
instances_per_ref_s (labeled instances scanned per second at the reference
speed, over all the run's passes), setup_s (median time at the reference
speed from starting a fresh interpreter to the end of ``import proxrem``)
and peak_rss_mib (this process).

``--trace 1`` makes the same untraced passes, then one traced pass and a
replay of the kernel and the enumerator (see tracer.py), and reports the
per-layer metrics.  Each is named ``<module>.<function>.<stat>``: ``calls``
is exact, ``self_s`` is the span's time less its traced children, and
``us`` is microseconds per call, or per instance for a replay; these are
wall times.  A layer the workload never reaches reads 0.  ``trace.overhead``
is the traced pass's time over the median untraced pass, both at the
reference speed.

The last line of standard output is one JSON object; the lines before it
give each pass, the seed and the number of passes with a wrong answer.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import NamedTuple

from tracer import Tracer, replay
from workloads import ROOT, SRC, WORKLOADS, import_proxrem, require_source

MIN_PASSES = 2
SETUP_SPAWNS = 7
SPAWN_TIMEOUT_S = 60
REF_ITERATIONS = 100_000
#: seconds the reference loop takes at the reference speed: the fastest seen
#: on the 2-CPU x86_64 host, Python 3.11.7, where the benchmark was defined.
REF_S = 0.125

#: traced spans reported as calls and self_s; the last three also as us.
LAYER_SPANS = (
    "metrics.sigma_ecc_vectors",
    "metrics.distance_layers",
    "metrics.metrics_report",
    "verifiers.claim",
    "digraph.find_unreachable_pair",
    "canonical.canonical_form",
    "formats.write_digraph6",
    "formats.read_digraph6",
)
PER_CALL_SPANS = LAYER_SPANS[-3:]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def reference_loop(iterations: int) -> int:
    """Fixed integer work of the same kind as the scans' inner loops."""
    x = 0x9E3779B9
    acc = 0
    for _ in range(iterations):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        r = x >> 16
        while r:
            low = r & -r
            acc += low.bit_length()
            r ^= low
    return acc


def reference_s() -> float:
    t0 = perf_counter()
    reference_loop(REF_ITERATIONS)
    return perf_counter() - t0


class Clock:
    """Rescales wall times to the reference speed, from reference loops
    timed right before and right after each timed stretch."""

    def __init__(self) -> None:
        self.last_ref_s = reference_s()

    def at_reference_speed(self, seconds: float) -> float:
        """Call right after the timed stretch that took ``seconds``."""
        ref_s = reference_s()
        scaled = seconds * 2 * REF_S / (self.last_ref_s + ref_s)
        self.last_ref_s = ref_s
        return scaled


def time_setup() -> float:
    """Seconds from spawning an interpreter until it has imported proxrem."""
    code = "import sys, proxrem; sys.stdout.write('.'); sys.stdout.flush()"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
        ready = proc.stdout.read(1)
        dt = perf_counter() - t0
        proc.wait(timeout=SPAWN_TIMEOUT_S)
    if ready != b"." or proc.returncode != 0:
        raise SystemExit(f"perfbench: a fresh interpreter failed to import proxrem (exit {proc.returncode})")
    return dt


def measure_setup() -> float:
    time_setup()  # the first import may compile bytecode; users pay that once
    clock = Clock()
    return statistics.median(clock.at_reference_speed(time_setup()) for _ in range(SETUP_SPAWNS))


def pass_orders(calls, seed: int):
    """The call order of pass 0, 1, 2, ...: fixed by the seed alone."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(calls, len(calls))


class Pass(NamedTuple):
    seconds: float  # wall time
    ref_seconds: float  # at the reference speed
    instances: int
    wrong: int  # calls whose answer differs from the expected table
    results: list  # [(call, result)]


def run_pass(order, search_mod, clock: Clock, tracer=None) -> Pass:
    results = []
    seconds = ref_seconds = 0.0
    for call in order:
        t0 = perf_counter()
        result = tracer.call("search", call.run, search_mod) if tracer else call.run(search_mod)
        dt = perf_counter() - t0
        seconds += dt
        ref_seconds += clock.at_reference_speed(dt)
        results.append((call, result))
    instances = sum(r.scanned for _, r in results)
    wrong = sum(c.wrong(r) for c, r in results)
    labels = ", ".join(c.label for c in order)
    verdict = f"{wrong} wrong answers" if wrong else "answers ok"
    print(f"{'traced ' if tracer else ''}pass [{labels}]: {seconds:.3f} s wall, "
          f"{ref_seconds:.3f} s at reference speed, {instances / ref_seconds:.0f} instances/ref_s, {verdict}")
    return Pass(seconds, ref_seconds, instances, wrong, results)


def measure(orders, search_mod, clock: Clock, budget_s: float):
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < budget_s:
        passes.append(run_pass(next(orders), search_mod, clock))
    return passes


def peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def layer_metrics(tracer: Tracer, results, replays, traced_s: float, untraced_median_s: float):
    instances = sum(i for i, _, _ in replays)
    verified = [r for c, r in results if c.claims]
    searched = [r for c, r in results if not c.claims]
    strong = sum(r.strong_count for r in verified)
    scanned = sum(r.scanned for r in verified)
    labeled = sum(r.dedup_stats["labeled_matches"] for r in searched)
    classes = sum(r.dedup_stats["classes"] for r in searched)
    m = {
        "search.self_s": tracer.totals("search").self_s,
        "search.enumerate_class.us": 1e6 * sum(e for _, e, _ in replays) / instances,
        "search.strong_share": strong / scanned if scanned else 0.0,
        "search.certificates": sum(len(r.certificates) for r in verified),
        "metrics.sigma_ecc_vectors.us": 1e6 * sum(k for _, _, k in replays) / instances,
        "verifiers.sigma_ecc_per_strong": (
            tracer.totals("metrics.sigma_ecc_vectors").calls / strong if strong else 0.0
        ),
        "canonical.dedup_ratio": classes / labeled if labeled else 0.0,
        "trace.overhead": traced_s / untraced_median_s,
    }
    for name in LAYER_SPANS:
        t = tracer.totals(name)
        m[f"{name}.calls"] = t.calls
        m[f"{name}.self_s"] = t.self_s
        if name in PER_CALL_SPANS:
            m[f"{name}.us"] = 1e6 * t.total_s / t.calls if t.calls else 0.0
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    calls = WORKLOADS[args.workload]
    require_source()
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    setup_s = None if args.trace else measure_setup()
    import_proxrem()
    search_mod = importlib.import_module("proxrem.search")

    clock = Clock()
    passes = measure(pass_orders(calls, args.seed), search_mod, clock, args.seconds)
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(next(pass_orders(calls, args.seed)), search_mod, clock, tracer)
        untraced_median_s = statistics.median(p.ref_seconds for p in passes)
        passes.append(traced)
        classes = dict.fromkeys((c.cls, c.n, c.parts) for c in calls)
        replays = [replay(*key) for key in classes]
        values = layer_metrics(tracer, traced.results, replays, traced.ref_seconds, untraced_median_s)
        wanted = spec["per_layer"]
    else:
        values = {
            "instances_per_ref_s": sum(p.instances for p in passes) / sum(p.ref_seconds for p in passes),
            "setup_s": setup_s,
            "peak_rss_mib": peak_rss_mib(),
        }
        wanted = spec["end_to_end"]
    if set(values) != {w["name"] for w in wanted}:
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")

    failed = sum(1 for p in passes if p.wrong)
    print(f"workload {args.workload}, seed {args.seed}: wrong_results {failed}/{len(passes)} passes")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
