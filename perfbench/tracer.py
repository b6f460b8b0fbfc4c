"""Boundary tracer: spans around calls into proxrem's layers, recorded from outside.

Each public callee is wrapped in the namespace of the module that calls it,
so the package itself is unchanged.  Private names are never wrapped: the
inlined Gray step and distance kernel are measured by replaying the public
``enumerate_class`` and ``sigma_ecc_vectors`` over the same instances.

Spans stay in memory.  As each one closes it is folded into the totals of
its name, and its duration is charged to its parent's child time, so a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List

#: module whose global names are patched -> the public callees it looks up.
#: ``proxrem.search`` on the package is the re-exported function, so modules
#: are fetched with importlib.
BOUNDARIES = {
    "proxrem.search": ("canonical_form", "read_digraph6", "write_digraph6", "metrics_report", "distance_layers"),
    "proxrem.verifiers": ("sigma_ecc_vectors", "find_unreachable_pair", "distance_layers", "canonical_form"),
}

#: span name of every entry of the shared ``verifiers.THEOREMS`` table.
CLAIM_SPAN = "verifiers.claim"


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: Dict[str, SpanTotals] = {}
        self._child_s: List[float] = []  # child time of each open span, innermost last

    def totals(self, name: str) -> SpanTotals:
        return self.spans.setdefault(name, SpanTotals())

    def wrap(self, name: str, fn):
        totals = self.totals(name)
        child_s = self._child_s

        def traced(*args, **kwargs):
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                totals.calls += 1
                totals.total_s += dt
                totals.self_s += dt - child_s.pop()
                if child_s:
                    child_s[-1] += dt

        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a top-level span."""
        return self.wrap(name, fn)(*args)

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        patched = []  # (namespace dict, key, original)
        try:
            for modname, attrs in BOUNDARIES.items():
                namespace = vars(importlib.import_module(modname))
                for attr in attrs:
                    fn = namespace[attr]
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    patched.append((namespace, attr, fn))
                    namespace[attr] = self.wrap(f"{layer}.{fn.__name__}", fn)
            theorems = importlib.import_module("proxrem.verifiers").THEOREMS
            for claim, fn in list(theorems.items()):
                patched.append((theorems, claim, fn))
                theorems[claim] = self.wrap(CLAIM_SPAN, fn)
            yield self
        finally:
            for namespace, key, fn in reversed(patched):
                namespace[key] = fn


def replay(cls: str, n, parts):
    """Walk ``enumerate_class`` and run ``sigma_ecc_vectors`` on each instance.

    Returns (instances, enumeration seconds, kernel seconds): the time spent
    in the generator's step, including the Digraph build, and in the kernel,
    which raises NotStrongError on instances that are not strong.
    """
    search_mod = importlib.import_module("proxrem.search")
    metrics_mod = importlib.import_module("proxrem.metrics")
    kernel = metrics_mod.sigma_ecc_vectors
    not_strong = metrics_mod.NotStrongError
    instances = 0
    enum_s = kernel_s = 0.0
    t0 = perf_counter()
    for D in search_mod.enumerate_class(cls, n, parts):
        t1 = perf_counter()
        enum_s += t1 - t0
        try:
            kernel(D)
        except not_strong:
            pass
        t0 = perf_counter()
        kernel_s += t0 - t1
        instances += 1
    return instances, enum_s, kernel_s
