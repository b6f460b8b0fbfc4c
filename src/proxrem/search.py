"""Exhaustive and randomized enumeration of small digraph classes.

Enumeration walks labeled arc-subset codes in Gray-code order, so advancing
from one instance to the next toggles a single arc (or reorients a single
pair).  Shards are contiguous code ranges; any worker count produces the
same normalized result set.  The per-instance hot loops work on raw
adjacency rows and only materialize Digraph objects for matches and
counterexamples.

Feasibility ceilings (labeled instances):

    all_digraphs          n <= 5          2^(n(n-1))
    tournaments           n <= 8          2^(n(n-1)/2)
    bipartite_tournaments a*b <= 26       2^(a*b)
    symmetric_digraphs    n <= 8          2^(n(n-1)/2)

Beyond the ceilings use the randomized, degree-constrained sampler.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from random import Random
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .canonical import canonical_form
from .digraph import Digraph, is_regular, is_tournament
from .formats import read_digraph6, write_digraph6

# distance_layers is bound here for the benchmark's boundary tracer
# (perfbench/tracer.py), which patches it by name in this module.
from .metrics import MetricsReport, distance_layers, distance_sums, metrics_report  # noqa: F401
from .verifiers import CLAIMS, THEOREMS, InstanceFacts


class _Class(NamedTuple):
    """An enumeration class: its size ceiling, how a Gray-code bit changes
    the rows, and the claims the table-driven scan serves."""

    ceiling: int  # largest n, or largest a*b for a class sized by its parts
    sized_by_parts: bool
    flip: str  # "arc": toggle u->v; "edge": toggle both arcs; "orient": reverse u->v
    scan_claims: frozenset
    screen: bool  # skip instances with an empty row or a vertex without in-arcs


_CLASSES: Dict[str, _Class] = {
    "all_digraphs": _Class(5, False, "arc", frozenset({"thm-2.1-pi", "thm-2.1-rho", "thm-2.2"}), True),
    "tournaments": _Class(
        8, False, "orient", frozenset({"thm-3.2-pi", "thm-3.2-rho", "thm-3.3", "prop-3.1"}), False
    ),
    "bipartite_tournaments": _Class(
        26, True, "orient", frozenset({"lem-3.4", "lem-3.5", "lem-3.6", "cor-3.7", "cor-3.8"}), False
    ),
    "symmetric_digraphs": _Class(8, False, "edge", frozenset(), False),
}

CLASS_NAMES = tuple(_CLASSES)

_CEILING_MSG = "exceeds the exhaustive ceiling; use the randomized mode (--randomized)"


def _spec(cls: str) -> _Class:
    if cls not in _CLASSES:
        raise ValueError(f"unknown class {cls!r}; expected one of {CLASS_NAMES}")
    return _CLASSES[cls]


def _check_size(cls: str, n: Optional[int], parts: Optional[Tuple[int, int]]) -> None:
    spec = _spec(cls)
    if spec.sized_by_parts:
        if parts is None or parts[0] * parts[1] > spec.ceiling:
            raise ValueError(f"{cls} with parts={parts} {_CEILING_MSG}")
        if min(parts) < 1:
            raise ValueError(f"{cls} needs two nonempty parts, got parts={parts}")
    elif n is None or n > spec.ceiling:
        raise ValueError(f"{cls} with n={n} {_CEILING_MSG}")
    elif n < 1:
        raise ValueError(f"{cls} needs n >= 1, got n={n}")


def _layout(cls: str, n: Optional[int], parts: Optional[Tuple[int, int]]):
    """(order, nbits, base_rows, flips, part_ranges): flips[k] lists
    (vertex, xor mask); part_ranges is None outside the bipartite class."""
    spec = _spec(cls)
    if spec.sized_by_parts:
        a, b = parts
        order = a + b
        pairs = [(i, a + j) for i in range(a) for j in range(b)]
        part_ranges = range(a), range(a, order)
    else:
        order = n
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if spec.flip == "arc":
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        part_ranges = None
    base = [0] * order
    flips = []
    for u, v in pairs:
        if spec.flip == "orient":
            base[u] |= 1 << v
        flips.append(((u, 1 << v),) if spec.flip == "arc" else ((u, 1 << v), (v, 1 << u)))
    return order, len(pairs), base, flips, part_ranges


def total_count(cls: str, n: Optional[int] = None, parts: Optional[Tuple[int, int]] = None) -> int:
    _, nbits, _, _, _ = _layout(cls, n, parts)
    return 1 << nbits


def _rows_at(base: List[int], flips, code: int) -> List[int]:
    rows = list(base)
    g = code ^ (code >> 1)
    k = 0
    while g:
        if g & 1:
            for v, mask in flips[k]:
                rows[v] ^= mask
        g >>= 1
        k += 1
    return rows


def _iter_rows(cls: str, n: Optional[int], parts, start: int, stop: int) -> Iterator[List[int]]:
    """Yields the (shared, mutated in place) row list for codes start..stop-1."""
    order, nbits, base, flips, _ = _layout(cls, n, parts)
    rows = _rows_at(base, flips, start)
    if start < stop:
        yield rows
    for idx in range(start + 1, stop):
        for v, mask in flips[(idx & -idx).bit_length() - 1]:
            rows[v] ^= mask
        yield rows


def shard_range(total: int, index: int, count: int) -> Tuple[int, int]:
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} outside 0..{count - 1}")
    return total * index // count, total * (index + 1) // count


def enumerate_class(
    cls: str,
    n: Optional[int] = None,
    parts: Optional[Tuple[int, int]] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> Iterator[Digraph]:
    """Every labeled member exactly once, in Gray-code-adjacent order."""
    _check_size(cls, n, parts)
    order, nbits, base, flips, _ = _layout(cls, n, parts)
    total = 1 << nbits
    start, stop = shard_range(total, *shard) if shard else (0, total)
    for rows in _iter_rows(cls, n, parts, start, stop):
        yield Digraph(order, tuple(rows))


def _map_shards(worker, jobs):
    if len(jobs) == 1:
        return [worker(jobs[0])]
    with get_context("fork").Pool(processes=min(len(jobs), os.cpu_count() or 1)) as pool:
        return pool.map(worker, jobs)


# ---------------------------------------------------------------------------
# Predicate-filtered search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchQuery:
    cls: str
    n: Optional[int] = None
    parts: Optional[Tuple[int, int]] = None
    predicates: Tuple[str, ...] = ()
    dedup: str = "none"  # none | canonical
    limit: Optional[int] = None
    shards: int = 1


@dataclass
class SearchResult:
    matches: List[Tuple[str, Optional[MetricsReport]]]
    scanned: int
    elapsed: float
    dedup_stats: Dict[str, int]
    shards: int

    def as_json_dict(self) -> dict:
        return {
            "matches": len(self.matches),
            "scanned": self.scanned,
            "elapsed_seconds": round(self.elapsed, 3),
            "dedup_stats": self.dedup_stats,
            "shards": self.shards,
        }


def _observed(claim_id: str):
    """Predicate: some equality case of the claim is observed."""
    claim = CLAIMS[claim_id]
    return lambda f: True in claim.bind(f.n)(f)[1]


#: name -> (needs the distance kernel, predicate over InstanceFacts).  The
#: kernel predicates hold only on strong instances; the others run first.
PREDICATES = {
    "tournament": (False, lambda f: is_tournament(Digraph(f.n, f.rows))),
    "regular": (False, lambda f: is_regular(Digraph(f.n, f.rows))),
    "non_regular": (False, lambda f: not is_regular(Digraph(f.n, f.rows))),
    "good": (False, lambda f: f.witness is None),
    "bad": (False, lambda f: f.witness is not None),
    "strong": (True, lambda f: True),
    "connected": (True, lambda f: True),
    "pi_eq_rho": (True, lambda f: f.smin == f.smax),
    "pi_ne_rho": (True, lambda f: f.smin != f.smax),
    "rho_eq_half_n": (True, lambda f: 2 * f.smax == f.n * (f.n - 1)),
    **{
        "equality_" + c.replace("-", "_").replace(".", "_"): (True, _observed(c))
        for c in ("thm-2.1-pi", "thm-2.1-rho", "thm-2.2", "thm-3.2-pi", "thm-3.2-rho", "thm-3.3")
    },
}


def _search_worker(args) -> Tuple[int, int, List[str]]:
    """(scanned, matches, the smallest ``cap`` match strings or all of them)."""
    cls, n, parts, start, stop, predicates, cap = args
    order, _, _, _, part_ranges = _layout(cls, n, parts)
    facts = InstanceFacts(order, part_ranges)
    cheap = [PREDICATES[p][1] for p in predicates if not PREDICATES[p][0]]
    costly = [PREDICATES[p][1] for p in predicates if PREDICATES[p][0]]
    matches: List[str] = []
    scanned = found = 0
    for rows in _iter_rows(cls, n, parts, start, stop):
        scanned += 1
        if cheap:
            facts.load(rows, None, None)
            if not all(fn(facts) for fn in cheap):
                continue
        if costly:
            sigmas, eccs = distance_sums(rows, order)
            if sigmas is None:
                continue
            facts.load(rows, sigmas, eccs)
            if not all(fn(facts) for fn in costly):
                continue
        found += 1
        matches.append(write_digraph6(Digraph(order, tuple(rows))))
    if cap is not None and len(matches) > cap:
        matches = sorted(matches)[:cap]
    return scanned, found, matches


def search(query: SearchQuery) -> SearchResult:
    """Run a predicate-filtered exhaustive scan.

    The match set is normalized (sorted by digraph6 string) before dedup
    and limit are applied, so it does not depend on the shard count, and
    ``dedup_stats`` counts every match and class before the limit.
    """
    for p in query.predicates:
        if p not in PREDICATES:
            raise ValueError(f"unknown predicate {p!r}; known: {sorted(PREDICATES)}")
    if query.limit is not None and query.limit < 0:
        raise ValueError(f"limit must be nonnegative, got {query.limit}")
    if query.cls != "bipartite_tournaments" and {"good", "bad"} & set(query.predicates):
        raise ValueError("good/bad predicates need the bipartite_tournaments class")
    _check_size(query.cls, query.n, query.parts)
    t0 = time.perf_counter()
    total = total_count(query.cls, query.n, query.parts)
    shards = max(1, query.shards)
    # Without dedup each shard may keep just its smallest `limit` matches.
    cap = query.limit if query.dedup == "none" else None
    jobs = [
        (query.cls, query.n, query.parts, *shard_range(total, i, shards), query.predicates, cap)
        for i in range(shards)
    ]
    outputs = _map_shards(_search_worker, jobs)
    scanned = sum(o[0] for o in outputs)
    all_matches = sorted(m for o in outputs for m in o[2])
    dedup_stats = {"labeled_matches": sum(o[1] for o in outputs)}
    if query.dedup == "canonical":
        groups: Dict[bytes, str] = {}
        parts_arg = _layout(query.cls, query.n, query.parts)[4]
        for d6 in all_matches:
            D = read_digraph6(d6)
            key = canonical_form(D, parts_arg).bytes
            groups.setdefault(key, d6)
        all_matches = sorted(groups.values())
        dedup_stats["classes"] = len(all_matches)
    if query.limit is not None:
        all_matches = all_matches[: query.limit]
    decorated: List[Tuple[str, Optional[MetricsReport]]] = []
    for d6 in all_matches:
        D = read_digraph6(d6)
        try:
            decorated.append((d6, metrics_report(D)))
        except ValueError:
            decorated.append((d6, None))
    return SearchResult(
        matches=decorated,
        scanned=scanned,
        elapsed=time.perf_counter() - t0,
        dedup_stats=dedup_stats,
        shards=shards,
    )


# ---------------------------------------------------------------------------
# Exhaustive claim verification
# ---------------------------------------------------------------------------

THEOREM_ALIASES = {
    "thm-2.1": ("thm-2.1-pi", "thm-2.1-rho"),
    "thm-3.2": ("thm-3.2-pi", "thm-3.2-rho"),
}


@dataclass
class ExhaustiveResult:
    """Counts of one exhaustive run.

    ``checked`` depends on the path: the table-driven scan (a class whose
    requested claims it serves) counts instances on which at least one
    requested claim ran; the reference path counts (claim, instance) pairs,
    one per ``THEOREMS`` call.
    """

    theorems: Tuple[str, ...]
    cls: str
    scanned: int
    strong_count: int
    checked: int
    failure_counts: Dict[str, int]
    certificates: List[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not any(self.failure_counts.values())

    def as_json_dict(self) -> dict:
        return {
            "theorems": list(self.theorems),
            "class": self.cls,
            "scanned": self.scanned,
            "strong": self.strong_count,
            "checked": self.checked,
            "failure_counts": self.failure_counts,
            "passed": self.passed,
            "certificates": self.certificates,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def resolve_theorems(ids: Sequence[str]) -> Tuple[str, ...]:
    out: List[str] = []
    for t in ids:
        if t in THEOREM_ALIASES:
            out.extend(THEOREM_ALIASES[t])
        elif t in THEOREMS:
            out.append(t)
        else:
            raise ValueError(
                f"unknown claim id {t!r}; known: {sorted(THEOREMS) + sorted(THEOREM_ALIASES)}"
            )
    return tuple(dict.fromkeys(out))


#: Cap on stored counterexample certificates (counts stay exact).
MAX_CERTIFICATES = 200


def _cert(order: int, rows: Sequence[int], theorem: str, info: dict) -> dict:
    return {
        "digraph6": write_digraph6(Digraph(order, tuple(rows))),
        "theorem": theorem,
        **info,
    }


def _scan_worker(args) -> dict:
    """The table-driven scan: every requested claim's check on each instance."""
    cls, n, parts, start, stop, want = args
    order, _, _, _, part_ranges = _layout(cls, n, parts)
    full = (1 << order) - 1
    screen = _CLASSES[cls].screen
    facts = InstanceFacts(order, part_ranges)
    checks = []  # (claim id, check, evidence)
    loose = []  # the checks that also run on instances that are not strong
    for t in want:
        claim = CLAIMS[t]
        if order >= claim.min_n:
            checks.append((t, claim.bind(order), claim.evidence))
            if not claim.strong:
                loose.append(checks[-1])
    fails = {t: 0 for t in want}
    certs: List[dict] = []
    scanned = strong = checked = 0
    for rows in _iter_rows(cls, n, parts, start, stop):
        scanned += 1
        if screen:
            # Cheap strongness screen: no empty row, every vertex has an in-arc.
            if 0 in rows:
                continue
            acc = 0
            for r in rows:
                acc |= r
            if acc != full:
                continue
        sigmas, eccs = distance_sums(rows, order)
        if sigmas is not None:
            strong += 1
            run = checks
        else:
            run = loose
        if not run:
            continue
        checked += 1
        facts.load(rows, sigmas, eccs)
        for t, check, evidence in run:
            bound, observed, predicted = check(facts)
            if not bound or observed != predicted:
                fails[t] += 1
                if len(certs) < MAX_CERTIFICATES:
                    certs.append(_cert(order, rows, t, evidence(facts)))
    return {"scanned": scanned, "strong": strong, "checked": checked, "fails": fails, "certs": certs}


def _generic_scan_worker(args) -> dict:
    """The reference path: each claim's ``THEOREMS`` verifier on each strong instance."""
    cls, n, parts, start, stop, want = args
    order, _, _, _, _ = _layout(cls, n, parts)
    fails = {t: 0 for t in want}
    certs: List[dict] = []
    scanned = strong_count = checked = 0
    for rows in _iter_rows(cls, n, parts, start, stop):
        scanned += 1
        if distance_sums(rows, order)[0] is None:
            continue
        strong_count += 1
        D = Digraph(order, tuple(rows))
        for t in want:
            if order < CLAIMS[t].min_n:
                continue
            checked += 1
            for rep in THEOREMS[t](D):
                if not rep.ok:
                    fails[t] += 1
                    if len(certs) < MAX_CERTIFICATES:
                        certs.append(_cert(order, rows, t, {"report": rep.as_json_dict()}))
    return {"scanned": scanned, "strong": strong_count, "checked": checked, "fails": fails, "certs": certs}


def exhaustive_verify(
    theorem_ids: Sequence[str] | str,
    cls: str,
    n: Optional[int] = None,
    parts: Optional[Tuple[int, int]] = None,
    shards: int = 1,
) -> ExhaustiveResult:
    """Run claim verifiers over every strong member of an enumeration class.

    When the class's scan serves every requested claim, the table-driven
    scan runs the claim checks on raw rows; otherwise each claim's reference
    verifier runs on a Digraph.  Both evaluate the same definitions in
    ``verifiers.CLAIMS``.  Certificates are the first ``MAX_CERTIFICATES``
    failures in enumeration order, sorted by (claim, digraph6), so they do
    not depend on the shard count.
    """
    if isinstance(theorem_ids, str):
        theorem_ids = [theorem_ids]
    ids = resolve_theorems(theorem_ids)
    _check_size(cls, n, parts)
    t0 = time.perf_counter()
    total = total_count(cls, n, parts)
    shards = max(1, shards)
    worker = _scan_worker if set(ids) <= _CLASSES[cls].scan_claims else _generic_scan_worker
    jobs = [(cls, n, parts, *shard_range(total, i, shards), ids) for i in range(shards)]
    outputs = _map_shards(worker, jobs)
    fails: Dict[str, int] = {t: 0 for t in ids}
    certs: List[dict] = []
    scanned = strong_count = checked = 0
    for o in outputs:
        scanned += o["scanned"]
        strong_count += o["strong"]
        checked += o["checked"]
        for t, c in o["fails"].items():
            fails[t] += c
        certs.extend(o["certs"])
    return ExhaustiveResult(
        theorems=ids,
        cls=cls,
        scanned=scanned,
        strong_count=strong_count,
        checked=checked,
        failure_counts=fails,
        certificates=sorted(certs[:MAX_CERTIFICATES], key=lambda c: (c["theorem"], c["digraph6"])),
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Randomized generation
# ---------------------------------------------------------------------------

def random_strong_digraph(n: int, rng: Random, arc_prob: float = 0.5, max_tries: int = 10000) -> Digraph:
    """Each arc present with probability ``arc_prob``, redrawn until strong."""
    for _ in range(max_tries):
        rows = [0] * n
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < arc_prob:
                    rows[u] |= 1 << v
        if distance_sums(rows, n)[0] is not None:
            return Digraph(n, rows)
    raise RuntimeError(f"no strong digraph found in {max_tries} tries")


def random_graph_with_degrees(degrees: Sequence[int], rng: Random, max_shuffles: int = 200):
    """Uniform-ish simple graph with the given degree sequence (stub pairing
    with whole-shuffle rejection), as adjacency rows; None when every
    shuffle produced a loop or repeated edge."""
    n = len(degrees)
    stubs: List[int] = []
    for v, d in enumerate(degrees):
        stubs.extend([v] * d)
    if len(stubs) % 2:
        raise ValueError("degree sum must be even")
    for _ in range(max_shuffles):
        rng.shuffle(stubs)
        rows = [0] * n
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (rows[u] >> v) & 1:
                ok = False
                break
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        if ok:
            return rows
    return None


@dataclass
class RediscoveryResult:
    success: bool
    iterations: int
    budget: int
    seed: int
    digraph6: Optional[str]
    sigma: Optional[int]
    sigma_equal_hits: int

    def as_json_dict(self) -> dict:
        return {
            "success": self.success,
            "iterations": self.iterations,
            "budget": self.budget,
            "seed": self.seed,
            "digraph6": self.digraph6,
            "sigma": self.sigma,
            "sigma_equal_hits": self.sigma_equal_hits,
        }


def rediscover_sigma_equal_graph(
    degrees: Sequence[int],
    seed: int,
    budget: int,
    target: Optional[Digraph] = None,
) -> RediscoveryResult:
    """Randomized restart search for a connected graph with the given degree
    sequence whose vertices all share one distance sum.

    Samples degree-constrained graphs until one matches (and, when a target
    is given, until the find is isomorphic to the target).  Deterministic
    for a fixed seed.
    """
    rng = Random(seed)
    n = len(degrees)
    target_form = None if target is None else canonical_form(target)
    hits = 0
    for it in range(1, budget + 1):
        rows = random_graph_with_degrees(degrees, rng)
        if rows is None:
            continue
        sigmas, _ = distance_sums(rows, n)
        if sigmas is None or min(sigmas) != max(sigmas):
            continue
        hits += 1
        D = Digraph(n, tuple(rows))
        if target_form is not None and canonical_form(D) != target_form:
            continue
        return RediscoveryResult(
            success=True,
            iterations=it,
            budget=budget,
            seed=seed,
            digraph6=write_digraph6(D),
            sigma=sigmas[0],
            sigma_equal_hits=hits,
        )
    return RediscoveryResult(
        success=False,
        iterations=budget,
        budget=budget,
        seed=seed,
        digraph6=None,
        sigma=None,
        sigma_equal_hits=hits,
    )
