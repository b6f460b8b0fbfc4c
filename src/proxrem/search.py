"""Exhaustive and randomized enumeration of small digraph classes.

Enumeration walks labeled arc-subset codes in Gray-code order, so advancing
from one instance to the next toggles a single arc (or reorients a single
pair); ``_blocks`` builds each aligned block of codes at once as lane ints,
one lane per instance.  Shards are contiguous code ranges; any worker
count produces the same normalized result set.  One per-instance loop,
``_scan``, serves search, the claim scan and the reference path on those
lane ints; each supplies a consumer of raw adjacency rows.  The loop takes
one set of lanes per block: a consumer that reads only strong instances
gets the lanes that pass the strongness screen, and one that sees every
instance gets every lane in the shard, whose strong lanes the lane
kernel's not-strong mask tells.  Search and the claim scan decide on
lanes: search's predicates are lane masks over ``verifiers.LaneFacts`` (a
gate before the kernel, the kernel predicates after it), and the claim
scan screens each block with the claims' lane verdicts.  Only the lanes
that match, or that the lane verdicts do not mark clean, are unpacked to
row tuples.  The claim scan serves claims stated on the scanned class, the
reference path the other ones.  Digraphs are built only where needed.

Feasibility ceilings (labeled instances):

    all_digraphs          n <= 5          2^(n(n-1))
    tournaments           n <= 8          2^(n(n-1)/2)
    bipartite_tournaments a*b <= 26       2^(a*b)
    symmetric_digraphs    n <= 8          2^(n(n-1)/2)

Beyond the ceilings use the randomized, degree-constrained sampler.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import reduce
from heapq import heappush, heapreplace
from itertools import chain, compress
from multiprocessing import get_context
from operator import or_
from random import Random
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .canonical import _leaf_key, canonical_form
from .digraph import Digraph, cached_distance_sums, distance_sums
from .formats import read_digraph6, write_digraph6
from .metrics import Lanes, MetricsReport, lane_bfs, metrics_report

# distance_layers is bound here for the benchmark's boundary tracer
# (perfbench/tracer.py), which patches it by name in this module.
from .metrics import distance_layers  # noqa: F401
from .verifiers import CLAIMS, THEOREMS, InstanceFacts, LaneFacts, agree, require_domain, resolve_theorems


class _Class(NamedTuple):
    """An enumeration class: its size ceiling and how a Gray-code bit
    changes the rows."""

    ceiling: int  # largest n, or largest a*b for a class sized by its parts
    sized_by_parts: bool
    flip: str  # "arc": toggle u->v; "edge": toggle both arcs; "orient": reverse u->v


_CLASSES: Dict[str, _Class] = {
    "all_digraphs": _Class(5, False, "arc"),
    "tournaments": _Class(8, False, "orient"),
    "bipartite_tournaments": _Class(26, True, "orient"),
    "symmetric_digraphs": _Class(8, False, "edge"),
}

CLASS_NAMES = tuple(_CLASSES)

_CEILING_MSG = "exceeds the exhaustive ceiling; use the randomized mode (--randomized)"


def _spec(cls: str) -> _Class:
    if cls not in _CLASSES:
        raise ValueError(f"unknown class {cls!r}; expected one of {CLASS_NAMES}")
    return _CLASSES[cls]


def _check_size(cls: str, n: Optional[int], parts: Optional[Tuple[int, int]], shards: int = 1) -> None:
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    spec = _spec(cls)
    if spec.sized_by_parts:
        if parts is None or len(parts) != 2:
            raise ValueError(f"{cls} needs parts=(a, b), two part sizes, got parts={parts}")
        if min(parts) < 1:
            raise ValueError(f"{cls} needs two nonempty parts, got parts={parts}")
        if parts[0] * parts[1] > spec.ceiling:
            raise ValueError(f"{cls} with parts={parts} {_CEILING_MSG}")
    elif n is None:
        raise ValueError(f"{cls} needs an order n, got n=None")
    elif n > spec.ceiling:
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
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (u < v or spec.flip == "arc")]
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


#: The scan loop's block size is the largest power of two at most this.
_LANES = 4096


def _blocks(cls: str, n: Optional[int], parts, start: int, stop: int):
    """The one Gray enumerator: per aligned block of 2**k codes c0 + j (2**k
    the largest power of two <= ``_LANES``, or the whole class if smaller),
    its ``Lanes``, its columns (column v holds row v of code c0 + j in lane
    j), the mask of the codes in start..stop-1 and the mask of those that
    pass the strongness screen (no empty row and no vertex without an
    in-arc; one vertex counts as strong).  Rows are linear over GF(2) in the
    Gray code, and Gray(c0 + j) = Gray(c0) ^ Gray(j) for j < 2**k.  So
    column v is row v at c0 in every lane XOR a pattern built once, by
    doubling from Gray(2**b + j) = Gray(2**b) ^ Gray(j).  The screen is a
    few ``Lanes.nonzero`` tests on the columns."""
    order, nbits, base, flips, _ = _layout(cls, n, parts)
    k = min(_LANES.bit_length() - 1, nbits)
    L = Lanes(order, 1 << k)
    w, E, FULL = L.w, L.E, L.FULL
    pattern, ones = [0] * order, 1  # the lanes of the first 2**b codes
    for b in range(k):
        toggle = [0] * order  # Gray(2**b) sets code bits b and b-1
        for v, mask in chain(flips[b], flips[b - 1] if b else ()):
            toggle[v] ^= mask
        pattern = [p | (p ^ t * ones) << (w << b) for p, t in zip(pattern, toggle)]
        ones |= ones << (w << b)
    head, gray = list(base), 0
    for c0 in range(start >> k << k, stop, 1 << k):
        toggled, gray = gray ^ c0 ^ (c0 >> 1), c0 ^ (c0 >> 1)
        for bit in range(nbits):
            for v, mask in flips[bit] if toggled >> bit & 1 else ():
                head[v] ^= mask
        col = [h * E ^ p for h, p in zip(head, pattern)]
        screen, covered = E, 0
        for c in col:
            screen &= L.nonzero(c)
            covered |= c
        screen = screen & (E ^ L.nonzero(covered ^ FULL)) if order > 1 else E
        inside = ((1 << w * min(stop - c0, 1 << k)) - (1 << w * max(start - c0, 0))) & E
        yield L, col, inside, screen & inside


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
    order, nbits, _, _, _ = _layout(cls, n, parts)
    start, stop = shard_range(1 << nbits, *shard) if shard else (0, 1 << nbits)
    for L, cols, inside, _ in _blocks(cls, n, parts, start, stop):
        yield from (Digraph(order, rows) for rows in compress(zip(*map(L.lanes, cols)), L.lanes(inside)))


#: Cap on stored counterexample certificates (counts stay exact).
MAX_CERTIFICATES = 200


class _Consumer(NamedTuple):
    """One path's part in the scan loop.  Without ``every`` the consumer
    reads only strong instances: the loop drops every lane that fails the
    strongness screen or the kernel's strong test.  With ``every`` it sees
    every instance.  The lane kernel runs once per block, on the instances
    the consumer sees, iff it has a ``screen`` or reads only strong
    instances; its not-strong mask says which of them are strong.
    ``gate(f)`` and ``screen(f)``, if set, each get a set of lanes as a
    ``LaneFacts`` record ``f`` that the loop builds, and each returns the
    mask of the lanes the consumer wants.  The gate gets the block before
    the kernel and rules the other lanes out of the kernel and the count.
    The screen gets the lanes the consumer sees, with the kernel's lane
    ints, after the count, and the lanes it leaves out are those on which
    ``consume`` would find nothing.  Each instance the consumer sees adds
    ``weight`` to ``checked``.
    ``consume(rows, sigmas, eccs)`` gets each instance left in enumeration
    order, its rows as a tuple (sigmas and eccs None if not strong or not
    computed), and returns the list of its (key, info) findings, possibly
    empty.  For each of the first ``cap`` findings the loop keeps
    ``(d6, key, info)``, ``d6`` the instance's digraph6 string.  With
    ``trim`` it keeps instead the ``trim`` findings of the smallest
    digraph6, one finding per instance: a heap on the row-major matrix int
    (``canonical._leaf_key`` under the identity labeling), whose order at
    one order n is digraph6 order, and it writes digraph6 only for the
    findings left at the end."""

    consume: Callable
    gate: Optional[Callable] = None
    every: bool = False
    weight: int = 1
    cap: float = MAX_CERTIFICATES
    trim: Optional[int] = None
    screen: Optional[Callable] = None


def _scan(job) -> Tuple[int, int, Counter, list]:
    """The one per-instance loop over codes start..stop-1, one ``_blocks``
    block at a time, on lane ints.  The gate's mask rules lanes out, then
    one ``Lanes.select`` cuts the columns to the lanes the consumer sees:
    the screened lanes, or with ``every`` all lanes in the shard.
    ``lane_bfs`` runs on them when the consumer has a screen or reads only
    strong lanes, and its not-strong mask says which are strong; without
    ``every`` only those stay.  ``checked`` counts them once per lane set,
    before the ``screen`` keeps the lanes it wants.  The gate and the
    screen each read one ``verifiers.LaneFacts`` record built here, over
    the block and over the selected lanes, with the class's part ranges.
    Only the lanes left are picked out by index and unpacked to a row
    tuple, sigma and ecc lists and a ``consume`` call, in enumeration order,
    so findings and kept certificates are those of every lane; each kept
    finding's digraph6 is written here.  Returns (strong, checked, findings
    per key, kept (digraph6, key, info) findings)."""
    cls, n, parts, start, stop, make, arg = job
    order, _, _, _, part_ranges = _layout(cls, n, parts)
    consume, gate, every, weight, cap, trim, screen = make(order, part_ranges, arg)
    identity = list(range(order))
    counts: Counter = Counter()
    kept = []
    strong = checked = 0
    for block, cols, inside, screened in _blocks(cls, n, parts, start, stop):
        chosen = inside if every else screened
        if gate is not None:
            chosen &= gate(LaneFacts(block, cols, 0, (), (), part_ranges))
        if not chosen:
            continue
        L, sub = Lanes(order, chosen.bit_count()), block.select(cols, chosen)
        sigmas, eccs, bad = lane_bfs(L, sub) if screen is not None or not every else ((), (), L.E)
        strong += (L.E ^ bad).bit_count()
        seen = L.E if every else L.E ^ bad  # a strong-only consumer sees the strong lanes
        checked += weight * seen.bit_count()
        if screen is not None and seen:
            seen &= screen(LaneFacts(L, sub, L.E ^ bad, sigmas, eccs, part_ranges))
        if not seen:
            continue
        # a lane: its rows, then sigma(u) and ecc(u) per source, then 1 if not strong
        arrays = [*map(L.lanes, sub), *map(L.lanes, sigmas), *map(L.lanes, eccs), L.lanes(bad)]
        picks = list(compress(range(L.count), L.lanes(seen)))
        for lane in zip(*[[a[i] for i in picks] for a in arrays]):
            rows = lane[:order]
            if lane[-1]:
                found = consume(rows, None, None)
            else:
                found = consume(rows, list(lane[order : 2 * order]), list(lane[2 * order : 3 * order]))
            for key, info in found:
                counts[key] += 1
                if trim is not None:  # a heap of the trim smallest, largest on top
                    item = (-_leaf_key(rows, identity), rows, key, info)
                    if len(kept) < trim:
                        heappush(kept, item)
                    elif kept and item > kept[0]:
                        heapreplace(kept, item)
                elif len(kept) < cap:
                    kept.append((write_digraph6(Digraph(order, rows)), key, info))
    if trim is not None:
        kept = [(write_digraph6(Digraph(order, rows)), key, info) for _, rows, key, info in sorted(kept)[::-1]]
    return strong, checked, counts, kept


def _run_shards(cls: str, n: Optional[int], parts, shards: int, make, arg):
    """The one shard driver: ``_scan`` on contiguous code ranges, in a pool
    when there are several; kept findings stay in enumeration order."""
    total = total_count(cls, n, parts)
    jobs = [(cls, n, parts, *shard_range(total, i, shards), make, arg) for i in range(shards)]
    if shards == 1:
        outputs = [_scan(jobs[0])]
    else:
        with get_context("fork").Pool(processes=min(shards, os.cpu_count() or 1)) as pool:
            outputs = pool.map(_scan, jobs)
    strong, checked, counts, kept = zip(*outputs)
    return total, sum(strong), sum(checked), sum(counts, Counter()), [f for k in kept for f in k]


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

    def check(self) -> None:
        """Raise ValueError on any query error.  ``search`` and the CLI call
        this before a scan starts or an output file opens."""
        for p in self.predicates:
            if p not in PREDICATES:
                raise ValueError(f"unknown predicate {p!r}; known: {sorted(PREDICATES)}")
        if self.dedup not in ("none", "canonical"):
            raise ValueError(f"unknown dedup {self.dedup!r}; expected 'none' or 'canonical'")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"limit must be nonnegative, got {self.limit}")
        if self.cls != "bipartite_tournaments" and {"good", "bad"} & set(self.predicates):
            raise ValueError("good/bad predicates need the bipartite_tournaments class")
        _check_size(self.cls, self.n, self.parts, self.shards)


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


def _tournament_lanes(f: LaneFacts) -> int:
    """``digraph.is_tournament`` on lanes: n(n-1)/2 arcs and no 2-cycle."""
    L, cols, n = f.lanes, f.cols, f.n
    two_cycles = 0
    for u, c in enumerate(cols):
        for v in range(u + 1, n):
            two_cycles |= (c >> v) & (cols[v] >> u)
    return L.equal(sum(f.degrees), n * (n - 1) // 2) & (L.E ^ (two_cycles & L.E))


def _regular_lanes(f: LaneFacts) -> int:
    """``digraph.is_regular`` on lanes: every out-degree and every in-degree
    equals vertex 0's out-degree."""
    return f.lanes.same([*f.degrees, *f.in_degrees])


#: name -> (needs the distance kernel, lane test over a LaneFacts record):
#: the mask of the lanes on which the predicate holds.  The kernel
#: predicates are read only on strong lanes, where sigma and ecc are
#: meaningful; the others run first, on the whole block.
#: ``equality_<claim>`` holds when some equality case of the claim is
#: observed: the OR of the observed masks of its lane verdict.
PREDICATES: Dict[str, Tuple[bool, Callable[[LaneFacts], int]]] = {
    "tournament": (False, _tournament_lanes),
    "regular": (False, _regular_lanes),
    "non_regular": (False, lambda f: f.lanes.E ^ _regular_lanes(f)),
    "good": (False, lambda f: f.lanes.E ^ f.bad),
    "bad": (False, lambda f: f.bad),
    "strong": (True, lambda f: f.strong),
    "connected": (True, lambda f: f.strong),
    "pi_eq_rho": (True, lambda f: f.equal),
    "pi_ne_rho": (True, lambda f: f.lanes.E ^ f.equal),
    "rho_eq_half_n": (True, lambda f: f.lanes.equal(f.smax, f.n * (f.n - 1) // 2)),
    **{
        "equality_" + c.replace("-", "_").replace(".", "_"): (
            True, lambda f, c=c: reduce(or_, CLAIMS[c].lanes(f)[1])
        )
        for c in ("thm-2.1-pi", "thm-2.1-rho", "thm-2.2", "thm-3.2-pi", "thm-3.2-rho", "thm-3.3")
    },
}


_MATCH = [("matches", None)]  # the one finding of a matching instance


def _predicate_matches(order: int, part_ranges, arg) -> _Consumer:
    """Search: a lane matches when every predicate's mask holds on it.  The
    predicates that need no kernel are the gate, so a lane they rule out
    never reaches the kernel; the others are the screen, on the strong
    lanes, and wants the lanes that match.  Only matching lanes reach
    ``consume``."""
    predicates, trim = arg
    cheap = [PREDICATES[p][1] for p in predicates if not PREDICATES[p][0]]
    costly = [PREDICATES[p][1] for p in predicates if PREDICATES[p][0]]

    def holds(tests, f: LaneFacts) -> int:
        mask = f.lanes.E
        for test in tests:
            mask &= test(f)
            if not mask:
                break
        return mask

    return _Consumer(
        lambda rows, sigmas, eccs: _MATCH,
        gate=(lambda f: holds(cheap, f)) if cheap else None,
        every=not costly,  # with a kernel predicate every match is strong
        cap=math.inf,
        trim=trim,
        screen=(lambda f: holds(costly, f)) if costly else None,
    )


def search(query: SearchQuery) -> SearchResult:
    """Run a predicate-filtered exhaustive scan.

    The match set is normalized (sorted by digraph6 string) before dedup
    and limit are applied, so it does not depend on the shard count, and
    ``dedup_stats`` counts every match and class before the limit.
    """
    query.check()
    t0 = time.perf_counter()
    # Without dedup each shard may keep just its smallest `limit` matches.
    trim = query.limit if query.dedup == "none" else None
    scanned, _, _, counts, kept = _run_shards(
        query.cls, query.n, query.parts, query.shards, _predicate_matches, (query.predicates, trim)
    )
    all_matches = sorted(d6 for d6, _, _ in kept)
    dedup_stats = {"labeled_matches": counts["matches"]}
    if query.dedup == "canonical":
        groups: Dict[bytes, str] = {}
        for d6 in all_matches:
            key = canonical_form(read_digraph6(d6)).bytes
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
        shards=query.shards,
    )


# ---------------------------------------------------------------------------
# Exhaustive claim verification
# ---------------------------------------------------------------------------

@dataclass
class ExhaustiveResult:
    """Counts of one exhaustive run of the scan loop.

    ``checked`` depends on the path: the table-driven scan (each requested
    claim stated on the class) counts instances on which at least one
    requested claim ran; the reference path counts (claim, strong instance)
    pairs, one per ``THEOREMS`` call.
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


def _claim_checks(order: int, part_ranges, want) -> _Consumer:
    """The claim scan: the requested ``CLAIMS`` checks on an
    ``InstanceFacts`` record built for each lane their lane tests leave:
    the screen wants the lanes that some claim's lane verdict does not
    mark clean.  When no check runs at this order the screen wants no lane
    and ``weight`` 0 counts none."""
    claims = {t: CLAIMS[t] for t in want if order >= CLAIMS[t].min_n}
    checks = [(t, claim.check, claim.evidence) for t, claim in claims.items()]
    loose = [check for check in checks if not claims[check[0]].strong]

    def consume(rows, sigmas, eccs):
        facts = InstanceFacts(rows, sigmas, eccs, part_ranges)
        failed = []
        for t, check, evidence in checks if sigmas is not None else loose:
            bound, observed, predicted = check(facts)
            if not bound or observed != predicted:
                failed.append((t, evidence(facts)))
        return failed

    def screen(f: LaneFacts):
        clean, others = f.lanes.E, f.lanes.E ^ f.strong
        for claim in claims.values():
            if claim.strong and not f.strong:
                continue
            sure, observed, predicted = claim.lanes(f)
            passes = sure & agree(f.lanes, observed, predicted)
            # a strong-only claim passes where it does not run
            clean &= (passes | others) if claim.strong else passes
        return f.lanes.E ^ clean

    return _Consumer(consume, every=bool(loose), weight=1 if checks else 0, screen=screen)


def _reference_reports(order: int, part_ranges, want) -> _Consumer:
    """The reference path: every requested claim's ``THEOREMS`` verifier on
    a strong ``Digraph`` whose kernel memo holds the loop's run."""
    verifiers = [(t, THEOREMS[t]) for t in want if order >= CLAIMS[t].min_n]

    def consume(rows, sigmas, eccs):
        D = Digraph(order, rows)
        cached_distance_sums(D, (sigmas, eccs))
        return [(t, {"report": r.as_json_dict()}) for t, verifier in verifiers for r in verifier(D) if not r.ok]

    return _Consumer(consume, weight=len(verifiers))


def exhaustive_verify(
    theorem_ids: Sequence[str] | str,
    cls: str,
    n: Optional[int] = None,
    parts: Optional[Tuple[int, int]] = None,
    shards: int = 1,
) -> ExhaustiveResult:
    """Run claim verifiers over every strong member of an enumeration class.

    A claim outside its domain raises ValueError before the scan, at every
    order (``verifiers.require_domain``).  When every requested claim's
    domain is the class, the table-driven scan runs the claim checks on raw
    rows; otherwise each claim's reference verifier runs on a Digraph.  Both
    evaluate the same definitions in ``verifiers.CLAIMS``.  Certificates are
    the first ``MAX_CERTIFICATES`` failures in enumeration order, sorted by
    (claim, digraph6), so they do not depend on the shard count.
    """
    if isinstance(theorem_ids, str):
        theorem_ids = [theorem_ids]
    ids = resolve_theorems(theorem_ids)
    _check_size(cls, n, parts, shards)
    require_domain(ids, cls)
    t0 = time.perf_counter()
    make = _claim_checks if all(CLAIMS[t].domain == cls for t in ids) else _reference_reports
    scanned, strong_count, checked, fails, kept = _run_shards(cls, n, parts, shards, make, ids)
    kept = sorted(kept[:MAX_CERTIFICATES], key=lambda k: (k[1], k[0]))
    return ExhaustiveResult(
        theorems=ids,
        cls=cls,
        scanned=scanned,
        strong_count=strong_count,
        checked=checked,
        failure_counts={t: fails[t] for t in ids},
        certificates=[{"digraph6": d6, "theorem": t, **info} for d6, t, info in kept],
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Randomized generation
# ---------------------------------------------------------------------------

MAX_SHUFFLES = 200


def random_graph_with_degrees(degrees: Sequence[int], rng: Random):
    """Uniform-ish simple graph with the given degree sequence (stub pairing
    with whole-shuffle rejection), as adjacency rows; None when each of
    ``MAX_SHUFFLES`` shuffles produced a loop or repeated edge."""
    n = len(degrees)
    stubs: List[int] = []
    for v, d in enumerate(degrees):
        if d < 0:
            raise ValueError(f"degree sequence has a negative entry: {d} at vertex {v}")
        stubs.extend([v] * d)
    if len(stubs) % 2:
        raise ValueError("degree sum must be even")
    for _ in range(MAX_SHUFFLES):
        rng.shuffle(stubs)
        rows = [0] * n
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (rows[u] >> v) & 1:
                break
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            return rows
    return None


def _require_graphical(degrees: Sequence[int]) -> None:
    """Raise ValueError unless some simple graph has this degree sequence:
    nonempty, nonnegative, an even sum and the Erdos-Gallai inequalities,
    sum of the k largest <= k(k-1) + sum of min(d, k) over the rest."""
    if not degrees:
        raise ValueError("degree sequence is empty")
    if min(degrees) < 0:
        raise ValueError(f"degree sequence has a negative entry: {list(degrees)}")
    if sum(degrees) % 2:
        raise ValueError("degree sum must be even")
    ordered = sorted(degrees, reverse=True)
    for k in range(1, len(ordered) + 1):
        if sum(ordered[:k]) > k * (k - 1) + sum(min(d, k) for d in ordered[k:]):
            raise ValueError(f"degree sequence {list(degrees)} is not graphical (Erdos-Gallai fails at k={k})")


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
        return asdict(self)


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
    for a fixed seed.  A degree sequence no simple graph has, or a negative
    budget, raises ValueError before the first draw.
    """
    _require_graphical(degrees)
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
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
