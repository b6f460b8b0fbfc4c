"""The lane-wise claim screen against the scalar claim checks.

``metrics.Lanes`` holds the lane primitives (compare with a constant,
compare two lanes, lane min/max, set sizes, select), checked here against
plain integers and lists at both lane widths and on one to four byte
planes.  ``verifiers.LaneFacts``
derives the facts the lane tests read, checked lane for lane against
``InstanceFacts``.  Each ``CLAIMS`` row's lane test returns a lane verdict
(sure, observed, predicted), and the lanes it marks clean, ``sure &
agree(observed, predicted)``, must be *sound*: a clean lane passes the
scalar check.  They must also be *exactly* the test it states, so a scalar
restatement below, on plain Python values, must give the same mask on
every instance: a screen that marks too few lanes clean costs time and one
that marks too many hides a failure.  The observed masks are the scalar
check's observed cases, and each of search's ``PREDICATES`` masks holds on
exactly the instances the oracles in ``tests/oracles.py`` say it should.
"""

from functools import lru_cache, reduce
from itertools import compress
from operator import or_
from random import Random

import pytest

from proxrem.constructions import bipartite_T1
from proxrem.digraph import Digraph, bipartite_tournament_structure, distance_sums
from proxrem.metrics import Lanes, _lane_width, lane_bfs
from proxrem.search import PREDICATES, enumerate_class
from proxrem.verifiers import CLAIMS, InstanceFacts, LaneFacts, agree

from oracles import (
    bipartite_facts_oracle,
    fw_distance_sums,
    is_regular_oracle,
    is_tournament_oracle,
    max_out_two_step_oracle,
)

GENERAL = ("thm-2.1-pi", "thm-2.1-rho", "thm-2.2")
TOURNAMENT = ("thm-3.2-pi", "thm-3.2-rho", "thm-3.3", "prop-3.1")
BIPARTITE = ("lem-3.4", "lem-3.5", "lem-3.6", "cor-3.7", "cor-3.8")

#: (class, n, parts, claims): all digraphs n <= 4, tournaments n <= 6 and
#: bipartite tournaments with a*b <= 12.
CASES = (
    [("all_digraphs", n, None, GENERAL) for n in (2, 3, 4)]
    + [("tournaments", n, None, TOURNAMENT) for n in (3, 4, 5, 6)]
    + [
        ("bipartite_tournaments", None, (a, b), BIPARTITE)
        for a in range(1, 13)
        for b in range(a, 13)
        if a * b <= 12
    ]
)


def _parts(n, parts):
    return None if parts is None else (range(parts[0]), range(parts[0], n))


def _lane_sets(cls, n, parts, size=1000, kernel=True):
    """(order, rows of each lane, LaneFacts) per set of ``size`` instances;
    the columns are packed here into planes by ``_planes``.  Without ``kernel`` the
    facts hold no kernel run and no strong lane, as for a search gate."""
    everything = [D.rows for D in enumerate_class(cls, n, parts)]
    order = len(everything[0])
    for at in range(0, len(everything), size):
        batch = everything[at : at + size]
        yield order, batch, _lane_facts(batch, order, _parts(order, parts), kernel)


def _lane_facts(batch, order, ranges, kernel=True):
    """The LaneFacts of the row tuples of ``batch``, one per lane."""
    L = Lanes(order, len(batch))
    cols = [_planes([rows[v] for rows in batch], L.P) for v in range(order)]
    sigmas, eccs, bad = lane_bfs(L, cols) if kernel else ((), (), L.E)
    return LaneFacts(L, cols, L.E ^ bad, sigmas, eccs, ranges)


def _clean(t, f):
    """The lanes claim t's lane verdict marks clean: sure, and every case agrees."""
    sure, observed, predicted = CLAIMS[t].lanes(f)
    return sure & agree(f.lanes, observed, predicted)


def _bits(L, mask):
    return [mask >> (L.w * i) & 1 for i in range(L.count)]


def _lane_values(L, x):
    return [x >> (L.w * i) & ((1 << L.w) - 1) for i in range(L.count)]


def _pack(w, values):
    return sum(v << (w * i) for i, v in enumerate(values))


def _planes(sets, P):
    """The vertex sets ``sets``, one per lane, as P byte planes of
    ``len(sets)`` lanes: byte i of plane p holds bits 8p..8p+7 of set i."""
    return sum((s >> 8 * p & 0xFF) << 8 * (len(sets) * p + i) for i, s in enumerate(sets) for p in range(P))


def _plane_sets(L, x):
    """Per lane, the vertex set that the planes int x holds."""
    raw = x.to_bytes(L.P * L.count, "little")
    return [sum(raw[p * L.count + i] << 8 * p for p in range(L.P)) for i in range(L.count)]


# ---------------------------------------------------------------------------
# The primitives
# ---------------------------------------------------------------------------

#: For each lane width, the order on its side of the boundary 11 | 12.
WIDTH_ORDERS = {8: 11, 16: 12}


@pytest.mark.parametrize("w", sorted(WIDTH_ORDERS))
def test_lane_primitives_against_plain_integers(w):
    n = WIDTH_ORDERS[w]
    assert _lane_width(n) == w
    top = (1 << (w - 1)) - 1
    values = sorted({0, 1, 2, n - 2, n - 1, n, n * n - 1, top - 1, top})
    L = Lanes(n, len(values))
    xs = [values, values[::-1], values[1:] + values[:1]]
    ints = [sum(v << (w * i) for i, v in enumerate(lane)) for lane in xs]
    x, y = ints[0], ints[1]
    assert list(L.lanes(x)) == values
    assert _bits(L, L.nonzero(x)) == [int(v != 0) for v in values]
    for k in sorted({0, 1, n - 1, n, n * n - 1, top, top + 1, 1 << (w - 1), (1 << (w - 1)) + 1}):
        assert _bits(L, L.at_least(x, k)) == [int(v >= k) for v in values], k
        assert _bits(L, L.at_most(x, k)) == [int(v <= k) for v in values], k
        assert _bits(L, L.equal(x, k)) == [int(v == k) for v in values], k
    assert _bits(L, L.ge(x, y)) == [int(a >= b) for a, b in zip(values, values[::-1])]
    assert _lane_values(L, L.minimum(ints)) == [min(t) for t in zip(*xs)]
    assert _lane_values(L, L.maximum(ints)) == [max(t) for t in zip(*xs)]
    assert L.every(top) == sum(top << (w * i) for i in range(len(values)))


@pytest.mark.parametrize("n", [7, 8, 11, 12, 17, 27])
def test_vertex_set_primitives_against_plain_integers(n):
    """On byte planes: ``sets`` reads back each lane's vertex set,
    ``byte_counts`` and ``planes_add`` count it across every plane,
    ``spread`` puts one set in every lane and ``shift`` finds each vertex's
    bit."""
    rnd = Random(n)
    sets = [0, (1 << n) - 1, 1, 1 << (n - 1)] + [rnd.getrandbits(n) for _ in range(60)]
    L = Lanes(n, len(sets))
    x = _planes(sets, L.P)
    assert list(L.sets(x)) == sets
    assert _lane_values(L, L.widen(L.planes_add(L.byte_counts(x)))) == [s.bit_count() for s in sets]
    assert L.spread(sets[-1]) == _planes([sets[-1]] * len(sets), L.P)
    assert L.FULLP == L.spread((1 << n) - 1)
    for v in range(n):
        assert _plane_sets(L, x >> L.shift[v] & L.B) == [s >> v & 1 for s in sets], v


def _select_keeps(count, rnd):
    """0/1 per lane: none, every, each single lane of a few, the two
    alternations and random ones, dense and sparse."""
    yield [0] * count
    yield [1] * count
    for i in range(count if count <= 33 else 0):
        yield [int(j == i) for j in range(count)]
    yield [j % 2 for j in range(count)]
    yield [1 - j % 2 for j in range(count)]
    for p in (0.1, 0.5, 0.9):
        for _ in range(5 if count <= 33 else 1):
            yield [int(rnd.random() < p) for _ in range(count)]


@pytest.mark.parametrize("P", [1, 2, 3, 4])
def test_select_against_a_list_oracle(P):
    """``Lanes.select`` keeps the lanes a mask selects, in order, in each
    planes int, on P = 1..4 planes: 3 ints (one group of up to 8 planes)
    and 9 (several groups), with random bytes in every plane, ints with
    all-zero planes and an int that is 0.  Select moves bytes and never
    reads them."""
    n = 8 * P
    rnd = Random(P)
    for count in (1, 2, 7, 33, 4096):
        L = Lanes(n, count)
        for columns in (3, 9):
            sets = [[rnd.getrandbits(n) for _ in range(count)] for _ in range(columns)]
            sets[0] = [0] * count
            sets[1] = [s & 0xFF for s in sets[1]]  # only plane 0
            sets[-1] = [s & ~0xFF for s in sets[-1]]  # plane 0 is 0
            xs = [_planes(lane, P) for lane in sets]
            for keep in _select_keeps(count, rnd):
                want = [_planes(list(compress(lane, keep)), P) for lane in sets]
                assert L.select(xs, _pack(L.w, keep)) == want, (count, keep)


def test_lane_width_leaves_the_guard_bit_free():
    """The largest value of every lane expression of order n stays below
    2**(w-1) for every n < 64: a distance sum (below n*n, on a lane that is
    not strong too) plus lem-3.6's 4, the sum of the degrees (below n*n),
    cor-3.8's twice a degree and the offset c (at most 5n).  Byte lanes end
    at n = 11: at n = 12 a distance sum plus 4 passes 2**7."""
    for n in range(1, 64):
        w = _lane_width(n)
        assert max(n * n - 1 + 4, n * (n - 1), 2 * n, 5 * n) < 1 << (w - 1), n
    assert (_lane_width(11), _lane_width(12)) == (8, 16)
    assert 12 * 11 + 4 >= 1 << 7  # a strong n = 12 lane's largest sigma + 4


@pytest.mark.parametrize("n", [4, 8, 9, 17])
def test_successors_is_one_bfs_step(n):
    """``successors`` is one BFS step on columns of byte planes, across
    plane boundaries, with sparse rows whose vertices and row planes the
    step skips."""
    rng = Random(n)
    batch = [
        [rng.getrandbits(n) & rng.getrandbits(n) * rng.randrange(2) & ~(1 << v) for v in range(n)]
        for _ in range(300)
    ]
    L = Lanes(n, len(batch))
    table = L.successor_table([_planes([rows[v] for rows in batch], L.P) for v in range(n)])
    for v, (_, _, row, _) in enumerate(table):
        assert _plane_sets(L, row) == [rows[v] for rows in batch]
        want = [reduce(or_, [rows[u] for u in range(n) if rows[v] >> u & 1], 0) for rows in batch]
        assert _plane_sets(L, L.successors(row, table)) == want


# ---------------------------------------------------------------------------
# The lane facts against InstanceFacts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "cls, n, parts",
    [("all_digraphs", 4, None), ("tournaments", 6, None), ("bipartite_tournaments", None, (3, 4))],
)
def test_lane_facts_match_instance_facts(cls, n, parts):
    for order, batch, f in _lane_sets(cls, n, parts):
        L = f.lanes
        ranges = _parts(order, parts)
        strong = _bits(L, f.strong)
        degrees = [_lane_values(L, d) for d in f.degrees]
        lanes = zip(_lane_values(L, f.smin), _lane_values(L, f.smax), _lane_values(L, f.max_ecc))
        bad, equal = _bits(L, f.bad), _bits(L, f.equal)
        max_out, min_out = _lane_values(L, f.max_out), _lane_values(L, f.min_out)
        if parts is not None:
            mu, c = [_lane_values(L, x) for x in f.mu], [_lane_values(L, x) for x in f.c]
        for i, (rows, (smin, smax, max_ecc)) in enumerate(zip(batch, lanes)):
            sigmas, eccs = distance_sums(rows, order)
            assert strong[i] == (sigmas is not None)
            facts = InstanceFacts(rows, sigmas, eccs if sigmas is not None else None, ranges)
            assert [d[i] for d in degrees] == facts.degrees
            assert (max_out[i], min_out[i]) == (facts.max_out, facts.min_out)
            if parts is not None:
                assert bad[i] == (facts.witness is not None)
                if facts.witness is None:  # c is offset by 2n
                    assert [m[i] for m in mu] == facts.mu
                    assert [x[i] - 2 * order for x in c] == facts.c
            if sigmas is not None:
                assert (smin, smax, max_ecc) == (facts.smin, facts.smax, max(eccs))
                assert equal[i] == (smin == smax)


# ---------------------------------------------------------------------------
# Soundness and exactness of each claim's lane test
# ---------------------------------------------------------------------------

def _scalar_restatement(t, n, rows, sigmas, eccs, bad, ranges):
    """What the lane test of claim t states, on plain values: the lanes it
    marks clean.  ``sigmas`` is None on an instance that is not strong.
    prop-3.1's lanes are clean iff every maximum-out-degree vertex has
    two-step reach n, strong or not.  The bipartite lane tests are exact on
    good lanes: lem-3.6 compares sigma with the closed form c + 2n - 4,
    cor-3.7 needs c constant where sigma is, and cor-3.8 compares equality
    with every 2 d+(v) = |other part| on a good lane of constant mu."""
    degrees = [r.bit_count() for r in rows]
    top, low = max(degrees), min(degrees)
    if t == "prop-3.1":
        full = (1 << n) - 1
        for v in range(n):
            reach = 1 << v | rows[v]
            for u in range(n):
                if rows[v] >> u & 1:
                    reach |= rows[u]
            if degrees[v] == top and reach != full:
                return False
        return True
    smin, smax, max_ecc = min(sigmas), max(sigmas), max(eccs)
    den = n - 1
    near_regular = (n - 1) // 2 <= low and top <= n // 2
    if t == "thm-2.1-pi":
        return (
            den <= smin and 2 * smin <= n * den
            and (smin == den) == (top == den) and (2 * smin == n * den) == (top == 1)
        )
    if t == "thm-2.1-rho":
        return (
            den <= smax and 2 * smax <= n * den
            and (smax == den) == (low == den) and (2 * smax == n * den) == (max_ecc == den)
        )
    if t == "thm-2.2":
        cap = (n - 1) * (n - 2)
        return 2 * (smax - smin) <= cap and (2 * (smax - smin) == cap) == (max_ecc == den and top == den)
    if t == "thm-3.2-pi":
        cap = 3 * (n - 1) if n % 2 else 3 * n - 4
        return n <= smin and 2 * smin <= cap and (smin == n) == (top == n - 2) and (2 * smin == cap) == near_regular
    if t == "thm-3.2-rho":
        cap = 3 * (n - 1) if n % 2 else 3 * n - 2
        return (
            cap <= 2 * smax <= n * (n - 1)
            and (2 * smax == cap) == near_regular and (2 * smax == n * (n - 1)) == (max_ecc == den)
        )
    if t == "thm-3.3":
        return (smin == smax) == (top == low)
    equal = smin == smax
    if t == "lem-3.4":
        return not (bad and equal)
    if t == "lem-3.5":
        return bad or max_ecc <= 4
    part = {v: p for p in ranges for v in p}
    mu = [sum(rows[u] == rows[v] for u in part[v]) for v in range(n)]
    other = [n - len(part[v]) for v in range(n)]
    c = [2 * (mu[v] - degrees[v]) + other[v] for v in range(n)]
    constant = len(set(c)) == 1
    if t == "lem-3.6":
        return bad or all(sigmas[v] == c[v] + 2 * n - 4 for v in range(n))
    if t == "cor-3.7":
        return (bad or not equal or constant) and equal == (constant and not bad)
    if not bad and len(set(mu)) == 1:  # cor-3.8
        return equal == all(2 * degrees[v] == other[v] for v in range(n))
    return True


def _is_bad(rows, parts):
    return any(rows[u] != rows[v] and rows[u] & rows[v] == rows[u] for part in parts for u in part for v in part)


@pytest.mark.parametrize("cls, n, parts, claims", CASES, ids=lambda v: str(v).replace(" ", ""))
def test_clean_lanes_pass_the_scalar_check(cls, n, parts, claims):
    """A lane a claim's lane test marks clean passes that claim's scalar
    check, non-strong lanes included for prop-3.1, and the mask is exactly
    the scalar restatement of the lane test."""
    _assert_clean_lanes(cls, n, parts, claims, kernel=True)


@pytest.mark.parametrize("parts", [c[2] for c in CASES if c[2] is not None], ids=str)
def test_bipartite_clean_lanes_are_the_scalar_verdicts(parts):
    """On every strong instance of bipartite a*b <= 12, each bipartite
    claim's lane test marks the lane clean iff its scalar ``CLAIMS`` check
    passes: the lane tests are exact on good lanes too, so the claim scan
    loads only failing instances."""
    good = 0
    for order, batch, f in _lane_sets("bipartite_tournaments", None, parts):
        ranges = _parts(order, parts)
        if not f.strong:
            continue
        clean = {t: _bits(f.lanes, _clean(t, f)) for t in BIPARTITE}
        for i, (rows, strong) in enumerate(zip(batch, _bits(f.lanes, f.strong))):
            if not strong:
                continue
            sigmas, eccs = distance_sums(rows, order)
            facts = InstanceFacts(rows, sigmas, eccs, ranges)
            good += facts.witness is None
            for t in BIPARTITE:
                bound, observed, predicted = CLAIMS[t].check(facts)
                assert clean[t][i] == (bound and observed == predicted), (t, rows)
    assert good or min(parts) == 1  # one vertex in a part: no strong instance


def test_bipartite_clean_lanes_on_bipartite_T1():
    """bipartite_T1 (parts of 4 and 6, every class size 1, every vertex
    beating half of the other part) is good and strong with a constant mu
    and unequal part sizes, where cor-3.8's half test tells the other part
    from the vertex's own; no class with a*b <= 12 has such an instance.  On
    it, its relabelings within the parts and random (4, 6) instances, each
    bipartite claim's lane test marks the lane clean iff the scalar check
    passes."""
    rng = Random(46)
    ranges = (range(4), range(4, 10))
    batch = [bipartite_T1().rows]
    for _ in range(40):
        perm = rng.sample(ranges[0], 4) + rng.sample(ranges[1], 6)
        rows = [0] * 10
        for u, row in enumerate(batch[0]):
            rows[perm[u]] = sum(1 << perm[v] for v in range(10) if row >> v & 1)
        batch.append(tuple(rows))
    for _ in range(300):
        rows = [0] * 10
        for u in ranges[0]:
            for v in ranges[1]:
                if rng.random() < 0.5:
                    rows[u] |= 1 << v
                else:
                    rows[v] |= 1 << u
        batch.append(tuple(rows))
    f = _lane_facts(batch, 10, ranges)
    L = f.lanes
    clean = {t: _bits(L, _clean(t, f)) for t in BIPARTITE}
    applies = _bits(L, L.same(f.mu) & (L.E ^ f.bad) & f.strong)
    assert applies[:41] == [1] * 41
    for i, rows in enumerate(batch):
        sigmas, eccs = distance_sums(rows, 10)
        if sigmas is not None:
            facts = InstanceFacts(rows, sigmas, eccs, ranges)
            for t in BIPARTITE:
                bound, observed, predicted = CLAIMS[t].check(facts)
                assert clean[t][i] == (bound and observed == predicted), (t, rows)


@pytest.mark.parametrize("parts", [(4, 2), (3, 1), (4, 3)], ids=str)
def test_lane_facts_take_the_parts_in_any_order(parts):
    """On a class whose larger part is labelled first,
    ``bipartite_tournament_structure`` lists the smaller part first, so its
    parts do not arrive in vertex order.  The record built from them equals
    the one built from the scan's ranges in ``other``, ``bad``, ``mu``,
    ``c`` and each bipartite claim's lane verdict, and ``other`` is the size
    of the part a vertex is not in."""
    a, b = parts
    ranges = _parts(a + b, parts)
    batch = [D.rows for D in enumerate_class("bipartite_tournaments", None, parts)]
    structure = bipartite_tournament_structure(Digraph(a + b, batch[0]))
    assert structure.parts == (tuple(ranges[1]), tuple(ranges[0]))
    by_ranges, by_structure = (_lane_facts(batch, a + b, p) for p in (ranges, structure.parts))
    assert by_ranges.other == by_structure.other == [b] * a + [a] * b
    for name in ("bad", "mu", "c"):
        assert getattr(by_structure, name) == getattr(by_ranges, name), name
    for t in BIPARTITE:
        assert CLAIMS[t].lanes(by_structure) == CLAIMS[t].lanes(by_ranges), t


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_clean_lanes_without_a_kernel_run(n):
    """On a set of lanes the kernel did not run on, prop-3.1's lane test
    gives the same mask: it reads two-step reach, never the kernel."""
    _assert_clean_lanes("tournaments", n, None, ("prop-3.1",), kernel=False)


def _assert_clean_lanes(cls, n, parts, claims, kernel):
    for order, batch, f in _lane_sets(cls, n, parts, kernel=kernel):
        ranges = _parts(order, parts)
        run = [t for t in claims if order >= CLAIMS[t].min_n]
        # a claim on strong instances only reads the kernel's lanes where one is strong
        clean = {t: _bits(f.lanes, _clean(t, f)) for t in run if f.strong or not CLAIMS[t].strong}
        for i, rows in enumerate(batch):
            sigmas, eccs = distance_sums(rows, order)
            if sigmas is None:
                eccs = None
            facts = InstanceFacts(rows, sigmas, eccs, ranges)
            bad = ranges is not None and _is_bad(rows, ranges)
            for t in run:
                if t not in clean or sigmas is None and CLAIMS[t].strong:
                    continue
                restated = _scalar_restatement(t, order, rows, sigmas, eccs, bad, ranges)
                assert clean[t][i] == restated, (t, rows)
                if clean[t][i]:
                    bound, observed, predicted = CLAIMS[t].check(facts)
                    assert bound and observed == predicted, (t, rows)


@pytest.mark.parametrize(
    "cls, n, parts, claims",
    [
        ("all_digraphs", 4, None, GENERAL),
        ("tournaments", 6, None, TOURNAMENT),
        ("bipartite_tournaments", None, (3, 4), BIPARTITE),
    ],
)
def test_every_claim_marks_most_strong_lanes_clean(cls, n, parts, claims):
    """The screen does its work: each lane test marks most strong lanes clean."""
    marked, strong = dict.fromkeys(claims, 0), 0
    for _, _, f in _lane_sets(cls, n, parts):
        strong += f.strong.bit_count()
        for t in claims:
            marked[t] += (_clean(t, f) & f.strong).bit_count()
    assert all(2 * m > strong for m in marked.values()), (marked, strong)


def test_every_table_claim_has_a_lane_test():
    assert set(CLAIMS) == set(GENERAL + TOURNAMENT + BIPARTITE)
    assert all(callable(claim.lanes) for claim in CLAIMS.values())


@pytest.mark.parametrize(
    "t, cls, n", [("thm-2.2", "all_digraphs", 3), ("thm-2.2", "all_digraphs", 4), ("thm-3.2-rho", "tournaments", 6)]
)
def test_a_structural_condition_sends_the_lane_to_the_scalar_check(t, cls, n):
    """A structural predicted side is compared with the observed case, not
    assumed to match it: a lane on which the predicted side holds (thm-2.2:
    max ecc and max out n-1; thm-3.2-rho's upper case: max ecc n-1) is not
    clean when its distance sums miss the equality, so the screen does not
    lean on the claim being true.  On a real instance the predicted side
    forces the observed equality (a vertex of eccentricity n-1 has sigma
    n(n-1)/2), so the sums are overwritten here with ones inside the bound
    and off every equality case."""
    held = 0
    for order, batch, f in _lane_sets(cls, n, None):
        L = f.lanes
        if t == "thm-2.2":
            f.smin = f.smax = L.every(order - 1)
        else:
            f.smax = L.every((3 * order - 2) // 2 + 1)  # above the even-order floor, below n(n-1)/2
        clean = _bits(L, _clean(t, f) & f.strong)
        for i, rows in enumerate(batch):
            sigmas, eccs = distance_sums(rows, order)
            if sigmas is not None and max(eccs) == order - 1:
                if t == "thm-3.2-rho" or max(r.bit_count() for r in rows) == order - 1:
                    assert not clean[i], rows
                    held += 1
    assert held


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "no-kernel"])
def test_prop_3_1_lane_test_against_the_oracle_off_tournaments(kernel):
    """On every instance of all digraphs n <= 4, with and without a kernel
    run, prop-3.1's lane test marks clean exactly the instances on which
    every maximum-out-degree vertex is within Floyd-Warshall distance 2 of
    every vertex.  On tournaments it never fails (every maximum-out-degree
    vertex is a king), so only other digraphs can show a wrong mask."""
    failing = 0
    for n in (1, 2, 3, 4):
        for order, batch, f in _lane_sets("all_digraphs", n, None, size=4096, kernel=kernel):
            want = [int(max_out_two_step_oracle(Digraph(order, rows))) for rows in batch]
            assert _bits(f.lanes, _clean("prop-3.1", f)) == want, n
            failing += want.count(0)
    assert failing


# ---------------------------------------------------------------------------
# Search's lane predicates and the claims' observed masks
# ---------------------------------------------------------------------------

#: (class, n, parts) from order 1: all digraphs n <= 4, tournaments and
#: symmetric digraphs n <= 6, bipartite tournaments a*b <= 12.
EVERY_CLASS = (
    [("all_digraphs", n, None) for n in (1, 2, 3, 4)]
    + [("tournaments", n, None) for n in range(1, 7)]
    + [("symmetric_digraphs", n, None) for n in range(1, 7)]
    + [("bipartite_tournaments", None, (a, b)) for a in range(1, 13) for b in range(a, 13) if a * b <= 12]
)


@lru_cache(maxsize=None)
def _oracle_table(cls, n, parts):
    """Per instance of the class, in enumeration order: (Digraph, its
    Floyd-Warshall distance sums or None, its nested-pair test or None
    outside the bipartite class)."""
    table = []
    for D in enumerate_class(cls, n, parts):
        bad = None if parts is None else bipartite_facts_oracle(D).bad is not None
        table.append((D, fw_distance_sums(D), bad))
    return table


def _predicate_oracle(p, D, sigmas, bad):
    """Whether search's predicate p holds on D, from the oracles alone."""
    if p in ("tournament", "regular", "non_regular"):
        return {"tournament": is_tournament_oracle, "regular": is_regular_oracle}.get(
            p, lambda D: not is_regular_oracle(D)
        )(D)
    if p in ("good", "bad"):
        return bad == (p == "bad")
    if sigmas is None:
        return False  # a kernel predicate holds only on strong instances
    n, smin, smax = D.n, min(sigmas), max(sigmas)
    pi_cap = 3 * (n - 1) if n % 2 else 3 * n - 4  # twice the windows' ends
    rho_floor = 3 * (n - 1) if n % 2 else 3 * n - 2
    return {
        "strong": True,
        "connected": True,
        "pi_eq_rho": smin == smax,
        "pi_ne_rho": smin != smax,
        "rho_eq_half_n": 2 * smax == n * (n - 1),
        "equality_thm_2_1_pi": smin == n - 1 or 2 * smin == n * (n - 1),
        "equality_thm_2_1_rho": smax == n - 1 or 2 * smax == n * (n - 1),
        "equality_thm_2_2": 2 * (smax - smin) == (n - 1) * (n - 2),
        "equality_thm_3_2_pi": smin == n or 2 * smin == pi_cap,
        "equality_thm_3_2_rho": 2 * smax == rho_floor or 2 * smax == n * (n - 1),
        "equality_thm_3_3": smin == smax,
    }[p]


def _class_lane_sets(cls, n, parts, size=1000):
    """(lane facts without a kernel run, with one, oracle rows) per set of
    ``size`` instances of the class."""
    table = _oracle_table(cls, n, parts)
    batches = (table[at : at + size] for at in range(0, len(table), size))
    gates, kernels = _lane_sets(cls, n, parts, size, kernel=False), _lane_sets(cls, n, parts, size)
    for (_, _, gate), (_, _, f), batch in zip(gates, kernels, batches):
        yield gate, f, batch


@pytest.mark.parametrize("p", sorted(PREDICATES))
def test_lane_predicate_against_the_oracles(p):
    """Each ``PREDICATES`` row's lane mask, as the scan loop reads it (the
    gate's without a kernel run, a kernel predicate's on the strong lanes),
    holds on exactly the instances where the oracles say the predicate
    holds: Floyd-Warshall sigma, the tournament and regularity quantifiers,
    and the brute-force nested-neighbourhood test for good and bad."""
    kernel, test = PREDICATES[p]
    cases = [c for c in EVERY_CLASS if c[0] == "bipartite_tournaments" or p not in ("good", "bad")]
    held = 0
    for cls, n, parts in cases:
        for gate, f, batch in _class_lane_sets(cls, n, parts):
            L = f.lanes
            mask = (f.strong and f.strong & test(f)) if kernel else test(gate)
            assert mask | L.E == L.E, (cls, n, parts)  # a mask holds 0 or 1 per lane
            want = [int(_predicate_oracle(p, D, sigmas, bad)) for D, sigmas, bad in batch]
            assert _bits(L, mask) == want, (cls, n, parts)
            held += sum(want)
    assert held


@pytest.mark.parametrize("t", sorted(CLAIMS))
def test_observed_masks_are_the_checks_observed_cases(t):
    """On every strong lane, at every order from 1 (below a claim's minimum
    order too), each observed mask of a claim's lane verdict is its scalar
    check's observed case.  Search's ``equality_<claim>`` predicates read
    these masks on every class, so the claims stated on all digraphs or on
    tournaments run here on every class."""
    bipartite = CLAIMS[t].domain == "bipartite_tournaments"
    cases = [c for c in EVERY_CLASS if not bipartite or c[0] == "bipartite_tournaments"]
    strong = 0
    for cls, n, parts in cases:
        for _, f, batch in _class_lane_sets(cls, n, parts):
            if not f.strong:
                continue
            L = f.lanes
            ranges = _parts(L.n, parts)
            observed = [_bits(L, o) for o in CLAIMS[t].lanes(f)[1]]
            for i, (D, _, _) in enumerate(batch):
                sigmas, eccs = distance_sums(D.rows, D.n)
                if sigmas is not None:
                    want = CLAIMS[t].check(InstanceFacts(D.rows, sigmas, eccs, ranges))[1]
                    assert tuple(bool(o[i]) for o in observed) == want, (t, D.rows)
                    strong += 1
    assert strong
