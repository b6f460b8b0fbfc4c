"""Per-instance verdicts for the bound-and-equality claims.

Each claim is defined once, in ``CLAIMS``, as a check over an
``InstanceFacts`` record: it decides an exact bound and compares, case by
case, the *observed* equality (computed from the exact metrics) against the
*predicted* equality (computed from structure alone: degrees, arc counts,
eccentricity certificates, neighborhood classes).  The two routes never
share a computation, so a faulty characterization shows up as an
inconsistent verdict rather than a silently agreeing one.  The predicted
side is defined only in these checks; a caller reads it from the report of
``verify``: ``equality_predicted``, or ``details["lower"]["predicted"]``
and ``details["upper"]["predicted"]`` for two cases.  A claim's row
also names its *domain*, the class it is stated on (see ``DOMAINS`` and
``require_domain``), its minimum order, whether it needs strong
connectivity, and the witnesses and details its report carries; ``verify``
builds every ``VerificationReport`` from the row, and ``THEOREMS`` is
``verify`` per claim id.  The exhaustive scan in ``proxrem.search`` runs
the same checks on raw adjacency rows.  An ``InstanceFacts`` record is a
value: ``verify`` and the claim scan build one for each instance they
check, and it keeps no certificate memo: a report that names a
certificate builds it once.

Each row also carries a *lane test*: over a ``LaneFacts`` record, which
holds a set of instances one per lane of a few big integers (the scan
loop builds one per set of lanes it reads), it returns
the lane form of the check's verdict, masks ``(sure, observed,
predicted)`` built with the lane primitives of ``metrics.Lanes``.
``observed`` and ``predicted`` hold one mask per equality case, as the
check's tuples hold one bool.  The observed masks are plain sigma
comparisons, exact on every strong lane at every order, so search's
``equality_<claim>`` predicates read them.  ``sure`` marks the lanes on
which the bound certainly holds and the predicted masks are exact; on a
lane of ``sure`` on which every case agrees (``agree``) the check
passes.  Where the predicted side is structural, a lemma makes it a lane
test (thm-2.2's certificate exists iff some vertex has eccentricity n-1
and some out-degree n-1; thm-3.2-rho's extremal isomorphism iff some
vertex has eccentricity n-1; see their lane tests).  thm-2.2's check
reads its lemma (L2) as its lane test does; thm-3.2-rho's check keeps the
explicit isomorphism walk, the scalar reference for its lemma (L3).  The
bipartite lane tests read a lane-wise bad test and, on good lanes, the
lane forms of the class sizes mu and class constants c, so lem-3.6's
closed form, cor-3.7's constant c and cor-3.8's constant mu and half
out-degrees are decided lane-wise too.  The claim scan counts the clean lanes, ``sure &
agree(observed, predicted)`` over every requested claim, and runs the
scalar check only on the others: the lanes where a bound fails or a case
is observed or predicted to hold on one side only.  prop-3.1's lane test
reads two-step reach, strong lanes or not, so it is exact on every lane.
The check stays the one definition of failure and evidence.

Claim identifiers (the CLI vocabulary):

  thm-2.1-pi    1 <= proximity <= n/2; lower equality iff some vertex has
                out-degree n-1, upper iff the digraph is a dicycle.
  thm-2.1-rho   1 <= remoteness <= n/2; lower iff complete digraph, upper
                iff some vertex has eccentricity n-1.
  thm-2.2       remoteness - proximity <= n/2 - 1; equality iff an
                eccentricity-(n-1) spanning-path ordering exists whose last
                two vertices include one of out-degree n-1.
  prop-3.1      every maximum-out-degree vertex of a tournament reaches
                everything within two steps.
  thm-3.2-pi    tournament proximity window n/(n-1) .. 3/2 (odd order) or
                3/2 - 1/(2(n-1)) (even); lower iff max out-degree n-2,
                upper iff regular / almost regular.
  thm-3.2-rho   tournament remoteness window; lower iff regular / almost
                regular, upper (n/2) iff isomorphic to the extremal
                tournament.
  thm-3.3       tournament proximity == remoteness iff regular.
  lem-3.4       bad strong bipartite tournament => proximity != remoteness.
  lem-3.5       good strong bipartite tournament => every vertex reaches
                everything within four steps.
  lem-3.6       good strong bipartite tournament => the closed-form vertex
                distance sum matches BFS.
  cor-3.7       strong bipartite tournament: proximity == remoteness iff
                good and the shared class/degree constant exists.
  cor-3.8       good, constant class size: proximity == remoteness iff
                every vertex beats exactly half of the opposite part.
  sec5-facts    radius/diameter/remoteness separations on the hub and
                dicycle families.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import bipartite as bp

# Bound for the benchmark's boundary tracer (perfbench/tracer.py), which
# patches this name here; the claims decide extremal isomorphism by the
# spanning-path pattern certificate instead.
from .canonical import canonical_form  # noqa: F401
from .constructions import dicycle as make_dicycle
from .constructions import hub_digraph
from .digraph import Digraph, NotStrongError, find_unreachable_pair, is_tournament, reach_within
from .metrics import distance_layers, proximity_remoteness, radius_diameter, sigma_ecc_vectors


@dataclass
class VerificationReport:
    """Outcome of one claim on one instance.

    ``consistent`` always equals (equality_observed == equality_predicted);
    for claims with two equality cases both cases must match individually,
    recorded in ``details``.  A claim with no equality case reports both
    sides true.  A verifier failure is any report with ``bound_holds``
    false or ``consistent`` false.
    """

    theorem: str
    bound_holds: bool
    equality_observed: bool
    equality_predicted: bool
    consistent: bool
    witnesses: Dict[str, object] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.bound_holds and self.consistent

    def as_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Per-instance facts
# ---------------------------------------------------------------------------

class InstanceFacts:
    """Everything the claims read about one instance: a value, built once
    for each instance that reaches a scalar check.  ``sigmas`` and ``eccs``
    are None on an instance that is not strong; only claims that do not
    need strong connectivity run on one.

    The record holds the out-degrees and their extremes.  With parts it
    also holds ``witness``, the bad pair of ``bipartite.bad_witness`` (None
    when good), and on a good instance the class sizes ``mu`` and the class
    constants ``c``; no certificate, which a claim's report builds.
    """

    __slots__ = (
        "n", "parts", "rows", "sigmas", "eccs", "smin", "smax",
        "degrees", "max_out", "min_out", "witness", "mu", "c",
    )

    def __init__(self, rows: Sequence[int], sigmas: Optional[List[int]], eccs: Optional[List[int]], parts=None):
        self.n = len(rows)
        self.rows = rows
        self.sigmas = sigmas
        self.eccs = eccs
        self.parts = parts
        # sorted() of a short list costs less than a min() and a max()
        if sigmas is None:
            self.smin = self.smax = None
        else:
            ordered = sorted(sigmas)
            self.smin = ordered[0]
            self.smax = ordered[-1]
        self.degrees = [r.bit_count() for r in rows]
        ordered = sorted(self.degrees)
        self.min_out = ordered[0]
        self.max_out = ordered[-1]
        self.witness = self.mu = self.c = None
        if parts is not None:
            self.witness = bp.bad_witness(rows, parts)
            if self.witness is None:
                self.mu = bp.class_sizes(rows, parts)
                self.c = bp.class_constants(rows, parts, self.mu)


class LaneFacts:
    """What the lane tests read about a set of instances of order n, one per
    lane of the lane ints of ``lanes`` (a ``metrics.Lanes``): the columns
    ``cols`` (row v of every lane), the mask ``strong`` and, from the lane
    kernel, the lane ints of sigma(u) and ecc(u) per source u (empty
    without a kernel run).  ``parts`` lists the parts' vertex sets in any
    order, as ``bipartite.bad_witness`` takes them (None outside the
    bipartite class).  The scan loop (``search._scan``) builds one record
    per lane set, with ``search._layout``'s ranges, which a consumer's gate
    or screen reads.  The derived lane ints below are computed once, on
    first use; those of sigma and ecc are meaningful only on the strong
    lanes.
    """

    def __init__(self, lanes, cols, strong, sigmas, eccs, parts=None):
        self.lanes, self.n, self.cols, self.strong = lanes, lanes.n, cols, strong
        self.sigmas, self.eccs, self.parts = sigmas, eccs, parts or ()

    @cached_property
    def smin(self) -> int:
        return self.lanes.minimum(self.sigmas)

    @cached_property
    def smax(self) -> int:
        return self.lanes.maximum(self.sigmas)

    @cached_property
    def equal(self) -> int:
        """The mask of lanes whose distance sums are all equal."""
        return self.lanes.E ^ self.lanes.nonzero(self.smax - self.smin)

    @cached_property
    def max_ecc(self) -> int:
        return self.lanes.maximum(self.eccs)

    @cached_property
    def successor_table(self) -> list:
        return self.lanes.successor_table(self.cols)

    @cached_property
    def degrees(self) -> List[int]:
        return [self.lanes.popcount(c) for c in self.cols]

    @cached_property
    def in_degrees(self) -> List[int]:
        E = self.lanes.E
        return [sum((c >> v) & E for c in self.cols) for v in range(self.n)]

    @cached_property
    def max_out(self) -> int:
        return self.lanes.maximum(self.degrees)

    @cached_property
    def min_out(self) -> int:
        return self.lanes.minimum(self.degrees)

    @property
    def bad(self) -> int:
        """The mask of bad lanes: some pair of one part whose out-neighborhoods
        nest properly, as in ``bipartite.bad_witness``."""
        return self._nesting[0]

    @property
    def mu(self) -> List[int]:
        """Per vertex, the lane ints of ``bipartite.class_sizes``: how many
        vertices of its part share its out-neighborhood."""
        return self._nesting[1]

    @cached_property
    def _nesting(self) -> Tuple[int, List[int]]:
        """(bad, mu) in one pass over the unordered pairs {u, v} of one part: a
        proper nesting is a lane where exactly one of the rows lies inside the
        other, and equal rows add 1 to mu at both ends."""
        L, cols, E = self.lanes, self.cols, self.lanes.E
        bad, mu = 0, [E] * self.n
        for u, v in (pair for part in self.parts for pair in combinations(part, 2)):
            cu, cv = cols[u], cols[v]
            d = cu ^ cv
            a, b = L.nonzero(cu & d), L.nonzero(cv & d)
            bad |= a ^ b
            same = E ^ (a | b)
            mu[u] += same
            mu[v] += same
        return bad, mu

    @cached_property
    def other(self) -> List[int]:
        """Per vertex, the size of the part it is not in."""
        return [self.n - len(part) for part in bp.part_lookup(self.parts, self.n)]

    @cached_property
    def c(self) -> List[int]:
        """Per vertex, the lane ints of ``bipartite.class_constants`` offset
        by 2n to stay nonnegative: 2*(mu(v) - d+(v)) + |other part| + 2n."""
        L, n = self.lanes, self.n
        return [2 * (m - d) + L.every(k + 2 * n) for m, d, k in zip(self.mu, self.degrees, self.other)]


# ---------------------------------------------------------------------------
# Structural predicates (the "predicted" side)
# ---------------------------------------------------------------------------

def _near_regular_window(n: int) -> Tuple[int, int]:
    """Out-degree window of a regular (odd n) or almost regular (even n)
    tournament."""
    return (n - 1) // 2, n // 2


def _spanning_order(f: InstanceFacts) -> Optional[List[int]]:
    """The ordering v_0..v_{n-1} with d(v_0, v_i) = i from the first vertex
    of eccentricity n-1, whose BFS layers are then forced to be singletons;
    None when no vertex has eccentricity n-1."""
    if f.n - 1 in f.eccs:
        return [l.bit_length() - 1 for l in distance_layers(f.rows, f.n, f.eccs.index(f.n - 1))]
    return None


def _is_extremal(f: InstanceFacts) -> bool:
    """Isomorphism onto the remoteness-extremal tournament: along
    ``_spanning_order`` every v_i beats exactly v_{i+1} and v_0..v_{i-2} (an
    explicit isomorphism, which the ordering from any eccentricity-(n-1)
    start of an isomorphic copy shows: the starts are images of one another)."""
    order = _spanning_order(f)
    if order is None:
        return False
    for i, v in enumerate(order):
        want = 1 << order[i + 1] if i + 1 < f.n else 0
        for j in range(i - 1):
            want |= 1 << order[j]
        if f.rows[v] != want:
            return False
    return True


def _thm22_certificate(f: InstanceFacts) -> Optional[Dict[str, object]]:
    """thm-2.2's certificate: ``_spanning_order`` and a vertex of out-degree
    n-1 among its last two, or None.  By L2 (see ``_thm_2_2_lanes``) the
    first ordering shows the certificate whenever any does."""
    order = _spanning_order(f)
    for v in order[-2:] if order else ():
        if f.degrees[v] == f.n - 1:
            return {"ordering": order, "dominant_vertex": v}
    return None


def _four_king_violations(f: InstanceFacts) -> List[int]:
    """Vertices of a good instance with eccentricity above 4."""
    return [v for v, e in enumerate(f.eccs) if e > 4]


def _formula_mismatches(f: InstanceFacts) -> List[dict]:
    """Vertices of a good instance whose distance sum misses the closed form."""
    formula = bp.formula_sigmas(f.c)
    return [{"vertex": v, "formula": formula[v], "bfs": s} for v, s in enumerate(f.sigmas) if formula[v] != s]


def _two_step_violations(f: InstanceFacts) -> List[int]:
    """Maximum-out-degree vertices whose two-step reach misses some vertex."""
    full = (1 << f.n) - 1
    return [v for v, d in enumerate(f.degrees) if d == f.max_out and reach_within(f.rows, v, 2) != full]


def _constant_class_size(f: InstanceFacts) -> bool:
    return f.witness is None and bp.shared_value(f.mu) is not None


# ---------------------------------------------------------------------------
# The claims
# ---------------------------------------------------------------------------
#
# A claim's check reads one InstanceFacts record, the order f.n included,
# and works out its per-order constants on each call; nothing is cached per
# order or per record.  A check returns (bound_holds, observed,
# predicted): observed and predicted hold one bool per equality case
# (lower, upper for the two-sided windows), and the instance fails the
# claim unless the bound holds and both tuples agree.
#
# A claim's lane test returns its lane verdict over a LaneFacts record,
# masks (sure, observed, predicted) in the shape of the check's Verdict.
# The observed masks are the check's sigma comparisons, exact on every
# strong lane at every order, below min_n too.  On the lanes of sure the
# bound holds and the predicted masks are exact, so there the check passes
# iff every case agrees: clean = sure & agree(observed, predicted).  The
# doubled constants below (n(n-1), the windows' caps) are all even, so
# 2x <= K, 2x == K and K <= 2x compare x with K // 2.  Where the predicted
# side is structural, the lemmas in the lane tests of thm-2.2 and
# thm-3.2-rho restate it exactly on the lane facts (max ecc and max out),
# and thm-2.2's check reads its lemma too.

Verdict = Tuple[bool, Tuple[bool, ...], Tuple[bool, ...]]
Check = Callable[[InstanceFacts], Verdict]
LaneVerdict = Tuple[int, Tuple[int, ...], Tuple[int, ...]]
LaneTest = Callable[[LaneFacts], LaneVerdict]


def agree(lanes, observed: Sequence[int], predicted: Sequence[int]) -> int:
    """The mask of the lanes of ``lanes`` (a ``metrics.Lanes``) on which
    every observed case mask equals its predicted case mask."""
    same = lanes.E
    for o, p in zip(observed, predicted):
        same &= lanes.E ^ o ^ p
    return same


def _thm_2_1_pi(f: InstanceFacts) -> Verdict:
    n, smin = f.n, f.smin
    den = n - 1
    return (
        den <= smin and 2 * smin <= n * den,
        (smin == den, 2 * smin == n * den),
        # a strong digraph with every out-degree 1 is a dicycle
        (f.max_out == den, f.max_out == 1),
    )


def _thm_2_1_pi_lanes(f: LaneFacts) -> LaneVerdict:
    L, n, smin = f.lanes, f.n, f.smin
    den, half = n - 1, n * (n - 1) // 2
    return (
        L.at_least(smin, den) & L.at_most(smin, half),
        (L.equal(smin, den), L.equal(smin, half)),
        (L.equal(f.max_out, den), L.equal(f.max_out, 1)),
    )


def _thm_2_1_rho(f: InstanceFacts) -> Verdict:
    n, smax = f.n, f.smax
    den = n - 1
    return (
        den <= smax and 2 * smax <= n * den,
        (smax == den, 2 * smax == n * den),
        (f.min_out == den, max(f.eccs) == den),
    )


def _thm_2_1_rho_lanes(f: LaneFacts) -> LaneVerdict:
    L, n, smax = f.lanes, f.n, f.smax
    den, half = n - 1, n * (n - 1) // 2
    return (
        L.at_least(smax, den) & L.at_most(smax, half),
        (L.equal(smax, den), L.equal(smax, half)),
        (L.equal(f.min_out, den), L.equal(f.max_ecc, den)),
    )


def _thm_2_2(f: InstanceFacts) -> Verdict:
    # rho - pi <= n/2 - 1 at denominator n-1: 2*spread <= (n-1)(n-2); by L2
    # (see _thm_2_2_lanes) the certificate exists iff max out and max ecc are n-1
    cap = (f.n - 1) * (f.n - 2)
    spread2 = 2 * (f.smax - f.smin)
    return spread2 <= cap, (spread2 == cap,), (f.max_out == f.n - 1 and max(f.eccs) == f.n - 1,)


def _thm_2_2_lanes(f: LaneFacts) -> LaneVerdict:
    """The bound, and the equality case against the certificate, exactly;
    the scalar check ``_thm_2_2`` reads the same condition as ``possible``.

    L1: in a strong digraph, sigma(u) <= 1 + ... + (n-1) = n(n-1)/2, with
    equality iff every BFS layer from u is a single vertex, i.e. iff
    ecc(u) = n-1; and sigma(v) = n-1 iff d+(v) = n-1.

    L2: let ecc(u) = n-1, with layers v_0..v_{n-1}, and d+(v) = n-1 with
    v = v_i.  Then v reaches everything in one step, so n-1 = ecc(u) <= i+1
    and v is one of the last two vertices.  So the certificate exists iff
    max ecc = n-1 and max out = n-1: ``possible`` is the predicted side.
    By L1 the spread reaches the cap under the same condition, so on a
    strong lane the bound holds and the case agrees.
    """
    L, n = f.lanes, f.n
    cap = (n - 1) * (n - 2) // 2
    spread = f.smax - f.smin
    possible = L.equal(f.max_ecc, n - 1) & L.equal(f.max_out, n - 1)
    return L.at_most(spread, cap), (L.equal(spread, cap),), (possible,)


def _prop_3_1(f: InstanceFacts) -> Verdict:
    return not _two_step_violations(f), (), ()


def _prop_3_1_lanes(f: LaneFacts) -> LaneVerdict:
    # every maximum-out-degree vertex reaches every vertex within two steps
    L, table, ok = f.lanes, f.successor_table, f.lanes.E
    for v, (e, _, row, _) in enumerate(table):
        far = L.widen(L.any_byte((e | row | L.successors(row, table)) ^ L.FULLP))
        ok &= L.E ^ (L.ge(f.degrees[v], f.max_out) & far)
    return ok, (), ()


def _thm_3_2_windows(n: int) -> Tuple[int, int]:
    """(2 * the cap of sigma_min, 2 * the floor of sigma_max) in the
    tournament windows: 3(n-1) for odd n; 3n-4 and 3n-2 for even n."""
    return (3 * (n - 1), 3 * (n - 1)) if n % 2 else (3 * n - 4, 3 * n - 2)


def _thm_3_2_pi(f: InstanceFacts) -> Verdict:
    # sigma_min between n and the cap
    n, smin = f.n, f.smin
    cap, _ = _thm_3_2_windows(n)
    lo, hi = _near_regular_window(n)
    return (
        n <= smin and 2 * smin <= cap,
        (smin == n, 2 * smin == cap),
        (f.max_out == n - 2, lo <= f.min_out and f.max_out <= hi),
    )


def _thm_3_2_pi_lanes(f: LaneFacts) -> LaneVerdict:
    L, n, smin = f.lanes, f.n, f.smin
    half = _thm_3_2_windows(n)[0] // 2
    lo, hi = _near_regular_window(n)
    near_regular = L.at_least(f.min_out, lo) & L.at_most(f.max_out, hi)
    return (
        L.at_least(smin, n) & L.at_most(smin, half),
        (L.equal(smin, n), L.equal(smin, half)),
        (L.equal(f.max_out, n - 2), near_regular),
    )


def _thm_3_2_rho(f: InstanceFacts) -> Verdict:
    n, smax2 = f.n, 2 * f.smax
    _, cap = _thm_3_2_windows(n)
    top = n * (n - 1)
    lo, hi = _near_regular_window(n)
    return (
        cap <= smax2 <= top,
        (smax2 == cap, smax2 == top),
        (lo <= f.min_out and f.max_out <= hi, _is_extremal(f)),
    )


def _thm_3_2_rho_lanes(f: LaneFacts) -> LaneVerdict:
    """The window, and both equality cases against their predicted sides,
    exactly.

    L3: in a tournament with ecc(u) = n-1 and layers v_0..v_{n-1}, v_i -> v_{i+1}
    (v_{i+1} has an in-neighbor in layer i) and v_j -> v_i for every j >= i+2
    (an arc v_i -> v_j would put v_j at distance i+1 or less).  That is
    ``_is_extremal``'s pattern, so the predicted upper case is max ecc =
    n-1, which by L1 (see ``_thm_2_2_lanes``) is also the observed one.
    The scalar check keeps the explicit pattern walk along
    ``_spanning_order``, the reference this lane test is tested against.
    """
    L, n, smax = f.lanes, f.n, f.smax
    low, top = _thm_3_2_windows(n)[1] // 2, n * (n - 1) // 2
    lo, hi = _near_regular_window(n)
    near_regular = L.at_least(f.min_out, lo) & L.at_most(f.max_out, hi)
    return (
        L.at_least(smax, low) & L.at_most(smax, top),
        (L.equal(smax, low), L.equal(smax, top)),
        (near_regular, L.equal(f.max_ecc, n - 1)),
    )


def _thm_3_3(f: InstanceFacts) -> Verdict:
    # equal out-degrees force equal in-degrees in a tournament
    return True, (f.smin == f.smax,), (f.max_out == f.min_out,)


def _thm_3_3_lanes(f: LaneFacts) -> LaneVerdict:
    L = f.lanes
    return L.E, (f.equal,), (L.E ^ L.nonzero(f.max_out - f.min_out),)


def _lem_3_4(f: InstanceFacts) -> Verdict:
    equal = f.smin == f.smax
    return True, (equal,), (equal and f.witness is None,)


def _lem_3_4_lanes(f: LaneFacts) -> LaneVerdict:
    return f.lanes.E, (f.equal,), (f.equal & (f.lanes.E ^ f.bad),)


def _lem_3_5(f: InstanceFacts) -> Verdict:
    return f.witness is not None or not _four_king_violations(f), (), ()


def _lem_3_5_lanes(f: LaneFacts) -> LaneVerdict:
    return f.bad | f.lanes.at_most(f.max_ecc, 4), (), ()


def _lem_3_6(f: InstanceFacts) -> Verdict:
    return f.witness is not None or not _formula_mismatches(f), (), ()


def _lem_3_6_lanes(f: LaneFacts) -> LaneVerdict:
    # on a good lane sigma(v) = c(v) + 2n - 4 at every v; f.c is offset by 2n
    L, miss = f.lanes, 0
    four = L.every(4)
    for s, c in zip(f.sigmas, f.c):
        miss |= (s + four) ^ c
    return f.bad | (L.E ^ L.nonzero(miss)), (), ()


def _cor_3_7(f: InstanceFacts) -> Verdict:
    equal = f.smin == f.smax
    if f.witness is not None:
        return True, (equal,), (False,)
    constant = bp.shared_value(f.c) is not None
    # equality forces the per-part class/degree relations
    return not equal or constant, (equal,), (constant,)


def _cor_3_7_lanes(f: LaneFacts) -> LaneVerdict:
    # a bad lane is predicted unequal; on a good one the bound needs c constant where equal
    L, constant = f.lanes, f.lanes.same(f.c)
    return f.bad | (L.E ^ f.equal) | constant, (f.equal,), (constant & (L.E ^ f.bad),)


def _cor_3_8(f: InstanceFacts) -> Verdict:
    equal = f.smin == f.smax
    if _constant_class_size(f):
        return True, (equal,), (bp.beats_half(f.rows, f.parts),)
    return True, (equal,), (equal,)


def _cor_3_8_lanes(f: LaneFacts) -> LaneVerdict:
    # with a constant class size on a good lane, equality iff every vertex
    # beats half the other part; elsewhere the predicted side is the observed one
    L, uneven = f.lanes, 0
    for d, k in zip(f.degrees, f.other):
        uneven |= 2 * d ^ L.every(k)
    applies = L.same(f.mu) & (L.E ^ f.bad)
    half = L.E ^ L.nonzero(uneven)
    return L.E, (f.equal,), ((applies & half) | (L.E ^ applies) & f.equal,)


def _with_sigmas(f: InstanceFacts) -> dict:
    return {"sigmas": f.sigmas}


def _with_degrees(f: InstanceFacts) -> dict:
    return {"sigmas": f.sigmas, "degrees": f.degrees}


def _cor_3_7_evidence(f: InstanceFacts) -> dict:
    if f.witness is not None:
        return {"sigmas": f.sigmas, "bad": True}
    return {"sigmas": f.sigmas, "c_values": sorted(set(f.c))}


def _proximity_window(f: InstanceFacts) -> Tuple[dict, dict]:
    return {"prox_witness": f.sigmas.index(f.smin)}, {"proximity": [f.smin, f.n - 1]}


def _remoteness_window(f: InstanceFacts) -> Tuple[dict, dict]:
    return {"rem_witness": f.sigmas.index(f.smax)}, {"remoteness": [f.smax, f.n - 1]}


def _thm_2_1_rho_report(f: InstanceFacts) -> Tuple[dict, dict]:
    witnesses, details = _remoteness_window(f)
    if (order := _spanning_order(f)) is not None:
        witnesses["ordering"] = order
    return witnesses, details


def _thm_2_2_report(f: InstanceFacts) -> Tuple[dict, dict]:
    return _thm22_certificate(f) or {}, {"spread": [f.smax - f.smin, f.n - 1]}


def _prop_3_1_report(f: InstanceFacts) -> Tuple[dict, dict]:
    leaders = [v for v, d in enumerate(f.degrees) if d == f.max_out]
    witnesses = {"max_out_degree_vertices": leaders, "violations": _two_step_violations(f)}
    return witnesses, {"max_out_degree": f.max_out}


def _thm_3_3_report(f: InstanceFacts) -> Tuple[dict, dict]:
    return {}, {"sigma_min": f.smin, "sigma_max": f.smax}


def _bad_witness(f: InstanceFacts) -> dict:
    return {"bad_witness": f.witness} if f.witness else {}


def _lem_3_4_report(f: InstanceFacts) -> Tuple[dict, dict]:
    return _bad_witness(f), {"applicable": f.witness is not None}


def _lem_3_5_report(f: InstanceFacts) -> Tuple[dict, dict]:
    good = f.witness is None
    violations = _four_king_violations(f) if good else []
    return {"violations": violations}, {"applicable": good, "max_ecc": max(f.eccs)}


def _lem_3_6_report(f: InstanceFacts) -> Tuple[dict, dict]:
    good = f.witness is None
    return {"mismatches": _formula_mismatches(f) if good else []}, {"applicable": good}


def _cor_3_7_report(f: InstanceFacts) -> Tuple[dict, dict]:
    good = f.witness is None
    constant = bp.shared_value(f.c) if good else None
    return _bad_witness(f), {"good": good, "constant_c": constant}


def _cor_3_8_report(f: InstanceFacts) -> Tuple[dict, dict]:
    return {}, {"applicable": _constant_class_size(f)}


class Claim(NamedTuple):
    """One claim, stated on the enumeration class ``domain``
    (``all_digraphs``, ``tournaments`` or ``bipartite_tournaments``; see
    ``DOMAINS`` and ``require_domain``).  ``check`` gives its verdict on one
    ``InstanceFacts`` record; ``evidence`` is the certificate payload of a
    failing instance; ``report`` gives the (witnesses, details) of its
    ``VerificationReport``.  ``lanes`` is its lane test: its lane verdict
    (sure, observed, predicted) on a ``LaneFacts`` record.  The clean lanes
    ``sure & agree(observed, predicted)`` may leave out a lane that passes,
    never one that fails; every lane test is exact today, so the scalar
    check sees only failing instances, and it stays the one definition of
    failure and evidence; ``report`` builds a certificate once per report.
    The claim runs only at orders >= ``min_n``, and only on strong instances
    when ``strong``."""

    check: Check
    evidence: Callable[[InstanceFacts], dict]
    report: Callable[[InstanceFacts], Tuple[dict, dict]]
    lanes: LaneTest
    domain: str = "all_digraphs"
    min_n: int = 2
    strong: bool = True


CLAIMS: Dict[str, Claim] = {
    "thm-2.1-pi": Claim(_thm_2_1_pi, _with_sigmas, _proximity_window, _thm_2_1_pi_lanes, min_n=3),
    "thm-2.1-rho": Claim(_thm_2_1_rho, _with_sigmas, _thm_2_1_rho_report, _thm_2_1_rho_lanes, min_n=3),
    "thm-2.2": Claim(_thm_2_2, _with_sigmas, _thm_2_2_report, _thm_2_2_lanes),
    "prop-3.1": Claim(_prop_3_1, lambda f: {}, _prop_3_1_report, _prop_3_1_lanes, "tournaments", strong=False),
    "thm-3.2-pi": Claim(_thm_3_2_pi, _with_degrees, _proximity_window, _thm_3_2_pi_lanes, "tournaments", min_n=3),
    "thm-3.2-rho": Claim(_thm_3_2_rho, _with_degrees, _remoteness_window, _thm_3_2_rho_lanes, "tournaments", min_n=3),
    "thm-3.3": Claim(_thm_3_3, _with_degrees, _thm_3_3_report, _thm_3_3_lanes, "tournaments", min_n=3),
    "lem-3.4": Claim(_lem_3_4, _with_sigmas, _lem_3_4_report, _lem_3_4_lanes, "bipartite_tournaments"),
    "lem-3.5": Claim(_lem_3_5, lambda f: {"eccs": f.eccs}, _lem_3_5_report, _lem_3_5_lanes, "bipartite_tournaments"),
    "lem-3.6": Claim(_lem_3_6, _with_sigmas, _lem_3_6_report, _lem_3_6_lanes, "bipartite_tournaments"),
    "cor-3.7": Claim(_cor_3_7, _cor_3_7_evidence, _cor_3_7_report, _cor_3_7_lanes, "bipartite_tournaments"),
    "cor-3.8": Claim(_cor_3_8, _with_sigmas, _cor_3_8_report, _cor_3_8_lanes, "bipartite_tournaments"),
}


def _tournament(D: Digraph) -> None:
    if not is_tournament(D):
        raise ValueError("claim applies to tournaments")


#: The input test of each claim domain, run by ``verify``: it returns the
#: parts of a bipartite tournament (None in the other domains) and raises
#: ValueError on a digraph outside the domain.
DOMAINS: Dict[str, Callable[[Digraph], Optional[Sequence[Sequence[int]]]]] = {
    "all_digraphs": lambda D: None,
    "tournaments": _tournament,
    "bipartite_tournaments": lambda D: bp.require_bipartite_tournament(D).parts,
}


def require_domain(ids: Sequence[str], cls: str) -> None:
    """Raise ValueError unless every claim in ``ids`` applies to the
    enumeration class ``cls``: a claim on all digraphs applies to every
    class, any other claim only to its own domain."""
    for t in ids:
        domain = CLAIMS[t].domain
        if domain not in ("all_digraphs", cls):
            raise ValueError(f"claim {t} applies to {domain}, not {cls}")


#: Claim ids that name two claims at once.
THEOREM_ALIASES = {
    "thm-2.1": ("thm-2.1-pi", "thm-2.1-rho"),
    "thm-3.2": ("thm-3.2-pi", "thm-3.2-rho"),
}


def resolve_theorems(ids: Sequence[str]) -> Tuple[str, ...]:
    """The claim ids named by ``ids``, aliases expanded, first occurrence kept."""
    out: List[str] = []
    for t in ids:
        if t in THEOREM_ALIASES:
            out.extend(THEOREM_ALIASES[t])
        elif t in CLAIMS:
            out.append(t)
        else:
            raise ValueError(f"unknown claim id {t!r}; known: {sorted(CLAIMS) + sorted(THEOREM_ALIASES)}")
    return tuple(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# The reference verifier
# ---------------------------------------------------------------------------

def verify(claim_id: str, D: Digraph) -> VerificationReport:
    """One claim's report on one instance, from its row in ``CLAIMS``.

    The preconditions run in this order: the input class (ValueError),
    strong connectivity when the claim needs it (NotStrongError), then the
    minimum order (ValueError).
    """
    claim = CLAIMS[claim_id]
    parts = DOMAINS[claim.domain](D)
    pair = find_unreachable_pair(D) if claim.strong else None
    if pair is not None:
        raise NotStrongError(pair)
    if D.n < claim.min_n:
        raise ValueError(f"claim needs n >= {claim.min_n}, got {D.n}")
    sigmas, eccs = sigma_ecc_vectors(D) if claim.strong else (None, None)
    f = InstanceFacts(D.rows, sigmas, eccs, parts)
    bound, observed, predicted = claim.check(f)
    witnesses, details = claim.report(f)
    if len(observed) == 2:
        details["lower"] = {"observed": observed[0], "predicted": predicted[0]}
        details["upper"] = {"observed": observed[1], "predicted": predicted[1]}
    return VerificationReport(
        theorem=claim_id,
        bound_holds=bound,
        equality_observed=True in observed or not observed,
        equality_predicted=True in predicted or not predicted,
        consistent=observed == predicted,
        witnesses=witnesses,
        details=details,
    )


#: The reference verifiers: one report list per claim on one Digraph, read
#: by the reference path of ``search.exhaustive_verify``.
THEOREMS: Dict[str, Callable[[Digraph], List[VerificationReport]]] = {
    t: (lambda D, t=t: [verify(t, D)]) for t in CLAIMS
}


# ---------------------------------------------------------------------------
# Radius/diameter separations on the two discussion families
# ---------------------------------------------------------------------------

def verify_sec5_facts(kind: str, n: int, c: Optional[int] = None) -> VerificationReport:
    """Checks that the digraph families break the undirected radius rules.

    kind="hub": diameter exceeds twice the radius (n >= 4) and the radius
    stays below the remoteness (n >= 3).  kind="dicycle": the radius
    exceeds the remoteness, every distance layer from every vertex is a
    single vertex, and the radius exceeds floor(n/2).
    """
    if kind == "hub":
        if c is None:
            c = n - 1
        D = hub_digraph(n, c)
    elif kind == "dicycle":
        D = make_dicycle(n)
    else:
        raise ValueError(f"kind must be 'hub' or 'dicycle', got {kind!r}")
    _, rho, _ = proximity_remoteness(D)
    rad, diam = radius_diameter(D)
    checks: Dict[str, bool] = {}
    if kind == "hub":
        checks["rad_is_1"] = rad == 1
        checks["diam_is_n_minus_1"] = diam == n - 1
        checks["rho_is_half_n"] = rho == Fraction(n, 2)
        if n >= 4:
            checks["diam_gt_2_rad"] = diam > 2 * rad
        if n >= 3:
            checks["rad_lt_rho"] = Fraction(rad) < rho
    else:
        checks["rad_is_n_minus_1"] = rad == n - 1
        if n >= 3:
            checks["rad_gt_rho"] = Fraction(rad) > rho
            checks["rad_gt_half_n"] = rad > n // 2
        checks["one_vertex_per_layer"] = all(
            l.bit_count() == 1 for v in range(n) for l in distance_layers(D.rows, n, v)[1 : n - 1]
        )
    ok = all(checks.values())
    return VerificationReport(
        theorem="sec5-facts",
        bound_holds=ok,
        equality_observed=True,
        equality_predicted=True,
        consistent=True,
        witnesses={},
        details={"kind": kind, "n": n, "c": c, "checks": checks},
    )
