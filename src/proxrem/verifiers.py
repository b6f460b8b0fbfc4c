"""Per-instance verdicts for the bound-and-equality claims.

Each claim is defined once, in ``CLAIMS``, as a check over an
``InstanceFacts`` record: it decides an exact bound and compares, case by
case, the *observed* equality (computed from the exact metrics) against the
*predicted* equality (computed from structure alone: degrees, arc counts,
eccentricity certificates, neighborhood classes).  The two routes never
share a computation, so a faulty characterization shows up as an
inconsistent verdict rather than a silently agreeing one.  The ``verify_*``
functions build a ``VerificationReport`` from a check; the exhaustive scan
in ``proxrem.search`` runs the same checks on raw adjacency rows.

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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import bipartite as bp

# Bound for the benchmark's boundary tracer (perfbench/tracer.py), which
# patches this name here; the claims decide extremal isomorphism by the
# spanning-path pattern certificate instead.
from .canonical import canonical_form  # noqa: F401
from .constructions import dicycle as make_dicycle
from .constructions import hub_digraph
from .digraph import Digraph, NotStrongError, find_unreachable_pair, is_tournament, reach_within
from .metrics import distance_layers, is_p_king, sigma_ecc_vectors


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
        return {
            "theorem": self.theorem,
            "bound_holds": self.bound_holds,
            "equality_observed": self.equality_observed,
            "equality_predicted": self.equality_predicted,
            "consistent": self.consistent,
            "witnesses": self.witnesses,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# Per-instance facts
# ---------------------------------------------------------------------------

class InstanceFacts:
    """Everything the claims read about one instance.

    One record serves a whole scan: the order and the parts are bound once,
    and ``load`` refills the per-instance fields.  ``sigmas`` and ``eccs``
    are None on an instance that is not strong; only claims that do not
    need strong connectivity run on one.

    The record holds the out-degrees, their sorted ``scores`` and
    extremes.  With parts it also holds ``witness``, the bad pair of
    ``bipartite.bad_witness`` (None when good), and on a good instance the
    class sizes ``mu`` and the class constants ``c``.
    """

    __slots__ = (
        "n", "parts", "part_of", "rows", "sigmas", "eccs", "smin", "smax",
        "degrees", "scores", "max_out", "min_out", "witness", "mu", "c",
    )

    def __init__(self, n: int, parts: Optional[Sequence[Sequence[int]]] = None):
        self.n = n
        self.parts = parts
        self.part_of = None if parts is None else bp.part_lookup(parts, n)
        self.witness = self.mu = self.c = None

    def load(self, rows: Sequence[int], sigmas: Optional[List[int]], eccs: Optional[List[int]]):
        self.rows = rows
        self.sigmas = sigmas
        self.eccs = eccs
        # sorted() of a short list costs less than a min() and a max()
        if sigmas is None:
            self.smin = self.smax = None
        else:
            ordered = sorted(sigmas)
            self.smin = ordered[0]
            self.smax = ordered[-1]
        self.degrees = [r.bit_count() for r in rows]
        scores = self.scores = sorted(self.degrees)
        self.min_out = scores[0]
        self.max_out = scores[-1]
        if self.part_of is not None:
            self.witness = bp.bad_witness(rows, self.part_of)
            self.mu = self.c = None
            if self.witness is None:
                self.mu = bp.class_sizes(rows, self.parts)
                self.c = bp.class_constants(rows, self.parts, self.mu)
        return self


def _require_strong(D: Digraph) -> None:
    pair = find_unreachable_pair(D)
    if pair is not None:
        raise NotStrongError(pair)


def _strong_facts(D: Digraph, parts=None) -> InstanceFacts:
    sigmas, eccs = sigma_ecc_vectors(D)
    return InstanceFacts(D.n, parts).load(D.rows, sigmas, eccs)


# ---------------------------------------------------------------------------
# Structural predicates (the "predicted" side)
# ---------------------------------------------------------------------------

def _near_regular_window(n: int) -> Tuple[int, int]:
    """Out-degree window of a regular (odd n) or almost regular (even n)
    tournament."""
    return (n - 1) // 2, n // 2


def is_complete_digraph(D: Digraph) -> bool:
    return D.m == D.n * (D.n - 1)


def is_dicycle(D: Digraph) -> bool:
    """Structural: n arcs, every semi-degree 1, strong."""
    if D.m != D.n:
        return False
    if any(r.bit_count() != 1 for r in D.rows):
        return False
    if any(r.bit_count() != 1 for r in D.reverse_rows):
        return False
    return find_unreachable_pair(D) is None


def _in_window(D: Digraph) -> bool:
    lo, hi = _near_regular_window(D.n)
    return all(lo <= r.bit_count() <= hi for r in D.rows)


def is_regular_tournament(D: Digraph) -> bool:
    return D.n % 2 == 1 and _in_window(D)


def is_almost_regular_tournament(D: Digraph) -> bool:
    return D.n % 2 == 0 and _in_window(D)


def _spanning_orders(rows: Sequence[int], n: int, starts) -> Iterator[List[int]]:
    """The ordering v_0..v_{n-1} with d(v_0, v_i) = i from each start in
    ``starts`` that has one: a start of eccentricity n-1, whose BFS layers
    are then forced to be singletons."""
    for u in starts:
        layers = distance_layers(rows, n, u)
        if len(layers) == n:
            yield [l.bit_length() - 1 for l in layers]


def _long_starts(f: InstanceFacts) -> List[int]:
    return [u for u, e in enumerate(f.eccs) if e == f.n - 1]


def spanning_path_ordering(D: Digraph) -> Optional[List[int]]:
    """Vertex ordering v_0..v_{n-1} with d(v_0, v_i) = i, if one exists.

    Such an ordering exists exactly when some vertex has eccentricity n-1.
    The smallest starting vertex is chosen.
    """
    return next(_spanning_orders(D.rows, D.n, range(D.n)), None)


def _extremal_scores(n: int) -> List[int]:
    """Sorted score sequence of the remoteness-extremal tournament."""
    return sorted([1, 1] + list(range(2, n - 1)) + [n - 2])


def _follows_extremal_pattern(rows: Sequence[int], order: Optional[List[int]]) -> bool:
    """True when every v_i of the spanning-path ordering beats exactly
    v_{i+1} and v_0..v_{i-2}: an explicit isomorphism onto the extremal
    tournament.  Any ordering of an isomorphic copy shows it, since its
    eccentricity-(n-1) starts are images of one another."""
    if order is None:
        return False
    n = len(order)
    for i, v in enumerate(order):
        want = 1 << order[i + 1] if i + 1 < n else 0
        for j in range(i - 1):
            want |= 1 << order[j]
        if rows[v] != want:
            return False
    return True


def is_iso_to_extremal_tournament(D: Digraph) -> bool:
    """Isomorphism to the remoteness-extremal tournament of the same order.

    Decided by the score sequence and then by reconstructing the forced
    spanning-path ordering and matching the arc pattern exactly (an explicit
    isomorphism certificate).
    """
    n = D.n
    if not is_tournament(D) or n < 3:
        return False
    if sorted(r.bit_count() for r in D.rows) != _extremal_scores(n):
        return False
    return _follows_extremal_pattern(D.rows, spanning_path_ordering(D))


def _thm22_certificate(f: InstanceFacts) -> Optional[Dict[str, object]]:
    """A spanning-path ordering whose last two vertices include one of
    out-degree n-1, or None.  All eccentricity-(n-1) starts are tried."""
    n = f.n
    if max(f.eccs) != n - 1:
        return None
    for order in _spanning_orders(f.rows, n, _long_starts(f)):
        for v in order[-2:]:
            if f.degrees[v] == n - 1:
                return {"ordering": order, "dominant_vertex": v}
    return None


def _four_king_violations(f: InstanceFacts) -> List[int]:
    """Vertices of a good instance with eccentricity above 4."""
    return [v for v, e in enumerate(f.eccs) if e > 4]


def _formula_mismatches(f: InstanceFacts) -> List[int]:
    """Vertices of a good instance whose distance sum misses the closed form."""
    formula = bp.formula_sigmas(f.c)
    return [v for v, s in enumerate(f.sigmas) if formula[v] != s]


def _constant_class_size(f: InstanceFacts) -> bool:
    return f.witness is None and bp.shared_value(f.mu) is not None


# ---------------------------------------------------------------------------
# The claims
# ---------------------------------------------------------------------------
#
# A claim binds its per-order constants once, giving a check over one
# InstanceFacts record; a claim without such constants is its own check.
# A check returns (bound_holds, observed, predicted): observed and
# predicted hold one bool per equality case (lower, upper for the two-sided
# windows), and the instance fails the claim unless the bound holds and
# both tuples agree.

Verdict = Tuple[bool, Tuple[bool, ...], Tuple[bool, ...]]
Check = Callable[[InstanceFacts], Verdict]


def _thm_2_1_pi(f: InstanceFacts) -> Verdict:
    n, smin = f.n, f.smin
    den = n - 1
    return (
        den <= smin and 2 * smin <= n * den,
        (smin == den, 2 * smin == n * den),
        # a strong digraph with every out-degree 1 is a dicycle
        (f.max_out == den, f.max_out == 1),
    )


def _thm_2_1_rho(f: InstanceFacts) -> Verdict:
    n, smax = f.n, f.smax
    den = n - 1
    return (
        den <= smax and 2 * smax <= n * den,
        (smax == den, 2 * smax == n * den),
        (f.min_out == den, max(f.eccs) == den),
    )


def _thm_2_2(n: int) -> Check:
    # rho - pi <= n/2 - 1 at denominator n-1: 2*spread <= (n-1)(n-2)
    cap = (n - 1) * (n - 2)

    def check(f: InstanceFacts) -> Verdict:
        spread2 = 2 * (f.smax - f.smin)
        return spread2 <= cap, (spread2 == cap,), (_thm22_certificate(f) is not None,)

    return check


def _prop_3_1(n: int) -> Check:
    full = (1 << n) - 1

    def check(f: InstanceFacts) -> Verdict:
        top = f.max_out
        rows = f.rows
        for v, d in enumerate(f.degrees):
            if d == top and reach_within(rows, v, 2) != full:
                return False, (), ()
        return True, (), ()

    return check


def _thm_3_2_pi(n: int) -> Check:
    # sigma_min between n and 3(n-1)/2 (odd) or (3n-4)/2 (even)
    cap = 3 * (n - 1) if n % 2 else 3 * n - 4
    lo, hi = _near_regular_window(n)

    def check(f: InstanceFacts) -> Verdict:
        smin = f.smin
        return (
            n <= smin and 2 * smin <= cap,
            (smin == n, 2 * smin == cap),
            (f.max_out == n - 2, lo <= f.min_out and f.max_out <= hi),
        )

    return check


def _thm_3_2_rho(n: int) -> Check:
    cap = 3 * (n - 1) if n % 2 else 3 * n - 2
    top = n * (n - 1)
    lo, hi = _near_regular_window(n)
    scores = _extremal_scores(n)

    def check(f: InstanceFacts) -> Verdict:
        smax2 = 2 * f.smax
        extremal = f.scores == scores and _follows_extremal_pattern(
            f.rows, next(_spanning_orders(f.rows, n, _long_starts(f)), None)
        )
        return (
            cap <= smax2 <= top,
            (smax2 == cap, smax2 == top),
            (lo <= f.min_out and f.max_out <= hi, extremal),
        )

    return check


def _thm_3_3(f: InstanceFacts) -> Verdict:
    # equal out-degrees force equal in-degrees in a tournament
    return True, (f.smin == f.smax,), (f.max_out == f.min_out,)


def _lem_3_4(f: InstanceFacts) -> Verdict:
    equal = f.smin == f.smax
    return True, (equal,), (equal and f.witness is None,)


def _lem_3_5(f: InstanceFacts) -> Verdict:
    return f.witness is not None or not _four_king_violations(f), (), ()


def _lem_3_6(f: InstanceFacts) -> Verdict:
    return f.witness is not None or not _formula_mismatches(f), (), ()


def _cor_3_7(f: InstanceFacts) -> Verdict:
    equal = f.smin == f.smax
    if f.witness is not None:
        return True, (equal,), (False,)
    constant = bp.shared_value(f.c) is not None
    # equality forces the per-part class/degree relations
    return not equal or constant, (equal,), (constant,)


def _cor_3_8(f: InstanceFacts) -> Verdict:
    equal = f.smin == f.smax
    if _constant_class_size(f):
        return True, (equal,), (bp.beats_half(f.rows, f.parts),)
    return True, (equal,), (equal,)


def _with_sigmas(f: InstanceFacts) -> dict:
    return {"sigmas": f.sigmas}


def _with_degrees(f: InstanceFacts) -> dict:
    return {"sigmas": f.sigmas, "degrees": f.degrees}


def _cor_3_7_evidence(f: InstanceFacts) -> dict:
    if f.witness is not None:
        return {"sigmas": f.sigmas, "bad": True}
    return {"sigmas": f.sigmas, "c_values": sorted(set(f.c))}


class Claim(NamedTuple):
    """One claim: ``bind(n)`` gives its check at order n; ``evidence`` is
    the certificate payload of a failing instance; the claim runs only at
    orders >= ``min_n``, and only on strong instances when ``strong``."""

    bind: Callable[[int], Check]
    evidence: Callable[[InstanceFacts], dict]
    min_n: int = 2
    strong: bool = True


CLAIMS: Dict[str, Claim] = {
    "thm-2.1-pi": Claim(lambda n: _thm_2_1_pi, _with_sigmas, 3),
    "thm-2.1-rho": Claim(lambda n: _thm_2_1_rho, _with_sigmas, 3),
    "thm-2.2": Claim(_thm_2_2, _with_sigmas),
    "prop-3.1": Claim(_prop_3_1, lambda f: {}, strong=False),
    "thm-3.2-pi": Claim(_thm_3_2_pi, _with_degrees, 3),
    "thm-3.2-rho": Claim(_thm_3_2_rho, _with_degrees, 3),
    "thm-3.3": Claim(lambda n: _thm_3_3, _with_degrees, 3),
    "lem-3.4": Claim(lambda n: _lem_3_4, _with_sigmas),
    "lem-3.5": Claim(lambda n: _lem_3_5, lambda f: {"eccs": f.eccs}),
    "lem-3.6": Claim(lambda n: _lem_3_6, _with_sigmas),
    "cor-3.7": Claim(lambda n: _cor_3_7, _cor_3_7_evidence),
    "cor-3.8": Claim(lambda n: _cor_3_8, _with_sigmas),
}


# ---------------------------------------------------------------------------
# Verifiers: reports over the claim checks
# ---------------------------------------------------------------------------

def _report(theorem: str, f: InstanceFacts, witnesses: dict, details: dict) -> VerificationReport:
    bound, observed, predicted = CLAIMS[theorem].bind(f.n)(f)
    if len(observed) == 2:
        details = {
            **details,
            "lower": {"observed": observed[0], "predicted": predicted[0]},
            "upper": {"observed": observed[1], "predicted": predicted[1]},
        }
    return VerificationReport(
        theorem=theorem,
        bound_holds=bound,
        equality_observed=True in observed or not observed,
        equality_predicted=True in predicted or not predicted,
        consistent=observed == predicted,
        witnesses=witnesses,
        details=details,
    )


def _require_tournament(D: Digraph) -> None:
    if not is_tournament(D):
        raise ValueError("claim applies to tournaments")


def _require_order(D: Digraph) -> None:
    if D.n < 3:
        raise ValueError(f"claim needs n >= 3, got {D.n}")


def _window_reports(pi_claim: str, rho_claim: str, f: InstanceFacts):
    """The proximity and remoteness window reports of one instance."""
    return (
        _report(pi_claim, f, {"prox_witness": f.sigmas.index(f.smin)}, {"proximity": [f.smin, f.n - 1]}),
        _report(rho_claim, f, {"rem_witness": f.sigmas.index(f.smax)}, {"remoteness": [f.smax, f.n - 1]}),
    )


def verify_thm_2_1(D: Digraph) -> Tuple[VerificationReport, VerificationReport]:
    _require_strong(D)
    _require_order(D)
    rep_pi, rep_rho = _window_reports("thm-2.1-pi", "thm-2.1-rho", _strong_facts(D))
    if rep_rho.details["upper"]["predicted"]:
        rep_rho.witnesses["ordering"] = spanning_path_ordering(D)
    return rep_pi, rep_rho


def verify_thm_2_2(D: Digraph) -> VerificationReport:
    _require_strong(D)
    if D.n < 2:
        raise ValueError("claim needs n >= 2")
    f = _strong_facts(D)
    return _report("thm-2.2", f, _thm22_certificate(f) or {}, {"spread": [f.smax - f.smin, D.n - 1]})


def verify_prop_3_1(D: Digraph) -> VerificationReport:
    _require_tournament(D)
    f = InstanceFacts(D.n).load(D.rows, None, None)
    leaders = [v for v, d in enumerate(f.degrees) if d == f.max_out]
    return _report(
        "prop-3.1",
        f,
        {"max_out_degree_vertices": leaders, "violations": [v for v in leaders if not is_p_king(D, v, 2)]},
        {"max_out_degree": f.max_out},
    )


def verify_thm_3_2(D: Digraph) -> Tuple[VerificationReport, VerificationReport]:
    _require_tournament(D)
    _require_strong(D)
    _require_order(D)
    return _window_reports("thm-3.2-pi", "thm-3.2-rho", _strong_facts(D))


def verify_thm_3_3(D: Digraph) -> VerificationReport:
    _require_tournament(D)
    _require_strong(D)
    f = _strong_facts(D)
    return _report("thm-3.3", f, {}, {"sigma_min": f.smin, "sigma_max": f.smax})


# ---------------------------------------------------------------------------
# Bipartite claims
# ---------------------------------------------------------------------------

def _bipartite_facts(D: Digraph) -> InstanceFacts:
    structure = bp.require_bipartite_tournament(D)
    _require_strong(D)
    return _strong_facts(D, structure.parts)


def _bad_witness(f: InstanceFacts) -> dict:
    return {"bad_witness": f.witness} if f.witness else {}


def verify_lem_3_4(D: Digraph) -> VerificationReport:
    f = _bipartite_facts(D)
    return _report("lem-3.4", f, _bad_witness(f), {"applicable": f.witness is not None})


def verify_lem_3_5(D: Digraph) -> VerificationReport:
    f = _bipartite_facts(D)
    good = f.witness is None
    return _report(
        "lem-3.5",
        f,
        {"violations": _four_king_violations(f) if good else []},
        {"applicable": good, "max_ecc": max(f.eccs)},
    )


def verify_lem_3_6(D: Digraph) -> VerificationReport:
    f = _bipartite_facts(D)
    good = f.witness is None
    mismatches = []
    for v in _formula_mismatches(f) if good else ():
        formula = bp.formula_sigmas(f.c)[v]
        mismatches.append({"vertex": v, "formula": formula, "bfs": f.sigmas[v]})
    return _report("lem-3.6", f, {"mismatches": mismatches}, {"applicable": good})


def verify_cor_3_7(D: Digraph) -> VerificationReport:
    f = _bipartite_facts(D)
    good = f.witness is None
    constant = bp.shared_value(f.c) if good else None
    return _report("cor-3.7", f, _bad_witness(f), {"good": good, "constant_c": constant})


def verify_cor_3_8(D: Digraph) -> VerificationReport:
    f = _bipartite_facts(D)
    return _report("cor-3.8", f, {}, {"applicable": _constant_class_size(f)})


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
    checks: Dict[str, bool] = {}
    if kind == "hub":
        if c is None:
            c = n - 1
        D = hub_digraph(n, c)
        sigmas, eccs = sigma_ecc_vectors(D)
        rad, diam = min(eccs), max(eccs)
        rho = Fraction(max(sigmas), n - 1)
        checks["rad_is_1"] = rad == 1
        checks["diam_is_n_minus_1"] = diam == n - 1
        checks["rho_is_half_n"] = rho == Fraction(n, 2)
        if n >= 4:
            checks["diam_gt_2_rad"] = diam > 2 * rad
        if n >= 3:
            checks["rad_lt_rho"] = Fraction(rad) < rho
    elif kind == "dicycle":
        D = make_dicycle(n)
        sigmas, eccs = sigma_ecc_vectors(D)
        rad = min(eccs)
        rho = Fraction(max(sigmas), n - 1)
        checks["rad_is_n_minus_1"] = rad == n - 1
        if n >= 3:
            checks["rad_gt_rho"] = Fraction(rad) > rho
            checks["rad_gt_half_n"] = rad > n // 2
        singleton = True
        for v in range(n):
            layers = distance_layers(D.rows, n, v)
            if any(l.bit_count() != 1 for l in layers[1 : n - 1]):
                singleton = False
        checks["one_vertex_per_layer"] = singleton
    else:
        raise ValueError(f"kind must be 'hub' or 'dicycle', got {kind!r}")
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


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

Verifier = Callable[[Digraph], List[VerificationReport]]

#: The reference verifiers: one report list per claim on one Digraph.
THEOREMS: Dict[str, Verifier] = {
    "thm-2.1-pi": lambda D: [verify_thm_2_1(D)[0]],
    "thm-2.1-rho": lambda D: [verify_thm_2_1(D)[1]],
    "thm-2.2": lambda D: [verify_thm_2_2(D)],
    "prop-3.1": lambda D: [verify_prop_3_1(D)],
    "thm-3.2-pi": lambda D: [verify_thm_3_2(D)[0]],
    "thm-3.2-rho": lambda D: [verify_thm_3_2(D)[1]],
    "thm-3.3": lambda D: [verify_thm_3_3(D)],
    "lem-3.4": lambda D: [verify_lem_3_4(D)],
    "lem-3.5": lambda D: [verify_lem_3_5(D)],
    "lem-3.6": lambda D: [verify_lem_3_6(D)],
    "cor-3.7": lambda D: [verify_cor_3_7(D)],
    "cor-3.8": lambda D: [verify_cor_3_8(D)],
}
