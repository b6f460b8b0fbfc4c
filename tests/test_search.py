import importlib
import math
import time
import tracemalloc
from functools import lru_cache
from itertools import combinations, islice, permutations, product
from random import Random

import pytest

from proxrem.canonical import _leaf_key, are_isomorphic, canonical_form
from proxrem.constructions import bipartite_T1, dicycle, extremal_tournament, fig1_graph
from proxrem.digraph import Digraph, distance_sums, is_regular, is_strong, permute
from proxrem.formats import read_digraph6, write_digraph6
from proxrem.metrics import Lanes, sigma_ecc_vectors
from proxrem.search import (
    SearchQuery,
    enumerate_class,
    exhaustive_verify,
    random_graph_with_degrees,
    rediscover_sigma_equal_graph,
    resolve_theorems,
    search,
    shard_range,
    total_count,
)
from proxrem.verifiers import CLAIMS, THEOREM_ALIASES, THEOREMS, InstanceFacts

from oracles import (
    bipartite_facts_oracle,
    bipartite_orbit_count,
    brute_isomorphic,
    fw_metrics,
    gray_order_oracle,
    is_regular_oracle,
    is_tournament_oracle,
    quadratic_residue_tournament,
    rotational_tournament,
    sample_strong_digraph,
)
from test_metrics import kernel_runs  # noqa: F401  (a fixture)

search_mod = importlib.import_module("proxrem.search")
canonical_mod = importlib.import_module("proxrem.canonical")


def complete_digraph(n):
    return Digraph(n, [((1 << n) - 1) ^ (1 << v) for v in range(n)])


#: Single-cell inputs: colour refinement leaves every vertex in one cell.
VERTEX_TRANSITIVE = [
    ("dicycle11", dicycle(11)),
    ("rot7", rotational_tournament(7)),
    ("rot9", rotational_tournament(9)),
    ("rot11", rotational_tournament(11)),
    ("qr7", quadratic_residue_tournament(7)),
    ("qr11", quadratic_residue_tournament(11)),
    ("complete10", complete_digraph(10)),
    ("empty10", Digraph(10, [0] * 10)),
]


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_class("tournaments", 3)) == 8
        assert sum(1 for _ in enumerate_class("all_digraphs", 2)) == 4
        assert sum(1 for _ in enumerate_class("bipartite_tournaments", parts=(2, 2))) == 16
        assert sum(1 for _ in enumerate_class("symmetric_digraphs", 3)) == 8

    def test_members_unique(self):
        seen = set(D.rows for D in enumerate_class("all_digraphs", 3))
        assert len(seen) == total_count("all_digraphs", 3) == 64

    def test_gray_adjacency(self):
        prev = None
        for D in enumerate_class("all_digraphs", 3):
            if prev is not None:
                diff = sum((a ^ b).bit_count() for a, b in zip(prev, D.rows))
                assert diff == 1
            prev = D.rows
        prev = None
        for D in enumerate_class("tournaments", 4):
            if prev is not None:
                diff = sum((a ^ b).bit_count() for a, b in zip(prev, D.rows))
                assert diff == 2  # one pair reorients
            prev = D.rows

    def test_shards_partition(self):
        full = [D.rows for D in enumerate_class("tournaments", 4)]
        pieces = []
        for i in range(3):
            pieces.extend(D.rows for D in enumerate_class("tournaments", 4, shard=(i, 3)))
        assert pieces == full

    def test_ceilings(self):
        with pytest.raises(ValueError, match="randomized"):
            list(enumerate_class("all_digraphs", 6))
        with pytest.raises(ValueError, match="randomized"):
            list(enumerate_class("bipartite_tournaments", parts=(5, 6)))

    @pytest.mark.parametrize(
        "run",
        [
            lambda cls, size: list(enumerate_class(cls, **size)),
            lambda cls, size: exhaustive_verify("lem-3.4" if "parts" in size else "thm-3.3", cls, **size),
            lambda cls, size: search(SearchQuery(cls, **size)),
        ],
        ids=["enumerate_class", "exhaustive_verify", "search"],
    )
    @pytest.mark.parametrize(
        "cls, size, named",
        [
            ("tournaments", {}, "needs an order n, got n=None"),
            ("bipartite_tournaments", {}, r"needs parts=\(a, b\), two part sizes, got parts=None"),
            ("bipartite_tournaments", {"parts": (2,)}, r"two part sizes, got parts=\(2,\)"),
            ("bipartite_tournaments", {"parts": (2, 2, 2)}, r"two part sizes, got parts=\(2, 2, 2\)"),
            ("bipartite_tournaments", {"parts": (-1, -30)}, r"needs two nonempty parts, got parts=\(-1, -30\)"),
        ],
        ids=["no-n", "no-parts", "one-part", "three-parts", "negative-parts"],
    )
    def test_a_missing_size_is_named(self, run, cls, size, named):
        """A missing order, a parts tuple that is not two sizes, or part sizes
        below 1 (here with a product above the ceiling) are named, not
        reported as a ceiling overflow or an unpacking error."""
        with pytest.raises(ValueError, match=named) as raised:
            run(cls, size)
        assert "randomized" not in str(raised.value)

    def test_strong_tournament_count_n4(self):
        assert sum(1 for D in enumerate_class("tournaments", 4) if is_strong(D)) == 24

    def test_shard_range_bounds(self):
        assert shard_range(10, 0, 3) == (0, 3)
        assert shard_range(10, 2, 3) == (6, 10)
        with pytest.raises(ValueError):
            shard_range(10, 3, 3)


class TestCanonicalForm:
    def test_permutation_invariance(self):
        rng = Random(42)
        for _ in range(20):
            D = sample_strong_digraph(rng.randint(2, 5), rng)
            base = canonical_form(D)
            for _ in range(5):
                perm = list(range(D.n))
                rng.shuffle(perm)
                assert canonical_form(permute(D, perm)) == base

    def test_hundred_permutations_one_instance(self):
        rng = Random(77)
        D = sample_strong_digraph(5, rng)
        base = canonical_form(D)
        for _ in range(100):
            perm = list(range(5))
            rng.shuffle(perm)
            assert canonical_form(permute(D, perm)) == base

    def test_distinguishes_triangles(self):
        cyclic = dicycle(3)
        transitive = Digraph(3, (0b110, 0b100, 0))
        assert canonical_form(cyclic) != canonical_form(transitive)

    def test_dicycle_reversal_isomorphic(self):
        assert canonical_form(dicycle(4)) == canonical_form(dicycle(4).reverse())

    def test_equal_forms_iff_isomorphic_exhaustive_n3(self):
        members = list(enumerate_class("all_digraphs", 3))
        forms = [canonical_form(D).bytes for D in members]
        for i in range(0, len(members), 7):
            for j in range(0, len(members), 11):
                assert (forms[i] == forms[j]) == brute_isomorphic(members[i], members[j])

    def test_part_respecting(self):
        D = next(iter(enumerate_class("bipartite_tournaments", parts=(2, 2))))
        perm = [1, 0, 3, 2]
        assert canonical_form(permute(D, perm)) == canonical_form(D)

    def test_ceiling(self):
        with pytest.raises(ValueError, match="capped"):
            canonical_form(Digraph(28, (0,) * 28))

    def test_single_cell_input_above_ten_factorial_labelings(self):
        # Refinement cannot split a vertex-transitive digraph: 11! labelings.
        assert canonical_form(dicycle(11)) == canonical_form(permute(dicycle(11), list(range(10, -1, -1))))

    @pytest.mark.parametrize("name, D", VERTEX_TRANSITIVE)
    def test_relabeling_invariance_on_single_cell_inputs(self, name, D):
        rng = Random(D.n)
        base = canonical_form(D)
        for _ in range(5):
            perm = list(range(D.n))
            rng.shuffle(perm)
            assert canonical_form(permute(D, perm)) == base
        # The form is the matrix of a relabeling of D, so it is its own form.
        bits = int.from_bytes(base.bytes, "big") >> (len(base.bytes) * 8 - D.n * D.n)
        rows = [(bits >> (D.n * (D.n - 1 - i))) & ((1 << D.n) - 1) for i in range(D.n)]
        relabeled = Digraph(D.n, [sum(1 << (D.n - 1 - j) for j in range(D.n) if r >> j & 1) for r in rows])
        assert canonical_form(relabeled) == base
        assert relabeled.m == D.m

    def test_orbit_pruning_uses_only_the_prefix_stabilizer(self):
        # (0 1)(2 3) moves the individualized vertex 0, so below it 2 and 3
        # need not share an orbit; (2 3) alone fixes 0.
        reached = {2}
        canonical_mod._close_orbits(reached, [[1, 0, 3, 2]], [0])
        assert reached == {2}
        canonical_mod._close_orbits(reached, [[1, 0, 3, 2], [0, 1, 3, 2]], [0])
        assert reached == {2, 3}

    def test_regular_tournaments_of_order_seven_are_told_apart(self):
        # QR7 and the rotational tournament are the two vertex-transitive
        # tournaments on 7 vertices; they are not isomorphic.
        qr7, rot7 = quadratic_residue_tournament(7), rotational_tournament(7)
        assert not brute_isomorphic(qr7, rot7)
        assert canonical_form(qr7) != canonical_form(rot7)

    @pytest.mark.parametrize(
        "name, D, limit_s",
        [(name, D, 0.05) for name, D in VERTEX_TRANSITIVE if name.startswith(("rot", "qr"))]
        + [("complete16", complete_digraph(16), 1.0)],
    )
    def test_hard_inputs_are_fast(self, name, D, limit_s):
        # Best of three, so a descheduled run on a shared host does not count.
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            canonical_form(D)
            best = min(best, time.perf_counter() - t0)
        assert best <= limit_s

    @pytest.mark.parametrize(
        "cls, n, parts, classes",
        [
            ("all_digraphs", 4, None, 218),  # OEIS A000273
            ("tournaments", 6, None, 56),  # OEIS A000568
            ("symmetric_digraphs", 6, None, 156),  # OEIS A000088
            # Recorded with an all-permutations search.
            ("bipartite_tournaments", None, (2, 3), 13),
            ("bipartite_tournaments", None, (3, 3), 18),
            ("bipartite_tournaments", None, (2, 4), 22),
        ],
    )
    def test_exact_class_counts(self, cls, n, parts, classes):
        # Form classes always refine the isomorphism classes, so matching the
        # true class count proves the partition exact on the whole class.
        forms = {canonical_form(D).bytes for D in enumerate_class(cls, n, parts)}
        assert len(forms) == classes
        if parts is not None:
            assert bipartite_orbit_count(*parts) == classes

    @pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 13) for b in range(a, 13) if a * b <= 12])
    def test_bipartite_class_counts_match_the_orbit_count(self, a, b):
        # Isomorphisms keep the parts (the components of non-adjacency), so
        # plain forms count the orbits of S_a x S_b, with the swap when a = b.
        forms = {canonical_form(D).bytes for D in enumerate_class("bipartite_tournaments", parts=(a, b))}
        assert len(forms) == bipartite_orbit_count(a, b)

    def test_equal_size_parts_trade_places(self):
        parts = ((0, 1, 2), (3, 4, 5))
        D = next(
            D
            for D in enumerate_class("bipartite_tournaments", parts=(3, 3))
            if sorted(D.out_degree(v) for v in parts[0])
            != sorted(D.out_degree(v) for v in parts[1])
        )
        swapped = permute(D, [4, 3, 5, 1, 2, 0])
        assert swapped != D
        assert canonical_form(swapped) == canonical_form(D)

    def test_order_twelve_tournament(self):
        T = extremal_tournament(12)
        perm = list(range(12))
        Random(12).shuffle(perm)
        assert canonical_form(permute(T, perm)) == canonical_form(T)

    def test_permutation_invariance_up_to_order_ten(self):
        rng = Random(10)
        instances = [sample_strong_digraph(n, rng) for n in range(2, 11) for _ in range(3)]
        instances += [bipartite_T1(), fig1_graph()]
        for D in instances:
            base = canonical_form(D)
            for _ in range(3):
                perm = list(range(D.n))
                rng.shuffle(perm)
                assert canonical_form(permute(D, perm)) == base


class TestAreIsomorphic:
    def test_agrees_with_brute_force(self):
        rng = Random(5)
        for _ in range(40):
            n = rng.randint(2, 5)
            A = sample_strong_digraph(n, rng)
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                B = permute(A, perm)
            else:
                B = sample_strong_digraph(n, rng)
            assert are_isomorphic(A, B) == brute_isomorphic(A, B)

    def test_fig1_self(self):
        perm = [4, 2, 0, 5, 3, 1, 8, 7, 6]
        assert are_isomorphic(fig1_graph(), permute(fig1_graph(), perm))


class TestSearch:
    def test_regular_tournaments_n5(self):
        q = SearchQuery(cls="tournaments", n=5, predicates=("strong", "pi_eq_rho"))
        result = search(q)
        assert result.scanned == 1024
        assert len(result.matches) == 24
        for d6, rep in result.matches:
            D = read_digraph6(d6)
            assert is_regular(D)
            assert rep is not None and rep.proximity == rep.remoteness

    def test_rho_extremal_digraphs_have_long_ecc(self):
        q = SearchQuery(cls="all_digraphs", n=4, predicates=("strong", "rho_eq_half_n"))
        result = search(q)
        assert result.matches
        for d6, _ in result.matches:
            D = read_digraph6(d6)
            _, eccs = sigma_ecc_vectors(D)
            assert max(eccs) == 3

    def test_predicate_soundness_pi_eq_rho(self):
        q = SearchQuery(cls="tournaments", n=5, predicates=("strong", "pi_eq_rho"))
        got = {d6 for d6, _ in search(q).matches}
        want = set()
        from proxrem.formats import write_digraph6

        for D in enumerate_class("tournaments", 5):
            if is_strong(D):
                sigmas, _ = sigma_ecc_vectors(D)
                if min(sigmas) == max(sigmas):
                    want.add(write_digraph6(D))
        assert got == want

    def test_dedup_and_limit(self):
        q = SearchQuery(cls="tournaments", n=5, predicates=("strong", "pi_eq_rho"), dedup="canonical")
        result = search(q)
        assert len(result.matches) == 1
        assert result.dedup_stats == {"labeled_matches": 24, "classes": 1}
        q = SearchQuery(cls="tournaments", n=5, predicates=("strong", "pi_eq_rho"), limit=5)
        assert len(search(q).matches) == 5

    @pytest.mark.parametrize("parts", [(2, 3), (3, 3)])
    def test_bipartite_dedup_counts_the_orbits(self, parts):
        result = search(SearchQuery("bipartite_tournaments", parts=parts, dedup="canonical"))
        assert result.dedup_stats == {
            "labeled_matches": 2 ** (parts[0] * parts[1]),
            "classes": bipartite_orbit_count(*parts),
        }

    def test_unknown_dedup_rejected(self):
        q = SearchQuery(cls="tournaments", n=4, predicates=("strong",), dedup="canonicl")
        with pytest.raises(ValueError, match="unknown dedup 'canonicl'"):
            search(q)

    def test_degree_predicates_build_no_digraph_per_instance(self, monkeypatch):
        built = []

        class Counted(Digraph):
            __slots__ = ()

            def __init__(self, n, rows):
                built.append(n)
                super().__init__(n, rows)

        want = sorted(
            write_digraph6(D) for D in enumerate_class("all_digraphs", 4) if is_regular_oracle(D) and is_strong(D)
        )
        monkeypatch.setattr(search_mod, "Digraph", Counted)
        result = search(SearchQuery("all_digraphs", 4, predicates=("regular", "strong")))
        assert [d6 for d6, _ in result.matches] == want and len(want) == 16
        assert len(built) == 16  # one per match, for its digraph6 string

    @pytest.mark.parametrize("cls, n", [("all_digraphs", 3), ("all_digraphs", 4), ("tournaments", 5)])
    @pytest.mark.parametrize("predicate", ["tournament", "regular", "non_regular"])
    def test_degree_predicates_agree_with_the_digraph_tests(self, cls, n, predicate):
        oracle = {
            "tournament": is_tournament_oracle,
            "regular": is_regular_oracle,
            "non_regular": lambda D: not is_regular_oracle(D),
        }[predicate]
        result = search(SearchQuery(cls, n, predicates=(predicate,)))
        want = sorted(write_digraph6(D) for D in enumerate_class(cls, n) if oracle(D))
        assert [d6 for d6, _ in result.matches] == want

    def test_shard_invariance(self):
        queries = [
            SearchQuery(cls="tournaments", n=5, predicates=("strong", "pi_eq_rho"), shards=k)
            for k in (1, 2, 8)
        ]
        outputs = [[d6 for d6, _ in search(q).matches] for q in queries]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_good_predicate_needs_bipartite(self):
        with pytest.raises(ValueError, match="bipartite"):
            search(SearchQuery(cls="tournaments", n=4, predicates=("good",)))

    def test_unknown_predicate(self):
        with pytest.raises(ValueError, match="unknown predicate"):
            search(SearchQuery(cls="tournaments", n=4, predicates=("sparkly",)))

    def test_bipartite_good_equality_search(self):
        q = SearchQuery(
            cls="bipartite_tournaments",
            parts=(2, 2),
            predicates=("strong", "good", "pi_eq_rho"),
        )
        result = search(q)
        assert result.matches
        for d6, rep in result.matches:
            D = read_digraph6(d6)
            assert bipartite_facts_oracle(D).bad is None
            assert rep.proximity == rep.remoteness


class TestExhaustiveVerify:
    def test_aliases(self):
        assert resolve_theorems(["thm-2.1"]) == ("thm-2.1-pi", "thm-2.1-rho")
        assert resolve_theorems(["thm-3.2", "thm-3.3"]) == (
            "thm-3.2-pi",
            "thm-3.2-rho",
            "thm-3.3",
        )
        with pytest.raises(ValueError, match="unknown claim"):
            resolve_theorems(["thm-9.9"])

    def test_small_runs_pass(self):
        assert exhaustive_verify("thm-2.1", "all_digraphs", n=4).passed
        assert exhaustive_verify("thm-3.3", "tournaments", n=5).passed
        assert exhaustive_verify("lem-3.4", "bipartite_tournaments", parts=(3, 3)).passed

    def test_fast_scanner_matches_generic_all_digraphs_n4(self):
        fast = exhaustive_verify("thm-2.1", "all_digraphs", n=4)
        slow_fails = {"thm-2.1-pi": 0, "thm-2.1-rho": 0}
        strong = 0
        for D in enumerate_class("all_digraphs", 4):
            if not is_strong(D):
                continue
            strong += 1
            for tid in slow_fails:
                for rep in THEOREMS[tid](D):
                    if not rep.ok:
                        slow_fails[tid] += 1
        assert fast.strong_count == strong
        assert fast.failure_counts == slow_fails

    def test_fast_scanner_matches_generic_tournaments_n4(self):
        # n=4 exposes the even-order remoteness gap: both routes must count
        # exactly the same failures, instance for instance
        fast = exhaustive_verify(["thm-3.2-rho"], "tournaments", n=4)
        slow = 0
        for D in enumerate_class("tournaments", 4):
            if is_strong(D) and not THEOREMS["thm-3.2-rho"](D)[0].ok:
                slow += 1
        assert fast.failure_counts["thm-3.2-rho"] == slow == 24
        assert {c["digraph6"] for c in fast.certificates} == {
            c for c in _slow_failing_d6()
        }

    def test_fast_scanner_matches_generic_bipartite(self):
        fast = exhaustive_verify(
            ["lem-3.4", "lem-3.5", "lem-3.6", "cor-3.7", "cor-3.8"],
            "bipartite_tournaments",
            parts=(2, 3),
        )
        for tid in fast.failure_counts:
            slow = 0
            for D in enumerate_class("bipartite_tournaments", parts=(2, 3)):
                if is_strong(D) and any(not r.ok for r in THEOREMS[tid](D)):
                    slow += 1
            assert fast.failure_counts[tid] == slow

    def test_shard_invariance(self):
        a = exhaustive_verify("thm-2.1", "all_digraphs", n=4, shards=1)
        b = exhaustive_verify("thm-2.1", "all_digraphs", n=4, shards=4)
        assert a.failure_counts == b.failure_counts
        assert a.scanned == b.scanned and a.strong_count == b.strong_count


    @pytest.mark.parametrize("cls", ["all_digraphs", "tournaments", "symmetric_digraphs"])
    @pytest.mark.parametrize("claims", [["thm-2.1", "thm-2.2"], ["thm-3.2", "thm-3.3", "prop-3.1"]])
    def test_order_one_is_one_strong_instance(self, cls, claims):
        # A single vertex counts as strong on the table-driven scan and on the
        # reference path, and every claim needs at least two vertices.  The
        # tournament claims apply to no other class.
        if cls != "tournaments" and "thm-3.2" in claims:
            with pytest.raises(ValueError, match="applies to tournaments"):
                exhaustive_verify(claims, cls, n=1)
            return
        r = exhaustive_verify(claims, cls, n=1)
        assert (r.scanned, r.strong_count, r.checked) == (1, 1, 0)

    @pytest.mark.parametrize(
        "cls, size",
        [
            ("all_digraphs", 1), ("all_digraphs", 3), ("tournaments", 1), ("tournaments", 4),
            ("symmetric_digraphs", 1), ("symmetric_digraphs", 4),
            ("bipartite_tournaments", (1, 1)), ("bipartite_tournaments", (2, 3)),
        ],
        ids=lambda v: str(v).replace(" ", ""),
    )
    @pytest.mark.parametrize("claim", sorted(CLAIMS) + sorted(THEOREM_ALIASES))
    def test_a_claim_applies_to_all_digraphs_or_to_its_own_domain(self, claim, cls, size):
        """A claim on all digraphs runs on every class, on the table-driven
        scan in all_digraphs and on the reference path elsewhere; any other
        claim runs only on its own domain, on the table-driven scan, and is
        rejected up front on every other class, whatever the order."""
        # the class the paper states the claim on
        domain = (
            "all_digraphs" if claim.startswith("thm-2.")
            else "tournaments" if claim.startswith(("thm-3.", "prop-3."))
            else "bipartite_tournaments"
        )
        n, parts = (None, size) if cls == "bipartite_tournaments" else (size, None)
        if domain not in ("all_digraphs", cls):
            with pytest.raises(ValueError, match=f"claim {claim}.* applies to {domain}, not {cls}"):
                exhaustive_verify(claim, cls, n=n, parts=parts)
            return
        r = exhaustive_verify(claim, cls, n=n, parts=parts)
        members = list(enumerate_class(cls, n=n, parts=parts))
        assert (r.scanned, r.strong_count) == (len(members), sum(map(is_strong, members)))
        runs = [t for t in resolve_theorems([claim]) if members[0].n >= CLAIMS[t].min_n]
        if domain != cls:  # the reference path: one check per claim and strong instance
            assert r.checked == len(runs) * r.strong_count
        elif runs:  # the table-driven scan: one per instance a check runs on
            assert r.checked == (r.scanned if claim == "prop-3.1" else r.strong_count)
        else:
            assert r.checked == 0

    @pytest.mark.parametrize("claim", sorted(CLAIMS))
    def test_reference_and_scan_agree_on_minimum_order(self, claim):
        min_n = CLAIMS[claim].min_n
        if claim in resolve_theorems(["lem-3.4", "lem-3.5", "lem-3.6", "cor-3.7", "cor-3.8"]):
            # every bipartite tournament has at least two vertices
            assert min_n <= 2
            return
        cls = "all_digraphs" if claim in resolve_theorems(["thm-2.1", "thm-2.2"]) else "tournaments"
        refused = 0
        for n in range(1, min_n):
            for D in enumerate_class(cls, n):
                if is_strong(D):
                    with pytest.raises(ValueError, match=f"claim needs n >= {min_n}, got {n}"):
                        THEOREMS[claim](D)
                    refused += 1
            assert exhaustive_verify(claim, cls, n=n).checked == 0
        assert refused >= 1  # the 1-vertex digraph at least

    def test_checked_counts_instances_a_claim_ran_on(self):
        # Without prop-3.1 no tournament claim runs on a non-strong instance.
        r = exhaustive_verify(["thm-3.2", "thm-3.3"], "tournaments", n=5)
        assert r.checked == r.strong_count < r.scanned
        r = exhaustive_verify(["thm-3.3", "prop-3.1"], "tournaments", n=5)
        assert r.checked == r.scanned
        # The reference path counts one per (claim, instance) pair.
        r = exhaustive_verify(["thm-2.1", "thm-2.2"], "symmetric_digraphs", n=4)
        assert r.checked == 3 * r.strong_count

    def test_a_non_strong_claim_on_the_reference_path(self):
        """thm-2.2 is not stated on tournaments, so this takes the reference
        path, which runs prop-3.1 too, on the strong instances only: one check
        per claim and strong tournament (544 labeled strong 5-tournaments,
        OEIS A054946), whatever the shard count.  The table path runs
        prop-3.1 on every tournament."""
        runs = [exhaustive_verify(["thm-2.2", "prop-3.1"], "tournaments", n=5, shards=k) for k in (1, 3)]
        one, three = ({**r.as_json_dict(), "elapsed_seconds": None} for r in runs)
        assert one == three
        assert (one["scanned"], one["strong"], one["checked"]) == (1024, 544, 2 * 544)
        assert one["failure_counts"] == {"thm-2.2": 0, "prop-3.1": 0} and one["certificates"] == []
        assert exhaustive_verify("prop-3.1", "tournaments", n=5).checked == 1024

    @pytest.mark.parametrize(
        "claims, cls, n, failing",
        [
            (["thm-2.1", "thm-2.2"], "all_digraphs", 3, 0),
            (["thm-2.1", "thm-2.2"], "all_digraphs", 4, 0),
            (["thm-3.2", "thm-3.3"], "tournaments", 5, 0),
            (["thm-3.2", "thm-3.3"], "tournaments", 6, 3600),
            (["thm-3.2", "thm-3.3", "prop-3.1"], "tournaments", 6, 3600),
            (["prop-3.1"], "tournaments", 6, 0),
        ],
    )
    def test_claim_scan_loads_only_failing_instances(self, facts_built, claims, cls, n, failing):
        # Every lane test of these claims is exact on strong lanes (thm-2.2's
        # and thm-3.2-rho's structural sides included), and prop-3.1's on
        # every lane, so the scalar check loads exactly the instances that
        # fail some claim.
        r = exhaustive_verify(claims, cls, n=n)
        loads = [rows for rows, _, _ in facts_built]
        assert len(loads) == len(set(loads)) == sum(r.failure_counts.values()) == failing
        for rows in loads:
            sigmas, eccs = distance_sums(rows, n)
            facts = InstanceFacts(rows, sigmas, eccs if sigmas is not None else None)
            verdicts = [CLAIMS[t].check(facts) for t in r.theorems]
            assert not all(bound and observed == predicted for bound, observed, predicted in verdicts), rows

    @pytest.mark.parametrize("parts, good", [((2, 3), 6), ((3, 3), 30), ((3, 4), 114)], ids=["2-3", "3-3", "3-4"])
    def test_bipartite_claim_scan_loads_no_instance(self, facts_built, parts, good):
        # The bipartite lane tests are exact on good strong lanes as on bad
        # ones, so the scalar check loads exactly the failing instances: none,
        # though the class has good strong instances.
        r = exhaustive_verify(
            ["lem-3.4", "lem-3.5", "lem-3.6", "cor-3.7", "cor-3.8"], "bipartite_tournaments", parts=parts
        )
        goods = [
            D
            for D in enumerate_class("bipartite_tournaments", parts=parts)
            if fw_metrics(D) is not None and bipartite_facts_oracle(D).bad is None
        ]
        assert len(goods) == good
        assert len(facts_built) == sum(r.failure_counts.values()) == 0


@pytest.fixture
def facts_built(monkeypatch):
    """The (rows, sigmas, eccs) of each ``InstanceFacts`` record built while
    the test runs, in order."""
    built = []
    init = InstanceFacts.__init__

    def recorded(self, rows, sigmas, eccs, parts=None):
        built.append((tuple(rows), sigmas, eccs))
        init(self, rows, sigmas, eccs, parts)

    monkeypatch.setattr(InstanceFacts, "__init__", recorded)
    return built


@pytest.fixture
def no_clean_lanes(monkeypatch):
    """Every claim's lane verdict marks no lane sure, so the claim scan sends
    every instance it checks to the scalar ``CLAIMS`` check.  The observed
    masks stay, for search's equality predicates."""
    for t, claim in list(CLAIMS.items()):
        monkeypatch.setitem(CLAIMS, t, claim._replace(lanes=lambda f, lanes=claim.lanes: (0, *lanes(f)[1:])))


def _passes_screen(rows):
    """No vertex without an out-arc or an in-arc, written as quantifiers."""
    n = len(rows)
    return all(
        any((rows[u] >> v) & 1 for v in range(n)) and any((rows[v] >> u) & 1 for v in range(n))
        for u in range(n)
    )


def _symmetric_rows(n):
    """Every labeled symmetric digraph on n vertices, as row tuples."""
    pairs = list(combinations(range(n), 2))
    out = []
    for k in range(len(pairs) + 1):
        for edges in combinations(pairs, k):
            rows = [0] * n
            for u, v in edges:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            out.append(tuple(rows))
    return out


class TestStrongnessScreen:
    """The one scan loop skips the kernel on instances the O(n) screen rules
    out, for search, the claim scan of strong-only claims and the reference
    path alike.  A claim scan with prop-3.1, which sees every instance, runs
    the kernel on every instance and reads strongness from it.  Either way
    the kernel runs at most once per instance."""

    def test_reference_path_runs_the_kernel_once_per_screened_instance(self, kernel_runs):
        instances = _symmetric_rows(5)
        assert len(instances) == 1024
        screened = [rows for rows in instances if _passes_screen(rows)]
        r = exhaustive_verify(["thm-2.1", "thm-2.2"], "symmetric_digraphs", n=5)
        assert sorted(kernel_runs) == sorted(screened)
        assert r.strong_count == sum(fw_metrics(Digraph(5, rows)) is not None for rows in screened)
        assert r.checked == 3 * r.strong_count

    @pytest.mark.parametrize(
        "cls, n, run",
        [
            ("tournaments", 5, lambda: exhaustive_verify(["thm-3.2", "thm-3.3"], "tournaments", n=5)),
            ("tournaments", 5, lambda: search(SearchQuery(cls="tournaments", n=5, predicates=("strong",), limit=0))),
            ("all_digraphs", 3, lambda: search(SearchQuery(cls="all_digraphs", n=3, predicates=("pi_eq_rho",), limit=0))),
        ],
        ids=["scan", "search-tournaments", "search-digraphs"],
    )
    def test_kernel_runs_once_per_screened_instance(self, kernel_runs, cls, n, run):
        run()
        screened = [D.rows for D in enumerate_class(cls, n) if _passes_screen(D.rows)]
        assert len(screened) < total_count(cls, n)
        assert sorted(kernel_runs) == sorted(screened)

    def test_kernel_runs_once_per_instance_of_a_scan_with_prop_3_1(self, kernel_runs):
        r = exhaustive_verify(["thm-3.2", "thm-3.3", "prop-3.1"], "tournaments", n=5)
        instances = [D.rows for D in enumerate_class("tournaments", 5)]
        assert sorted(kernel_runs) == sorted(instances)
        assert r.strong_count == sum(map(is_strong, enumerate_class("tournaments", 5))) < r.scanned

    def test_search_predicates_without_the_kernel_gate_it(self, kernel_runs):
        # limit=0: no match reports, which run the kernel of their own
        r = search(SearchQuery(cls="all_digraphs", n=3, predicates=("tournament",), limit=0))
        assert r.dedup_stats["labeled_matches"] == 8
        assert kernel_runs == []
        r = search(SearchQuery(cls="all_digraphs", n=3, predicates=("tournament", "strong"), limit=0))
        assert r.dedup_stats["labeled_matches"] == 2
        # Of the 8 tournaments only the two 3-cycles pass the screen.
        assert sorted(kernel_runs) == sorted(D.rows for D in enumerate_class("tournaments", 3) if is_strong(D))

    @pytest.mark.parametrize("n", [4, 6])
    def test_scan_loads_no_eccentricities_on_non_strong_instances(self, facts_built, no_clean_lanes, n):
        loads = facts_built
        r = exhaustive_verify(["thm-3.2", "thm-3.3", "prop-3.1"], "tournaments", n=n)
        assert len(loads) == r.checked == r.scanned
        not_strong = [rows for rows, sigmas, eccs in loads if sigmas is None]
        assert len(not_strong) == r.scanned - r.strong_count > 0
        assert all(eccs is None for _, sigmas, eccs in loads if sigmas is None)
        # Below order 6 the screen catches every non-strong tournament; at 6
        # a 3-cycle beating another 3-cycle passes it, and the kernel finds
        # it not strong.
        assert any(_passes_screen(rows) for rows in not_strong) == (n == 6)


#: Searches that together use every predicate: alone, as a gate before the
#: kernel, and as kernel predicates on every class.
SEARCH_PINS = [
    ("all_digraphs", 3, None, ("tournament",)),
    ("all_digraphs", 3, None, ("regular",)),
    ("all_digraphs", 3, None, ("tournament", "regular")),
    ("all_digraphs", 4, None, ("strong", "pi_eq_rho", "non_regular")),
    ("all_digraphs", 4, None, ("regular", "strong")),
    ("all_digraphs", 4, None, ("equality_thm_2_1_pi", "pi_ne_rho")),
    ("all_digraphs", 4, None, ("non_regular", "equality_thm_2_2")),
    ("tournaments", 6, None, ("strong", "equality_thm_3_2_rho")),
    ("tournaments", 5, None, ("tournament", "equality_thm_3_2_pi")),
    ("tournaments", 5, None, ("equality_thm_3_3", "regular")),
    ("symmetric_digraphs", 5, None, ("connected", "rho_eq_half_n")),
    ("symmetric_digraphs", 5, None, ("equality_thm_2_1_rho",)),
    ("symmetric_digraphs", 5, None, ("non_regular", "equality_thm_2_1_pi")),
    ("bipartite_tournaments", None, (3, 3), ("strong", "good")),
    ("bipartite_tournaments", None, (3, 3), ("bad", "pi_ne_rho")),
    ("bipartite_tournaments", None, (2, 3), ("good",)),
]

#: The predicates that need no kernel, by the oracles.
GATE_ORACLES = {
    "tournament": is_tournament_oracle,
    "regular": is_regular_oracle,
    "non_regular": lambda D: not is_regular_oracle(D),
    "good": lambda D: bipartite_facts_oracle(D).bad is None,
    "bad": lambda D: bipartite_facts_oracle(D).bad is not None,
}


def _pin_id(pin):
    cls, n, parts, predicates = pin
    return f"{cls}-{n or parts}-{'+'.join(predicates)}".replace(" ", "")


class TestLaneSearch:
    """Search decides on lanes: no per-instance facts, the kernel only on the
    screened lanes its gate passes, one Digraph per match, and the same
    output for every shard count."""

    def test_the_pins_use_every_predicate(self):
        assert {p for *_, predicates in SEARCH_PINS for p in predicates} == set(search_mod.PREDICATES)
        assert set(GATE_ORACLES) == {p for p, (kernel, _) in search_mod.PREDICATES.items() if not kernel}

    @pytest.mark.parametrize("pin", SEARCH_PINS, ids=_pin_id)
    def test_search_loads_no_instance_facts(self, facts_built, pin):
        """No ``InstanceFacts`` record: the predicates, ``equality_<claim>``
        included, read lane masks only."""
        cls, n, parts, predicates = pin
        r = search(SearchQuery(cls, n, parts, predicates=predicates, dedup="canonical"))
        assert r.dedup_stats["labeled_matches"] > 0
        assert facts_built == []

    @pytest.mark.parametrize("pin", SEARCH_PINS, ids=_pin_id)
    def test_kernel_runs_on_the_screened_lanes_the_gate_passes(self, kernel_runs, pin):
        """limit=0: no match report, which runs the kernel of its own."""
        cls, n, parts, predicates = pin
        r = search(SearchQuery(cls, n, parts, predicates=predicates, limit=0))
        gates = [GATE_ORACLES[p] for p in predicates if p in GATE_ORACLES]
        passed = [D for D in enumerate_class(cls, n, parts) if all(g(D) for g in gates)]
        if len(gates) == len(predicates):
            assert kernel_runs == [] and r.dedup_stats["labeled_matches"] == len(passed)
        else:
            assert sorted(kernel_runs) == sorted(D.rows for D in passed if _passes_screen(D.rows))

    @pytest.mark.parametrize("pin", SEARCH_PINS, ids=_pin_id)
    def test_one_digraph_per_match(self, monkeypatch, pin):
        """One Digraph per match, for its digraph6, and none under limit 0."""
        cls, n, parts, predicates = pin
        built = []

        class Counted(Digraph):
            __slots__ = ()

            def __init__(self, n, rows):
                built.append(rows)
                super().__init__(n, rows)

        monkeypatch.setattr(search_mod, "Digraph", Counted)
        r = search(SearchQuery(cls, n, parts, predicates=predicates))
        assert len(built) == r.dedup_stats["labeled_matches"] > 0
        # a limit keeps matrix keys and builds a Digraph only for a kept match
        del built[:]
        search(SearchQuery(cls, n, parts, predicates=predicates, limit=0))
        assert built == []

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("pin", [pin for pin in SEARCH_PINS if pin[1] != 6], ids=_pin_id)
    def test_shard_count_changes_no_output(self, pin, shards):
        """Matches and ``dedup_stats`` for 2 and 3 shards equal those for one,
        with and without a limit and with and without dedup."""
        cls, n, parts, predicates = pin
        for dedup in ("none", "canonical"):
            for limit in (None, 3):
                one, more = (
                    search(SearchQuery(cls, n, parts, predicates, dedup=dedup, limit=limit, shards=k))
                    for k in (1, shards)
                )
                assert more.matches == one.matches and more.dedup_stats == one.dedup_stats, (dedup, limit)
                assert 0 < len(one.matches) <= (limit or math.inf)


class TestUnpack:
    """The scan loop hands ``consume`` exactly the lanes the screen wants, in
    enumeration order, with their kernel values, whether they are most of
    a lane set or few of it."""

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("least, most", [(3, None), (None, 2)], ids=["most-lanes", "few-lanes"])
    def test_consume_gets_exactly_the_wanted_lanes(self, least, most, shards):
        got = []

        def make(order, part_ranges, arg):
            def screen(f):
                arcs, L = sum(f.degrees), f.lanes
                return L.at_least(arcs, least) if least is not None else L.at_most(arcs, most)

            return search_mod._Consumer(lambda *lane: got.append(lane) or [], every=True, screen=screen)

        total = total_count("all_digraphs", 4)
        for i in range(shards):
            search_mod._scan(("all_digraphs", 4, None, *shard_range(total, i, shards), make, None))
        everything = [D.rows for D in enumerate_class("all_digraphs", 4)]
        wanted = [rows for rows in everything if (least or 0) <= sum(r.bit_count() for r in rows) <= (most or 12)]
        assert (2 * len(wanted) > total) == (least is not None)
        assert [rows for rows, _, _ in got] == wanted
        for rows, sigmas, eccs in got:
            want_sigmas, want_eccs = distance_sums(rows, 4)
            assert (sigmas, eccs) == ((None, None) if want_sigmas is None else (want_sigmas, want_eccs))


def _exhaustive_json(shards):
    obj = exhaustive_verify(
        ["thm-3.2", "thm-3.3", "prop-3.1"], "tournaments", n=6, shards=shards
    ).as_json_dict()
    del obj["elapsed_seconds"]
    return obj


def _reference_json(shards):
    # The tournament scan does not serve thm-2.2, so this takes the reference path.
    obj = exhaustive_verify(["thm-3.2", "thm-2.2"], "tournaments", n=6, shards=shards).as_json_dict()
    del obj["elapsed_seconds"]
    return obj


def _search_json(shards, dedup):
    q = SearchQuery(cls="all_digraphs", n=4, predicates=("strong",), dedup=dedup, limit=5, shards=shards)
    r = search(q)
    return {
        "matches": [[d6, rep.as_json_dict()] for d6, rep in r.matches],
        "scanned": r.scanned,
        "dedup_stats": r.dedup_stats,
    }


class TestShardCountInvariance:
    """More than MAX_CERTIFICATES failures, --limit and --dedup give the
    same output for every shard count."""

    @pytest.fixture(scope="class")
    def one_shard(self):
        return _exhaustive_json(1)

    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_certificates(self, one_shard, shards):
        assert one_shard["failure_counts"]["thm-3.2-pi"] == 2400
        assert len(one_shard["certificates"]) == 200
        assert _exhaustive_json(shards) == one_shard

    def test_no_certificate_is_built_past_the_cap(self, monkeypatch):
        written = []
        write = search_mod.write_digraph6
        monkeypatch.setattr(search_mod, "write_digraph6", lambda D: written.append(D) or write(D))
        assert len(_exhaustive_json(1)["certificates"]) == len(written) == 200

    def test_reference_path_certificates(self):
        one, *more = [_reference_json(shards) for shards in (1, 2, 3)]
        assert more == [one, one]
        assert one["failure_counts"] == {"thm-3.2-pi": 2400, "thm-3.2-rho": 1200, "thm-2.2": 0}
        assert one["checked"] == 3 * one["strong"] == 66960
        assert len(one["certificates"]) == 200
        table = exhaustive_verify(["thm-3.2"], "tournaments", n=6)
        assert [(c["theorem"], c["digraph6"]) for c in one["certificates"]] == [
            (c["theorem"], c["digraph6"]) for c in table.certificates
        ]

    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_limit_with_canonical_dedup(self, shards):
        got = _search_json(shards, "canonical")
        assert got["dedup_stats"] == {"labeled_matches": 1606, "classes": 83}
        assert len(got["matches"]) == 5
        assert got == _search_json(1, "canonical")

    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_limit_without_dedup(self, shards):
        got = _search_json(shards, "none")
        assert got["dedup_stats"] == {"labeled_matches": 1606}
        assert got == _search_json(1, "none")


class TestLimitWithoutDedup:
    """Without dedup a limit keeps, in each shard, a heap of the matches with
    the smallest digraph6, keyed by the row-major matrix int, and writes
    digraph6 only for those."""

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("limit", [0, 1, 5])
    @pytest.mark.parametrize(
        "cls, n, predicates",
        [("all_digraphs", n, p) for n in (1, 2, 3, 4) for p in ((), ("strong",))] + [("tournaments", 5, ("strong",))],
    )
    def test_a_limit_is_the_head_of_the_full_sort(self, cls, n, predicates, limit, shards):
        full = sorted(write_digraph6(D) for D in enumerate_class(cls, n) if not predicates or is_strong(D))
        r = search(SearchQuery(cls, n, predicates=predicates, limit=limit, shards=shards))
        assert [d6 for d6, _ in r.matches] == full[:limit]
        assert r.dedup_stats == {"labeled_matches": len(full)}

    @pytest.mark.parametrize("limit", [0, 1, 5])
    def test_a_limit_writes_at_most_limit_digraph6_per_shard(self, monkeypatch, limit):
        written = []
        write = search_mod.write_digraph6
        monkeypatch.setattr(search_mod, "write_digraph6", lambda D: written.append(D) or write(D))
        total = total_count("all_digraphs", 4)
        for i in range(3):
            job = ("all_digraphs", 4, None, *shard_range(total, i, 3), search_mod._predicate_matches, (("strong",), limit))
            del written[:]
            _, _, counts, kept = search_mod._scan(job)
            assert len(written) == len(kept) == min(limit, counts["matches"])

    def test_the_matrix_key_orders_as_digraph6(self):
        for n in (1, 2, 3, 4):
            digraphs = list(enumerate_class("all_digraphs", n))
            by_key = sorted(digraphs, key=lambda D: _leaf_key(D.rows, list(range(n))))
            assert [D.rows for D in by_key] == [D.rows for D in sorted(digraphs, key=write_digraph6)]
            assert len({_leaf_key(D.rows, list(range(n))) for D in digraphs}) == len(digraphs)


class TestLaneBatchInvariance:
    """The number of instances the scan loop hands the lane kernel at once
    changes no output: not the kept findings past MAX_CERTIFICATES, which
    depend on the enumeration order, nor canonical dedup or a limit, for
    every shard count."""

    @pytest.fixture(scope="class")
    def default_batches(self):
        return _exhaustive_json(1), _search_json(1, "canonical"), _search_json(1, "none")

    @pytest.mark.parametrize("lanes", [1, 7, search_mod._LANES])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_batch_size_changes_no_output(self, monkeypatch, default_batches, lanes, shards):
        assert default_batches[0]["failure_counts"] == {
            "thm-3.2-pi": 2400, "thm-3.2-rho": 1200, "thm-3.3": 0, "prop-3.1": 0,
        }
        monkeypatch.setattr(search_mod, "_LANES", lanes)
        got = _exhaustive_json(shards), _search_json(shards, "canonical"), _search_json(shards, "none")
        assert got == default_batches

    @pytest.fixture(scope="class")
    def default_claim_scans(self):
        return _claim_scans_json(1)

    @pytest.mark.parametrize("lanes", [1, 7, search_mod._LANES])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_claim_scans_with_and_without_non_strong_instances(
        self, monkeypatch, default_claim_scans, lanes, shards
    ):
        bipartite, prop31 = default_claim_scans
        assert bipartite["scanned"] == 4096 and bipartite["checked"] == bipartite["strong"] > 0
        # prop-3.1 is checked on every tournament, strong or not.
        assert prop31["checked"] == prop31["scanned"] == 32768 > prop31["strong"]
        monkeypatch.setattr(search_mod, "_LANES", lanes)
        assert _claim_scans_json(shards) == default_claim_scans


BIPARTITE_CLAIMS = ["lem-3.4", "lem-3.5", "lem-3.6", "cor-3.7", "cor-3.8"]


def _claim_scans_json(shards):
    scans = [
        exhaustive_verify(BIPARTITE_CLAIMS, "bipartite_tournaments", parts=(3, 4), shards=shards),
        exhaustive_verify(["prop-3.1"], "tournaments", n=6, shards=shards),
    ]
    out = [r.as_json_dict() for r in scans]
    for obj in out:
        del obj["elapsed_seconds"]
    return out


class TestLaneScreenInvariance:
    """The lane screen changes no output of ``TestLaneBatchInvariance``: with
    every lane test patched to mark no lane clean, every instance a claim
    scan checks reaches the scalar check, and the counts, failures and kept
    certificates stay the same."""

    @pytest.fixture(scope="class")
    def screened(self):
        return _lane_invariance_outputs(1)

    @pytest.mark.parametrize("lanes", [7, search_mod._LANES])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_no_clean_lane_changes_no_output(self, monkeypatch, no_clean_lanes, screened, lanes, shards):
        monkeypatch.setattr(search_mod, "_LANES", lanes)
        assert _lane_invariance_outputs(shards) == screened


def _lane_invariance_outputs(shards):
    searches = _search_json(shards, "canonical"), _search_json(shards, "none")
    return _exhaustive_json(shards), *searches, _claim_scans_json(shards)


#: Class sizes from no code bit (order 1) through less than one block to several blocks.
GRAY_ORDER_CASES = (
    [("all_digraphs", n, None) for n in (1, 2, 3, 4)]
    + [("tournaments", n, None) for n in range(2, 7)]
    + [("symmetric_digraphs", n, None) for n in range(2, 7)]
    + [("bipartite_tournaments", None, parts) for parts in ((1, 1), (2, 3), (3, 4))]
)


@lru_cache(maxsize=None)
def _gray_order(cls, n, parts, codes=None):
    """The oracle's rows for a class, or for its ``codes``.  Code bit k
    decides the k-th pair in lexicographic order: ordered pairs u != v for
    all digraphs, u < v for tournaments and symmetric digraphs, (i, a + j)
    across the parts."""
    if parts is not None:
        a, b = parts
        return gray_order_oracle(cls, [(i, a + j) for i in range(a) for j in range(b)], a + b, codes)
    pairs = permutations(range(n), 2) if cls == "all_digraphs" else combinations(range(n), 2)
    return gray_order_oracle(cls, list(pairs), n, codes)


class TestGrayOrder:
    """``enumerate_class`` lists code c at place c, for a whole class (from
    no code bit, below one block, to several blocks) and for shards whose
    boundaries fall inside a block, whatever the block size."""

    @pytest.mark.parametrize("lanes", [1, 7, search_mod._LANES])
    @pytest.mark.parametrize("cls, n, parts", GRAY_ORDER_CASES, ids=lambda v: str(v).replace(" ", ""))
    def test_enumeration_follows_the_gray_code(self, monkeypatch, lanes, cls, n, parts):
        want = _gray_order(cls, n, parts)
        monkeypatch.setattr(search_mod, "_LANES", lanes)
        assert [D.rows for D in enumerate_class(cls, n, parts)] == want
        for count in (3, 7):
            for index in range(count):
                start, stop = shard_range(len(want), index, count)
                assert [D.rows for D in enumerate_class(cls, n, parts, shard=(index, count))] == want[start:stop]


class TestBlocks:
    """``_blocks`` yields each block as byte-plane columns with the mask of
    the lanes inside the shard and the mask of those that pass the
    strongness screen; ``Lanes.select`` on the in-shard mask gives the
    shard's rows."""

    @pytest.mark.parametrize(
        "cls, n, parts, cuts",
        [
            ("tournaments", 5, None, [(3, 700), (0, 1), (1023, 1024)]),  # one block
            ("bipartite_tournaments", None, (3, 5), [(5, 4000), (4095, 4097), (1000, 30000)]),  # full planes
            ("bipartite_tournaments", None, (2, 7), [(100, 4200), (16380, 16384)]),  # two planes
        ],
    )
    def test_in_shard_mask_cuts_a_block(self, cls, n, parts, cuts):
        want = _gray_order(cls, n, parts)
        for start, stop in cuts:
            rows, screened = [], []
            for L, cols, inside, passed in search_mod._blocks(cls, n, parts, start, stop):
                assert passed & inside == passed
                picked = [Lanes(L.n, mask.bit_count()) for mask in (inside, passed)]
                rows += zip(*map(picked[0].sets, L.select(cols, inside)))
                screened += zip(*map(picked[1].sets, L.select(cols, passed)))
            assert rows == want[start:stop]
            assert screened == [r for r in want[start:stop] if _passes_screen(r)]

    def test_first_block_peak_memory(self):
        """The lane pattern is built by doubling, so a block of the bipartite
        (4,5) class, 4,096 lanes of two byte planes, costs a few copies of
        its nine columns, not a table of row tuples per code."""
        total = total_count("bipartite_tournaments", parts=(4, 5))
        tracemalloc.start()
        try:
            next(search_mod._blocks("bipartite_tournaments", None, (4, 5), 0, total))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024, peak


def _every_row(order, part_ranges, arg):
    """A consumer that sees every instance and keeps its rows."""
    return search_mod._Consumer(lambda rows, sigmas, eccs: [("rows", rows)], every=True, cap=math.inf)


class TestPlaneRows:
    """The rows that ``_scan`` and ``enumerate_class`` unpack from byte-plane
    columns are the Gray oracle's, code for code, and ``_blocks``' screen
    keeps those that pass it: on one plane (n = 7 and 8) and two (n = 9,
    with byte lanes, and n = 12, with 16-bit lanes), across a block
    boundary, the cuts of three shards and the end of the class."""

    @pytest.mark.parametrize(
        "cls, n, parts",
        [
            ("tournaments", 7, None),
            ("tournaments", 8, None),
            ("symmetric_digraphs", 8, None),
            ("bipartite_tournaments", None, (2, 7)),
            ("bipartite_tournaments", None, (4, 5)),
            ("bipartite_tournaments", None, (2, 10)),
        ],
        ids=lambda v: str(v).replace(" ", ""),
    )
    def test_unpacked_rows_follow_the_gray_code(self, cls, n, parts):
        total = total_count(cls, n, parts)
        cuts = [search_mod._LANES, total // 3, 2 * total // 3]
        for start, stop in [(c - 40, c + 40) for c in cuts] + [(total - 40, total)]:
            want = _gray_order(cls, n, parts, range(start, stop))
            kept = search_mod._scan((cls, n, parts, start, stop, _every_row, None))[3]
            assert [info for _, _, info in kept] == want, (start, stop)
            screened = []
            for L, cols, _, passed in search_mod._blocks(cls, n, parts, start, stop):
                screened += zip(*map(Lanes(L.n, passed.bit_count()).sets, L.select(cols, passed)))
            assert screened == [r for r in want if _passes_screen(r)], (start, stop)
        for index in (1, 2):
            start = shard_range(total, index, 3)[0]
            head = [D.rows for D in islice(enumerate_class(cls, n, parts, shard=(index, 3)), 80)]
            assert head == _gray_order(cls, n, parts, range(start, start + 80)), index


def _slow_failing_d6():
    from proxrem.formats import write_digraph6

    for D in enumerate_class("tournaments", 4):
        if is_strong(D) and not THEOREMS["thm-3.2-rho"](D)[0].ok:
            yield write_digraph6(D)


class TestRandomized:
    def test_degree_sequence_respected(self):
        rng = Random(1)
        degrees = (3, 3, 3, 3, 3, 3, 4, 4, 4)
        rows = random_graph_with_degrees(degrees, rng)
        assert rows is not None
        assert tuple(r.bit_count() for r in rows) == degrees

    def test_odd_degree_sum_rejected(self):
        with pytest.raises(ValueError, match="degree sum must be even"):
            random_graph_with_degrees((1, 1, 1), Random(0))

    @pytest.mark.parametrize(
        "degrees, entry",
        [((2, 2, 2, 2, -2), "-2 at vertex 4"), ((2, 2, 2, 1, -1), "-1 at vertex 4")],  # both sum to 6
        ids=["2,2,2,2,-2", "2,2,2,1,-1"],
    )
    def test_negative_degree_rejected_before_the_first_shuffle(self, degrees, entry):
        rng = Random(0)
        rng.shuffle = lambda x: pytest.fail("shuffled the stubs")
        with pytest.raises(ValueError, match=f"negative entry: {entry}"):
            random_graph_with_degrees(degrees, rng)

    def test_deterministic_for_seed(self):
        degrees = (3, 3, 3, 3, 3, 3, 4, 4, 4)
        a = rediscover_sigma_equal_graph(degrees, seed=99, budget=3000)
        b = rediscover_sigma_equal_graph(degrees, seed=99, budget=3000)
        assert a == b

    def test_budget_exhaustion_reports_failure(self):
        result = rediscover_sigma_equal_graph((2, 2, 2, 2), seed=0, budget=1, target=fig1_graph())
        assert not result.success and result.iterations == 1

    def test_random_strong_digraph_is_strong(self):
        """The test sampler's oracle and the library agree on strongness."""
        rng = Random(17)
        for _ in range(20):
            assert is_strong(sample_strong_digraph(rng.randint(2, 6), rng))

    @pytest.mark.parametrize(
        "degrees, budget, message",
        [
            ((), 10, "degree sequence is empty"),
            ((-2, 2), 10, "negative entry"),
            ((2, 2, 2, 1, -1), 10, "negative entry"),  # passes the Erdos-Gallai inequalities
            ((1, 1, 1), 10, "degree sum must be even"),
            ((5, 5), 10, "not graphical"),  # a degree >= n
            ((3, 3, 1, 1), 10, "not graphical"),  # every degree < n
            ((2, 2, 2), -5, "budget must be nonnegative"),
        ],
    )
    def test_impossible_input_raises_before_the_first_draw(self, monkeypatch, degrees, budget, message):
        monkeypatch.setattr(search_mod, "random_graph_with_degrees", lambda *a: pytest.fail("drew a graph"))
        with pytest.raises(ValueError, match=message):
            rediscover_sigma_equal_graph(degrees, seed=0, budget=budget)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_graphical_sequences_are_the_degree_sequences_of_graphs(self, n):
        """Every sequence over 0..n is accepted iff some graph on n vertices
        has it: the degree sequences of all symmetric digraphs of order n.
        A budget of 0 makes no draw."""
        real = {tuple(r.bit_count() for r in D.rows) for D in enumerate_class("symmetric_digraphs", n)}
        for degrees in product(range(n + 1), repeat=n):
            try:
                rediscover_sigma_equal_graph(degrees, seed=0, budget=0)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (degrees in real), degrees
