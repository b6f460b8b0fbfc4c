from random import Random

import pytest

from proxrem.canonical import are_isomorphic, canonical_form
from proxrem.constructions import bipartite_T1, dicycle, extremal_tournament, fig1_graph
from proxrem.digraph import Digraph, is_regular, is_strong, permute
from proxrem.formats import read_digraph6
from proxrem.metrics import sigma_ecc_vectors
from proxrem.search import (
    SearchQuery,
    enumerate_class,
    exhaustive_verify,
    random_graph_with_degrees,
    random_strong_digraph,
    rediscover_sigma_equal_graph,
    resolve_theorems,
    search,
    shard_range,
    total_count,
)
from proxrem.verifiers import THEOREMS

from oracles import brute_isomorphic


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
            D = random_strong_digraph(rng.randint(2, 5), rng)
            base = canonical_form(D)
            for _ in range(5):
                perm = list(range(D.n))
                rng.shuffle(perm)
                assert canonical_form(permute(D, perm)) == base

    def test_hundred_permutations_one_instance(self):
        rng = Random(77)
        D = random_strong_digraph(5, rng)
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
        parts = ((0, 1), (2, 3))
        perm = [1, 0, 3, 2]
        assert canonical_form(permute(D, perm), parts) == canonical_form(D, parts)

    def test_parts_must_partition_the_vertices(self):
        D = next(iter(enumerate_class("bipartite_tournaments", parts=(2, 2))))
        for parts in (((0, 1), (2,)), ((0, 1), (1, 2)), ((0, 1), (2, 3), ())):
            with pytest.raises(ValueError, match="parts"):
                canonical_form(D, parts)

    def test_ceiling(self):
        with pytest.raises(ValueError, match="capped"):
            canonical_form(dicycle(11))

    @pytest.mark.parametrize(
        "cls, n, parts, classes",
        [
            ("all_digraphs", 4, None, 218),  # OEIS A000273
            ("tournaments", 6, None, 56),  # OEIS A000568
            ("symmetric_digraphs", 6, None, 156),  # OEIS A000088
            # Part-respecting counts, recorded with an all-permutations search.
            ("bipartite_tournaments", None, (2, 3), 13),
            ("bipartite_tournaments", None, (3, 3), 18),
            ("bipartite_tournaments", None, (2, 4), 22),
        ],
    )
    def test_exact_class_counts(self, cls, n, parts, classes):
        # Form classes always refine the isomorphism classes, so matching the
        # true class count proves the partition exact on the whole class.
        layout = None
        if parts is not None:
            a, b = parts
            layout = (range(a), range(a, a + b))
        forms = {canonical_form(D, layout).bytes for D in enumerate_class(cls, n, parts)}
        assert len(forms) == classes

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
        assert canonical_form(swapped, parts) == canonical_form(D, parts)

    def test_order_twelve_tournament(self):
        T = extremal_tournament(12)
        perm = list(range(12))
        Random(12).shuffle(perm)
        assert canonical_form(permute(T, perm)) == canonical_form(T)

    def test_permutation_invariance_up_to_order_ten(self):
        rng = Random(10)
        instances = [random_strong_digraph(n, rng) for n in range(2, 11) for _ in range(3)]
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
            A = random_strong_digraph(n, rng)
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                B = permute(A, perm)
            else:
                B = random_strong_digraph(n, rng)
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
        from proxrem.bipartite import classify_good_bad

        for d6, rep in result.matches:
            D = read_digraph6(d6)
            assert classify_good_bad(D)[0]
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


    def test_checked_counts_instances_a_claim_ran_on(self):
        # Without prop-3.1 no tournament claim runs on a non-strong instance.
        r = exhaustive_verify(["thm-3.2", "thm-3.3"], "tournaments", n=5)
        assert r.checked == r.strong_count < r.scanned
        r = exhaustive_verify(["thm-3.3", "prop-3.1"], "tournaments", n=5)
        assert r.checked == r.scanned
        # The reference path counts one per (claim, instance) pair.
        r = exhaustive_verify(["thm-2.1", "thm-2.2"], "symmetric_digraphs", n=4)
        assert r.checked == 3 * r.strong_count


def _exhaustive_json(shards):
    obj = exhaustive_verify(
        ["thm-3.2", "thm-3.3", "prop-3.1"], "tournaments", n=6, shards=shards
    ).as_json_dict()
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
        with pytest.raises(ValueError):
            random_graph_with_degrees((1, 1, 1), Random(0))

    def test_deterministic_for_seed(self):
        degrees = (3, 3, 3, 3, 3, 3, 4, 4, 4)
        a = rediscover_sigma_equal_graph(degrees, seed=99, budget=3000)
        b = rediscover_sigma_equal_graph(degrees, seed=99, budget=3000)
        assert a == b

    def test_budget_exhaustion_reports_failure(self):
        result = rediscover_sigma_equal_graph((2, 2, 2, 2), seed=0, budget=1, target=fig1_graph())
        assert not result.success and result.iterations == 1

    def test_random_strong_digraph_is_strong(self):
        rng = Random(17)
        for _ in range(20):
            assert is_strong(random_strong_digraph(rng.randint(2, 6), rng))
