from fractions import Fraction

import pytest

from proxrem.bipartite import (
    bad_witness,
    beats_half,
    check_equality_criterion,
    class_constants,
    class_sizes,
    formula_sigmas,
    part_lookup,
    require_bipartite_tournament,
    shared_value,
)
from proxrem.constructions import bipartite_T1, bipartite_blowup, bipartite_equal
from proxrem.digraph import (
    NotStrongError,
    find_unreachable_pair,
    from_edge_list,
    is_strong,
)
from proxrem.metrics import sigma_ecc_vectors
from proxrem.search import enumerate_class

from oracles import bfs_distances, bipartite_facts_oracle


def bad_two_one():
    # A = {0, 1}, B = {2}: 0 -> 2 -> 1; N+(1) is empty, nested in N+(0)
    return from_edge_list(3, [(0, 2), (2, 1)])


def strong_instances(a, b):
    for D in enumerate_class("bipartite_tournaments", parts=(a, b)):
        if is_strong(D):
            yield D


class Helpers:
    """The rows-level helpers on one bipartite tournament, composed as the
    claim rows compose them."""

    def __init__(self, D):
        self.rows = D.rows
        self.parts = require_bipartite_tournament(D).parts
        self.witness = bad_witness(D.rows, self.parts)
        self.mu = class_sizes(D.rows, self.parts)
        self.c = class_constants(D.rows, self.parts, self.mu)

    def sigmas(self):
        return formula_sigmas(self.c)

    def class_count(self):
        # a class of size m gives each of its m members the weight 1/m
        return sum(Fraction(1, m) for m in self.mu)


def bfs_sigmas(D):
    return [sum(bfs_distances(D, v)) for v in range(D.n)]


@pytest.mark.parametrize("parts", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 2), (4, 2)], ids="{0[0]}-{0[1]}".format)
def test_rows_helpers_match_the_oracle(parts):
    """At (3, 2) and (4, 2) the larger part holds the smaller labels, so the
    structure lists the parts out of label order; ``bad_witness`` still
    gives the oracle's smallest pair."""
    good_strong = 0
    for D in enumerate_class("bipartite_tournaments", parts=parts):
        h, want = Helpers(D), bipartite_facts_oracle(D)
        assert [frozenset(p) for p in part_lookup(h.parts, D.n)] == want.part_of
        assert h.witness == want.bad
        assert h.mu == want.mu
        assert h.c == want.c
        assert beats_half(D.rows, h.parts) == want.beats_half
        if want.bad is None and is_strong(D):
            good_strong += 1
            assert h.sigmas() == bfs_sigmas(D)
    assert good_strong > 0


class TestGoodBad:
    def test_T1_good(self):
        assert Helpers(bipartite_T1()).witness is None
        assert bipartite_facts_oracle(bipartite_T1()).bad is None

    def test_two_one_bad(self):
        assert Helpers(bad_two_one()).witness == (1, 0) == bipartite_facts_oracle(bad_two_one()).bad

    def test_equal_good(self):
        assert Helpers(bipartite_equal(2)).witness is None

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError):
            check_equality_criterion(from_edge_list(3, [(0, 1), (1, 2), (2, 0)]))


class TestNeighborhoodClasses:
    def test_T1_singletons(self):
        h = Helpers(bipartite_T1())
        assert h.class_count() == 10
        assert set(h.mu) == {1}

    def test_blowup_class_sizes(self):
        for t in (2, 3):
            h = Helpers(bipartite_blowup(t))
            assert set(h.mu) == {t}
            assert h.class_count() == 10

    def test_equal_four_classes(self):
        for h in (1, 2, 3):
            helpers = Helpers(bipartite_equal(h))
            assert helpers.class_count() == 4
            assert set(helpers.mu) == {h}

    def test_classes_partition_parts(self):
        for D in (bipartite_T1(), bipartite_equal(2), bipartite_blowup(2)):
            assert Helpers(D).mu == bipartite_facts_oracle(D).mu


class TestSigmaFormula:
    def test_T1_values(self):
        sigmas = Helpers(bipartite_T1()).sigmas()
        assert sigmas[0] == 2 * (1 - 3) + 2 * 4 + 3 * 6 - 4 == 18
        assert sigmas[5] == 2 * (1 - 2) + 2 * 6 + 3 * 4 - 4 == 18

    def test_blowup2_a_side(self):
        assert Helpers(bipartite_blowup(2)).sigmas()[0] == 2 * (2 - 6) + 2 * 8 + 3 * 12 - 4 == 40

    def test_matches_bfs_on_good_strong_instances(self):
        for a, b in ((2, 2), (2, 3), (3, 3)):
            for D in strong_instances(a, b):
                h = Helpers(D)
                if h.witness is None:
                    assert h.sigmas() == sigma_ecc_vectors(D)[0]

    def test_no_strong_bad_instance_with_part_of_size_2(self):
        # nesting inside a 2-element part forces a vertex with no out- or
        # in-arcs, so every strong (2,b) instance is good
        for b in (2, 3, 4):
            for D in strong_instances(2, b):
                assert Helpers(D).witness is None


class TestEqualityCriterion:
    def test_T1(self):
        r = check_equality_criterion(bipartite_T1())
        assert r.good and r.constant_c == 2 and r.pi_equals_rho

    def test_equal2(self):
        r = check_equality_criterion(bipartite_equal(2))
        assert r.constant_c == 4 and r.pi_equals_rho

    def test_strong_bad_instance_has_unequal(self):
        found = False
        for D in strong_instances(3, 3):
            if bipartite_facts_oracle(D).bad is not None:
                found = True
                r = check_equality_criterion(D)
                assert not r.good and r.bad_witness is not None
                assert not r.pi_equals_rho
        assert found

    def test_biconditional_small_exhaustive(self):
        for a, b in ((2, 2), (2, 3), (3, 3), (2, 4)):
            for D in strong_instances(a, b):
                r = check_equality_criterion(D)
                predicted = r.good and r.constant_c is not None
                assert r.pi_equals_rho == predicted

    def test_fields_match_the_single_purpose_functions(self):
        # the report against the independent facts oracle and BFS sums
        bad = 0
        for D in strong_instances(3, 3):
            r = check_equality_criterion(D)
            want = bipartite_facts_oracle(D)
            bad += want.bad is not None
            assert (r.good, r.bad_witness) == (want.bad is None, want.bad)
            sigmas = bfs_sigmas(D)
            assert r.per_vertex == tuple(
                (v, D.rows[v].bit_count(), want.mu[v], sigmas[v]) for v in range(D.n)
            )
            constant = want.c[0] if len(set(want.c)) == 1 else None
            assert r.constant_c == (constant if want.bad is None else None)
        assert bad > 0

    def test_not_strong_pair_matches_reachability_pair(self):
        seen = 0
        for D in enumerate_class("bipartite_tournaments", parts=(3, 3)):
            pair = find_unreachable_pair(D)
            if pair is None:
                continue
            seen += 1
            with pytest.raises(NotStrongError) as exc:
                check_equality_criterion(D)
            assert exc.value.pair == pair
        assert seen > 0

    def test_json_shape(self):
        obj = check_equality_criterion(bipartite_T1()).as_json_dict()
        assert obj["good"] is True
        assert len(obj["per_vertex"]) == 10
        assert obj["per_vertex"][0] == {"vertex": 0, "out_degree": 3, "mu": 1, "sigma": 18}


def constant_class_size(h):
    """cor-3.8's precondition: good, with one class size over both parts."""
    return h.witness is None and shared_value(h.mu) is not None


class TestCorReg:
    def test_blowups_true(self):
        for t in (1, 2, 3):
            h = Helpers(bipartite_blowup(t))
            assert constant_class_size(h) and beats_half(h.rows, h.parts)

    def test_equal_true(self):
        for half in (1, 2, 3):
            h = Helpers(bipartite_equal(half))
            assert constant_class_size(h) and beats_half(h.rows, h.parts)

    def test_constant_mu_without_half_degrees(self):
        # find a good strong constant-mu instance violating the degree
        # condition; the exact metrics must then disagree as well
        found = False
        for a, b in ((3, 3), (2, 4), (4, 4), (3, 4)):
            for D in strong_instances(a, b):
                h = Helpers(D)
                if not constant_class_size(h) or beats_half(h.rows, h.parts):
                    continue
                sigmas, _ = sigma_ecc_vectors(D)
                assert min(sigmas) != max(sigmas)
                found = True
                break
            if found:
                break
        assert found


class TestLemmasSmallExhaustive:
    def test_bad_implies_unequal(self):
        for a, b in ((2, 2), (2, 3), (3, 3)):
            for D in strong_instances(a, b):
                if Helpers(D).witness is not None:
                    sigmas, _ = sigma_ecc_vectors(D)
                    assert min(sigmas) != max(sigmas)

    def test_good_implies_4_kings(self):
        for a, b in ((2, 2), (2, 3), (3, 3)):
            for D in strong_instances(a, b):
                if Helpers(D).witness is None:
                    _, eccs = sigma_ecc_vectors(D)
                    assert max(eccs) <= 4

    def test_equality_constant_matches_sigma(self):
        # sigma is an affine function of the per-vertex constant, so a shared
        # constant is exactly what makes all sigmas agree
        for D in strong_instances(2, 4):
            h = Helpers(D)
            if h.witness is not None:
                continue
            sigmas, _ = sigma_ecc_vectors(D)
            assert (shared_value(h.c) is not None) == (min(sigmas) == max(sigmas))
