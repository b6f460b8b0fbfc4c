import pytest

from proxrem.bipartite import (
    check_cor_reg,
    check_equality_criterion,
    classify_good_bad,
    equality_constant,
    mu_values,
    neighborhood_classes,
    sigma_by_formula,
)
from proxrem.constructions import bipartite_T1, bipartite_blowup, bipartite_equal
from proxrem.digraph import (
    Digraph,
    NotStrongError,
    find_unreachable_pair,
    from_edge_list,
    is_strong,
)
from proxrem.metrics import sigma_ecc_vectors
from proxrem.search import enumerate_class


def bad_two_one():
    # A = {0, 1}, B = {2}: 0 -> 2 -> 1; N+(1) is empty, nested in N+(0)
    return from_edge_list(3, [(0, 2), (2, 1)])


def strong_instances(a, b):
    for D in enumerate_class("bipartite_tournaments", parts=(a, b)):
        if is_strong(D):
            yield D


class TestGoodBad:
    def test_T1_good(self):
        good, witness = classify_good_bad(bipartite_T1())
        assert good and witness is None

    def test_two_one_bad(self):
        good, witness = classify_good_bad(bad_two_one())
        assert not good and witness == (1, 0)

    def test_equal_good(self):
        good, _ = classify_good_bad(bipartite_equal(2))
        assert good

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError):
            classify_good_bad(from_edge_list(3, [(0, 1), (1, 2), (2, 0)]))


class TestNeighborhoodClasses:
    def test_T1_singletons(self):
        classes = neighborhood_classes(bipartite_T1())
        assert len(classes) == 10
        assert all(c.mu == 1 for c in classes)

    def test_blowup_class_sizes(self):
        for t in (2, 3):
            classes = neighborhood_classes(bipartite_blowup(t))
            assert all(c.mu == t for c in classes)
            assert len(classes) == 10

    def test_equal_four_classes(self):
        for h in (1, 2, 3):
            classes = neighborhood_classes(bipartite_equal(h))
            assert len(classes) == 4
            assert all(c.mu == h for c in classes)

    def test_classes_partition_parts(self):
        for D in (bipartite_T1(), bipartite_equal(2), bipartite_blowup(2)):
            members = sorted(v for c in neighborhood_classes(D) for v in c.members)
            assert members == list(range(D.n))


class TestSigmaFormula:
    def test_T1_values(self):
        D = bipartite_T1()
        assert sigma_by_formula(D, 0) == 2 * (1 - 3) + 2 * 4 + 3 * 6 - 4 == 18
        assert sigma_by_formula(D, 5) == 2 * (1 - 2) + 2 * 6 + 3 * 4 - 4 == 18

    def test_blowup2_a_side(self):
        D = bipartite_blowup(2)
        assert sigma_by_formula(D, 0) == 2 * (2 - 6) + 2 * 8 + 3 * 12 - 4 == 40

    def test_matches_bfs_on_good_strong_instances(self):
        for a, b in ((2, 2), (2, 3), (3, 3)):
            for D in strong_instances(a, b):
                good, _ = classify_good_bad(D)
                if not good:
                    continue
                sigmas, _ = sigma_ecc_vectors(D)
                for v in range(D.n):
                    assert sigma_by_formula(D, v) == sigmas[v]

    def test_no_strong_bad_instance_with_part_of_size_2(self):
        # nesting inside a 2-element part forces a vertex with no out- or
        # in-arcs, so every strong (2,b) instance is good
        for b in (2, 3, 4):
            for D in strong_instances(2, b):
                assert classify_good_bad(D)[0]

    def test_rejects_bad_instance(self):
        # a strong bad bipartite tournament (smallest live at parts 3,3)
        for D in strong_instances(3, 3):
            good, _ = classify_good_bad(D)
            if not good:
                with pytest.raises(ValueError, match="bad witness"):
                    sigma_by_formula(D, 0)
                return
        pytest.fail("no strong bad instance found")

    def test_rejects_non_strong(self):
        with pytest.raises(NotStrongError):
            sigma_by_formula(bad_two_one(), 0)


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
            good, _ = classify_good_bad(D)
            if not good:
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


class TestCorReg:
    def test_blowups_true(self):
        for t in (1, 2, 3):
            assert check_cor_reg(bipartite_blowup(t))

    def test_equal_true(self):
        for h in (1, 2, 3):
            assert check_cor_reg(bipartite_equal(h))

    def test_constant_mu_without_half_degrees(self):
        # find a good strong constant-mu instance violating the degree
        # condition; the exact metrics must then disagree as well
        found = False
        for a, b in ((3, 3), (2, 4), (4, 4), (3, 4)):
            for D in strong_instances(a, b):
                good, _ = classify_good_bad(D)
                if not good:
                    continue
                mus = set(mu_values(D).values())
                if len(mus) != 1:
                    continue
                if check_cor_reg(D):
                    continue
                sigmas, _ = sigma_ecc_vectors(D)
                assert min(sigmas) != max(sigmas)
                found = True
                break
            if found:
                break
        assert found

    def test_nonconstant_mu_rejected(self):
        for D in strong_instances(3, 3):
            good, _ = classify_good_bad(D)
            if good and len(set(mu_values(D).values())) > 1:
                with pytest.raises(ValueError, match="class size"):
                    check_cor_reg(D)
                return
        pytest.fail("no good strong instance with mixed class sizes found")


class TestLemmasSmallExhaustive:
    def test_bad_implies_unequal(self):
        for a, b in ((2, 2), (2, 3), (3, 3)):
            for D in strong_instances(a, b):
                good, _ = classify_good_bad(D)
                if not good:
                    sigmas, _ = sigma_ecc_vectors(D)
                    assert min(sigmas) != max(sigmas)

    def test_good_implies_4_kings(self):
        for a, b in ((2, 2), (2, 3), (3, 3)):
            for D in strong_instances(a, b):
                good, _ = classify_good_bad(D)
                if good:
                    _, eccs = sigma_ecc_vectors(D)
                    assert max(eccs) <= 4

    def test_equality_constant_matches_sigma(self):
        # sigma is an affine function of the per-vertex constant, so a shared
        # constant is exactly what makes all sigmas agree
        for D in strong_instances(2, 4):
            good, _ = classify_good_bad(D)
            if not good:
                continue
            sigmas, _ = sigma_ecc_vectors(D)
            c = equality_constant(D)
            assert (c is not None) == (min(sigmas) == max(sigmas))
