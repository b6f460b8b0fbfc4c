import pytest

from proxrem import verifiers
from proxrem.constructions import (
    bipartite_T1,
    bipartite_blowup,
    bipartite_equal,
    dicycle,
    extremal_tournament,
    hub_digraph,
)
from proxrem.digraph import (
    Digraph,
    NotStrongError,
    find_unreachable_pair,
    from_edge_list,
    is_strong,
    permute,
)
from proxrem.search import enumerate_class
from proxrem.verifiers import THEOREM_ALIASES, THEOREMS, verify, verify_sec5_facts

from oracles import (
    bfs_distances,
    is_complete_oracle,
    is_dicycle_oracle,
    is_iso_to_extremal_oracle,
    is_near_regular_oracle,
    rotational_tournament,
    transitive_tournament,
)
from test_metrics import kernel_runs, sweeps  # noqa: F401  (fixtures)


def complete_digraph(n):
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def reports(alias, D):
    """The reports of both claims an alias names, as ``verify`` gives them."""
    return tuple(verify(t, D) for t in THEOREM_ALIASES[alias])


def predicted(claim_id, D, case):
    """The structural side of one equality case, from the claim's row."""
    return verify(claim_id, D).details[case]["predicted"]


class TestStructuralHelpers:
    """The predicted side of thm-2.1 and thm-3.2, read from the claim rows
    and compared with the oracles' transcriptions."""

    def test_is_dicycle(self):
        for D, want in ((dicycle(5), True), (extremal_tournament(4), False)):
            assert predicted("thm-2.1-pi", D, "upper") == want == is_dicycle_oracle(D)

    def test_is_complete(self):
        for D, want in ((complete_digraph(4), True), (dicycle(4), False)):
            assert predicted("thm-2.1-rho", D, "lower") == want == is_complete_oracle(D)

    def test_regular_almost_regular(self):
        cases = (
            (rotational_tournament(5), True),
            (extremal_tournament(5), False),
            (extremal_tournament(4), True),
            (extremal_tournament(6), False),
        )
        for D, want in cases:
            assert predicted("thm-3.2-pi", D, "upper") == want == is_near_regular_oracle(D)
            assert predicted("thm-3.2-rho", D, "lower") == want

    def test_spanning_path_ordering(self):
        D = extremal_tournament(5)
        order = verify("thm-2.1-rho", D).witnesses["ordering"]
        assert order == [0, 1, 2, 3, 4]
        assert bfs_distances(D, order[0]) == [order.index(v) for v in range(D.n)]
        assert "ordering" not in verify("thm-2.1-rho", rotational_tournament(5)).witnesses


class TestIsoToExtremal:
    """thm-3.2-rho's predicted upper case (isomorphism onto the extremal
    tournament, decided by the spanning-path pattern certificate) against
    the all-permutations oracle.  The exhaustive n <= 6 comparison is in
    test_claim_oracles.py."""

    def test_relabelings_recognized(self):
        from random import Random

        rng = Random(1234)
        for n in (4, 5, 6, 7):
            perm = list(range(n))
            rng.shuffle(perm)
            D = permute(extremal_tournament(n), perm)
            assert predicted("thm-3.2-rho", D, "upper") and is_iso_to_extremal_oracle(D)

    def test_non_members_rejected(self):
        D = rotational_tournament(5)
        assert not predicted("thm-3.2-rho", D, "upper")
        assert not is_iso_to_extremal_oracle(D)

    def test_agrees_with_brute_force_n7_samples(self):
        samples = [
            (permute(extremal_tournament(7), [3, 0, 6, 1, 5, 2, 4]), True),
            (rotational_tournament(7), False),
        ]
        for D, member in samples:
            assert predicted("thm-3.2-rho", D, "upper") == member == is_iso_to_extremal_oracle(D)
        with pytest.raises(NotStrongError):
            predicted("thm-3.2-rho", transitive_tournament(7), "upper")


class TestThm21:
    def test_dicycle_pi_upper(self):
        rep_pi, rep_rho = reports("thm-2.1", dicycle(5))
        assert rep_pi.ok and rep_pi.equality_observed and rep_pi.equality_predicted
        assert rep_rho.ok and rep_rho.equality_observed  # ecc n-1 everywhere

    def test_complete_rho_lower(self):
        rep_pi, rep_rho = reports("thm-2.1", complete_digraph(4))
        assert rep_rho.ok and rep_rho.details["lower"]["observed"]
        assert rep_pi.ok and rep_pi.details["lower"]["observed"]

    def test_extremal_tournament_rho_upper(self):
        rep_pi, rep_rho = reports("thm-2.1", extremal_tournament(6))
        assert rep_rho.ok
        assert rep_rho.details["upper"]["observed"]
        assert rep_rho.witnesses["ordering"] == [0, 1, 2, 3, 4, 5]

    def test_rejects_non_strong(self):
        with pytest.raises(NotStrongError):
            reports("thm-2.1", from_edge_list(3, [(0, 1), (1, 2)]))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            reports("thm-2.1", dicycle(2))


class TestThm22:
    def test_hub_attains_equality(self):
        for n in (4, 5, 6, 8):
            rep = verify("thm-2.2", hub_digraph(n, n - 1))
            assert rep.ok and rep.equality_observed and rep.equality_predicted
            assert rep.witnesses["dominant_vertex"] == 0

    def test_certificate_walked_once_per_report(self, monkeypatch):
        # Each walk runs one BFS here: hub_digraph(6, 5) has one
        # eccentricity-5 start, so the check and the report share one walk.
        walks = []
        layers = verifiers.distance_layers
        monkeypatch.setattr(verifiers, "distance_layers", lambda *a: walks.append(a) or layers(*a))
        D = hub_digraph(6, 5)
        for reports in (1, 2):
            rep = verify("thm-2.2", D)
            assert rep.ok and rep.witnesses["dominant_vertex"] == 0
            assert len(walks) == reports

    def test_dicycle_no_equality(self):
        rep = verify("thm-2.2", dicycle(6))
        assert rep.ok and not rep.equality_observed

    def test_complete_no_equality(self):
        rep = verify("thm-2.2", complete_digraph(4))
        assert rep.ok and not rep.equality_observed


class TestRequireStrong:
    """``verify``'s strongness test reads the kernel memo, so a fresh digraph,
    strong or not, costs one kernel run and no reachability sweep."""

    def test_strong_input_runs_the_kernel_once_and_no_sweep(self, kernel_runs, sweeps):
        T = extremal_tournament(7)
        D = Digraph(T.n, T.rows)
        assert verifiers.verify("thm-3.3", D).ok
        assert sweeps == []
        assert kernel_runs == [D.rows]

    def test_non_strong_input_runs_the_kernel_once_and_no_sweep(self, kernel_runs, sweeps):
        D = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(NotStrongError) as err:
            verify("thm-2.1-pi", D)
        assert err.value.pair == (1, 0)
        assert kernel_runs == [D.rows]
        assert sweeps == []

    def test_not_strong_error_names_the_unreachable_pair(self):
        cases = [D for n in (2, 3) for D in enumerate_class("all_digraphs", n) if not is_strong(D)]
        assert len(cases) > 30
        for D in cases:
            with pytest.raises(NotStrongError) as err:
                verifiers.verify("thm-2.2", D)
            assert err.value.pair == find_unreachable_pair(Digraph(D.n, D.rows))


class TestProp31:
    def test_extremal(self):
        assert verify("prop-3.1", extremal_tournament(7)).ok

    def test_triangle_everyone_king(self):
        rep = verify("prop-3.1", dicycle(3))
        assert rep.ok and rep.witnesses["max_out_degree_vertices"] == [0, 1, 2]

    def test_transitive_source(self):
        rep = verify("prop-3.1", transitive_tournament(5))
        assert rep.ok and rep.witnesses["max_out_degree_vertices"] == [0]

    def test_rejects_non_tournament(self):
        with pytest.raises(ValueError):
            verify("prop-3.1", dicycle(4))

    def test_violations_match_an_independent_two_king_test(self):
        # Strong or not, every tournament's maximum out-degree vertices are
        # 2-kings (Prop. 3.1), so the report lists no violation.
        for n in range(2, 6):
            for D in enumerate_class("tournaments", n):
                rep = verify("prop-3.1", D)
                top = max(r.bit_count() for r in D.rows)
                leaders = [v for v in range(n) if D.rows[v].bit_count() == top]
                assert rep.witnesses["max_out_degree_vertices"] == leaders
                not_kings = [v for v in leaders if any(d is None or d > 2 for d in bfs_distances(D, v))]
                assert rep.witnesses["violations"] == not_kings == []
                assert rep.ok


class TestThm32:
    def test_triangle_hits_both_windows(self):
        rep_pi, rep_rho = reports("thm-3.2", dicycle(3))
        assert rep_pi.ok and rep_rho.ok
        assert rep_pi.details["upper"]["observed"]
        assert rep_rho.details["lower"]["observed"]

    def test_extremal5_rho_upper(self):
        rep_pi, rep_rho = reports("thm-3.2", extremal_tournament(5))
        assert rep_rho.ok and rep_rho.details["upper"]["observed"]

    def test_rotational5_regular_case(self):
        rep_pi, rep_rho = reports("thm-3.2", rotational_tournament(5))
        assert rep_pi.ok and rep_pi.details["upper"]["observed"]
        assert rep_rho.ok and rep_rho.details["lower"]["observed"]

    def test_n4_bounds_hold(self):
        for D in enumerate_class("tournaments", 4):
            if is_strong(D):
                rep_pi, rep_rho = reports("thm-3.2", D)
                assert rep_pi.bound_holds and rep_rho.bound_holds

    def test_even_order_remoteness_lower_characterization_gap(self):
        # Every strong 4-vertex tournament is almost regular yet misses the
        # remoteness lower cap: the printed even-order equality
        # characterization is wrong, and the verifier must say so.
        for D in enumerate_class("tournaments", 4):
            if is_strong(D):
                _, rep_rho = reports("thm-3.2", D)
                assert rep_rho.bound_holds
                assert not rep_rho.consistent

    def test_even_order_corrected_characterizations_n6(self):
        # Exhaustive check of the sharp even-order statements: the proximity
        # cap is hit exactly when the max out-degree is n/2, and the
        # remoteness floor forces min out-degree (n-2)/2 (necessary only).
        n = 6
        from proxrem.metrics import sigma_ecc_vectors

        for D in enumerate_class("tournaments", n):
            if not is_strong(D):
                continue
            sigmas, _ = sigma_ecc_vectors(D)
            degs = [r.bit_count() for r in D.rows]
            assert (2 * min(sigmas) == 3 * n - 4) == (max(degs) == n // 2)
            if 2 * max(sigmas) == 3 * n - 2:
                assert min(degs) == (n - 2) // 2


class TestThm33:
    def test_rotational_equal_and_regular(self):
        rep = verify("thm-3.3", rotational_tournament(5))
        assert rep.ok and rep.equality_observed and rep.equality_predicted

    def test_extremal_unequal_and_irregular(self):
        rep = verify("thm-3.3", extremal_tournament(5))
        assert rep.ok and not rep.equality_observed and not rep.equality_predicted

    def test_triangle(self):
        rep = verify("thm-3.3", dicycle(3))
        assert rep.ok and rep.equality_observed


class TestBipartiteVerifiers:
    def test_good_constructions_consistent(self):
        for D in (bipartite_T1(), bipartite_blowup(2), bipartite_equal(2)):
            for tid in ("lem-3.4", "lem-3.5", "lem-3.6", "cor-3.7", "cor-3.8"):
                reports = THEOREMS[tid](D)
                assert all(r.ok for r in reports), tid

    def test_bad_strong_instance(self):
        for D in enumerate_class("bipartite_tournaments", parts=(3, 3)):
            if not is_strong(D):
                continue
            rep = THEOREMS["lem-3.4"](D)[0]
            assert rep.ok
            if rep.details["applicable"]:
                assert not rep.equality_observed
                return
        pytest.fail("no strong bad instance found")


class TestSec5:
    def test_hub_range(self):
        for n in range(4, 11):
            assert verify_sec5_facts("hub", n).ok
            assert verify_sec5_facts("hub", n, 1).ok

    def test_dicycle_range(self):
        for n in range(3, 11):
            assert verify_sec5_facts("dicycle", n).ok

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            verify_sec5_facts("torus", 5)

    def test_detail_checks_recorded(self):
        rep = verify_sec5_facts("hub", 6)
        assert rep.details["checks"]["diam_gt_2_rad"]
        rep = verify_sec5_facts("dicycle", 7)
        assert rep.details["checks"]["rad_gt_half_n"]


class TestReportShape:
    def test_consistency_field_definition(self):
        for D in (dicycle(5), extremal_tournament(5), complete_digraph(4)):
            for rep in (*reports("thm-2.1", D), verify("thm-2.2", D)):
                if rep.consistent:
                    assert rep.equality_observed == rep.equality_predicted

    def test_json_serializable(self):
        import json

        rep_pi, _ = reports("thm-2.1", dicycle(5))
        json.dumps(rep_pi.as_json_dict())
