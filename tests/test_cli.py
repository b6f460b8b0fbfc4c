import json

import pytest

from proxrem.cli import main
from proxrem.constructions import fig1_graph
from proxrem.formats import write_digraph6, write_edge_list
from proxrem.metrics import metrics_report


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_fig1_edge_list(self, tmp_path, capsys):
        path = tmp_path / "fig1.el"
        path.write_text(write_edge_list(fig1_graph(), directed=False))
        code, out, err = run(capsys, ["analyze", "--input", str(path), "--undirected"])
        assert code == 0
        obj = json.loads(out)
        assert obj["pi_equals_rho"] is True
        assert obj["proximity"] == {"num": 7, "den": 4, "display": "1.750000"}

    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "c.d6"
        path.write_text("&DqGUS\n")  # not a fixed instance, parse-checked below
        path.write_text(write_digraph6(fig1_graph()) + "\n")
        code, out, _ = run(capsys, ["analyze", "--input", str(path), "--out-format", "csv"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("n,m,pi_num")
        assert row.split(",")[0] == "9"

    def test_non_strong_exit_2_names_pair(self, tmp_path, capsys):
        path = tmp_path / "p.el"
        path.write_text("n 3 directed\n0 1\n1 2\n")
        code, out, err = run(capsys, ["analyze", "--input", str(path)])
        assert code == 2
        obj = json.loads(err.strip().splitlines()[-1])
        u, v = obj["unreachable_pair"]
        # the named pair must be genuinely unjoined: here nothing reaches 0
        assert v == 0 and u in (1, 2)

    def test_malformed_digraph6_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.d6"
        path.write_text("&~zz\n")
        code, _, err = run(capsys, ["analyze", "--input", str(path)])
        assert code == 2
        assert "byte" in json.loads(err.strip().splitlines()[-1])["error"]

    def test_bipartite_table(self, tmp_path, capsys):
        from proxrem.constructions import bipartite_T1

        path = tmp_path / "t1.d6"
        path.write_text(write_digraph6(bipartite_T1()) + "\n")
        code, out, _ = run(capsys, ["analyze", "--input", str(path), "--bipartite"])
        assert code == 0
        lines = out.strip().splitlines()
        table = [l for l in lines if l.startswith("# vertex")]
        assert len(table) == 10
        obj = json.loads(lines[-1])
        assert obj["constant_c"] == 2 and obj["pi_equals_rho"] is True


class TestConstruct:
    def test_expect_pass(self, capsys):
        code, out, _ = run(capsys, ["construct", "extremal_tournament", "--n", "6", "--expect"])
        assert code == 0
        assert out.strip().startswith("&")

    def test_edge_list_output(self, capsys):
        code, out, _ = run(capsys, ["construct", "fig1_graph", "--format", "edgelist"])
        assert code == 0
        assert out.splitlines()[0] == "n 9 undirected"

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, ["construct", "dicycle", "--n", "1"])
        assert code == 2

    def test_ham_extremal_back_arcs(self, capsys):
        code, out, _ = run(
            capsys, ["construct", "ham_extremal", "--n", "5", "--back-arcs", "4:0"]
        )
        assert code == 0

    def test_round_trip_construct_analyze(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["construct", "dicycle", "--n", "6"])
        path = tmp_path / "c6.d6"
        path.write_text(out)
        code, out2, _ = run(capsys, ["analyze", "--input", str(path)])
        assert code == 0
        from proxrem.constructions import dicycle

        assert json.loads(out2) == metrics_report(dicycle(6)).as_json_dict()


class TestVerify:
    def test_enumerate_tournaments(self, capsys):
        code, out, _ = run(capsys, ["verify", "thm-3.3", "--enumerate", "tournaments,4"])
        assert code == 0
        reports = [json.loads(l) for l in out.strip().splitlines()]
        assert reports and all(r["consistent"] for r in reports)

    def test_family_instance(self, capsys):
        code, out, _ = run(capsys, ["verify", "thm-2.2", "--family", "hub_digraph:6,5"])
        assert code == 0
        rep = json.loads(out.strip().splitlines()[0])
        assert rep["equality_observed"] and rep["equality_predicted"]

    def test_sec5_facts(self, capsys):
        code, out, _ = run(capsys, ["verify", "sec5-facts", "--family", "dicycle:7"])
        assert code == 0
        assert json.loads(out)["details"]["checks"]["rad_gt_half_n"]

    def test_inconsistency_exit_1(self, capsys):
        # the even-order remoteness gap surfaces through the CLI as exit 1
        code, out, err = run(capsys, ["verify", "thm-3.2-rho", "--enumerate", "tournaments,4"])
        assert code == 1
        assert "counterexample" in err

    def test_unknown_theorem_exit_2(self, capsys):
        code, _, _ = run(capsys, ["verify", "thm-0.0", "--enumerate", "tournaments,4"])
        assert code == 2

    def test_enumerate_bipartite_parts(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "lem-3.5", "--enumerate", "bipartite_tournaments,2,3"]
        )
        assert code == 0
        assert out.strip()


class TestSearchCli:
    def test_matches_to_file_and_summary(self, tmp_path, capsys):
        out_path = tmp_path / "m.d6"
        code, out, _ = run(
            capsys,
            [
                "search",
                "--class",
                "tournaments",
                "--n",
                "5",
                "--pred",
                "strong,pi_eq_rho",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["matches"] == 24
        assert len(out_path.read_text().splitlines()) == 24

    def test_stdout_matches_summary_on_stderr(self, capsys):
        code, out, err = run(
            capsys,
            ["search", "--class", "tournaments", "--n", "5", "--pred", "strong,pi_eq_rho",
             "--dedup", "canonical"],
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1
        assert json.loads(err)["dedup_stats"]["classes"] == 1

    def test_ceiling_error(self, capsys):
        code, _, err = run(capsys, ["search", "--class", "all_digraphs", "--n", "9"])
        assert code == 2
        assert "randomized" in json.loads(err)["error"]

    def test_randomized_needs_degrees(self, capsys):
        code, _, _ = run(capsys, ["search", "--randomized"])
        assert code == 2

    def test_randomized_small_budget(self, capsys):
        code, out, _ = run(
            capsys,
            ["search", "--randomized", "--degrees", "2,2,2,2", "--seed", "3", "--budget", "50"],
        )
        obj = json.loads(out)
        # the 4-cycle is sigma-equal, so this tiny search succeeds
        assert code == 0 and obj["success"]

    def test_shards_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("PROXREM_SHARDS", "2")
        code, out, err = run(
            capsys,
            ["search", "--class", "tournaments", "--n", "4", "--pred", "strong"],
        )
        assert code == 0
        assert json.loads(err)["shards"] == 2


class TestExhaustiveVerifyCli:
    def test_pass_exit_0(self, capsys):
        code, out, _ = run(capsys, ["exhaustive-verify", "thm-2.1", "all_digraphs", "4"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_bipartite_parts(self, capsys):
        code, out, _ = run(capsys, ["exhaustive-verify", "lem-3.5", "bipartite_tournaments", "2,3"])
        assert code == 0

    def test_known_gap_exit_1(self, capsys):
        code, out, _ = run(capsys, ["exhaustive-verify", "thm-3.2-rho", "tournaments", "4"])
        assert code == 1
        obj = json.loads(out)
        assert obj["failure_counts"]["thm-3.2-rho"] == 24
        assert obj["certificates"]


MALFORMED = [
    ["verify", "thm-3.3", "--enumerate", "tournaments"],
    ["verify", "thm-3.3", "--enumerate", "tournaments,x"],
    ["verify", "lem-3.4", "--enumerate", "bipartite_tournaments,2"],
    ["exhaustive-verify", "thm-3.3", "tournaments", "abc"],
    ["exhaustive-verify", "thm-3.3", "tournaments", "4,5"],
    ["exhaustive-verify", "lem-3.4", "bipartite_tournaments", "3"],
    ["exhaustive-verify", "thm-3.3", "nope", "4"],
    ["exhaustive-verify", "thm-3.3", "tournaments", "0"],
    ["exhaustive-verify", "lem-3.4", "bipartite_tournaments", "0,3"],
    ["search", "--class", "bipartite_tournaments", "--parts", "a,b"],
    ["search", "--class", "bipartite_tournaments", "--parts", "3"],
    ["search", "--class", "tournaments", "--n", "4", "--limit", "-1"],
    ["search", "--class", "tournaments", "--n", "4", "--pred", "good"],
    ["search", "--class", "tournaments", "--n", "0", "--pred", "tournament"],
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_2_with_json_error(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "error" in json.loads(err.strip().splitlines()[-1])
