import io
import json

import pytest

from proxrem import cli
from proxrem.cli import main
from proxrem.constructions import fig1_graph
from proxrem.formats import write_digraph6, write_edge_list
from proxrem.metrics import metrics_report
from proxrem.search import exhaustive_verify

from test_metrics import kernel_runs, sweeps  # noqa: F401  (fixtures)


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

    @pytest.mark.parametrize(
        "name, text, fmt",
        [
            ("two.d6", "&BP_\n&BP_\n", "auto"),
            ("x.d6", "&BP_x\n", "auto"),
            ("two.txt", "&BP_\n&C]|w\n", "auto"),
            ("two.g6", "Bw\nBw\n", "auto"),
            ("x.txt", "Bwxyz", "graph6"),
        ],
    )
    def test_trailing_data_exits_2(self, tmp_path, capsys, name, text, fmt):
        path = tmp_path / name
        path.write_text(text)
        for argv in (["analyze"], ["verify", "thm-2.1"]):
            code, out, err = run(capsys, [*argv, "--input", str(path), "--format", fmt])
            assert (code, out) == (2, "")
            assert "trailing data" in json.loads(err)["error"]

    def test_two_lines_on_stdin_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("&BP_\n&BP_\n"))
        code, out, err = run(capsys, ["analyze", "--input", "-"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "byte 4: trailing data '\\n' after the last data byte"

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

    def test_non_strong_input_names_pair(self, tmp_path, capsys):
        path = tmp_path / "p.el"
        path.write_text("n 3 directed\n0 1\n1 2\n")
        code, out, err = run(capsys, ["verify", "thm-2.2", "--input", str(path)])
        assert code == 2 and not out
        # 0 reaches everything, and nothing reaches 0
        assert json.loads(err.strip().splitlines()[-1])["unreachable_pair"] == [1, 0]

    def test_enumerate_runs_the_kernel_once_per_instance_and_no_sweep(self, capsys, kernel_runs, sweeps):
        code, out, _ = run(capsys, ["verify", "thm-3.3", "--enumerate", "tournaments,5"])
        assert code == 0
        reports = [json.loads(l) for l in out.splitlines()]
        assert len(reports) == 544 and all(r["consistent"] for r in reports)
        assert sweeps == []
        assert len(kernel_runs) <= 1024

    @pytest.mark.parametrize("size", ["2", "3"])
    def test_enumerate_rejects_a_class_outside_the_claims_domain(self, capsys, size):
        # at order 3 a strong tournament comes before the first strong
        # non-tournament, so the check must run before any report
        code, out, err = run(capsys, ["verify", "thm-3.3", "--enumerate", f"all_digraphs,{size}"])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "claim thm-3.3 applies to tournaments, not all_digraphs"

    def test_enumerate_keeps_non_strong_instances_for_a_claim_without_strongness(self, capsys):
        code, out, _ = run(capsys, ["verify", "prop-3.1", "--enumerate", "tournaments,5"])
        assert code == 0
        reports = [json.loads(l) for l in out.splitlines()]
        assert all(r["consistent"] for r in reports)
        assert len(reports) == exhaustive_verify("prop-3.1", "tournaments", n=5).checked == 1024

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

    def test_unwritable_out_fails_before_the_scan(self, capsys, monkeypatch):
        def scan(query):
            raise AssertionError("the scan ran before --out was opened")

        monkeypatch.setattr(cli, "search", scan)
        code, _, err = run(
            capsys,
            ["search", "--class", "tournaments", "--n", "5", "--pred", "strong", "--out", "/nonexistent/x.d6"],
        )
        assert code == 2
        assert "error" in json.loads(err)

    @pytest.mark.parametrize(
        "query",
        [["--pred", "strong", "--shards", "0"], ["--pred", "strong", "--limit", "-1"], ["--pred", "nosuch"]],
        ids=" ".join,
    )
    def test_query_error_leaves_an_existing_out_file_alone(self, tmp_path, capsys, query):
        out_path = tmp_path / "kept.d6"
        out_path.write_bytes(b"BW\nBO\n")
        code, _, err = run(capsys, ["search", "--class", "tournaments", "--n", "3", *query, "--out", str(out_path)])
        assert code == 2
        assert "error" in json.loads(err)
        assert out_path.read_bytes() == b"BW\nBO\n"

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

    def test_missing_order_is_named(self, capsys):
        code, out, err = run(capsys, ["search", "--class", "tournaments"])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert "needs an order n" in error and "randomized" not in error

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--class", "bipartite_tournaments", "--parts=-1,-30"],
            ["exhaustive-verify", "lem-3.4", "bipartite_tournaments", "--", "-1,-30"],
        ],
        ids=["search", "exhaustive-verify"],
    )
    def test_negative_parts_are_named(self, capsys, argv):
        """Two negative part sizes whose product passes the ceiling are
        reported as empty parts, not as a ceiling overflow."""
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert "needs two nonempty parts, got parts=(-1, -30)" in error and "randomized" not in error

    def test_randomized_needs_degrees(self, capsys):
        code, _, _ = run(capsys, ["search", "--randomized"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--degrees=-2,2"], "negative entry"),
            (["--degrees", "5,5"], "not graphical"),
            (["--degrees", "3,3,1,1"], "not graphical"),  # every degree < n, even sum
            (["--degrees", "1,1,1"], "degree sum must be even"),
            (["--degrees=,"], "degree sequence is empty"),
            (["--degrees", "2,2,2", "--budget", "-5"], "budget must be nonnegative"),
        ],
    )
    def test_randomized_impossible_input_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, ["search", "--randomized", *argv])
        assert (code, out) == (2, "")
        assert message in json.loads(err)["error"]

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
    ["search", "--class", "tournaments", "--n", "3", "--pred", "strong", "--out", "/nonexistent/x.d6"],
    ["analyze", "--input", "/nonexistent"],
    ["analyze", "--input", "."],  # a directory
    ["verify", "thm-3.3", "--input", "/nonexistent"],
    ["verify", "sec5-facts", "--family", "hub_digraph:2"],
    ["verify", "sec5-facts", "--family", "dicycle:1"],
    ["verify", "sec5-facts", "--family", "dicycle:x"],
    ["exhaustive-verify", "thm-2.1", "all_digraphs", "3", "--shards", "0"],
    ["search", "--class", "tournaments", "--n", "3", "--pred", "strong", "--shards", "-4"],
    ["PROXREM_SHARDS=0", "exhaustive-verify", "thm-2.1", "all_digraphs", "3"],
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_2_with_json_error(capsys, monkeypatch, argv):
    if "=" in argv[0]:  # an environment setting, as a shell writes it
        name, _, value = argv[0].partition("=")
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "error" in json.loads(err.strip().splitlines()[-1])
