"""CLI tests (invoked in-process through repro.cli.main)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_experiments_registered(self):
        parser = build_parser()
        for experiment_id in ("table2", "fig7", "ext-nam", "dbgen", "query", "list"):
            args = parser.parse_args(
                [experiment_id] + (["--out", "x"] if experiment_id == "dbgen" else [])
                + (["6"] if experiment_id == "query" else [])
            )
            assert args.command == experiment_id

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "ext-compression" in out

    def test_query_with_explain_and_profile(self, capsys):
        assert main(["query", "6", "--sf", "0.005", "--explain", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Scan lineitem" in out
        assert "Q6: 1 rows" in out
        assert "aggregate" in out  # profile table

    def test_experiment_to_json(self, tmp_path, capsys):
        path = tmp_path / "fig2.json"
        assert main(["fig2", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["network_mbps"] == 220.0

    def test_dbgen_writes_csvs(self, tmp_path, capsys):
        out_dir = tmp_path / "tpch"
        assert main(["dbgen", "--sf", "0.002", "--out", str(out_dir)]) == 0
        assert (out_dir / "lineitem.csv").exists()
        assert (out_dir / "nation.csv").exists()

    def test_extension_runs(self, capsys):
        assert main(["ext-proportionality"]) == 0
        out = capsys.readouterr().out
        assert "savings_vs_server" in out

    def test_cluster_command(self, capsys):
        assert main(["cluster", "6", "--nodes", "4", "--base-sf", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "Q6 on 4 nodes" in out and "wall-clock" in out

    def test_cluster_command_answers_like_one_node(self, capsys):
        """Q17's per-part AVG diverges per shard; the cluster must print
        the single-node answer, not a shard-local one."""
        from repro.engine import execute
        from repro.tpch import generate, get_query

        assert main(["cluster", "17", "--nodes", "4", "--base-sf", "0.005"]) == 0
        out = capsys.readouterr().out
        db = generate(0.005)
        single = execute(db, get_query(17).build(db, {"sf": 0.005}))
        assert "result rows: 1" in out
        assert f"    {single.rows[0]}" in out.splitlines()

    def test_cluster_command_with_nam(self, capsys):
        assert main([
            "cluster", "13", "--nodes", "4", "--base-sf", "0.005", "--nam",
        ]) == 0
        out = capsys.readouterr().out
        assert "offloaded fragments" in out

    def test_cluster_command_with_nam_runs_q7(self, capsys):
        """A plain 4-node cluster reports Q7 unresponsive; the hybrid's
        server runs every fragment, so the command answers."""
        assert main([
            "cluster", "7", "--nodes", "4", "--base-sf", "0.01", "--nam",
        ]) == 0
        out = capsys.readouterr().out
        assert "offloaded fragments: 4 -> memory server" in out
        assert "result rows: 4" in out

    def test_cluster_command_with_nam_and_chaos(self, capsys):
        """The NAM hybrid runs on the one resilient runtime: faults are
        recovered, thrashing fragments offloaded, rows unchanged."""
        assert main(["cluster", "1", "--nodes", "4"]) == 0
        plain = capsys.readouterr().out
        assert main([
            "cluster", "1", "--nodes", "4", "--nam", "--chaos", "--seed", "11",
        ]) == 0
        out = capsys.readouterr().out
        assert "offloaded fragments: 4 -> memory server" in out
        assert "recovery log: 1 events" in out
        assert "[retry    ] shard 3 node 3" in out
        rows = out[out.index("result rows:"):]
        assert rows == plain[plain.index("result rows:"):]

    def test_sql_command(self, capsys):
        assert main([
            "sql", "SELECT COUNT(*) AS n FROM nation", "--sf", "0.005",
        ]) == 0
        out = capsys.readouterr().out
        assert "(25,)" in out

    def test_sql_command_with_explain(self, capsys):
        assert main([
            "sql", "SELECT n_name FROM nation LIMIT 1", "--sf", "0.005", "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "Scan nation" in out

    def test_no_spill_refusal_exits_4_and_spilling_answers(self, capsys):
        """Neither input of Q3's second join fits 32 KiB: with spilling
        off that is the typed refusal (exit 4, both estimates and the
        candidate build side on stderr); with it on, the same command
        answers out-of-core."""
        command = ["query", "3", "--sf", "0.005", "--memory-budget", "32768"]
        assert main(command + ["--no-spill"]) == 4
        captured = capsys.readouterr()
        assert "Q3:" not in captured.out
        assert captured.err.startswith("memory budget exceeded: hash join build side")
        assert "(the left input; left ~" in captured.err and ", right ~" in captured.err
        assert "spilling is disabled" in captured.err

        assert main(command + ["--profile"]) == 0
        captured = capsys.readouterr()
        assert "Q3: 10 rows" in captured.out and "spilling:" in captured.out
        assert captured.err == ""
