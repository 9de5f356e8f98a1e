"""``tools/bench_diff.py``: the committed paired-run records render as a
per-workload, per-metric trajectory, and a malformed record is refused."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).parent.parent / "tools" / "bench_diff.py"


@pytest.fixture(scope="module")
def bench_diff():
    spec = importlib.util.spec_from_file_location("bench_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_records_render(bench_diff, capsys):
    entries = bench_diff.load(bench_diff.REPO)
    assert entries, "no BENCH_PR<n>.json at the repo root"
    assert bench_diff.main(["--workload", "tpch_power", "--metric", "latency_ms_p95"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "tpch_power  latency_ms_p95"
    rows = [line for line in text.splitlines() if line.startswith("  PR ")]
    want = [
        (pr, rec) for pr, rec in entries
        if rec["workload"] == "tpch_power" and "latency_ms_p95" in rec["metrics"]
    ]
    assert len(rows) == len(want)
    for line, (pr, rec) in zip(rows, want):
        stats = rec["metrics"]["latency_ms_p95"]
        assert line.split()[1] == str(pr)
        assert f"{stats['wins']}/{stats['pairs']}" in line
        assert stats["verdict"] in line
    # Unfiltered, every (workload, metric) of every record has a section.
    bench_diff.main([])
    sections = {
        tuple(line.split()) for line in capsys.readouterr().out.splitlines()
        if line and not line.startswith(" ")
    }
    assert sections == {
        (rec["workload"], name) for _, rec in entries for name in rec["metrics"]
    }


def test_malformed_record_exits_nonzero(bench_diff, tmp_path, capsys, monkeypatch):
    record = json.loads((bench_diff.REPO / "BENCH_PR28.json").read_text())[0]
    monkeypatch.setattr(bench_diff, "REPO", tmp_path)
    del record["metrics"]["queries_per_s"]["wins"]
    (tmp_path / "BENCH_PR1.json").write_text(json.dumps([record]))
    assert bench_diff.main([]) == 2
    err = capsys.readouterr().err
    assert "BENCH_PR1.json record 0" in err and "metrics.queries_per_s.wins" in err

    del record["runs"]
    (tmp_path / "BENCH_PR1.json").write_text(json.dumps([record]))
    assert bench_diff.main([]) == 2
    assert "runs" in capsys.readouterr().err


def test_unrecorded_perf_claim_exits_nonzero(bench_diff, tmp_path, capsys, monkeypatch):
    # The committed repo: every [perf_opt] PR has a record or a reason.
    assert bench_diff.main([]) == 0
    err = capsys.readouterr().err
    for pr, reason in bench_diff.UNRECORDED.items():
        assert f"PR {pr} has no record: {reason}" in err

    record = (bench_diff.REPO / "BENCH_PR28.json").read_text()
    (tmp_path / "BENCH_PR28.json").write_text(record)
    (tmp_path / "CHANGES.md").write_text(
        "- PR 19: [perf_opt] exempt, it predates the ledger.\n"
        "- PR 28: [perf_opt] recorded.\n"
        "- PR 41: [perf_opt] claims a gain with no record.\n"
        "- PR 42: [simplicity] claims none.\n"
    )
    monkeypatch.setattr(bench_diff, "REPO", tmp_path)
    assert bench_diff.main([]) == 2
    err = capsys.readouterr().err
    assert "PR 41 [perf_opt]" in err and "BENCH_PR41.json" in err
    assert "PR 28 [perf_opt]" not in err and "PR 42" not in err
    assert "PR 19 [perf_opt]" not in err
