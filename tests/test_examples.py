"""Smoke-run the fastest example scripts end to end (the full set takes
minutes; the remaining examples exercise the same code paths that unit
and bench tests already cover)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_all_examples_exist(self):
        present = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py", "custom_analytics.py", "sql_interface.py",
        } <= present

    def test_every_example_compiles(self):
        import py_compile

        for path in EXAMPLES.glob("*.py"):
            py_compile.compile(str(path), doraise=True)

    def test_quickstart_runs(self):
        out = _run("quickstart.py")
        assert "Q6 revenue" in out
        assert "predicted SF 1 runtimes" in out
        assert "220 Mbps" in out

    def test_sql_interface_runs(self):
        out = _run("sql_interface.py")
        assert "revenue =" in out
        assert "top nations" in out
