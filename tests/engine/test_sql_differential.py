"""SQL-text differential wall over all 22 TPC-H queries.

Every query is planned from its SQL text (``repro.tpch.sqltext``) —
not the hand-written builder — and must:

* reproduce the golden results exactly with the default serial executor
  (same pins as ``tests/tpch/test_golden.py``: row count, column names,
  numeric checksum, stringified first row), and
* agree row-for-row with that reference under every optimizer ablation
  (no pushdown/skipping, no late materialization) and under 4-worker
  morsel-parallel execution.

This closes the loop on the front-end: if lowering EXISTS to a semi
join, decorrelating a scalar subquery, or planning a derived table ever
interacts badly with pushdown, zone-map skipping, late materialization,
or parallel morsel execution, a query here diverges.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.engine import Executor
from repro.engine.optimizer import OptimizerSettings
from repro.engine.plan import LimitNode, SortNode
from repro.tpch.sqltext import SQL_QUERY_NUMBERS, build_from_sql

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "tpch" / "data"
     / "golden_sf001_seed42.json").read_text()
)

SETTINGS_AXES = {
    "default": OptimizerSettings(),
    "no-skipping": OptimizerSettings.disabled(),
    "no-latemat": OptimizerSettings().without_latemat(),
}

MORSEL_ROWS = 2048


def _numeric_sum(rows) -> float:
    total = 0.0
    for row in rows:
        for value in row:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if isinstance(value, float) and math.isnan(value):
                    continue
                total += float(value)
    return total


def _canonical(rows):
    def norm(v):
        if isinstance(v, float):
            return "nan" if math.isnan(v) else round(v, 7)
        return v

    return sorted(tuple(norm(v) for v in row) for row in rows)


def _is_ordered(plan) -> bool:
    node = plan.node
    while isinstance(node, LimitNode):
        node = node.child
    return isinstance(node, SortNode)


def _assert_rows_agree(reference, candidate, ordered: bool, label: str) -> None:
    assert candidate.column_names == reference.column_names, label
    assert len(candidate) == len(reference), label
    if ordered:
        for i, (expected, actual) in enumerate(
            zip(reference.rows, candidate.rows)
        ):
            for a, b in zip(expected, actual):
                if isinstance(a, float) and isinstance(b, float):
                    if math.isnan(a) and math.isnan(b):
                        continue
                    assert b == pytest.approx(a, rel=1e-9, abs=1e-9), (
                        f"{label} row {i}"
                    )
                else:
                    assert a == b, f"{label} row {i}"
    else:
        assert _canonical(candidate.rows) == _canonical(reference.rows), label


@pytest.fixture(scope="module")
def parallel_executors(tpch_db):
    made = {
        axis: Executor(
            tpch_db, workers=4, morsel_rows=MORSEL_ROWS,
            settings=settings,
        )
        for axis, settings in SETTINGS_AXES.items()
    }
    yield made
    for executor in made.values():
        executor.close()


@pytest.mark.parametrize("number", SQL_QUERY_NUMBERS)
def test_sql_text_matches_golden_serial(tpch_db, tpch_params, number):
    """SQL-planned queries hit the exact same golden pins as the builders."""
    expected = GOLDEN[str(number)]
    plan = build_from_sql(tpch_db, number, tpch_params)
    result = Executor(tpch_db).execute(plan)
    assert len(result) == expected["rows"]
    assert result.column_names == expected["columns"]
    assert _numeric_sum(result.rows) == pytest.approx(
        expected["numeric_sum"], rel=1e-6, abs=0.02
    )
    if expected["first_row"]:
        assert [str(v) for v in result.rows[0]] == expected["first_row"]


@pytest.mark.parametrize("number", SQL_QUERY_NUMBERS)
def test_sql_text_serial_ablations_agree(tpch_db, tpch_params, number):
    plan = build_from_sql(tpch_db, number, tpch_params)
    ordered = _is_ordered(plan)
    reference = Executor(tpch_db, SETTINGS_AXES["default"]).execute(plan)
    for axis in ("no-skipping", "no-latemat"):
        candidate = Executor(tpch_db, SETTINGS_AXES[axis]).execute(plan)
        _assert_rows_agree(reference, candidate, ordered, f"q{number} {axis}")


@pytest.mark.parametrize("number", SQL_QUERY_NUMBERS)
def test_sql_text_parallel_agrees(tpch_db, tpch_params, parallel_executors,
                                  number):
    plan = build_from_sql(tpch_db, number, tpch_params)
    ordered = _is_ordered(plan)
    reference = Executor(tpch_db).execute(plan)
    for axis, executor in parallel_executors.items():
        candidate = executor.execute(plan)
        _assert_rows_agree(
            reference, candidate, ordered, f"q{number} workers=4 {axis}"
        )
