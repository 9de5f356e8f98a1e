"""Differential suite: data skipping on vs off across all 22 queries.

Every TPC-H query at SF 0.01 runs four ways — serial and 4-worker
morsel-parallel, each with the optimizer's predicate pushdown + zone-map
skipping enabled (the default) and fully disabled (the ``--no-skipping``
ablation) — and all four must agree with each other and with the
committed goldens. This pins the entire skipping stack to external
truth: a zone map that wrongly proves a block empty, or a pushdown that
moves a filter past an operator it does not commute with, shows up as a
row-level diff here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.engine import Executor, OptimizerSettings
from repro.engine.plan import LimitNode, SortNode
from repro.tpch import ALL_QUERY_NUMBERS, get_query

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "tpch" / "data" / "golden_sf001_seed42.json").read_text()
)

MORSEL_ROWS = 2048  # force real multi-morsel execution at SF 0.01
WORKERS = 4


def _is_ordered(plan) -> bool:
    node = plan.node
    while isinstance(node, LimitNode):
        node = node.child
    return isinstance(node, SortNode)


def _assert_values_equal(expected_rows, actual_rows, label):
    assert len(expected_rows) == len(actual_rows), label
    for i, (expected, actual) in enumerate(zip(expected_rows, actual_rows)):
        assert len(expected) == len(actual)
        for a, b in zip(expected, actual):
            if isinstance(a, float) and isinstance(b, float):
                if math.isnan(a) and math.isnan(b):
                    continue
                assert b == pytest.approx(a, rel=1e-9, abs=1e-9), (
                    f"{label} row {i}: {a!r} != {b!r}"
                )
            else:
                assert a == b, f"{label} row {i}: {a!r} != {b!r}"


def _canonical(rows):
    def norm(v):
        if isinstance(v, float):
            return "nan" if math.isnan(v) else round(v, 7)
        return v

    return sorted(tuple(norm(v) for v in row) for row in rows)


def _numeric_sum(rows) -> float:
    total = 0.0
    for row in rows:
        for value in row:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if isinstance(value, float) and math.isnan(value):
                    continue
                total += float(value)
    return total


def _assert_same(plan, reference, candidate, label):
    assert candidate.column_names == reference.column_names
    if _is_ordered(plan):
        _assert_values_equal(reference.rows, candidate.rows, label)
    else:
        assert _canonical(candidate.rows) == _canonical(reference.rows), label


@pytest.fixture(scope="module")
def parallel_executors(tpch_db):
    made = {
        "on": Executor(
            tpch_db, workers=WORKERS, morsel_rows=MORSEL_ROWS
        ),
        "off": Executor(
            tpch_db, workers=WORKERS, morsel_rows=MORSEL_ROWS,
            settings=OptimizerSettings.disabled(),
        ),
    }
    yield made
    for executor in made.values():
        executor.close()


class TestSkippingDifferential:
    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    def test_four_way_agreement(
        self, tpch_db, tpch_params, parallel_executors, number
    ):
        plan = get_query(number).build(tpch_db, tpch_params)
        serial_off = Executor(tpch_db, OptimizerSettings.disabled()).execute(plan)
        serial_on = Executor(tpch_db).execute(plan)
        parallel_on = parallel_executors["on"].execute(plan)
        parallel_off = parallel_executors["off"].execute(plan)

        _assert_same(plan, serial_off, serial_on, f"Q{number} serial on-vs-off")
        _assert_same(plan, serial_on, parallel_on, f"Q{number} parallel-on")
        _assert_same(plan, serial_off, parallel_off, f"Q{number} parallel-off")

        # Skipping may only reduce streamed bytes, never add any.
        assert (
            serial_on.profile.seq_bytes
            <= serial_off.profile.seq_bytes * (1 + 1e-9) + 1e-6
        ), f"Q{number}: skipping increased streamed bytes"

    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    def test_skipping_matches_golden(
        self, tpch_db, tpch_params, parallel_executors, number
    ):
        expected = GOLDEN[str(number)]
        plan = get_query(number).build(tpch_db, tpch_params)
        result = parallel_executors["on"].execute(plan)
        assert len(result) == expected["rows"]
        assert result.column_names == expected["columns"]
        assert _numeric_sum(result.rows) == pytest.approx(
            expected["numeric_sum"], rel=1e-6, abs=0.02
        )
        if expected["first_row"] and _is_ordered(plan):
            for actual, pinned in zip(result.rows[0], expected["first_row"]):
                try:
                    pinned_value = float(pinned)
                except ValueError:
                    assert str(actual) == pinned
                else:
                    assert float(actual) == pytest.approx(
                        pinned_value, rel=1e-9, abs=1e-9
                    )
