"""Differential suite: serial vs morsel-parallel execution.

Every TPC-H query at SF 0.01 runs through :class:`Executor` with 1, 2,
and 4 workers (morsels forced small so even the 0.01-scale tables split
into dozens of fragments; one worker is the serial engine's own entry)
and must produce results identical to the default serial
:class:`Executor`: same columns, same rows, same order where the
query orders, float values within 1e-9. The parallel results are also
held against the committed goldens, so both executors are pinned to the
same external truth.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

import pytest

from repro.engine import Executor
from repro.engine.plan import LimitNode, MorselSegmentNode, SortNode
from repro.tpch import ALL_QUERY_NUMBERS, get_query

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "tpch" / "data" / "golden_sf001_seed42.json").read_text()
)

WORKER_COUNTS = (1, 2, 4)
MORSEL_ROWS = 2048  # force real multi-morsel execution at SF 0.01


def _is_ordered(plan) -> bool:
    """Whether the query pins its output order (top-level ORDER BY)."""
    node = plan.node
    while isinstance(node, LimitNode):
        node = node.child
    return isinstance(node, SortNode)


def _assert_values_equal(serial_rows, parallel_rows, query_number):
    assert len(serial_rows) == len(parallel_rows)
    for i, (expected, actual) in enumerate(zip(serial_rows, parallel_rows)):
        assert len(expected) == len(actual)
        for a, b in zip(expected, actual):
            if isinstance(a, float) and isinstance(b, float):
                if math.isnan(a) and math.isnan(b):
                    continue
                assert b == pytest.approx(a, rel=1e-9, abs=1e-9), (
                    f"Q{query_number} row {i}: {a!r} != {b!r}"
                )
            else:
                assert a == b, f"Q{query_number} row {i}: {a!r} != {b!r}"


def _canonical(rows):
    """Order-insensitive row normalization (floats rounded past 1e-9)."""
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


@pytest.fixture(scope="module")
def executors(tpch_db):
    made = {
        workers: Executor(tpch_db, workers=workers, morsel_rows=MORSEL_ROWS)
        for workers in WORKER_COUNTS
    }
    yield made
    for executor in made.values():
        executor.close()


class TestParallelDifferential:
    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matches_serial(self, tpch_db, tpch_params, executors, number, workers):
        plan = get_query(number).build(tpch_db, tpch_params)
        serial = Executor(tpch_db).execute(plan)
        parallel = executors[workers].execute(plan)

        assert parallel.column_names == serial.column_names
        if _is_ordered(plan):
            _assert_values_equal(serial.rows, parallel.rows, number)
        else:
            assert _canonical(parallel.rows) == _canonical(serial.rows)

    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    def test_parallel_matches_golden(self, tpch_db, tpch_params, executors, number):
        expected = GOLDEN[str(number)]
        plan = get_query(number).build(tpch_db, tpch_params)
        result = executors[max(WORKER_COUNTS)].execute(plan)
        assert len(result) == expected["rows"]
        assert result.column_names == expected["columns"]
        assert _numeric_sum(result.rows) == pytest.approx(
            expected["numeric_sum"], rel=1e-6, abs=0.02
        )
        if expected["first_row"] and _is_ordered(plan):
            # Partial-aggregate merging legally reorders float summation;
            # compare numerically where the golden value parses as float,
            # exactly (as strings) everywhere else.
            for actual, pinned in zip(result.rows[0], expected["first_row"]):
                try:
                    pinned_value = float(pinned)
                except ValueError:
                    assert str(actual) == pinned
                else:
                    assert float(actual) == pytest.approx(
                        pinned_value, rel=1e-9, abs=1e-9
                    )


def _has_segment(node) -> bool:
    return isinstance(node, MorselSegmentNode) or any(
        _has_segment(child) for child in node.children()
    )


def _morsel_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("morsel")}


class TestOneWorkerIsTheSerialEngine:
    """One class runs every plan: with one worker it lowers, answers and
    charges exactly as the default executor does, and only a pool of
    more than one owns threads, until ``close``."""

    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    def test_same_lowering_rows_and_work(self, tpch_db, tpch_params, executors, number):
        plan = get_query(number).build(tpch_db, tpch_params)
        one = executors[1]  # tiny morsels, so only the worker count says "serial"
        assert not _has_segment(one.lower(plan))
        serial = Executor(tpch_db).execute(plan)
        got = one.execute(plan)
        assert got.rows == serial.rows
        assert got.profile.operators == serial.profile.operators

    def test_serial_executor_starts_no_thread(self, tpch_db, tpch_params):
        before = _morsel_threads()
        with Executor(tpch_db, morsel_rows=MORSEL_ROWS) as serial:
            serial.execute(get_query(1).build(tpch_db, tpch_params))
            assert _morsel_threads() == before

    def test_close_leaves_no_morsel_thread(self, tpch_db, tpch_params):
        before = _morsel_threads()
        executor = Executor(tpch_db, workers=2, morsel_rows=MORSEL_ROWS)
        executor.execute(get_query(1).build(tpch_db, tpch_params))
        assert _morsel_threads() - before, "Q1 must have run on the pool"
        executor.close()
        assert _morsel_threads() - before == set()
