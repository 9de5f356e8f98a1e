"""Ad-events workload family: generator determinism, schema conformance,
golden pins, and the serial-vs-parallel differential harness.

Every query in the family is defined as SQL text and planned through the
generalized front-end, so this suite doubles as an end-to-end exercise of
the SQL layers (CASE, BETWEEN, UNION, NOT EXISTS, correlated scalars,
IN + HAVING, derived tables, string functions) against a second schema
with different shapes than TPC-H.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.adevents import (
    ADEVENTS_QUERIES,
    ADEVENTS_SCHEMAS,
    QUERY_NAMES,
    build,
    generate,
    rows_at_scale,
)
from repro.engine import Executor, execute
from repro.engine.plan import LimitNode, SortNode

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_x1_seed7.json").read_text()
)

MORSEL_ROWS = 4096  # 100k-row fact => ~25 morsels: real parallel execution


@pytest.fixture(scope="module")
def adevents_db():
    return generate(1.0, seed=7)


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


class TestGenerator:
    def test_cardinalities(self, adevents_db):
        for table in ADEVENTS_SCHEMAS:
            assert adevents_db.table(table).nrows == rows_at_scale(table, 1.0)

    @pytest.mark.parametrize("table", list(ADEVENTS_SCHEMAS))
    def test_columns_match_schema(self, adevents_db, table):
        schema = ADEVENTS_SCHEMAS[table]
        tab = adevents_db.table(table)
        assert tab.column_names == schema.names
        for name, dtype in schema.fields:
            assert tab.column(name).dtype is dtype, (table, name)

    def test_same_seed_same_data(self):
        a = generate(0.2, seed=11)
        b = generate(0.2, seed=11)
        for table in a.table_names:
            ta, tb = a.table(table), b.table(table)
            for name in ta.column_names:
                assert np.array_equal(
                    ta.column(name).values, tb.column(name).values
                ), (table, name)

    def test_different_seed_different_data(self):
        a = generate(0.2, seed=1)
        b = generate(0.2, seed=2)
        assert not np.array_equal(
            a.table("events").column("ev_cost").values,
            b.table("events").column("ev_cost").values,
        )

    def test_foreign_keys_resolve(self, adevents_db):
        events = adevents_db.table("events")
        n_camp = adevents_db.table("campaign").nrows
        n_site = adevents_db.table("site").nrows
        camp = events.column("ev_campkey").values
        site = events.column("ev_sitekey").values
        assert camp.min() >= 1 and camp.max() <= n_camp
        assert site.min() >= 1 and site.max() <= n_site
        adv = adevents_db.table("campaign").column("cm_advkey").values
        assert adv.min() >= 1 and adv.max() <= adevents_db.table("advertiser").nrows

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            generate(0)

    def test_unknown_query(self, adevents_db):
        with pytest.raises(KeyError, match="unknown adevents query"):
            build(adevents_db, "nope")


class TestGolden:
    def test_golden_covers_all_queries(self):
        assert set(GOLDEN) == set(QUERY_NAMES)

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_query_matches_golden(self, adevents_db, name):
        expected = GOLDEN[name]
        result = execute(adevents_db, build(adevents_db, name))
        assert len(result) == expected["rows"]
        assert list(result.column_names) == expected["columns"]
        assert _numeric_sum(result.rows) == pytest.approx(
            expected["numeric_sum"], rel=1e-6, abs=0.02
        )
        if expected["first_row"]:
            assert [str(v) for v in result.rows[0]] == expected["first_row"]


class TestDifferential:
    """Serial and 1/2/4-worker morsel-parallel execution must agree
    row-for-row on every query in the family."""

    @pytest.fixture(scope="class")
    def parallel_executors(self, adevents_db):
        made = {
            workers: Executor(
                adevents_db, workers=workers, morsel_rows=MORSEL_ROWS,
            )
            for workers in (1, 2, 4)
        }
        yield made
        for executor in made.values():
            executor.close()

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_serial_vs_workers(self, adevents_db, parallel_executors, name):
        plan = build(adevents_db, name)
        reference = Executor(adevents_db).execute(plan)
        for workers, executor in parallel_executors.items():
            candidate = executor.execute(plan)
            label = f"{name} workers={workers}"
            assert candidate.column_names == reference.column_names, label
            if _is_ordered(plan):
                assert len(candidate) == len(reference), label
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
