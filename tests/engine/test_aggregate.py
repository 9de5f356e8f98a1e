"""Aggregation tests: every function, grouping shapes, nulls, empties."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, Q, Table, agg, col, execute
from repro.engine.types import INT64


@pytest.fixture
def db():
    db = Database()
    db.add(Table("sales", {
        "region": Column.from_strings(["east", "west", "east", "east", "west"]),
        "product": Column.from_strings(["a", "a", "b", "a", "b"]),
        "amount": Column.from_floats([10.0, 20.0, 30.0, 40.0, 50.0]),
        "units": Column.from_ints([1, 2, 3, 4, 5]),
    }))
    return db


class TestGlobalAggregates:
    def test_sum(self, db):
        assert execute(db, Q(db).scan("sales").aggregate(s=agg.sum(col("amount")))).scalar() == 150.0

    def test_avg(self, db):
        assert execute(db, Q(db).scan("sales").aggregate(a=agg.avg(col("amount")))).scalar() == 30.0

    def test_count_star(self, db):
        assert execute(db, Q(db).scan("sales").aggregate(n=agg.count_star())).scalar() == 5

    def test_min_max(self, db):
        r = execute(db, Q(db).scan("sales").aggregate(
            lo=agg.min(col("amount")), hi=agg.max(col("amount"))))
        assert r.rows == [(10.0, 50.0)]

    def test_min_max_ints_stay_int(self, db):
        r = execute(db, Q(db).scan("sales").aggregate(
            lo=agg.min(col("units")), hi=agg.max(col("units"))))
        assert r.rows == [(1, 5)]

    def test_count_distinct(self, db):
        r = execute(db, Q(db).scan("sales").aggregate(
            n=agg.count_distinct(col("region"))))
        assert r.scalar() == 2

    def test_aggregate_of_expression(self, db):
        r = execute(db, Q(db).scan("sales").aggregate(
            s=agg.sum(col("amount") * 2.0)))
        assert r.scalar() == 300.0

    def test_global_aggregate_always_one_row(self, db):
        r = execute(db, Q(db).scan("sales").filter(col("amount") > 1e9)
                    .aggregate(s=agg.sum(col("amount")), n=agg.count_star()))
        assert len(r) == 1
        assert r.rows[0][1] == 0  # COUNT over empty input is 0
        assert r.rows[0][0] == 0.0  # SUM over empty input is 0 (numpy bincount)


class TestGroupedAggregates:
    def test_single_key(self, db):
        r = execute(db, Q(db).scan("sales")
                    .aggregate(by=["region"], total=agg.sum(col("amount")))
                    .sort("region"))
        assert r.rows == [("east", 80.0), ("west", 70.0)]

    def test_multi_key(self, db):
        r = execute(db, Q(db).scan("sales")
                    .aggregate(by=["region", "product"], n=agg.count_star())
                    .sort("region", "product"))
        assert r.rows == [("east", "a", 2), ("east", "b", 1),
                          ("west", "a", 1), ("west", "b", 1)]

    def test_count_distinct_per_group(self, db):
        r = execute(db, Q(db).scan("sales")
                    .aggregate(by=["region"], np_=agg.count_distinct(col("product")))
                    .sort("region"))
        assert r.rows == [("east", 2), ("west", 2)]

    def test_avg_per_group(self, db):
        r = execute(db, Q(db).scan("sales")
                    .aggregate(by=["product"], a=agg.avg(col("amount")))
                    .sort("product"))
        assert r.rows == [("a", pytest.approx(70.0 / 3)), ("b", 40.0)]

    def test_group_keys_preserved_types(self, db):
        r = execute(db, Q(db).scan("sales")
                    .aggregate(by=["units"], n=agg.count_star()))
        assert all(isinstance(v, int) for v in r.column("units"))

    def test_many_aggregates_q1_style(self, db):
        r = execute(db, Q(db).scan("sales").aggregate(
            by=["region"],
            s=agg.sum(col("amount")),
            a=agg.avg(col("amount")),
            n=agg.count_star(),
            lo=agg.min(col("units")),
            hi=agg.max(col("units")),
        ).sort("region"))
        assert r.rows[0] == ("east", 80.0, pytest.approx(80.0 / 3), 3, 1, 4)


class TestNullAwareAggregates:
    @pytest.fixture
    def null_db(self):
        db = Database()
        db.add(Table("t", {
            "g": Column.from_strings(["x", "x", "y"]),
            "v": Column(INT64, np.array([1, 2, 3]), valid=np.array([True, False, True])),
        }))
        return db

    def test_count_skips_nulls(self, null_db):
        r = execute(null_db, Q(null_db).scan("t")
                    .aggregate(by=["g"], n=agg.count(col("v"))).sort("g"))
        assert r.rows == [("x", 1), ("y", 1)]

    def test_count_star_includes_nulls(self, null_db):
        r = execute(null_db, Q(null_db).scan("t")
                    .aggregate(by=["g"], n=agg.count_star()).sort("g"))
        assert r.rows == [("x", 2), ("y", 1)]

    def test_sum_skips_nulls(self, null_db):
        r = execute(null_db, Q(null_db).scan("t")
                    .aggregate(by=["g"], s=agg.sum(col("v"))).sort("g"))
        assert r.rows == [("x", 1.0), ("y", 3.0)]

    def test_avg_skips_nulls(self, null_db):
        r = execute(null_db, Q(null_db).scan("t")
                    .aggregate(by=["g"], a=agg.avg(col("v"))).sort("g"))
        assert r.rows == [("x", 1.0), ("y", 3.0)]

    def test_min_max_skip_nulls(self, null_db):
        r = execute(null_db, Q(null_db).scan("t")
                    .aggregate(lo=agg.min(col("v")), hi=agg.max(col("v"))))
        assert r.rows == [(1, 3)]


class TestValidation:
    def test_aggregate_requires_aggspec(self, db):
        with pytest.raises(TypeError, match="agg namespace"):
            Q(db).scan("sales").aggregate(s=col("amount"))

    def test_stacked_aggregates_q13_style(self, db):
        r = execute(db, Q(db).scan("sales")
                    .aggregate(by=["region"], n=agg.count_star())
                    .aggregate(by=["n"], dist=agg.count_star())
                    .sort("n"))
        # east has 3 rows, west has 2 -> one group of each count
        assert r.rows == [(2, 1), (3, 1)]


# ----------------------------------------------------------------------
# COUNT(DISTINCT) orders (group, value) pairs with two stable passes
# (``keycache.stable_order``: radix for dense ints, numpy otherwise);
# whichever pass runs, the count is a per-group set size.
# ----------------------------------------------------------------------

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"


def _distinct_column(kind, draws, nulls):
    """One value column per key shape, plus the Python values a set
    count sees (``None`` for NULL; every NaN is its own value, the
    engine's long-standing NaN-distinct rule)."""
    if kind == "dense":
        values = [d % 7 for d in draws]
        return Column.from_ints(values), values
    if kind == "sparse":
        values = [(d % 7) * 10**12 - 5 for d in draws]
        return Column.from_ints(values), values
    if kind == "nan":
        values = [float("nan") if d % 5 == 0 else (d % 4) / 2 for d in draws]
        return Column.from_floats(values), [
            ("nan", i) if math.isnan(v) else v for i, v in enumerate(values)
        ]
    if kind == "string":
        values = [f"s{d % 6}" for d in draws]
        return Column.from_strings(values), values
    values = [d % 9 for d in draws]  # "nulls": dense ints under a mask
    column = Column(INT64, np.asarray(values, dtype=np.int64),
                    valid=~np.asarray(nulls, dtype=bool))
    return column, [None if null else v for v, null in zip(values, nulls)]


class TestCountDistinctEquivalence:
    @settings(max_examples=300 if _CI else 50, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["dense", "sparse", "nan", "string", "nulls"]),
        rows=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 10**6), st.booleans()),
            min_size=1, max_size=120,
        ),
    )
    def test_equals_a_set_count_per_group(self, kind, rows):
        groups, draws, nulls = (list(part) for part in zip(*rows))
        column, seen = _distinct_column(kind, draws, nulls)
        db = Database()
        db.add(Table("t", {"g": Column.from_ints(groups), "v": column}))
        got = execute(db, Q(db).scan("t").aggregate(
            by=["g"], n=agg.count_distinct(col("v")))).rows
        want: dict = {}
        for g, v in zip(groups, seen):
            want.setdefault(g, set())
            if v is not None:
                want[g].add(v)
        assert sorted(got) == sorted((g, len(vs)) for g, vs in want.items())
