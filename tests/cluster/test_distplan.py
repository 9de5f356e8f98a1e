"""Distributed rewrite tests: partial-aggregation decomposition."""

import pytest

from repro.cluster import (
    NotDistributableError,
    concat_frames,
    split_for_partial_aggregation,
)
from repro.engine import Column, Executor, Frame, Q, agg, col
from repro.engine.plan import AggregateNode
from repro.tpch import get_query


class TestSplit:
    def test_sum_becomes_sum_of_sums(self, toy_db):
        plan = Q(toy_db).scan("t").aggregate(by=["s"], total=agg.sum(col("v")))
        split = split_for_partial_aggregation(plan.node)
        assert isinstance(split.local, AggregateNode)
        local_specs = dict(split.local.aggs)
        assert local_specs["total"].func == "sum"

    def test_avg_decomposes_into_sum_and_count(self, toy_db):
        plan = Q(toy_db).scan("t").aggregate(by=["s"], mean=agg.avg(col("v")))
        split = split_for_partial_aggregation(plan.node)
        names = [name for name, _ in split.local.aggs]
        assert names == ["mean@sum", "mean@cnt"]

    def test_count_distinct_not_distributable(self, toy_db):
        plan = Q(toy_db).scan("t").aggregate(n=agg.count_distinct(col("s")))
        with pytest.raises(NotDistributableError):
            split_for_partial_aggregation(plan.node)

    def test_non_aggregate_root_not_distributable(self, toy_db):
        plan = Q(toy_db).scan("t").join("u", on=[("k", "k2")])
        with pytest.raises(NotDistributableError):
            split_for_partial_aggregation(plan.node)

    def test_chain_above_aggregate_is_rebuilt(self, toy_db):
        plan = (
            Q(toy_db).scan("t")
            .aggregate(by=["s"], total=agg.sum(col("v")))
            .sort(("total", "desc")).limit(2)
        )
        split = split_for_partial_aggregation(plan.node)
        # Execute partials on the full db (single "node") and finalize.
        partial = Executor(toy_db).execute(split.local)
        from repro.engine import Database

        driver_db = Database("driver")
        driver_db.add(concat_frames([partial.frame]))
        final = Executor(driver_db).execute(split.build_final(driver_db), optimize=False)
        direct = Executor(toy_db).execute(plan)
        assert final.rows == direct.rows

    def test_all_chokepoints_split_except_q13(self, tpch_db, tpch_params):
        for number in (1, 3, 4, 5, 6, 14, 19):
            plan = get_query(number).build(tpch_db, tpch_params)
            split = split_for_partial_aggregation(plan.node)
            assert split.local is not None, number

    def test_having_filter_above_aggregate(self, toy_db):
        plan = (
            Q(toy_db).scan("t")
            .aggregate(by=["s"], total=agg.sum(col("v")))
            .filter(col("total") > 50.0)
        )
        split = split_for_partial_aggregation(plan.node)
        assert split.local is not None


class TestConcatFrames:
    def test_stacks_rows(self):
        a = Frame({"x": Column.from_ints([1, 2])})
        b = Frame({"x": Column.from_ints([3])})
        table = concat_frames([a, b])
        assert table.nrows == 3
        assert table.column("x").values.tolist() == [1, 2, 3]

    def test_schema_mismatch_rejected(self):
        a = Frame({"x": Column.from_ints([1])})
        b = Frame({"y": Column.from_ints([1])})
        with pytest.raises(ValueError, match="mismatch"):
            concat_frames([a, b])

    def test_schema_mismatch_names_offender(self):
        """The error pinpoints which node diverged and how — both column
        lists, so a mixed-schema gather is debuggable from the message."""
        a = Frame({"x": Column.from_ints([1])})
        b = Frame({"x": Column.from_ints([2])})
        c = Frame({"x": Column.from_ints([3]), "y": Column.from_ints([4])})
        with pytest.raises(ValueError) as excinfo:
            concat_frames([a, b, c])
        message = str(excinfo.value)
        assert "node 2" in message
        assert "['x']" in message
        assert "['x', 'y']" in message

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concat_frames([])
