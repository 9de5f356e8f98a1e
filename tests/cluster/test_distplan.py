"""Distributed rewrite tests: partial-aggregation decomposition."""

import pytest

from repro.cluster import (
    NotDistributableError,
    concat_frames,
    single_node_reason,
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


DEFAULT_KEYS = {"lineitem": "l_orderkey"}
Q13_KEYS = {"orders": "o_custkey", "customer": "c_custkey"}


def _reason(tpch_db, tpch_params, number, keys):
    """``single_node_reason`` of TPC-H query ``number``'s local plan."""
    plan = get_query(number).build(tpch_db, tpch_params).node
    return single_node_reason(split_for_partial_aggregation(plan).local, keys)


class TestSingleNodeReason:
    """One test per reason the rule refuses a local plan, and the
    distributed plans it has to keep."""

    def test_no_partitioned_table(self, tpch_db, tpch_params):
        # Q6 under the Q13 keys would sum lineitem once per node.
        reason = _reason(tpch_db, tpch_params, 6, Q13_KEYS)
        assert "scans none of the partitioned tables" in reason

    def test_nested_aggregate_not_on_partition_key(self, tpch_db, tpch_params):
        # Q17's per-part AVG over a lineitem shard is not the global AVG.
        reason = _reason(tpch_db, tpch_params, 17, DEFAULT_KEYS)
        assert "nested aggregate grouped by ['l_partkey']" in reason

    def test_scalar_subquery_over_partitioned_table(self, tpch_db, tpch_params):
        # Q22's AVG(c_acctbal) over a customer shard.
        reason = _reason(tpch_db, tpch_params, 22, Q13_KEYS)
        assert "scalar subquery over partitioned ['customer']" in reason

    def test_join_keys_must_pair_both_partition_keys(self, tpch_db, tpch_params):
        # customer on c_custkey meets orders on o_orderkey: Q13's join
        # on o_custkey pairs a customer shard with the wrong orders.
        keys = {"orders": "o_orderkey", "customer": "c_custkey"}
        reason = _reason(tpch_db, tpch_params, 13, keys)
        assert "does not pair the partition keys" in reason

    def test_left_join_to_partitioned_right(self, tpch_db, tpch_params):
        # Q13 with only orders partitioned: every node would keep each
        # customer its orders shard does not match.
        reason = _reason(tpch_db, tpch_params, 13, {"orders": "o_custkey"})
        assert "left join of a replicated input to a partitioned one" in reason

    def test_anti_join_to_partitioned_right(self, tpch_db, tpch_params):
        # Q22 with only orders partitioned: NOT EXISTS per orders shard.
        reason = _reason(tpch_db, tpch_params, 22, {"orders": "o_custkey"})
        assert "anti join of a replicated input to a partitioned one" in reason

    def test_semi_join_off_the_partition_key(self, tpch_db, tpch_params):
        # Q4's EXISTS over lineitem partitioned on l_suppkey: an order's
        # lines spread over several shards, so it would count once each.
        reason = _reason(tpch_db, tpch_params, 4, {"lineitem": "l_suppkey"})
        assert "semi join of a replicated input to a partitioned one" in reason

    def test_other_operator_over_partitioned_input(self, toy_db):
        plan = Q(toy_db).scan("t").limit(3).aggregate(total=agg.sum(col("v")))
        reason = single_node_reason(
            split_for_partial_aggregation(plan.node).local, {"t": "k"}
        )
        assert "LimitNode over a partitioned input" in reason

    def test_scalar_subquery_above_the_aggregate(self, tpch_db, tpch_params):
        # Q11's HAVING subquery would run against the driver's partials.
        plan = get_query(11).build(tpch_db, tpch_params).node
        with pytest.raises(NotDistributableError, match="scalar subquery"):
            split_for_partial_aggregation(plan)

    def test_semi_join_on_the_partition_key_distributes(self, tpch_db, tpch_params):
        # Q4: orders EXISTS lineitem, whose __subq0_k0 is l_orderkey.
        assert _reason(tpch_db, tpch_params, 4, DEFAULT_KEYS) is None

    def test_renamed_keys_distribute(self, tpch_db, tpch_params):
        # Q21's EXISTS / NOT EXISTS over lineitem: __sub is l_orderkey,
        # grouped by the partition key.
        assert _reason(tpch_db, tpch_params, 21, DEFAULT_KEYS) is None

    @pytest.mark.parametrize("number", [3, 13])
    def test_co_partitioned_join_distributes(self, tpch_db, tpch_params, number):
        assert _reason(tpch_db, tpch_params, number, Q13_KEYS) is None
