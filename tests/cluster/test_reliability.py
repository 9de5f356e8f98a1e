"""Reliability / failure-injection tests (paper §III-C4)."""

import pytest

from repro.cluster import SPARK_NODE, NodeSpec, WimPiCluster
from repro.cluster.reliability import (
    MemoryOutcome,
    NodeUnresponsiveError,
    QueryOutOfMemoryError,
    SwapPolicy,
    classify_pressure,
)


class TestClassification:
    def test_fits_is_ok_under_both_policies(self):
        for policy in SwapPolicy:
            assert classify_pressure(0, 0.8, policy).outcome == "ok"

    def test_overcommit_with_swap_thrashes(self):
        outcome = classify_pressure(0, 1.5, SwapPolicy.SWAP)
        assert outcome.outcome == "thrash"
        assert outcome.completes

    def test_overcommit_without_swap_ooms(self):
        outcome = classify_pressure(0, 1.5, SwapPolicy.NO_SWAP)
        assert outcome.outcome == "oom"
        assert not outcome.completes

    def test_extreme_overcommit_with_swap_kills_node(self):
        assert classify_pressure(0, 4.0, SwapPolicy.SWAP).outcome == "unresponsive"

    def test_extreme_overcommit_without_swap_is_still_just_oom(self):
        """The paper's fix: swap off converts node deaths into isolated
        per-query errors."""
        assert classify_pressure(0, 4.0, SwapPolicy.NO_SWAP).outcome == "oom"

    def test_negative_pressure_rejected(self):
        with pytest.raises(ValueError):
            classify_pressure(0, -1.0, SwapPolicy.SWAP)

    def test_oom_boundary_is_inclusive(self):
        """Exactly at the OOM ratio the allocation has already failed."""
        assert classify_pressure(0, 1.05, SwapPolicy.NO_SWAP).outcome == "oom"
        assert classify_pressure(0, 1.0499999, SwapPolicy.NO_SWAP).outcome == "ok"

    def test_unresponsive_boundary_is_inclusive(self):
        assert classify_pressure(0, 3.0, SwapPolicy.SWAP).outcome == "unresponsive"
        assert classify_pressure(0, 2.9999999, SwapPolicy.SWAP).outcome == "thrash"

    def test_exactly_full_memory_still_fits(self):
        """pressure == 1.0 completes cleanly under both policies: the
        thrash boundary is exclusive."""
        for policy in SwapPolicy:
            assert classify_pressure(0, 1.0, policy).outcome == "ok"


class TestClusterIntegration:
    def test_swap_cluster_completes_thrashy_query(self, tpch_db):
        cluster = WimPiCluster(4, base_sf=0.01, target_sf=10.0, db=tpch_db)
        run = cluster.run_query(1)  # thrashes but completes (Table III)
        assert run.total_seconds > 0

    def test_no_swap_cluster_raises_oom(self, tpch_db):
        cluster = WimPiCluster(
            4, base_sf=0.01, target_sf=10.0, db=tpch_db,
            swap_policy=SwapPolicy.NO_SWAP,
        )
        with pytest.raises(QueryOutOfMemoryError) as excinfo:
            cluster.run_query(1)
        assert excinfo.value.pressure > 1.0

    def test_no_swap_cluster_still_runs_light_queries(self, tpch_db):
        cluster = WimPiCluster(
            4, base_sf=0.01, target_sf=10.0, db=tpch_db,
            swap_policy=SwapPolicy.NO_SWAP,
        )
        run = cluster.run_query(6)  # fits per node comfortably
        assert len(run.result) == 1

    def test_more_nodes_avoid_the_oom(self, tpch_db):
        cluster = WimPiCluster(
            24, base_sf=0.01, target_sf=10.0, db=tpch_db,
            swap_policy=SwapPolicy.NO_SWAP,
        )
        run = cluster.run_query(1)  # per-node share now fits
        assert len(run.result) == 4

    def test_compression_rescues_no_swap_cluster(self, tpch_db):
        """Composing the two extensions: compressed base data shrinks the
        working set below the OOM limit at 4 nodes."""
        cluster = WimPiCluster(
            4, base_sf=0.01, target_sf=10.0, db=tpch_db,
            swap_policy=SwapPolicy.NO_SWAP, compress=True,
        )
        run = cluster.run_query(1)
        assert len(run.result) == 4


class TestSparkNode:
    """§III-C1: the JVM and Spark runtime hold ~500 MB of a Pi's 1 GB;
    the same memory model and cluster price what that leaves."""

    def test_spark_leaves_the_pi_less_than_half(self):
        assert SPARK_NODE.available_bytes == pytest.approx(
            NodeSpec().available_bytes - 500e6
        )
        assert SPARK_NODE.available_bytes < NodeSpec().memory_bytes / 2

    def test_pressure_rises_by_the_memory_it_takes(self, tpch_db):
        kwargs = dict(base_sf=0.01, target_sf=10.0, db=tpch_db)
        plain = WimPiCluster(24, **kwargs).run_query(1)
        spark = WimPiCluster(24, node=SPARK_NODE, **kwargs).run_query(1)
        ratio = NodeSpec().available_bytes / SPARK_NODE.available_bytes
        assert max(spark.node_pressure) == pytest.approx(max(plain.node_pressure) * ratio)
        assert spark.result.rows == plain.result.rows

    def test_q13_makes_a_spark_node_unresponsive(self, tpch_db):
        kwargs = dict(base_sf=0.01, target_sf=10.0, db=tpch_db)
        assert WimPiCluster(4, **kwargs).run_query(13).total_seconds > 0
        with pytest.raises(NodeUnresponsiveError):
            WimPiCluster(4, node=SPARK_NODE, **kwargs).run_query(13)
