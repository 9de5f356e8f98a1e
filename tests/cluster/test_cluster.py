"""WimPiCluster tests: Table III shapes — thrash cliff, Q13 flatness,
network plateau, cost properties."""

import math
import statistics

import pytest

from repro.cluster import (
    FaultPlan,
    InjectedFault,
    NodeSpec,
    NodeUnresponsiveError,
    WimPiCluster,
    thrash_multiplier,
)
from repro.engine import execute
from repro.tpch import ALL_QUERY_NUMBERS, CHOKEPOINTS, get_query


@pytest.fixture(scope="module")
def clusters(tpch_db):
    """Clusters over the shared SF 0.01 db at three sizes."""
    return {
        n: WimPiCluster(n, base_sf=0.01, target_sf=10.0, db=tpch_db)
        for n in (4, 12, 24)
    }


@pytest.fixture(scope="module")
def runs(clusters):
    return {
        n: {q: cluster.run_query(q) for q in CHOKEPOINTS}
        for n, cluster in clusters.items()
    }


class TestThrashMultiplier:
    def test_no_penalty_below_threshold(self):
        assert thrash_multiplier(0.5) == 1.0
        assert thrash_multiplier(0.9) == 1.0

    def test_monotone_above_threshold(self):
        values = [thrash_multiplier(r) for r in (1.0, 1.2, 1.5, 2.0)]
        assert values == sorted(values)
        assert values[0] > 1.0

    def test_capped(self):
        assert thrash_multiplier(10.0) == thrash_multiplier(50.0)


class TestTableIIIShape:
    def test_memory_cliff_at_four_nodes(self, runs):
        """Q1/Q3/Q5 at 4 nodes are catastrophically slower than at 12
        (the paper's 10-100x jump)."""
        for q in (1, 3, 5):
            jump = runs[4][q].total_seconds / runs[12][q].total_seconds
            assert jump > 5.0, (q, jump)

    def test_pressure_decreases_with_nodes(self, runs):
        for q in (1, 3, 5):
            assert max(runs[4][q].node_pressure) > max(runs[24][q].node_pressure)

    def test_q13_flat_across_cluster_sizes(self, runs):
        times = [runs[n][13].total_seconds for n in (4, 12, 24)]
        assert max(times) == pytest.approx(min(times), rel=1e-9)

    def test_q13_is_single_node(self, runs):
        assert runs[24][13].run.single_node

    def test_selective_queries_hit_network_floor(self, runs):
        """Q6/Q14 stop improving with more nodes: the sequential gather
        latency grows with N (diminishing returns in the paper)."""
        for q in (6, 14):
            improvement = runs[12][q].total_seconds / runs[24][q].total_seconds
            assert improvement < 2.0, q

    def test_gather_time_grows_with_cluster(self, runs):
        assert runs[24][6].gather_seconds > runs[4][6].gather_seconds

    def test_large_cluster_beats_small_on_bound_queries(self, runs):
        for q in (1, 3, 4, 5):
            assert runs[24][q].total_seconds < runs[4][q].total_seconds


# Partition layouts the all-queries wall runs under: the paper's, the
# shuffle study's co-partitioned Q13 keys, and one that partitions
# customer and orders on keys their join does not pair.
LAYOUTS = {
    "default": None,
    "q13-keys": {"orders": "o_custkey", "customer": "c_custkey"},
    "not-co-partitioned": {"orders": "o_orderkey", "customer": "c_custkey"},
}

# Queries each layout runs on one node (``single_node_reason``). The
# default set is the paper's: the queries without lineitem, plus the
# non-decomposable Q15/Q16/Q20 and Q17's per-part AVG.
SINGLE_NODE = {
    "default": {2, 11, 13, 15, 16, 17, 20, 22},
    "q13-keys": {1, 2, 6, 11, 14, 15, 16, 17, 19, 20, 22},
    "not-co-partitioned": {1, 2, 3, 5, 6, 7, 8, 10, 11, 13, 14, 15, 16, 17,
                           18, 19, 20, 22},
}

# Queries whose 4-node run over-commits a node past the §III-C4
# threshold (modeled; the rows behind the failure are still checkable).
# Q18 is not among them on a distributed layout: its IN semi join runs
# on the orders scan, before the lineitem join it used to follow.
UNRESPONSIVE = {
    "default": {7},
    "q13-keys": {1, 3, 5, 7, 8, 9, 10, 19, 21},
    "not-co-partitioned": {1, 3, 5, 7, 8, 9, 10, 18, 19, 21},
}


@pytest.fixture(scope="module")
def layout_clusters(tpch_db, clusters):
    """4-node clusters over each of ``LAYOUTS``."""
    return {
        name: clusters[4] if keys is None else WimPiCluster(
            4, base_sf=0.01, target_sf=10.0, db=tpch_db, partition_keys=keys
        )
        for name, keys in LAYOUTS.items()
    }


class TestAllQueriesMatchSingleNode:
    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_plain_cluster_rows(self, tpch_db, tpch_params, layout_clusters,
                                layout, number):
        """Every TPC-H query returns the single-node answer, value types
        included, under every layout — whether the layout lets it run
        distributed or sends it to one node (Q15/Q20: nested lineitem
        scans; Q17: per-shard divergent AVG; Q22 under the Q13 keys: a
        scalar AVG over partitioned customers)."""
        cluster = layout_clusters[layout]
        single = execute(tpch_db, get_query(number).build(tpch_db, tpch_params))
        try:
            run = cluster.run_query(number).run
        except NodeUnresponsiveError:
            # E.g. Q7 at 4 nodes on the default layout; see UNRESPONSIVE.
            assert number in UNRESPONSIVE[layout]
            run = cluster.driver.run(get_query(number), tpch_params)
        else:
            assert number not in UNRESPONSIVE[layout]
        assert run.single_node == (number in SINGLE_NODE[layout])
        rows = run.result.rows
        assert len(rows) == len(single.rows)
        for got, want in zip(rows, single.rows):
            for g, w in zip(got, want):
                # COUNTs stay ints through the shard merge, as they do
                # through the morsel merge.
                assert type(g) is type(w), (g, w)
                if isinstance(w, float):
                    assert math.isclose(g, w, rel_tol=1e-6, abs_tol=1e-6)
                else:
                    assert g == w


class TestClusterProperties:
    def test_cost_model(self, clusters):
        cluster = clusters[24]
        assert cluster.total_msrp_usd == pytest.approx(840.0)  # the paper's figure
        assert cluster.peak_power_w == pytest.approx(122.4)

    def test_scale_property(self, clusters):
        assert clusters[4].scale == pytest.approx(1000.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            WimPiCluster(0)

    def test_node_list_must_match_size(self, tpch_db):
        with pytest.raises(ValueError):
            WimPiCluster(4, node=[NodeSpec()] * 3, db=tpch_db)

    def test_plain_cluster_offloads_nothing(self, runs):
        assert runs[4][1].offloaded == []
        assert runs[4][13].offloaded == []

    def test_results_are_real_rows(self, runs):
        result = runs[12][1].result
        assert result.column_names[0] == "l_returnflag"
        assert len(result) == 4


class TestChaosCluster:
    """The resilient runtime wired through the Table III model."""

    @pytest.fixture(scope="class")
    def chaos_cluster(self, tpch_db):
        plan = FaultPlan((
            InjectedFault("oom", 1),
            InjectedFault("straggler", 3, slowdown=40.0),
        ))
        return WimPiCluster(
            4, base_sf=0.01, target_sf=10.0, db=tpch_db,
            replication=2, fault_plan=plan,
        )

    def test_recovers_and_matches_clean_results(self, chaos_cluster, runs):
        run = chaos_cluster.run_query(1)
        assert run.coverage == 1.0
        assert run.result.rows == runs[4][1].result.rows

    def test_recovery_charges_inflate_runtime(self, chaos_cluster, tpch_db):
        clean = WimPiCluster(
            4, base_sf=0.01, target_sf=10.0, db=tpch_db, replication=2,
        )
        chaos_run = chaos_cluster.run_query(6)
        clean_run = clean.run_query(6)
        assert chaos_run.recovery_seconds > 0
        assert chaos_run.total_seconds > clean_run.total_seconds
        assert clean_run.recovery_seconds == 0.0

    def test_recovery_log_surfaces(self, chaos_cluster):
        run = chaos_cluster.run_query(6)
        assert run.recovery_log is not None
        assert run.recovery_log.count("failover") >= 1

    def test_replication_without_faults_is_clean(self, tpch_db, runs):
        cluster = WimPiCluster(
            4, base_sf=0.01, target_sf=10.0, db=tpch_db, replication=2,
        )
        run = cluster.run_query(3)
        assert run.coverage == 1.0
        assert run.recovery_log.events == []
        assert run.result.rows == runs[4][3].result.rows

    def test_compression_composes_with_replication(self, tpch_db):
        kwargs = dict(base_sf=0.01, target_sf=10.0, db=tpch_db, replication=2)
        plain = WimPiCluster(4, **kwargs)
        packed = WimPiCluster(4, compress=True, **kwargs)
        for number in (3, 13):
            a, b = plain.run_query(number), packed.run_query(number)
            assert b.result.rows == a.result.rows
            assert max(b.node_pressure) < max(a.node_pressure)


class TestOneClock:
    """A faulted cluster run is priced on the cluster's own clock (the
    target SF, the node's platform, thrash): the driver's charges are
    derived from the same seconds the Table III model reports."""

    @staticmethod
    def _cluster(tpch_db, replication, *faults):
        return WimPiCluster(
            4, base_sf=0.01, target_sf=10.0, db=tpch_db,
            replication=replication, fault_plan=FaultPlan(faults),
        )

    @pytest.fixture(scope="class")
    def clean(self, tpch_db):
        return WimPiCluster(4, base_sf=0.01, target_sf=10.0, db=tpch_db).run_query(6)

    def test_unspeculated_straggler_pays_its_slowdown(self, tpch_db, clean):
        """With replication 1 no copy can be speculated: the straggling
        node's shard costs its slowdown times its clean seconds."""
        run = self._cluster(
            tpch_db, 1, InjectedFault("straggler", 0, slowdown=8.0)
        ).run_query(6)
        assert run.recovery_log.events == []
        assert run.node_seconds[0] == pytest.approx(8 * clean.node_seconds[0])
        assert run.node_seconds[1:] == pytest.approx(clean.node_seconds[1:])
        assert run.total_seconds > clean.total_seconds

    def test_timeout_is_factor_times_median_node_seconds(self, tpch_db, clean):
        """A hang is charged ``timeout_factor`` x the median modeled
        seconds of the successful attempts — the clean shards' own node
        seconds, not a base-SF estimate."""
        cluster = self._cluster(tpch_db, 2, InjectedFault("hang", 0))
        run = cluster.run_query(6)
        [timeout] = [e for e in run.recovery_log.events if e.kind == "timeout"]
        estimates = [o.winner.estimate_s for o in run.run.shard_outcomes]
        assert estimates == pytest.approx(clean.node_seconds)
        assert estimates[1:] == run.node_seconds[1:]
        assert timeout.charged_s == pytest.approx(
            cluster.driver.policy.timeout_factor * statistics.median(estimates)
        )
        assert run.node_seconds[0] == pytest.approx(timeout.charged_s + estimates[0])
