"""Co-partitioned execution — the paper's deferred distributed-join
future work — on ``WimPiCluster(partition_keys=...)``."""

import pytest

from repro.cluster import NodeUnresponsiveError, WimPiCluster
from repro.engine import execute
from repro.tpch import get_query

Q13_KEYS = {"orders": "o_custkey", "customer": "c_custkey"}


@pytest.fixture(scope="module")
def keyed(tpch_db):
    """Clusters co-partitioned on the Q13 keys, by size."""
    return {
        n: WimPiCluster(n, base_sf=0.01, target_sf=10.0, db=tpch_db,
                        partition_keys=Q13_KEYS)
        for n in (4, 6, 8, 12, 24)
    }


def _rows(tpch_db, tpch_params, number):
    single = execute(tpch_db, get_query(number).build(tpch_db, tpch_params))
    return [tuple(r) for r in single.rows]


def _with_shuffle(run) -> float:
    return run.total_seconds + run.shuffle_seconds


class TestRepartitioning:
    def test_co_partitioning_is_disjoint_and_aligned(self, tpch_db, keyed):
        node_dbs = keyed[6].layout.node_dbs
        total_orders = sum(d.table("orders").nrows for d in node_dbs)
        assert total_orders == tpch_db.table("orders").nrows
        for node, node_db in enumerate(node_dbs):
            custkeys = node_db.table("customer").column("c_custkey").values
            orderkeys = node_db.table("orders").column("o_custkey").values
            assert set(custkeys % 6) <= {node}
            assert set(orderkeys % 6) <= {node}

    def test_unlisted_tables_replicated(self, tpch_db, keyed):
        for node_db in keyed[4].layout.node_dbs:
            assert node_db.table("nation") is tpch_db.table("nation")


class TestQ13Distribution:
    @pytest.mark.parametrize("n_nodes", [4, 12, 24])
    def test_results_identical(self, tpch_db, tpch_params, keyed, n_nodes):
        run = keyed[n_nodes].run_query(13)
        assert not run.run.single_node
        assert [tuple(r) for r in run.result.rows] == _rows(tpch_db, tpch_params, 13)

    def test_q13_now_scales_with_cluster_size(self, keyed):
        """The paper's flat 103 s line becomes a scaling curve."""
        assert _with_shuffle(keyed[24].run_query(13)) < _with_shuffle(keyed[4].run_query(13))

    def test_beats_single_node_fallback_by_an_order_of_magnitude(self, tpch_db, keyed):
        plain = WimPiCluster(24, base_sf=0.01, target_sf=10.0, db=tpch_db).run_query(13)
        assert _with_shuffle(keyed[24].run_query(13)) < plain.total_seconds / 10

    def test_repartitioning_defuses_memory_pressure(self, tpch_db, keyed):
        plain = WimPiCluster(4, base_sf=0.01, target_sf=10.0, db=tpch_db).run_query(13)
        shuffled = keyed[4].run_query(13)
        assert max(shuffled.node_pressure) < max(plain.node_pressure)

    def test_prepartitioned_layout_skips_shuffle(self, tpch_db, keyed):
        """``total_seconds`` prices the pre-partitioned layout; the
        shuffle is reported beside it, and a single-node run has none."""
        run = keyed[12].run_query(13)
        assert run.total_seconds == (
            max(run.node_seconds) + run.gather_seconds + run.merge_seconds
        )
        assert run.total_seconds < _with_shuffle(run)
        plain = WimPiCluster(12, base_sf=0.01, target_sf=10.0, db=tpch_db).run_query(13)
        assert plain.shuffle_seconds == 0.0

    def test_shuffle_volume_decreases_per_node(self, keyed):
        assert keyed[24].run_query(13).shuffle_seconds < keyed[4].run_query(13).shuffle_seconds

    def test_every_replica_receives_the_shuffle(self, tpch_db, keyed):
        """Under replication r each partition goes to its r holders, so
        each node sends r copies of its share."""
        single = keyed[4].run_query(13)
        paired = WimPiCluster(4, base_sf=0.01, target_sf=10.0, db=tpch_db,
                              partition_keys=Q13_KEYS, replication=2).run_query(13)
        latency = keyed[4].network.message_latency_s
        assert not paired.run.single_node
        assert paired.shuffle_seconds - latency == pytest.approx(
            2 * (single.shuffle_seconds - latency))


class TestOtherQueries:
    def test_q3_correct_under_custkey_partitioning(self, tpch_db, tpch_params, keyed):
        """Q3 stays distributed and correct when customer/orders are
        co-partitioned on the customer key and lineitem is replicated:
        every lineitem row meets its order on exactly one node. Every
        node then holds all of lineitem, which over-commits it past the
        §III-C4 threshold at SF 10; the rows behind the modeled failure
        are still checkable."""
        single = _rows(tpch_db, tpch_params, 3)
        with pytest.raises(NodeUnresponsiveError):
            keyed[8].run_query(3)
        run = keyed[8].driver.run(get_query(3), tpch_params)
        assert not run.single_node
        assert len(run.result.rows) == len(single)
        for a, b in zip(run.result.rows, single):
            assert a[0] == b[0]
            assert a[3] == pytest.approx(b[3])  # revenue

    @pytest.mark.parametrize("number", [11, 22])
    def test_global_scalar_subqueries_run_on_one_node(
        self, tpch_db, tpch_params, keyed, number
    ):
        """Q22's scalar AVG(c_acctbal) over partitioned customers would
        be computed per shard; Q11 scans neither partitioned table (and
        its HAVING subquery cannot run against the driver's partials).
        Both run on one node and return the single-node rows."""
        run = keyed[8].run_query(number)
        assert run.run.single_node
        assert [tuple(r) for r in run.result.rows] == _rows(tpch_db, tpch_params, number)

    def test_non_decomposable_query_runs_on_one_node(self, tpch_db, tpch_params):
        # Q2's top level is sort/limit over projections of a join, not a
        # decomposable aggregate chain.
        run = WimPiCluster(4, base_sf=0.01, target_sf=10.0, db=tpch_db,
                           partition_keys={"part": "p_partkey"}).run_query(2)
        assert run.run.single_node
        assert [tuple(r) for r in run.result.rows] == _rows(tpch_db, tpch_params, 2)
