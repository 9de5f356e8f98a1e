"""Partitioning tests: disjoint cover of lineitem, replication of the rest."""

import numpy as np
import pytest

from repro.cluster import partition_table, replicate_database
from repro.engine import Column, Table
from repro.engine.types import FLOAT64, INT64


def _mask_partition(table, n_nodes, key):
    """The oracle: one boolean filter per node over ``key % n_nodes``."""
    assignment = table.column(key).values % n_nodes
    return [table.select_rows(assignment == node) for node in range(n_nodes)]


def _mixed_table(nrows=500, seed=3):
    """Keys out of order, a dictionary STRING column and a NULL-masked
    FLOAT64 column."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in rng.integers(0, 17, nrows)]
    return Table("t", {
        "k": Column(INT64, rng.integers(-50, 1000, nrows)),
        "s": Column.from_strings(words),
        "v": Column(FLOAT64, rng.random(nrows), valid=rng.random(nrows) < 0.7),
    })


class TestPartitionTable:
    def test_disjoint_cover(self, tpch_db):
        li = tpch_db.table("lineitem")
        shards = partition_table(li, 4, "l_orderkey")
        assert sum(s.nrows for s in shards) == li.nrows

    def test_order_locality(self, tpch_db):
        """All lines of one order land on one node (the property the
        driver's correctness depends on)."""
        shards = partition_table(tpch_db.table("lineitem"), 6, "l_orderkey")
        seen: dict[int, int] = {}
        for node, shard in enumerate(shards):
            for key in np.unique(shard.column("l_orderkey").values).tolist():
                assert seen.setdefault(key, node) == node

    def test_roughly_even(self, tpch_db):
        shards = partition_table(tpch_db.table("lineitem"), 8, "l_orderkey")
        sizes = [s.nrows for s in shards]
        assert max(sizes) < 1.2 * min(sizes)

    def test_single_node(self, tpch_db):
        shards = partition_table(tpch_db.table("lineitem"), 1, "l_orderkey")
        assert len(shards) == 1
        assert shards[0].nrows == tpch_db.table("lineitem").nrows

    def test_invalid_node_count(self, tpch_db):
        with pytest.raises(ValueError):
            partition_table(tpch_db.table("lineitem"), 0, "l_orderkey")

    @pytest.mark.parametrize("n_nodes", [1, 2, 5, 24])
    def test_shards_equal_the_mask_partition(self, n_nodes):
        """Row for row: values, order, the same dictionary object and the
        same NULL masks as one boolean filter per node."""
        table = _mixed_table()
        got = partition_table(table, n_nodes, "k")
        want = _mask_partition(table, n_nodes, "k")
        assert len(got) == len(want) == n_nodes
        for shard, oracle in zip(got, want):
            assert shard.name == oracle.name and shard.column_names == oracle.column_names
            for name in table.column_names:
                a, b = shard.column(name), oracle.column(name)
                assert a.dtype is b.dtype and np.array_equal(a.values, b.values)
                assert a.dictionary is b.dictionary
                assert (a.valid is None) == (b.valid is None)
                if a.valid is not None:
                    assert np.array_equal(a.valid, b.valid)

    def test_lineitem_shards_equal_the_mask_partition(self, tpch_db):
        lineitem = tpch_db.table("lineitem")
        for got, want in zip(partition_table(lineitem, 4, "l_orderkey"),
                             _mask_partition(lineitem, 4, "l_orderkey")):
            for name in lineitem.column_names:
                assert np.array_equal(got.column(name).values, want.column(name).values)

    def test_non_integer_key_is_rejected(self):
        """A fractional key would fall in no shard (0.5 % 2 is no node)."""
        table = Table("t", {"k": Column(FLOAT64, np.array([0.5, 1.0, 2.5, 3.0]))})
        with pytest.raises(ValueError, match="integer"):
            partition_table(table, 2, "k")


class TestNodeCatalogs:
    def test_non_lineitem_tables_shared(self, tpch_db):
        node_dbs = replicate_database(tpch_db, 4, replication=1).node_dbs
        for node_db in node_dbs:
            for name in tpch_db.table_names:
                if name == "lineitem":
                    assert node_db.table(name).nrows < tpch_db.table(name).nrows
                else:
                    # replicated by reference, not copied
                    assert node_db.table(name) is tpch_db.table(name)

    def test_node_count(self, tpch_db):
        assert len(replicate_database(tpch_db, 24, replication=1).node_dbs) == 24

    def test_empty_cluster_rejected(self, tpch_db):
        with pytest.raises(ValueError):
            replicate_database(tpch_db, 0, replication=1)


class TestReplicatedLayout:
    def test_buddy_holders(self, tpch_db):
        layout = replicate_database(tpch_db, 4, replication=2)
        assert layout.holders == [[0, 1], [1, 2], [2, 3], [3, 0]]

    def test_replication_one_matches_paper_layout(self, tpch_db):
        """replication=1 is the paper's single-copy placement: every
        shard lives only on its own node."""
        layout = replicate_database(tpch_db, 4, replication=1)
        assert layout.holders == [[0], [1], [2], [3]]
        shards = partition_table(tpch_db.table("lineitem"), 4, "l_orderkey")
        for node, node_db in enumerate(layout.node_dbs):
            assert node_db.table("lineitem").nrows == shards[node].nrows

    def test_shards_cover_lineitem(self, tpch_db):
        layout = replicate_database(tpch_db, 6, replication=3)
        assert layout.total_rows == tpch_db.table("lineitem").nrows

    def test_db_for_serves_replicas(self, tpch_db):
        layout = replicate_database(tpch_db, 4, replication=2)
        primary = layout.db_for(1, 1)
        buddy = layout.db_for(1, 2)
        assert primary.table("lineitem") is buddy.table("lineitem")
        # Replicated tables are shared by reference with the base catalog.
        assert primary.table("nation") is tpch_db.table("nation")

    def test_db_for_rejects_non_holder(self, tpch_db):
        layout = replicate_database(tpch_db, 4, replication=2)
        with pytest.raises(ValueError, match="does not hold"):
            layout.db_for(0, 3)

    def test_db_for_caches(self, tpch_db):
        layout = replicate_database(tpch_db, 4, replication=2)
        assert layout.db_for(2, 3) is layout.db_for(2, 3)

    def test_replication_bounds(self, tpch_db):
        with pytest.raises(ValueError, match="replication factor"):
            replicate_database(tpch_db, 4, replication=0)
        with pytest.raises(ValueError, match="replication factor"):
            replicate_database(tpch_db, 4, replication=5)

    def test_full_replication(self, tpch_db):
        layout = replicate_database(tpch_db, 3, replication=3)
        for shard in range(3):
            assert sorted(layout.holders[shard]) == [0, 1, 2]

    def test_co_partitioned_tables_share_shards(self, tpch_db):
        keys = {"orders": "o_custkey", "customer": "c_custkey"}
        layout = replicate_database(tpch_db, 4, replication=2, partition_keys=keys)
        assert layout.total_rows == (
            tpch_db.table("orders").nrows + tpch_db.table("customer").nrows
        )
        buddy = layout.db_for(1, 2)
        assert set(buddy.table("orders").column("o_custkey").values % 4) <= {1}
        assert set(buddy.table("customer").column("c_custkey").values % 4) <= {1}
        assert buddy.table("lineitem") is tpch_db.table("lineitem")

    def test_unpartitioned_is_one_shard_every_node_holds(self, tpch_db):
        whole = replicate_database(tpch_db, 4, replication=2).unpartitioned(first=3)
        assert whole.holders == [[3, 0, 1, 2]]
        assert whole.n_nodes == 4 and whole.n_shards == 1
        assert whole.db_for(0, 2).table("lineitem") is tpch_db.table("lineitem")
        with pytest.raises(ValueError, match="not one of"):
            whole.unpartitioned(first=4)

    def test_compressed_layout_shares_replicas_and_compresses_shards(self, tpch_db):
        layout = replicate_database(tpch_db, 4, replication=2, compress=True)
        a, b = layout.db_for(0, 0), layout.db_for(1, 2)
        assert a.table("orders") is b.table("orders") is layout.base.table("orders")
        assert a.table("orders") is not tpch_db.table("orders")
        assert a.table("lineitem").nrows < tpch_db.table("lineitem").nrows
        assert a.table("lineitem").nbytes < layout.shard_rows(0) * (
            tpch_db.table("lineitem").nbytes / tpch_db.table("lineitem").nrows
        )
