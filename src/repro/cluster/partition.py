"""Data placement for the WIMPI cluster.

The paper's setup (§II-D2): every table is fully replicated except
lineitem, which is partitioned evenly on ``l_orderkey``. Partitioning on
the order key keeps all lines of an order on one node, which is what
makes the driver's local-join + partial-aggregate strategy correct for
the chokepoint queries.

:func:`replicate_database` builds that placement as a
:class:`ReplicatedLayout` and additionally places each shard on
``replication`` consecutive nodes (shard ``s`` lives on nodes
``s, s+1, ..., s+r-1 mod N`` — the classic buddy scheme), so a lost
node's shard can be recovered from its buddies instead of failing the
query. ``replication=1`` is the paper's single-copy layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import Database, Frame, Table
from repro.engine.compression import compress_table

__all__ = [
    "ReplicatedLayout",
    "partition_table",
    "replicate_database",
]


def partition_table(table: Table, n_nodes: int, key: str) -> list[Table]:
    """Split ``table`` into ``n_nodes`` disjoint row sets by integer
    ``key`` modulo ``n_nodes``, each in table order (the stable scatter
    :meth:`~repro.engine.frame.Frame.partition`)."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    keys = table.column(key).values
    if keys.dtype.kind != "i":
        raise ValueError(f"partition key {key!r} is {keys.dtype}, not an integer column")
    parts = Frame.from_table(table).partition(keys % n_nodes, n_nodes)
    return [Table(table.name, part.columns) for part in parts]


@dataclass
class ReplicatedLayout:
    """Placement map for hash-partitioned tables with buddy replicas.

    ``shards[table][s]`` is shard ``s`` of a partitioned table (tables
    partitioned with the same modulus are co-located shard by shard) and
    ``holders[s]`` lists the nodes storing shard ``s``, primary first.
    Catalogs are materialized lazily by :meth:`db_for` and cached; every
    table not in ``shards`` comes from ``base`` by reference (replicas
    are immutable), so extra replicas cost only the shard views
    themselves. ``base`` is the full catalog — what a query that cannot
    be distributed runs against.
    """

    base: Database
    shards: dict[str, list[Table]]
    holders: list[list[int]]
    replication: int
    partition_keys: dict[str, str]
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_shards(self) -> int:
        return len(self.holders)

    @property
    def n_nodes(self) -> int:
        return len({node for nodes in self.holders for node in nodes})

    @property
    def node_dbs(self) -> list[Database]:
        """Primary catalogs: what each shard's first holder sees."""
        return [self.db_for(shard, nodes[0]) for shard, nodes in enumerate(self.holders)]

    def shard_rows(self, shard: int) -> int:
        """Partitioned rows stored in ``shard`` (its share of coverage)."""
        return sum(tables[shard].nrows for tables in self.shards.values())

    @property
    def total_rows(self) -> int:
        return sum(self.shard_rows(shard) for shard in range(self.n_shards))

    def db_for(self, shard: int, node: int) -> Database:
        """Catalog for executing ``shard``'s fragment on ``node``."""
        if node not in self.holders[shard]:
            raise ValueError(f"node {node} does not hold shard {shard} "
                             f"(holders: {self.holders[shard]})")
        key = (shard, node)
        if key not in self._cache:
            node_db = Database(f"{self.base.name}_shard{shard}@node{node}")
            for name in self.base.table_names:
                tables = self.shards.get(name)
                node_db.add(tables[shard] if tables else self.base.table(name))
            self._cache[key] = node_db
        return self._cache[key]

    def unpartitioned(self, first: int = 0) -> "ReplicatedLayout":
        """The same nodes and catalog with nothing partitioned: a single
        shard — all of ``base`` — that every node holds, ``first``
        first. This is where a query that cannot be distributed runs:
        any healthy node can host it."""
        nodes = range(self.n_nodes)
        if first not in nodes:
            raise ValueError(f"node {first} is not one of the layout's {self.n_nodes}")
        return ReplicatedLayout(
            base=self.base,
            shards={},
            holders=[[first] + [node for node in nodes if node != first]],
            replication=self.n_nodes,
            partition_keys={},
        )


def replicate_database(
    db: Database,
    n_nodes: int,
    replication: int = 2,
    partition_keys: dict[str, str] | None = None,
    compress: bool = False,
) -> ReplicatedLayout:
    """Partition tables across ``n_nodes`` with buddy replicas.

    Every table in ``partition_keys`` (``{table: key column}``; default:
    the paper's lineitem on ``l_orderkey``) is hash-partitioned and each
    shard placed on ``replication`` buddy nodes; everything else is
    replicated. Co-partitioned keys (same modulus) make equi-joins on
    those keys node-local. ``replication=1`` reproduces the paper's
    single-copy layout; ``replication=n_nodes`` fully replicates the
    tables.

    ``compress`` stores the data compressed (§III-C2 extension: trade
    the Pi's spare cycles for its scarce bandwidth/memory) — each table
    of the full catalog once, shared by every replica, and each shard
    separately."""
    if not 1 <= replication <= n_nodes:
        raise ValueError(
            f"replication factor must be between 1 and n_nodes={n_nodes}, "
            f"got {replication}"
        )
    if partition_keys is None:
        partition_keys = {"lineitem": "l_orderkey"}
    shards = {
        name: partition_table(db.table(name), n_nodes, key)
        for name, key in partition_keys.items()
    }
    base = db
    if compress:
        base = Database(db.name)
        for name in db.table_names:
            base.add(compress_table(db.table(name)))
        shards = {
            name: [compress_table(table) for table in tables]
            for name, tables in shards.items()
        }
    holders = [
        [(shard + r) % n_nodes for r in range(replication)]
        for shard in range(n_nodes)
    ]
    return ReplicatedLayout(
        base=base,
        shards=shards,
        holders=holders,
        replication=replication,
        partition_keys=partition_keys,
    )
