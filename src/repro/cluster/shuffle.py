"""Repartitioned (shuffle) distributed execution — the paper's deferred
future work, implemented.

The paper's driver only parallelizes queries through the lineitem
partitioning; Q13 (customer ⋈ orders) therefore runs on a single node and
stays flat at ~103 s for every cluster size: "A more sophisticated
distributed query processing approach that could also parallelize joins
between other tables would likely yield performance trends similar to
those observed for the other queries, but this type of optimization is
beyond the scope of this paper." (§II-D2)

This module provides that optimization: tables are hash-co-partitioned on
their join keys, so the join and the first aggregation are local to each
node; partial results merge through the same
:func:`~repro.cluster.distplan.split_for_partial_aggregation` machinery.
The runtime model charges an optional shuffle phase (moving each
repartitioned table's referenced columns across the 220 Mbps links) for
the case where data was not already laid out that way.

Correctness caveat: the caller chooses partition keys, and they must keep
the plan's semantics node-local — equi-joins co-partitioned, and no
*global* scalar subqueries over a partitioned table (a per-node scalar
would diverge; Q22's AVG(c_acctbal) is the canonical example, pinned by a
test). Q13 under ``{"orders": "o_custkey", "customer": "c_custkey"}`` is
the safe, paper-motivated use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Database
from repro.engine.optimizer import prune_columns
from repro.hardware import PLATFORMS, PI_KEY, PerformanceModel
from repro.tpch import generate, get_query

from .cluster import thrash_multiplier
from .network import NetworkModel
from .node import MemoryModel, NodeSpec, collect_scan_columns
from .partition import replicate_database
from .resilient import ResilientDriver

__all__ = ["RepartitionedRun", "repartition_database", "run_repartitioned"]


def repartition_database(
    db: Database, n_nodes: int, partition_keys: dict[str, str]
) -> list[Database]:
    """Per-node catalogs co-partitioned on ``partition_keys``.

    Every listed table is hash-partitioned on its key column and the
    rest replicated: the single-copy
    :func:`~repro.cluster.partition.replicate_database` layout under
    those keys."""
    return replicate_database(db, n_nodes, 1, partition_keys).node_dbs


@dataclass
class RepartitionedRun:
    """Outcome of a shuffle-distributed execution."""

    query_number: int
    n_nodes: int
    result: object
    shuffle_seconds: float
    node_seconds: list[float]
    node_pressure: list[float]
    gather_seconds: float
    merge_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.shuffle_seconds
            + max(self.node_seconds)
            + self.gather_seconds
            + self.merge_seconds
        )


def _shuffle_time(
    db: Database,
    local_plan,
    partition_keys: dict[str, str],
    n_nodes: int,
    scale: float,
    memory: MemoryModel,
    network: NetworkModel,
) -> float:
    """Time to repartition the referenced columns of the shuffled tables.

    All nodes send concurrently; each holds 1/N of every table and keeps
    1/N of what it holds, so it transmits total_bytes/N x (N-1)/N over
    its own (USB-limited) link.
    """
    total_bytes = 0.0
    referenced = collect_scan_columns(local_plan)
    for table_name in partition_keys:
        if table_name not in referenced:
            continue
        table = db.table(table_name)
        columns = referenced[table_name]
        names = table.column_names if "*" in columns else sorted(columns)
        for column in names:
            per_row = memory.column_bytes_per_row(db, table_name, column)
            total_bytes += per_row * table.nrows * scale
    per_node = total_bytes / n_nodes * (n_nodes - 1) / n_nodes
    return network.transfer_time(per_node)


def run_repartitioned(
    number: int,
    n_nodes: int,
    partition_keys: dict[str, str],
    base_sf: float = 0.02,
    target_sf: float = 10.0,
    seed: int = 42,
    db: Database | None = None,
    include_shuffle: bool = True,
    node: NodeSpec | None = None,
    network: NetworkModel | None = None,
    perf: PerformanceModel | None = None,
) -> RepartitionedRun:
    """Execute a TPC-H query with tables co-partitioned on
    ``partition_keys`` (e.g. ``{"orders": "o_custkey",
    "customer": "c_custkey"}`` for Q13) and model its wall-clock.

    ``include_shuffle=False`` models a pre-partitioned layout (the
    transparent-partitioning feature the paper wishes MonetDB had).
    """
    db = db if db is not None else generate(base_sf, seed=seed)
    node = node or NodeSpec()
    network = network or NetworkModel()
    perf = perf or PerformanceModel()
    memory = MemoryModel(node)
    query = get_query(number)
    params = {"sf": base_sf}
    scale = target_sf / base_sf

    layout = replicate_database(db, n_nodes, 1, partition_keys)
    node_dbs = layout.node_dbs
    run = ResilientDriver(layout, perf=perf, network=network).run(
        query, params, force_distribute=True
    )
    if run.single_node:
        raise ValueError(
            f"Q{number} did not distribute under partition keys {partition_keys}; "
            "its top-level aggregate is not decomposable"
        )

    pi = PLATFORMS[PI_KEY]
    pruned = prune_columns(run.local_plan, node_dbs[0])
    node_seconds, node_pressure = [], []
    for node_db, profile in zip(node_dbs, run.node_profiles):
        scaled = profile.scaled(scale)
        pressure = memory.pressure_ratio(node_db, pruned, scaled, scale)
        seconds = perf.predict(scaled, pi, pi.total_cores)
        node_seconds.append(seconds * thrash_multiplier(pressure))
        node_pressure.append(pressure)

    shuffle = (
        _shuffle_time(db, pruned, partition_keys, n_nodes, scale, memory, network)
        if include_shuffle
        else 0.0
    )
    gather = network.gather_time(run.partial_bytes_per_node)
    merge = perf.predict(run.merge_profile, pi, pi.total_cores)
    return RepartitionedRun(
        query_number=number,
        n_nodes=n_nodes,
        result=run.result,
        shuffle_seconds=shuffle,
        node_seconds=node_seconds,
        node_pressure=node_pressure,
        gather_seconds=gather,
        merge_seconds=merge,
    )
