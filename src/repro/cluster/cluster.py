"""The WIMPI cluster facade: real distributed execution + runtime model.

``WimPiCluster`` glues the substrate together: it generates a TPC-H
database at a small base SF, partitions it across N simulated Raspberry
Pi nodes, really executes queries through the distributed driver (so
results are checkable), and predicts the wall-clock the paper's physical
cluster would show at the nominal SF:

    total = max over shards(recovery charges
                            + compute x thrash multiplier x slowdown)
            + sequential gather of partials over the 220 Mbps links
            + driver-side merge

and, next to the total, the time a layout other than the paper's would
take to get there: ``shuffle_seconds`` repartitions the partitioned
tables' referenced columns across the links (§II-D2's deferred
distributed joins). One clock prices the node phase:
:meth:`WimPiCluster._price` gives each attempt the seconds its node pays
at the target SF, and the driver derives every recovery charge from
those same seconds.

The thrash multiplier reproduces Table III's 4-node cliff: once a node's
working set exceeds its ~850 MB of usable memory, the microSD-backed
paging costs grow exponentially with overcommit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.engine import Database, WorkProfile
from repro.engine.optimizer import prune_columns
from repro.engine.plan import PlanNode
from repro.hardware import PerformanceModel, PLATFORMS, PI_KEY
from repro.tpch import generate, get_query

from .faults import FaultPlan
from .network import NetworkModel
from .node import MemoryModel, NodeSpec, collect_scan_columns
from .partition import replicate_database
from .reliability import (
    NodeUnresponsiveError,
    QueryOutOfMemoryError,
    SwapPolicy,
    classify_pressure,
)
from .resilient import RecoveryLog, RecoveryPolicy, ResilientDriver, ResilientRun

__all__ = ["ClusterQueryRun", "WimPiCluster", "thrash_multiplier"]


def thrash_multiplier(pressure_ratio: float, threshold: float = 0.90,
                      alpha: float = 5.5, cap: float = 45.0) -> float:
    """Slowdown from memory overcommit.

    1.0 while the working set fits; exponential in the overcommit beyond
    ``threshold`` (paging through a ~10 MB/s microSD card), capped.
    """
    if pressure_ratio <= threshold:
        return 1.0
    return min(cap, math.exp(alpha * (pressure_ratio - threshold)))


@dataclass
class ClusterQueryRun:
    """A distributed execution plus its modeled wall-clock breakdown.

    ``recovery_seconds`` is the modeled wall-clock added to the critical
    path by retries, timeouts and speculative re-execution (0.0 on a
    healthy cluster). ``shuffle_seconds`` is the modeled time to
    hash-repartition (one copy of) the partitioned tables the run read
    into the cluster's layout; it is not part of ``total_seconds``,
    which prices a pre-partitioned layout (0.0 for a single-node run,
    which reads the full catalog).
    """

    run: ResilientRun
    node_seconds: list[float]
    node_pressure: list[float]
    gather_seconds: float
    merge_seconds: float
    total_seconds: float
    recovery_seconds: float
    shuffle_seconds: float

    @property
    def result(self):
        return self.run.result

    @property
    def n_nodes(self) -> int:
        return self.run.n_nodes

    @property
    def coverage(self) -> float:
        """Fraction of partitioned rows the answer covers (< 1.0 only
        after unrecoverable loss)."""
        return self.run.coverage

    @property
    def recovery_log(self) -> RecoveryLog:
        return self.run.recovery

    @property
    def offloaded(self) -> list[int]:
        """Indices into ``node_pressure`` of the fragments that ran off
        their node (on a NAM memory server): those priced ``on_node``
        False."""
        winners = [o.winner for o in self.run.shard_outcomes if o.covered]
        return [i for i, winner in enumerate(winners) if not winner.on_node]


class WimPiCluster:
    """A cluster of N simulated Raspberry Pi nodes (3B+ by default).

    Args:
        n_nodes: cluster size (the paper tests 4-24).
        base_sf: scale factor actually generated and executed.
        target_sf: nominal scale factor the runtime model reports for
            (the paper's SF 10).
        seed: dbgen seed.
        node: node spec (memory size, platform), or one spec per node
            for a mixed cluster (§III-C1's tailored composition).
            Single-node queries run on the node with the most available
            memory, node 0 on a uniform cluster.
        network: network model (defaults to the USB-limited GbE).
        perf: performance model (defaults to calibrated constants).
        db: pre-generated database to reuse across cluster sizes
            (must match ``base_sf``/``seed``); generated when omitted.
        compress: store base data compressed (§III-C2 extension).
        swap_policy: thrash on overcommit (``SWAP``, the default) or
            raise isolated OOM errors (``NO_SWAP``, §III-C4).
        replication: lineitem replication factor; > 1 adds buddy
            replicas to recover lost shards from.
        fault_plan: deterministic injected-fault script.
        recovery: retry/timeout/speculation policy.
        partition_keys: ``{table: key column}`` to hash-partition, every
            other table replicated; default the paper's lineitem on
            ``l_orderkey``. ``{"orders": "o_custkey", "customer":
            "c_custkey"}`` co-partitions Q13's join, which then runs
            distributed. A query runs on one node whenever the layout
            would make it diverge per shard
            (:func:`~repro.cluster.distplan.single_node_reason`), so any
            keys return the single-node rows.

    A plain cluster raises the §III-C4 errors its memory model predicts
    (see ``swap_policy``); one asked for ``replication`` > 1, a
    ``fault_plan`` or a ``recovery`` policy absorbs them — injected
    failures already exercise the failure path, and surviving them is
    that runtime's job.
    """

    def __init__(
        self,
        n_nodes: int,
        base_sf: float = 0.05,
        target_sf: float = 10.0,
        seed: int = 42,
        node: NodeSpec | Sequence[NodeSpec] | None = None,
        network: NetworkModel | None = None,
        perf: PerformanceModel | None = None,
        db=None,
        compress: bool = False,
        swap_policy: SwapPolicy = SwapPolicy.SWAP,
        replication: int = 1,
        fault_plan: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
        tracer=None,
        partition_keys: dict[str, str] | None = None,
    ):
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.n_nodes = n_nodes
        self.tracer = tracer
        self.base_sf = base_sf
        self.target_sf = target_sf
        if node is None or isinstance(node, NodeSpec):
            node = [node or NodeSpec()] * n_nodes
        if len(node) != n_nodes:
            raise ValueError(f"{len(node)} node specs for {n_nodes} nodes")
        self.nodes = tuple(node)
        self.host = max(range(n_nodes), key=lambda i: self.nodes[i].available_bytes)
        # The machines the cluster's cost and power are summed over.
        self.machines = tuple(spec.platform for spec in self.nodes)
        self.network = network or NetworkModel()
        self.perf = perf or PerformanceModel()
        self.swap_policy = swap_policy
        self.memory = MemoryModel(self.nodes[0])
        self.db = db if db is not None else generate(base_sf, seed=seed)
        self.compress = compress
        self.replication = replication
        self.fault_plan = fault_plan
        self._absorbs_failures = (
            replication > 1 or fault_plan is not None or recovery is not None
        )
        self.layout = replicate_database(
            self.db, n_nodes, replication, partition_keys, compress
        )
        self.driver = ResilientDriver(
            self.layout,
            fault_plan=fault_plan,
            policy=recovery,
            price=self._price,
            network=self.network,
            tracer=tracer,
        )
        self._pi = PLATFORMS[PI_KEY]

    @property
    def scale(self) -> float:
        return self.target_sf / self.base_sf

    def run_query(self, number: int, params: dict | None = None) -> ClusterQueryRun:
        """Execute TPC-H query ``number`` on the cluster and model its
        wall-clock at the target scale factor."""
        query = get_query(number)
        params = dict(params or {})
        params.setdefault("sf", self.base_sf)
        run = self.driver.run(query, params, fallback_host=self.host)
        modeled = self._model(run)
        if not self._absorbs_failures:
            # §III-C4 reliability semantics: with swap disabled an
            # over-committed fragment dies with an isolated OOM (node
            # stays healthy); with swap enabled it thrashes, and only an
            # extreme over-commit renders the node unresponsive. A
            # fragment that ran off its node never loaded it.
            offloaded = modeled.offloaded
            for i, pressure in enumerate(modeled.node_pressure):
                if i in offloaded:
                    continue
                outcome = classify_pressure(i, pressure, self.swap_policy)
                if outcome.outcome == "oom":
                    raise QueryOutOfMemoryError(i, pressure)
                if outcome.outcome == "unresponsive":
                    raise NodeUnresponsiveError(i, pressure)
        return modeled

    def _price(
        self, node: int, db: Database, plan: PlanNode, profile: WorkProfile
    ) -> tuple[float, float, bool]:
        """Modeled seconds and memory pressure of one attempt of ``plan``
        on ``node`` over ``db``, and whether the node itself ran it
        (always, here): the measured profile scaled to the target SF,
        predicted on the node's platform and multiplied by the thrash
        its pressure causes. The driver prices every attempt with this
        and charges its recovery actions on the same clock."""
        spec = self.nodes[node]
        scaled = profile.scaled(self.scale)
        ratio = MemoryModel(spec).pressure_ratio(
            db, prune_columns(plan, db), scaled, self.scale
        )
        seconds = self.perf.predict(scaled, spec.platform, spec.platform.total_cores)
        return seconds * thrash_multiplier(ratio), ratio, True

    def _model(self, run: ResilientRun) -> ClusterQueryRun:
        """Wall-clock model of one execution, assembled from what the
        driver priced: each shard's modeled completion (its winner's
        seconds plus every recovery charge — backoff waits, paid
        timeouts, abandoned attempts, speculative copies), then gather,
        merge and shuffle. A single-node run is one fragment
        over the full catalog on the node that answered, with nothing to
        gather or merge."""
        layout = run.layout
        covered = [o for o in run.shard_outcomes if o.covered]
        # A shard nothing answered still paid its chain of timeouts.
        node_seconds = [o.completion_s for o in covered] + [
            o.completion_s for o in run.shard_outcomes if not o.covered
        ]
        node_pressure = [o.winner.pressure for o in covered]
        # Partial results do not grow with SF (they are aggregates), so
        # gather/merge use the measured sizes directly.
        gather = self.network.gather_time(run.partial_bytes_per_node)
        merge = (
            self.perf.predict(run.merge_profile, self._pi, self._pi.total_cores)
            if run.merge_profile is not None
            else 0.0
        )
        slowest = max(node_seconds) if node_seconds else 0.0
        slowest_clean = max((o.winner.estimate_s for o in covered), default=0.0)
        total = slowest + gather + merge
        # Repartitioning from another layout: all nodes send at once,
        # each holding 1/N of every partitioned table and keeping 1/N
        # of it, so each sends bytes/N x (N-1)/N over its own link, once
        # per replica: every partition goes to its r holders.
        referenced = collect_scan_columns(
            prune_columns(run.local_plan, layout.node_dbs[0])
        )
        shuffled = 0.0
        for name in layout.partition_keys:
            if name not in referenced:
                continue
            table = layout.base.table(name)
            columns = referenced[name]
            for column in table.column_names if "*" in columns else sorted(columns):
                per_row = self.memory.column_bytes_per_row(layout.base, name, column)
                shuffled += per_row * table.nrows * self.scale
        n = self.n_nodes
        shuffle = (
            self.network.transfer_time(shuffled / n * (n - 1) / n * layout.replication)
            if shuffled else 0.0
        )
        return ClusterQueryRun(
            run=run,
            node_seconds=node_seconds,
            node_pressure=node_pressure,
            gather_seconds=gather,
            merge_seconds=merge,
            total_seconds=total,
            recovery_seconds=slowest - slowest_clean,
            shuffle_seconds=shuffle,
        )

    # ------------------------------------------------------------------

    @property
    def total_msrp_usd(self) -> float:
        """Hardware cost of the cluster's machines (the paper's $35 per
        Pi 3B+)."""
        return sum(m.total_msrp_usd or 0.0 for m in self.machines)

    @property
    def peak_power_w(self) -> float:
        return sum(m.total_tdp_w or 0.0 for m in self.machines)
