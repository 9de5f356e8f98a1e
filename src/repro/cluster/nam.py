"""Network-attached-memory (NAM) hybrid cluster — the paper's §III-C1
future-work proposal, implemented as an extension.

One traditional server hosts a large memory pool next to the Pi nodes.
Memory-light query fragments run on the Pis as usual; when a fragment's
working set exceeds a node's 1 GB (the thrash regime), it is offloaded
to the memory server, which executes it at server speed on locally
resident data — "the server could perform tasks that require a large
amount of memory, such as an aggregation with many distinct keys or
performing a join". Results return over the server's (non-USB-limited)
Gigabit link.

Cost/energy accounting includes the extra server, so the Figs. 5-7
normalizations remain honest for the hybrid.
"""

from __future__ import annotations

from repro.engine import Database, WorkProfile
from repro.engine.plan import PlanNode
from repro.hardware import PLATFORMS, PlatformSpec

from .cluster import ClusterQueryRun, WimPiCluster
from .network import NetworkModel

__all__ = ["NamCluster"]

# The memory server sits on the switch with a real GbE port (no USB bus),
# so transfers run at ~940 Mbps usable.
_SERVER_LINK = NetworkModel(bandwidth_mbps=940.0, message_latency_s=0.0015)


class NamCluster(WimPiCluster):
    """A WIMPI cluster plus one memory server.

    It runs on the cluster's one runtime and returns its
    :class:`~repro.cluster.cluster.ClusterQueryRun`; only the price of
    an attempt differs (:meth:`_price`), and :meth:`offloaded` names the
    fragments the server ran.

    Args:
        memory_server: platform hosting the pool (default op-e5).
        offload_threshold: pressure ratio above which a fragment moves to
            the server (default: where thrashing would begin).
        Remaining arguments as for :class:`WimPiCluster`.
    """

    def __init__(
        self,
        n_nodes: int,
        memory_server: "str | PlatformSpec" = "op-e5",
        offload_threshold: float = 0.90,
        **kwargs,
    ):
        super().__init__(n_nodes, **kwargs)
        self.memory_server = (
            PLATFORMS[memory_server] if isinstance(memory_server, str) else memory_server
        )
        self.offload_threshold = offload_threshold

    def _price(
        self, node: int, db: Database, plan: PlanNode, profile: WorkProfile
    ) -> tuple[float, float, bool]:
        """A fragment that would thrash its Pi is offloaded: the server
        executes it at its own speed on pool-resident data (no thrash),
        then ships the fragment result back over its GbE link. The
        pressure stays the Pi's, which is what marks it offloaded."""
        seconds, pressure, _ = super()._price(node, db, plan, profile)
        if pressure <= self.offload_threshold:
            return seconds, pressure, True
        scaled = profile.scaled(self.scale)
        fragment = self.perf.predict(scaled, self.memory_server)
        transfer = _SERVER_LINK.transfer_time(scaled.result_bytes)
        return fragment + transfer, pressure, False

    def offloaded(self, run: ClusterQueryRun) -> list[int]:
        """Indices into ``run.node_pressure`` of the fragments the memory
        server ran."""
        return [
            i for i, pressure in enumerate(run.node_pressure)
            if pressure > self.offload_threshold
        ]

    # ------------------------------------------------------------------
    # Honest cost/energy accounting for the hybrid
    # ------------------------------------------------------------------

    @property
    def total_msrp_usd(self) -> float:
        server = self.memory_server.total_msrp_usd or 0.0
        return super().total_msrp_usd + server

    @property
    def peak_power_w(self) -> float:
        server = self.memory_server.total_tdp_w or 0.0
        return super().peak_power_w + server
