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

The server is one more of the cluster's machines, so its cost and power
count in the hybrid's Figs. 5-7 normalizations.
"""

from __future__ import annotations

from repro.engine import Database, WorkProfile
from repro.engine.plan import PlanNode
from repro.hardware import PLATFORMS, PlatformSpec

from .cluster import WimPiCluster
from .network import NetworkModel

__all__ = ["NamCluster"]

# The memory server sits on the switch with a real GbE port (no USB bus),
# so transfers run at ~940 Mbps usable.
_SERVER_LINK = NetworkModel(bandwidth_mbps=940.0, message_latency_s=0.0015)


class NamCluster(WimPiCluster):
    """A WIMPI cluster plus one memory server.

    It runs on the cluster's one runtime and returns its
    :class:`~repro.cluster.cluster.ClusterQueryRun`; only the price of
    an attempt differs (:meth:`_price`), and the run's
    :attr:`~repro.cluster.cluster.ClusterQueryRun.offloaded` names the
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
        self.machines += (self.memory_server,)

    def _price(
        self, node: int, db: Database, plan: PlanNode, profile: WorkProfile
    ) -> tuple[float, float, bool]:
        """A fragment that would thrash its Pi is offloaded: the server
        executes it at its own speed on pool-resident data (no thrash),
        then ships the fragment result back over its GbE link. The
        pressure stays the Pi's; ``on_node`` False marks it offloaded."""
        seconds, pressure, _ = super()._price(node, db, plan, profile)
        if pressure <= self.offload_threshold:
            return seconds, pressure, True
        scaled = profile.scaled(self.scale)
        fragment = self.perf.predict(scaled, self.memory_server)
        transfer = _SERVER_LINK.transfer_time(scaled.result_bytes)
        return fragment + transfer, pressure, False
