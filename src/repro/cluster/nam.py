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

from dataclasses import dataclass

from repro.engine.optimizer import prune_columns
from repro.hardware import PLATFORMS, PlatformSpec
from repro.tpch import get_query

from .cluster import ClusterQueryRun, WimPiCluster, thrash_multiplier
from .network import NetworkModel

__all__ = ["NamCluster", "NamQueryRun"]

# The memory server sits on the switch with a real GbE port (no USB bus),
# so transfers run at ~940 Mbps usable.
_SERVER_LINK = NetworkModel(bandwidth_mbps=940.0, message_latency_s=0.0015)


@dataclass
class NamQueryRun:
    """A hybrid execution: where each fragment ran and the wall-clock."""

    base: ClusterQueryRun
    offloaded_nodes: list[int]
    server_seconds: float
    total_seconds: float

    @property
    def result(self):
        return self.base.result

    @property
    def offloaded(self) -> bool:
        return bool(self.offloaded_nodes)


class NamCluster(WimPiCluster):
    """A WIMPI cluster plus one memory server.

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

    def run_query(self, number: int, params: dict | None = None) -> NamQueryRun:  # type: ignore[override]
        query = get_query(number)
        params = dict(params or {})
        params.setdefault("sf", self.base_sf)
        base = super().run_query(number, params)

        offloaded: list[int] = []
        node_seconds = list(base.node_seconds)
        server_seconds = 0.0
        profiles = [p.scaled(self.scale) for p in base.run.node_profiles]
        for i, (pressure, profile) in enumerate(zip(base.node_pressure, profiles)):
            if pressure <= self.offload_threshold:
                continue
            # Offload: the server executes the fragment at its own speed
            # on pool-resident data (no thrash), then ships the fragment
            # result back over its GbE link.
            fragment = self.perf.predict(profile, self.memory_server)
            result_bytes = profile.result_bytes
            transfer = _SERVER_LINK.transfer_time(result_bytes)
            node_seconds[i] = fragment + transfer
            server_seconds += fragment
            offloaded.append(i)

        total = max(node_seconds) + base.gather_seconds + base.merge_seconds
        return NamQueryRun(
            base=base,
            offloaded_nodes=offloaded,
            server_seconds=server_seconds,
            total_seconds=total,
        )

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
