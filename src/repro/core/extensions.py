"""Extension experiments — the paper's discussion-section proposals,
built and measured (DESIGN.md lists them as optional scope):

* §III-C2 — aggressive compression to relieve the Pi's memory-bandwidth
  bottleneck (:func:`compression_study`);
* §III-C1 — the NAM hybrid cluster with a network-attached memory server
  (:func:`nam_study`);
* §III-B2 / §IV-B — energy proportionality: powering nodes on and off to
  track load (:func:`proportionality_study`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import WimPiCluster
from repro.cluster.nam import NamCluster
from repro.engine import DEFAULT_SETTINGS, Database, execute
from repro.engine.compression import compress_table, compression_ratio
from repro.hardware import EnergyModel, PLATFORMS, PerformanceModel
from repro.tpch import generate, get_query

__all__ = [
    "CompressionResult",
    "compression_study",
    "nam_study",
    "proportionality_study",
]


@dataclass
class CompressionResult:
    """Single-node compression outcome for one query/platform."""

    query: int
    platform: str
    plain_seconds: float
    compressed_seconds: float

    @property
    def speedup(self) -> float:
        return self.plain_seconds / self.compressed_seconds


def compression_study(
    base_sf: float = 0.02,
    target_sf: float = 10.0,
    queries: tuple[int, ...] = (1, 6, 14, 19),
    platforms: tuple[str, ...] = ("pi3b+", "op-e5"),
    seed: int = 42,
) -> dict:
    """Measure the §III-C2 trade on single nodes and on the cluster.

    Returns a dict with:
        ``ratio`` — whole-lineitem compression ratio;
        ``single_node`` — list of :class:`CompressionResult`;
        ``cliff`` — Q1 runtime at 4 nodes, plain vs compressed (the
        memory-pressure cliff should soften or vanish).
    """
    db = generate(base_sf, seed=seed)
    compressed = Database("tpch_compressed")
    for name in db.table_names:
        compressed.add(compress_table(db.table(name)))

    model = PerformanceModel()
    scale = target_sf / base_sf
    results: list[CompressionResult] = []
    # The study prices §III-C2's trade as the paper states it: stream
    # fewer bytes, pay decode cycles. Compressed execution (which skips
    # the decode entirely for sargable predicates) would hide the very
    # cycles being measured, so it is pinned off here; its own win is
    # measured by benchmarks/bench_compressed.py.
    decode_settings = DEFAULT_SETTINGS.without_compressed()
    for number in queries:
        query = get_query(number)
        plain = execute(db, query.build(db, {"sf": base_sf}))
        packed = execute(
            compressed, query.build(compressed, {"sf": base_sf}),
            settings=decode_settings,
        )
        for key in platforms:
            results.append(CompressionResult(
                query=number,
                platform=key,
                plain_seconds=model.predict(plain.profile.scaled(scale), PLATFORMS[key]),
                compressed_seconds=model.predict(packed.profile.scaled(scale), PLATFORMS[key]),
            ))

    cliff = {}
    for compress in (False, True):
        cluster = WimPiCluster(
            4, base_sf=base_sf, target_sf=target_sf, db=db, compress=compress
        )
        run = cluster.run_query(1)
        cliff["compressed" if compress else "plain"] = {
            "seconds": run.total_seconds,
            "pressure": max(run.node_pressure),
        }

    return {
        "ratio": compression_ratio(compressed.table("lineitem")),
        "single_node": results,
        "cliff": cliff,
    }


def nam_study(
    base_sf: float = 0.02,
    target_sf: float = 10.0,
    n_nodes: int = 4,
    queries: tuple[int, ...] = (1, 3, 5, 13),
    seed: int = 42,
) -> dict:
    """Compare plain WIMPI against the NAM hybrid at a thrash-prone
    cluster size. Returns per-query plain/hybrid runtimes, which nodes
    offloaded, and the hybrid's cost/power deltas."""
    db = generate(base_sf, seed=seed)
    plain = WimPiCluster(n_nodes, base_sf=base_sf, target_sf=target_sf, db=db)
    hybrid = NamCluster(n_nodes, base_sf=base_sf, target_sf=target_sf, db=db)
    per_query = {}
    for number in queries:
        base = plain.run_query(number)
        nam = hybrid.run_query(number)
        per_query[number] = {
            "plain_seconds": base.total_seconds,
            "nam_seconds": nam.total_seconds,
            "offloaded_nodes": len(nam.offloaded),
        }
    return {
        "queries": per_query,
        "plain_msrp": plain.total_msrp_usd,
        "nam_msrp": hybrid.total_msrp_usd,
        "plain_power_w": plain.peak_power_w,
        "nam_power_w": hybrid.peak_power_w,
    }


def proportionality_study(
    utilization_trace: list[float] | None = None,
    n_nodes: int = 24,
) -> dict:
    """Energy over a daily load trace: a WIMPI cluster that powers nodes
    off when idle vs. an always-on server (§III-B2's argument).

    Returns watt-hours for (a) the cluster with per-node power control,
    (b) the cluster always-on, (c) op-e5 always-on at the load-matched
    utilization, plus the proportionality curves.
    """
    if utilization_trace is None:
        # A bursty 24-hour analytics trace: quiet nights, busy afternoons.
        utilization_trace = [
            0.05, 0.05, 0.05, 0.05, 0.05, 0.10, 0.20, 0.40,
            0.60, 0.80, 0.90, 1.00, 0.95, 0.90, 0.85, 0.80,
            0.70, 0.55, 0.40, 0.30, 0.20, 0.10, 0.05, 0.05,
        ]
    model = EnergyModel()
    pi = PLATFORMS["pi3b+"]
    server = PLATFORMS["op-e5"]

    cluster_scaled = sum(
        model.proportionality_curve(pi, [u], nodes=n_nodes)[0]
        for u in utilization_trace
    )
    cluster_always_on = len(utilization_trace) * model.active_power(pi, nodes=n_nodes)
    server_curve = sum(
        model.proportionality_curve(server, [u])[0] for u in utilization_trace
    )
    return {
        "trace_hours": len(utilization_trace),
        "cluster_scaled_wh": cluster_scaled,
        "cluster_always_on_wh": cluster_always_on,
        "server_wh": server_curve,
        "savings_vs_always_on": 1 - cluster_scaled / cluster_always_on,
        "savings_vs_server": 1 - cluster_scaled / server_curve,
    }
