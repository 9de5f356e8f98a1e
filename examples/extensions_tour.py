"""The paper's discussion-section proposals, built and measured.

1. §III-C2 — heavyweight compression on bandwidth-starved SBCs;
2. §III-C1 — the NAM (network-attached memory) hybrid cluster;
3. §III-B2 — fine-grained energy proportionality via node power control;
4. §II-D2 — distributed joins via co-partitioning (Q13 un-flattened);
5. §III-C1 — tailored node composition (a few 8 GB Pi 4B nodes).

Run:  python examples/extensions_tour.py
"""

from repro.cluster import PI4_NODE, NodeSpec, WimPiCluster
from repro.core.extensions import compression_study, nam_study, proportionality_study
from repro.tpch import generate


def main() -> None:
    print("=== 1. Compression (paper §III-C2) ===")
    c = compression_study(base_sf=0.02)
    print(f"lineitem compression ratio: {c['ratio']:.2f}x")
    print("single-node query speedups from compressed storage:")
    for r in c["single_node"]:
        print(f"  Q{r.query:<3} on {r.platform:<7} {r.speedup:.2f}x")
    cliff = c["cliff"]
    print(f"Q1 at 4 WIMPI nodes: {cliff['plain']['seconds']:.1f} s plain "
          f"(pressure {cliff['plain']['pressure']:.2f}) -> "
          f"{cliff['compressed']['seconds']:.1f} s compressed "
          f"(pressure {cliff['compressed']['pressure']:.2f})")
    print("-> the cheap-CPU/scarce-bandwidth trade the paper predicted: "
          "compression pays on the Pi, is neutral on the Xeon, and "
          "defuses the memory cliff.\n")

    print("=== 2. NAM hybrid cluster (paper §III-C1) ===")
    n = nam_study(base_sf=0.02)
    for q, row in sorted(n["queries"].items()):
        print(f"  Q{q:<3} {row['plain_seconds']:8.2f} s -> {row['nam_seconds']:6.2f} s "
              f"({row['offloaded_nodes']} fragment(s) offloaded)")
    print(f"cost of the hybrid: ${n['plain_msrp']:.0f} -> ${n['nam_msrp']:.0f}, "
          f"power {n['plain_power_w']:.0f} W -> {n['nam_power_w']:.0f} W")
    print("-> memory-heavy fragments run on the pool server; the Pis keep "
          "the embarrassingly parallel scans.\n")

    print("=== 3. Energy proportionality (paper §III-B2) ===")
    p = proportionality_study()
    print(f"24-hour bursty trace, 24-node WIMPI:")
    print(f"  nodes powered on/off: {p['cluster_scaled_wh']:.0f} Wh")
    print(f"  cluster always-on:    {p['cluster_always_on_wh']:.0f} Wh")
    print(f"  op-e5 always-on:      {p['server_wh']:.0f} Wh")
    print(f"  savings: {p['savings_vs_always_on']:.0%} vs always-on, "
          f"{p['savings_vs_server']:.0%} vs the server\n")

    print("=== 4. Distributed joins via co-partitioning (paper §II-D2) ===")
    db = generate(0.02)
    flat = WimPiCluster(24, base_sf=0.02, target_sf=10.0, db=db).run_query(13)
    keys = {"orders": "o_custkey", "customer": "c_custkey"}
    q13 = WimPiCluster(24, base_sf=0.02, target_sf=10.0, db=db,
                       partition_keys=keys).run_query(13)
    print(f"  Q13: paper driver {flat.total_seconds:.1f} s (flat at every size)")
    print(f"       with shuffle  {q13.total_seconds + q13.shuffle_seconds:.2f} s "
          f"(of which {q13.shuffle_seconds:.2f} s repartitioning)")
    print(f"       pre-partitioned {q13.total_seconds:.2f} s\n")

    print("=== 5. Tailored node composition (paper §III-C1) ===")
    mixed = WimPiCluster(24, node=[NodeSpec()] * 20 + [PI4_NODE] * 4,
                         base_sf=0.02, target_sf=10.0, db=db)
    q13 = mixed.run_query(13)
    print(f"  20x Pi 3B+ + 4x Pi 4B (8 GB): Q13 {q13.total_seconds:.2f} s "
          f"(pressure {max(q13.node_pressure):.2f})")
    print(f"  cluster cost ${mixed.total_msrp_usd:.0f} vs $840 all-Pi3, "
          f"${24 * 75:.0f} all-Pi4")


if __name__ == "__main__":
    main()
