"""Ablation benches for the design choices DESIGN.md calls out:

* thrash model on/off — does the Table III cliff come from the memory
  pressure term alone?
* network gather latency sweep — is the Q6/Q14 plateau a latency effect?
* compression on/off at the cliff (§III-C2 extension);
* NAM offloading (§III-C1 extension).
"""

import pytest

from repro.analysis import render_matrix
from repro.cluster import NetworkModel, WimPiCluster
from repro.cluster.nam import NamCluster
from repro.tpch import generate

from conftest import write_artifact

BASE_SF = 0.02


@pytest.fixture(scope="module")
def db():
    return generate(BASE_SF)


def test_ablation_thrash_model(benchmark, db, output_dir):
    """Remove the memory-pressure multiplier: the 4-node cliff must
    disappear, proving it is the model's only source."""
    import repro.cluster.cluster as cluster_mod

    def run():
        cluster = WimPiCluster(4, base_sf=BASE_SF, target_sf=10.0, db=db)
        with_thrash = cluster.run_query(1).total_seconds
        original = cluster_mod.thrash_multiplier
        cluster_mod.thrash_multiplier = lambda *a, **k: 1.0
        try:
            cluster2 = WimPiCluster(4, base_sf=BASE_SF, target_sf=10.0, db=db)
            without = cluster2.run_query(1).total_seconds
        finally:
            cluster_mod.thrash_multiplier = original
        return with_thrash, without

    with_thrash, without = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_matrix(
        [("thrash model on", round(with_thrash, 2)),
         ("thrash model off", round(without, 2)),
         ("cliff factor", round(with_thrash / without, 1))],
        ["config", "Q1 @ 4 nodes (s)"],
        title="Ablation: memory-pressure multiplier",
    )
    write_artifact(output_dir, "ablation_thrash", text)
    assert with_thrash > 5 * without


def test_ablation_network_latency(benchmark, db, output_dir):
    """Sweep the driver's per-message latency: Q6 at 24 nodes should
    scale with it (the paper's network-bound plateau)."""

    def run():
        rows = []
        for latency_ms in (0.0, 1.0, 2.5, 5.0, 10.0):
            network = NetworkModel(message_latency_s=latency_ms / 1000.0)
            cluster = WimPiCluster(
                24, base_sf=BASE_SF, target_sf=10.0, db=db, network=network
            )
            rows.append((latency_ms, round(cluster.run_query(6).total_seconds, 3)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_matrix(rows, ["latency (ms)", "Q6 @ 24 nodes (s)"],
                         title="Ablation: driver message latency")
    write_artifact(output_dir, "ablation_network", text)
    times = [t for _, t in rows]
    assert times == sorted(times)  # latency directly surfaces in runtime


def test_extension_compression_cliff(benchmark, db, output_dir):
    """§III-C2: compressed base data shrinks the working set enough to
    defuse the 4-node cliff."""

    def run():
        out = {}
        for compress in (False, True):
            cluster = WimPiCluster(
                4, base_sf=BASE_SF, target_sf=10.0, db=db, compress=compress
            )
            r = cluster.run_query(1)
            out[compress] = (r.total_seconds, max(r.node_pressure))
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_matrix(
        [("plain", round(out[False][0], 2), round(out[False][1], 2)),
         ("compressed", round(out[True][0], 2), round(out[True][1], 2))],
        ["storage", "Q1 @ 4 nodes (s)", "memory pressure"],
        title="Extension: compression vs the memory cliff (paper SIII-C2)",
    )
    write_artifact(output_dir, "extension_compression", text)
    assert out[True][0] < out[False][0] / 3


def test_extension_nam_offload(benchmark, db, output_dir):
    """§III-C1: a network-attached-memory server absorbs the fragments
    that thrash a 1 GB node."""

    def run():
        plain = WimPiCluster(4, base_sf=BASE_SF, target_sf=10.0, db=db)
        hybrid = NamCluster(4, base_sf=BASE_SF, target_sf=10.0, db=db)
        rows = []
        for q in (1, 5, 13):
            rows.append((
                f"Q{q}",
                round(plain.run_query(q).total_seconds, 2),
                round(hybrid.run_query(q).total_seconds, 2),
            ))
        return rows, plain.total_msrp_usd, hybrid.total_msrp_usd

    rows, plain_cost, nam_cost = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_matrix(rows, ["query", "WIMPI (s)", "WIMPI+NAM (s)"],
                         title="Extension: NAM hybrid cluster (paper SIII-C1)")
    text += f"\n\nhardware cost: ${plain_cost:.0f} (plain) vs ${nam_cost:.0f} (hybrid)"
    write_artifact(output_dir, "extension_nam", text)
    for _, plain_s, nam_s in rows:
        assert nam_s < plain_s


def test_extension_shuffle_q13(benchmark, db, output_dir):
    """The paper's deferred future work: co-partitioning customer and
    orders on the customer key makes Q13 scale with the cluster instead
    of staying flat at ~103 s."""
    keys = {"orders": "o_custkey", "customer": "c_custkey"}

    def run():
        plain = WimPiCluster(24, base_sf=BASE_SF, target_sf=10.0, db=db)
        flat = plain.run_query(13).total_seconds
        rows = []
        for n in (4, 12, 24):
            q13 = WimPiCluster(
                n, base_sf=BASE_SF, target_sf=10.0, db=db, partition_keys=keys
            ).run_query(13)
            assert not q13.run.single_node
            rows.append((n, round(flat, 1),
                         round(q13.total_seconds + q13.shuffle_seconds, 2),
                         round(q13.total_seconds, 2)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_matrix(
        rows,
        ["nodes", "paper driver (s)", "with shuffle (s)", "pre-partitioned (s)"],
        title="Extension: distributed Q13 via co-partitioning (paper SII-D2 future work)",
    )
    write_artifact(output_dir, "extension_shuffle", text)
    assert all(row[2] < row[1] for row in rows)


def test_extension_tailored_composition(benchmark, db, output_dir):
    """§III-C1: mixing a few 8 GB Pi 4B nodes into the cluster gives
    memory-bound fallback queries somewhere to live."""
    from repro.cluster import PI4_NODE, NodeSpec

    def run():
        uniform = WimPiCluster(24, base_sf=BASE_SF, target_sf=10.0, db=db)
        mixed = WimPiCluster(
            24, node=[NodeSpec()] * 20 + [PI4_NODE] * 4,
            base_sf=BASE_SF, target_sf=10.0, db=db,
        )
        rows = []
        for q in (13, 1, 6):
            rows.append((
                f"Q{q}",
                round(uniform.run_query(q).total_seconds, 2),
                round(mixed.run_query(q).total_seconds, 2),
            ))
        return rows, uniform.total_msrp_usd, mixed.total_msrp_usd

    rows, u_cost, m_cost = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_matrix(
        rows, ["query", "24x Pi3B+ (s)", "20x Pi3B+ + 4x Pi4B-8GB (s)"],
        title="Extension: tailored node composition (paper SIII-C1)",
    )
    text += f"\n\nhardware cost: ${u_cost:.0f} vs ${m_cost:.0f}"
    write_artifact(output_dir, "extension_tailored", text)
    q13_uniform, q13_mixed = rows[0][1], rows[0][2]
    assert q13_mixed < q13_uniform / 10
