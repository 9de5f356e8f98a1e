"""Ablation benches for the design choices DESIGN.md calls out:

* thrash model on/off — does the Table III cliff come from the memory
  pressure term alone?
* network gather latency sweep — is the Q6/Q14 plateau a latency effect?

The extension studies are blocks of ``repro.core.report.EXTENSIONS``.
"""

import pytest

from repro.analysis import render_matrix
from repro.cluster import NetworkModel, WimPiCluster
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

