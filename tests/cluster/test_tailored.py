"""Tailored (heterogeneous) cluster tests — paper §III-C1's node-mix idea:
one ``WimPiCluster`` given one node spec per node."""

import pytest

from repro.cluster import PI4_NODE, NodeSpec, WimPiCluster
from repro.hardware import PI4_KEY, get_platform


@pytest.fixture(scope="module")
def clusters(tpch_db):
    uniform = WimPiCluster(24, base_sf=0.01, target_sf=10.0, db=tpch_db)
    mixed = WimPiCluster(
        24, node=[NodeSpec()] * 20 + [PI4_NODE] * 4,
        base_sf=0.01, target_sf=10.0, db=tpch_db,
    )
    return uniform, mixed


class TestPi4Platform:
    def test_spec_values(self):
        pi4 = get_platform(PI4_KEY)
        assert pi4.msrp_usd == 75.0
        assert pi4.cores == 4
        assert pi4.category == "sbc"

    def test_pi4_node_has_8gb(self):
        assert PI4_NODE.memory_bytes == 8e9
        assert PI4_NODE.available_bytes > 7e9

    def test_pi4_excluded_from_the_papers_testbed(self):
        from repro.hardware import ALL_KEYS

        assert PI4_KEY not in ALL_KEYS  # extension, not a Table I row


class TestTailoring:
    def test_q13_moves_to_the_big_node_and_stops_thrashing(self, clusters):
        uniform, mixed = clusters
        u = uniform.run_query(13)
        m = mixed.run_query(13)
        assert max(m.node_pressure) < 1.0 < max(u.node_pressure)
        assert m.total_seconds < u.total_seconds / 10

    def test_parallel_queries_unaffected(self, clusters):
        uniform, mixed = clusters
        for q in (1, 6):
            u = uniform.run_query(q)
            m = mixed.run_query(q)
            # Pi 4 nodes are no slower, so max-node time cannot rise.
            assert m.total_seconds <= u.total_seconds * 1.01

    def test_results_identical(self, clusters):
        uniform, mixed = clusters
        assert mixed.run_query(13).result.rows == uniform.run_query(13).result.rows

    def test_single_node_placement_picks_largest_memory(self, clusters):
        _, mixed = clusters
        assert mixed.nodes[mixed.host] is PI4_NODE

    def test_placement_holds_under_replication(self, tpch_db):
        specs = [NodeSpec()] * 3 + [PI4_NODE]
        kwargs = dict(base_sf=0.01, target_sf=10.0, db=tpch_db)
        single_copy = WimPiCluster(4, node=specs, **kwargs).run_query(13)
        replicated = WimPiCluster(4, node=specs, replication=2, **kwargs).run_query(13)
        assert replicated.run.exec_nodes == [3]
        assert replicated.total_seconds == single_copy.total_seconds

    def test_cost_and_power_reflect_the_mix(self, clusters):
        uniform, mixed = clusters
        assert mixed.total_msrp_usd == pytest.approx(20 * 35 + 4 * 75)
        assert mixed.peak_power_w == pytest.approx(20 * 5.1 + 4 * 7.6)
        assert mixed.total_msrp_usd > uniform.total_msrp_usd

    def test_tailoring_is_cheaper_than_all_pi4(self, tpch_db):
        all_pi4 = WimPiCluster(24, node=PI4_NODE, base_sf=0.01,
                               target_sf=10.0, db=tpch_db)
        mixed = WimPiCluster(24, node=[NodeSpec()] * 20 + [PI4_NODE] * 4,
                             base_sf=0.01, target_sf=10.0, db=tpch_db)
        assert mixed.total_msrp_usd < all_pi4.total_msrp_usd
        # ...while solving the same Q13 memory problem.
        assert max(mixed.run_query(13).node_pressure) < 1.0

    def test_empty_composition_rejected(self, tpch_db):
        with pytest.raises(ValueError):
            WimPiCluster(0, node=[], db=tpch_db)
