"""NAM hybrid-cluster tests (§III-C1 extension)."""

import statistics

import pytest

from repro.cluster import PI4_NODE, FaultPlan, InjectedFault, NodeSpec, WimPiCluster
from repro.cluster.nam import NamCluster
from repro.engine import execute
from repro.tpch import get_query


@pytest.fixture(scope="module")
def pair(tpch_db):
    plain = WimPiCluster(4, base_sf=0.01, target_sf=10.0, db=tpch_db)
    hybrid = NamCluster(4, base_sf=0.01, target_sf=10.0, db=tpch_db)
    return plain, hybrid


class TestOffloading:
    def test_thrashing_fragments_offload(self, pair):
        _, hybrid = pair
        run = hybrid.run_query(1)  # Q1 at 4 nodes is in the thrash regime
        assert run.offloaded
        assert run.total_seconds < 5.0

    def test_nam_eliminates_the_cliff(self, pair):
        plain, hybrid = pair
        for q in (1, 5):
            base = plain.run_query(q)
            nam = hybrid.run_query(q)
            assert nam.total_seconds < base.total_seconds / 5, q

    def test_light_fragments_stay_on_pis(self, pair):
        plain, hybrid = pair
        run = hybrid.run_query(6)  # Q6 fits comfortably per node
        assert not run.offloaded
        assert run.total_seconds == pytest.approx(plain.run_query(6).total_seconds)

    def test_q13_single_node_offloads(self, pair):
        plain, hybrid = pair
        run = hybrid.run_query(13)
        assert run.offloaded == [0]
        assert run.total_seconds < plain.run_query(13).total_seconds

    def test_results_identical_to_plain(self, pair):
        plain, hybrid = pair
        assert hybrid.run_query(1).result.rows == plain.run_query(1).result.rows

    def test_q7_runs_where_a_plain_cluster_cannot(self, pair, tpch_db, tpch_params):
        """Q7 over-commits every 4-node Pi ~3.6x; the server ran those
        fragments, so no Pi is reported unresponsive for them."""
        _, hybrid = pair
        run = hybrid.run_query(7)
        assert run.offloaded == [0, 1, 2, 3]
        assert min(run.node_pressure) > 3.0
        single = execute(tpch_db, get_query(7).build(tpch_db, tpch_params))
        assert len(run.result.rows) == len(single.rows)
        for got, want in zip(run.result.rows, single.rows):
            assert got[:3] == want[:3]
            assert got[3] == pytest.approx(want[3], rel=1e-9)


class _Recording(NamCluster):
    """A NAM cluster that notes where each attempt it prices ran."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.priced: list[tuple[int, bool]] = []

    def _price(self, node, db, plan, profile):
        priced = super()._price(node, db, plan, profile)
        self.priced.append((node, priced[2]))
        return priced


class TestOffloadedIsWhatWasPriced:
    @pytest.mark.parametrize("number", [1, 6, 13])
    def test_offloaded_lists_the_off_node_fragments(self, tpch_db, number):
        """Three Pi 3B+ and one 8 GB Pi 4B: Q1 thrashes only the small
        nodes, so the server runs some fragments and not others."""
        hybrid = _Recording(
            4, node=[NodeSpec()] * 3 + [PI4_NODE],
            base_sf=0.01, target_sf=10.0, db=tpch_db,
        )
        run = hybrid.run_query(number)
        off_node = sorted(node for node, on_node in hybrid.priced if not on_node)
        assert [run.run.exec_nodes[i] for i in run.offloaded] == off_node
        if number == 1:
            assert run.offloaded == [0, 1, 2]


class TestFaultsOnTheHybrid:
    """Faults strike the Pi nodes; the hybrid prices what survives."""

    @staticmethod
    def _hybrid(tpch_db, replication, *faults):
        return NamCluster(
            4, base_sf=0.01, target_sf=10.0, db=tpch_db,
            replication=replication, fault_plan=FaultPlan(faults),
        )

    def test_straggler_does_not_slow_an_offloaded_fragment(self, pair, tpch_db):
        """A slow Pi does not slow the work the memory server did."""
        _, hybrid = pair
        clean = hybrid.run_query(1)
        faulted = self._hybrid(tpch_db, 1, InjectedFault("straggler", 0, slowdown=8.0))
        run = faulted.run_query(1)
        assert 0 in run.offloaded
        assert run.node_seconds == clean.node_seconds
        assert run.run.shard_outcomes[0].winner.slowdown == 1.0

    def test_straggler_slows_a_fragment_its_pi_ran(self, pair, tpch_db):
        _, hybrid = pair
        clean = hybrid.run_query(6)
        faulted = self._hybrid(tpch_db, 1, InjectedFault("straggler", 0, slowdown=8.0))
        run = faulted.run_query(6)
        assert run.offloaded == []
        assert run.node_seconds[0] == pytest.approx(8 * clean.node_seconds[0])

    def test_oom_is_charged_on_the_hybrid_clock(self, pair, tpch_db):
        """An OOM on an offloading node is recovered from its buddy and
        charged the median of the hybrid-priced attempts."""
        plain, hybrid = pair
        faulted = self._hybrid(tpch_db, 2, InjectedFault("oom", 0))
        run = faulted.run_query(1)
        [oom] = [e for e in run.recovery_log.events if e.kind == "oom"]
        estimates = [o.winner.estimate_s for o in run.run.shard_outcomes]
        assert oom.charged_s == pytest.approx(statistics.median(estimates))
        assert run.offloaded
        assert run.result.rows == plain.run_query(1).result.rows


class TestHonestAccounting:
    def test_msrp_includes_server(self, pair):
        plain, hybrid = pair
        assert hybrid.total_msrp_usd == pytest.approx(
            plain.total_msrp_usd + 2 * 1389.0
        )

    def test_power_includes_server(self, pair):
        plain, hybrid = pair
        assert hybrid.peak_power_w == pytest.approx(plain.peak_power_w + 190.0)

    def test_custom_server_platform(self, tpch_db):
        hybrid = NamCluster(
            4, memory_server="op-gold", base_sf=0.01, target_sf=10.0, db=tpch_db
        )
        assert hybrid.memory_server.key == "op-gold"
