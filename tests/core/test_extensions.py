"""Extension-experiment tests: compression study, NAM study,
energy-proportionality study."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extensions import compression_study, nam_study, proportionality_study
from repro.hardware import PLATFORMS, PI_KEY, EnergyModel

PI = PLATFORMS[PI_KEY]


@pytest.fixture(scope="module")
def compression():
    return compression_study(base_sf=0.01, queries=(1, 6))


class TestCompressionStudy:
    def test_ratio_reported(self, compression):
        assert compression["ratio"] > 2.0

    def test_pi_speedups_exceed_server(self, compression):
        by_query = {}
        for r in compression["single_node"]:
            by_query.setdefault(r.query, {})[r.platform] = r.speedup
        for query, per in by_query.items():
            assert per["pi3b+"] > per["op-e5"], query

    def test_cliff_softens(self, compression):
        cliff = compression["cliff"]
        assert cliff["compressed"]["seconds"] < cliff["plain"]["seconds"] / 3
        assert cliff["compressed"]["pressure"] < cliff["plain"]["pressure"]


class TestNamStudy:
    @pytest.fixture(scope="class")
    def nam(self):
        return nam_study(base_sf=0.01, queries=(1, 13))

    def test_nam_fixes_thrash_queries(self, nam):
        for q, row in nam["queries"].items():
            assert row["nam_seconds"] < row["plain_seconds"], q

    def test_offload_counts(self, nam):
        assert nam["queries"][1]["offloaded_nodes"] == 4
        assert nam["queries"][13]["offloaded_nodes"] == 1

    def test_cost_tradeoff_is_visible(self, nam):
        assert nam["nam_msrp"] > nam["plain_msrp"]
        assert nam["nam_power_w"] > nam["plain_power_w"]


class TestProportionalityStudy:
    @pytest.fixture(scope="class")
    def prop(self):
        return proportionality_study()

    def test_scaling_saves_versus_always_on(self, prop):
        assert prop["cluster_scaled_wh"] < prop["cluster_always_on_wh"]
        assert prop["savings_vs_always_on"] > 0.3

    def test_cluster_beats_server_on_bursty_load(self, prop):
        assert prop["cluster_scaled_wh"] < prop["server_wh"]

    def test_custom_trace(self):
        flat = proportionality_study(utilization_trace=[1.0] * 4)
        # At constant full load there is nothing to save.
        assert flat["savings_vs_always_on"] == pytest.approx(0.0)

    def test_idle_trace_near_zero_energy(self):
        idle = proportionality_study(utilization_trace=[0.0] * 4)
        assert idle["cluster_scaled_wh"] == pytest.approx(0.0)
        assert idle["server_wh"] > 0  # the server cannot power off

    def test_always_on_follows_the_ramp(self):
        """Each always-on node draws what ``EnergyModel`` gives one Pi at
        the trace's utilization, the same ramp the server is priced on."""
        trace = [0.05] * 8 + [0.3] * 6 + [0.8] * 6 + [0.4] * 4
        ramp = sum(24 * EnergyModel().proportionality_curve(PI, [u])[0] for u in trace)
        result = proportionality_study(utilization_trace=trace)
        assert result["cluster_always_on_wh"] == pytest.approx(ramp)

    def test_always_on_is_not_priced_at_peak(self, prop):
        peak_day = prop["trace_hours"] * EnergyModel().active_power(PI, nodes=24)
        assert prop["cluster_always_on_wh"] < peak_day

    @pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 1.0])
    def test_constant_load_prices_idle_to_peak(self, u):
        flat = proportionality_study(utilization_trace=[u] * 3)
        per_node = PI.idle_w + (PI.total_tdp_w - PI.idle_w) * u
        assert flat["cluster_always_on_wh"] == pytest.approx(3 * 24 * per_node)

    @given(st.lists(st.integers(min_value=0, max_value=24), min_size=1, max_size=48))
    @settings(max_examples=50, deadline=None)
    def test_whole_node_loads_never_cost_energy_to_gate(self, busy_nodes):
        """With a load of k whole nodes, gating draws k peak nodes where
        always-on draws k peak nodes plus 24 - k idle ones."""
        result = proportionality_study(utilization_trace=[k / 24 for k in busy_nodes])
        assert result["cluster_scaled_wh"] <= result["cluster_always_on_wh"] * (1 + 1e-12)
        assert 0.0 <= result["savings_vs_always_on"] <= 1.0
