"""Full-report rendering tests."""

import pytest

from repro.core import ExperimentStudy, StudyConfig
from repro.core.report import EXTENSIONS, full_report


@pytest.fixture(scope="module")
def report():
    study = ExperimentStudy(StudyConfig(base_sf=0.01, cluster_sizes=(4, 24)))
    return full_report(study)


class TestFullReport:
    def test_contains_every_artifact_section(self, report):
        for section in (
            "Table I — hardware",
            "Fig. 2 — microbenchmarks",
            "Table II — TPC-H SF 1",
            "Fig. 3 — relative performance of the Pi",
            "Table III — TPC-H SF 10",
            "Fig. 4 — execution strategies",
            "Figs. 5-7 — normalized comparisons",
            "Figs. 5-7 — normalized comparisons (SF 10)",
        ):
            assert section in report, section

    def test_all_platforms_listed(self, report):
        for key in ("op-e5", "op-gold", "pi3b+", "c6g.metal"):
            assert key in report

    def test_paper_comparison_statistics_present(self, report):
        assert "vs paper: median factor" in report
        assert "rank corr" in report

    def test_wimpi_rows_present(self, report):
        assert "pi3b+ x4" in report and "pi3b+ x24" in report

    def test_network_figure(self, report):
        assert "220 Mbps" in report

    def test_table1_catalog(self, report):
        assert "Cortex-A53" in report and "0.0003907" in report

    def test_fig3_block(self, report):
        assert "SF 1: median relative performance of the Pi" in report
        assert "SF 1 cells where the Pi beats a server: 0 of 198" in report
        assert "SF 10: WIMPI relative performance vs op-e5" in report
        assert "queries on which 24 nodes beat at least one server: ours" in report

    def test_table3_side_by_side_with_paper(self, report):
        assert "paper x4" in report and "ours x24" in report

    def test_sf10_break_even_block(self, report):
        assert "break-even cluster size" in report
        for row in ("Fig. 5 op-e5", "Fig. 6 m5.metal", "Fig. 7 op-gold"):
            assert row in report
        assert "improvement at n=24" in report

    def test_each_block_carries_its_claims(self, report):
        from repro.core import CLAIMS

        for claim in CLAIMS:
            assert claim.claim_id in report, claim.claim_id

    def test_extensions_optional(self, report):
        assert "Extensions" not in report  # default off

    def test_extensions_included_when_asked(self):
        study = ExperimentStudy(StudyConfig(base_sf=0.01, cluster_sizes=(4,)))
        text = full_report(study, include_extensions=True)
        assert [block_id for block_id, *_ in EXTENSIONS] == [
            "ext-compression", "ext-nam", "ext-proportionality", "ext-ml",
            "ext-cluster-variants",
        ]
        for _, title, _, _ in EXTENSIONS:
            assert title in text, title
        assert "lineitem compression ratio" in text
        assert "WIMPI+NAM (s)" in text
        assert "cluster, every node always on" in text
        assert "data-parallel logistic regression on WIMPI" in text
        assert "co-partitioned + shuffle" in text


class TestExtensionRenderers:
    """Each extension block prints the dict its study returned, nothing
    recomputed: the renderers run on hand-built numbers."""

    @staticmethod
    def _render(block_id):
        return next(render for bid, _, _, render in EXTENSIONS if bid == block_id)

    def test_cluster_variants_prints_seconds_and_error_names(self):
        numbers = {
            "plain": {4: {"msrp_usd": 140.0, "peak_power_w": 20.4,
                          "seconds": {1: 65.123, 13: 96.8}}},
            "no swap": {4: {"msrp_usd": 140.0, "peak_power_w": 20.4,
                            "seconds": {1: "QueryOutOfMemoryError", 13: 0.5}}},
        }
        lines = self._render("ext-cluster-variants")(numbers).splitlines()
        assert lines[1].split() == ["variant", "nodes", "MSRP", "($)", "peak", "(W)",
                                    "Q1", "Q13"]
        assert lines[2].split() == ["plain", "4", "140", "20.4", "65.12", "96.80"]
        assert lines[3].split() == ["no", "swap", "4", "140", "20.4",
                                    "QueryOutOfMemoryError", "0.50"]
        assert len(lines) == 4

    def test_proportionality_prints_energy_and_savings(self):
        numbers = {"trace_hours": 2, "cluster_scaled_wh": 10.0,
                   "cluster_always_on_wh": 1234.5, "server_wh": 40.0,
                   "savings_vs_always_on": 0.3, "savings_vs_server": 0.75}
        text = self._render("ext-proportionality")(numbers)
        assert "over a 2-hour utilization trace" in text
        assert "1,234.5" in text and "30%" in text and "75%" in text
