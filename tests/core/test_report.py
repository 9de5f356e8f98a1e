"""Full-report rendering tests."""

import pytest

from repro.core import ExperimentStudy, StudyConfig
from repro.core.report import full_report


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
        assert "compression: lineitem ratio" in text
        assert "NAM:" in text
        assert "power gating:" in text
