"""Tests for paper data, shape comparison, profiler, and serialization."""

import json

import pytest

from repro.core import (
    TABLE2_SF1_RUNTIMES,
    TABLE3_SF10_RUNTIMES,
    TABLE3_WIMPI_RUNTIMES,
    TPCHProfiler,
    compare_grids,
    runtimes_to_csv,
    save_json,
    to_jsonable,
)
from repro.core.paperdata import INTERPOLATED_CELLS, SF10_QUERIES


class TestPaperData:
    def test_table2_complete(self):
        assert len(TABLE2_SF1_RUNTIMES) == 10
        for per in TABLE2_SF1_RUNTIMES.values():
            assert set(per) == set(range(1, 23))
            assert all(v > 0 for v in per.values())

    def test_table3_complete(self):
        assert len(TABLE3_SF10_RUNTIMES) == 9
        for per in TABLE3_SF10_RUNTIMES.values():
            assert set(per) == set(SF10_QUERIES)

    def test_wimpi_rows(self):
        assert set(TABLE3_WIMPI_RUNTIMES) == {4, 8, 12, 16, 20, 24}
        # Q13 flat at 103.604 in the paper
        assert all(per[13] == 103.604 for per in TABLE3_WIMPI_RUNTIMES.values())

    def test_known_anchor_cells(self):
        assert TABLE2_SF1_RUNTIMES["op-e5"][1] == 0.161
        assert TABLE2_SF1_RUNTIMES["pi3b+"][13] == 1.771
        assert TABLE3_WIMPI_RUNTIMES[4][1] == 57.814

    def test_interpolated_cells_flagged(self):
        assert ("table2", "m4.16xlarge", 11) in INTERPOLATED_CELLS


class TestCompare:
    def test_identical_grids(self):
        grid = {"a": {1: 1.0, 2: 2.0}, "b": {1: 3.0, 2: 4.0}}
        comparison = compare_grids(grid, grid)
        assert comparison.median_factor == pytest.approx(1.0)
        assert comparison.spearman_like == pytest.approx(1.0)

    def test_scaled_grid_measures_factor(self):
        grid = {"a": {1: 1.0, 2: 2.0}}
        doubled = {"a": {1: 2.0, 2: 4.0}}
        comparison = compare_grids(doubled, grid)
        assert comparison.median_factor == pytest.approx(2.0)
        assert comparison.spearman_like == pytest.approx(1.0)  # order preserved

    def test_disjoint_grids_rejected(self):
        with pytest.raises(ValueError):
            compare_grids({"a": {1: 1.0}}, {"b": {2: 1.0}})


class TestProfiler:
    def test_caching(self):
        profiler = TPCHProfiler(base_sf=0.005)
        first = profiler.profile(6, 1.0)
        second = profiler.profile(6, 1.0)
        assert first is second

    def test_scaling_factor_applied(self):
        profiler = TPCHProfiler(base_sf=0.005)
        sf1 = profiler.profile(6, 1.0).profile
        sf10 = profiler.profile(6, 10.0).profile
        assert sf10.seq_bytes == pytest.approx(10 * sf1.seq_bytes)

    def test_result_rows_are_real(self):
        profiler = TPCHProfiler(base_sf=0.005)
        profiled = profiler.profile(1, 1.0)
        assert len(profiled.result) >= 3  # Q1's return-flag groups

    def test_db_generated_lazily_once(self):
        profiler = TPCHProfiler(base_sf=0.005)
        assert profiler.db is profiler.db


class TestSerialization:
    def test_to_jsonable_handles_nested(self):
        from repro.engine.profile import OperatorWork

        value = {"a": [OperatorWork("scan", ops=1.0)], 3: (1, 2)}
        out = to_jsonable(value)
        assert out["a"][0]["operator"] == "scan"
        assert out["3"] == [1, 2]
        json.dumps(out)  # must be serializable

    def test_save_json(self, tmp_path):
        path = save_json({"x": 1}, tmp_path / "out.json")
        assert json.loads(path.read_text()) == {"x": 1}

    def test_runtimes_to_csv(self, tmp_path):
        path = runtimes_to_csv({"pi": {1: 0.5, 2: 0.25}}, tmp_path / "t.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "platform,q1,q2"
        assert lines[1].startswith("pi,0.5")
