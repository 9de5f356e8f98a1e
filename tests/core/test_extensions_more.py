"""Additional coverage for extension studies and serialization edges."""

import numpy as np
import pytest

from repro.core.extensions import compression_study, nam_study
from repro.core.results import to_jsonable


class TestCompressionStudyOptions:
    def test_custom_platform_set(self):
        result = compression_study(
            base_sf=0.005, queries=(6,), platforms=("pi3b+", "op-gold"),
        )
        platforms = {r.platform for r in result["single_node"]}
        assert platforms == {"pi3b+", "op-gold"}

    def test_speedup_property(self):
        result = compression_study(base_sf=0.005, queries=(6,))
        for r in result["single_node"]:
            assert r.speedup == pytest.approx(r.plain_seconds / r.compressed_seconds)


class TestNamStudyOptions:
    def test_larger_cluster_offloads_less(self):
        small = nam_study(base_sf=0.005, n_nodes=4, queries=(1,))
        large = nam_study(base_sf=0.005, n_nodes=24, queries=(1,))
        assert (large["queries"][1]["offloaded_nodes"]
                <= small["queries"][1]["offloaded_nodes"])


class TestSerializationEdges:
    def test_numpy_scalars(self):
        out = to_jsonable({"a": np.float64(1.5), "b": np.int32(7)})
        assert out == {"a": 1.5, "b": 7}

    def test_numpy_arrays_fall_back_to_repr(self):
        out = to_jsonable(np.array([1, 2]))
        assert isinstance(out, str)

    def test_none_and_bool(self):
        assert to_jsonable({"x": None, "y": True}) == {"x": None, "y": True}

    def test_nested_tuples_of_dataclasses(self):
        from repro.cluster.reliability import MemoryOutcome

        out = to_jsonable((MemoryOutcome(0, 0.5, "ok"),))
        assert out[0]["outcome"] == "ok"


class TestStrategiesRunnerOptions:
    def test_custom_platform_subset(self, profiler):
        from repro.strategies import run_matrix

        runs = run_matrix(profiler, platforms=("pi3b+",), queries=(6,))
        assert len(runs) == 3  # 1 platform x 3 strategies x 1 query
        assert {r.platform for r in runs} == {"pi3b+"}

