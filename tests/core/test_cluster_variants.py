"""Cluster-variants study tests: each cell is what ``WimPiCluster(n,
**variant)`` itself reports, and the variants differ only where their
node, swap policy or layout says they should."""

import math

import pytest

from repro.cluster import (
    PI4_NODE,
    SPARK_NODE,
    NodeSpec,
    NodeUnresponsiveError,
    QueryOutOfMemoryError,
    WimPiCluster,
)
from repro.core.extensions import (
    VARIANT_QUERIES as QUERIES,
    VARIANT_SIZES as SIZES,
    _variants,
    cluster_variants_study,
)

BASE_SF = 0.01  # the shared tpch_db's scale factor and seed
TYPED_ERRORS = {e.__name__: e for e in (QueryOutOfMemoryError, NodeUnresponsiveError)}
VARIANTS = ("plain", "no swap", "Spark node", "tailored mix", "co-partitioned",
            "co-partitioned + shuffle")


@pytest.fixture(scope="module")
def variants():
    return cluster_variants_study(base_sf=BASE_SF)


def _seconds(variants, name):
    return [(n, q, row["seconds"][q])
            for n, row in variants[name].items() for q in QUERIES]


class TestShape:
    def test_every_variant_at_every_size(self, variants):
        assert list(variants) == list(VARIANTS)
        for name in VARIANTS:
            assert list(variants[name]) == list(SIZES), name
            for row in variants[name].values():
                assert list(row["seconds"]) == list(QUERIES), name

    def test_cells_are_seconds_or_typed_error_names(self, variants):
        for name in VARIANTS:
            for n, q, cell in _seconds(variants, name):
                assert cell in TYPED_ERRORS or (isinstance(cell, float) and cell > 0), (
                    name, n, q, cell)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", VARIANTS)
def test_cells_are_the_clusters_own_answers(variants, tpch_db, name, n):
    """No special case: rebuilding the variant's cluster and running each
    query gives the study's cell, its hardware cost and its power."""
    kwargs = _variants(n)[name.removesuffix(" + shuffle")]
    cluster = WimPiCluster(n, base_sf=BASE_SF, target_sf=10.0, db=tpch_db, **kwargs)
    row = variants[name][n]
    assert row["msrp_usd"] == cluster.total_msrp_usd
    assert row["peak_power_w"] == cluster.peak_power_w
    for q in QUERIES:
        cell = row["seconds"][q]
        if cell in TYPED_ERRORS:
            with pytest.raises(TYPED_ERRORS[cell]):
                cluster.run_query(q)
            continue
        run = cluster.run_query(q)
        expected = run.total_seconds
        if name.endswith("+ shuffle"):
            expected += run.shuffle_seconds
        assert cell == pytest.approx(expected, rel=1e-12), q


class TestTailoredMix:
    @pytest.mark.parametrize("n", [1, 4, 6, 7, 12, 24])
    def test_one_pi4_in_six_rounded_up(self, n):
        nodes = _variants(n)["tailored mix"]["node"]
        assert len(nodes) == n
        assert nodes.count(PI4_NODE) == math.ceil(n / 6)
        assert nodes.count(NodeSpec()) == n - math.ceil(n / 6)

    def test_costs_and_draws_more_than_plain(self, variants):
        for n in SIZES:
            plain, mix = variants["plain"][n], variants["tailored mix"][n]
            assert mix["msrp_usd"] > plain["msrp_usd"]
            assert mix["peak_power_w"] > plain["peak_power_w"]

    def test_q13_moves_to_the_big_node(self, variants):
        for n in SIZES:
            plain = variants["plain"][n]["seconds"][13]
            assert variants["tailored mix"][n]["seconds"][13] < plain / 10, n


class TestSparkNode:
    def test_same_hardware_as_plain(self, variants):
        for n in SIZES:
            for key in ("msrp_usd", "peak_power_w"):
                assert variants["Spark node"][n][key] == variants["plain"][n][key]

    def test_q13_unresponsive_at_every_size(self, variants):
        for n in SIZES:
            assert variants["Spark node"][n]["seconds"][13] == "NodeUnresponsiveError"
            assert isinstance(variants["plain"][n]["seconds"][13], float)

    def test_never_faster_than_plain(self, variants):
        """Less memory can only add thrash: where a Spark node completes,
        the default node completes at least as fast."""
        for n, q, cell in _seconds(variants, "Spark node"):
            if isinstance(cell, float):
                assert cell >= variants["plain"][n]["seconds"][q] * (1 - 1e-12), (n, q)

    def test_reserve_is_the_jvm_on_top_of_the_os(self):
        assert SPARK_NODE.platform == NodeSpec().platform
        assert SPARK_NODE.os_reserve_bytes - NodeSpec().os_reserve_bytes == pytest.approx(500e6)


class TestNoSwap:
    def test_only_ever_out_of_memory(self, variants):
        """Disabling swap never hangs a node: a cell either matches the
        swapping cluster or is the typed out-of-memory error."""
        for n, q, cell in _seconds(variants, "no swap"):
            plain = variants["plain"][n]["seconds"][q]
            assert cell == plain or cell == "QueryOutOfMemoryError", (n, q)

    def test_four_nodes_run_out_of_memory(self, variants):
        assert set(variants["no swap"][4]["seconds"].values()) == {"QueryOutOfMemoryError"}


class TestCoPartitioned:
    def test_shuffle_only_adds_time(self, variants):
        for n, q, cell in _seconds(variants, "co-partitioned"):
            shuffled = variants["co-partitioned + shuffle"][n]["seconds"][q]
            if isinstance(cell, str):
                assert shuffled == cell, (n, q)
            else:
                assert shuffled > cell, (n, q)

    def test_q13_beats_the_replicated_orders_join(self, variants):
        for n in SIZES:
            plain = variants["plain"][n]["seconds"][13]
            assert variants["co-partitioned + shuffle"][n]["seconds"][13] < plain, n

    def test_lineitem_stays_partitioned(self, variants):
        """Q1 scans lineitem alone, which both layouts partition on its
        order key, so it prices the same as on the plain cluster."""
        for n in SIZES:
            assert (variants["co-partitioned"][n]["seconds"][1]
                    == variants["plain"][n]["seconds"][1]), n
