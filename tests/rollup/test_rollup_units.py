"""Unit coverage for the rollup package internals: canonical shapes,
the workload miner, the cube builder's guardrails, router bookkeeping,
the semantic cache's split decision and its one-shape cubes, and the
server's live-mining flow. The differential and property walls prove
end-to-end soundness; these tests pin the individual contracts those
walls rest on."""

from __future__ import annotations

import pytest

from repro.engine import Column, Database, Executor, ParallelExecutor, Q, Table, agg, col
from repro.engine.optimizer import DEFAULT_SETTINGS, optimize_plan
from repro.engine.plan import AggregateNode
from repro.engine.sql import sql
from repro.obs import metrics
from repro.rollup import (
    ROLLUP_PREFIX,
    WorkloadMiner,
    aggregate_shape,
    build_rollups,
    enable_rollups,
    semantic_split,
    storage_aggs,
)

ROLLUPS_OFF = DEFAULT_SETTINGS.without_rollups()


def _db(n_rows: int = 12) -> Database:
    db = Database()
    db.add(Table("t", {
        "g": Column.from_ints([i % 3 for i in range(n_rows)]),
        "h": Column.from_ints([i % 2 for i in range(n_rows)]),
        "u": Column.from_ints(range(n_rows)),  # unique: a cardinality bomb
        "v": Column.from_ints([10 + i for i in range(n_rows)]),
    }))
    return db


def _shape(db, q):
    """The first aggregate shape in an optimized (unrouted) plan."""
    node = optimize_plan(q.node, db, ROLLUPS_OFF)
    for current in node.walk():
        if isinstance(current, AggregateNode):
            return aggregate_shape(current, db)
    return None


class TestShapes:
    def test_source_key_ignores_filter_literals(self):
        db = _db()
        a = _shape(db, Q(db).scan("t").filter(col("v") > 11)
                   .aggregate(by=["g"], s=agg.sum(col("v"))))
        b = _shape(db, Q(db).scan("t").filter(col("v") > 15)
                   .aggregate(by=["g"], s=agg.sum(col("v"))))
        assert a.key == b.key
        assert a.dims == b.dims == ("g", "v")

    def test_different_sources_get_different_keys(self):
        db = _db()
        db.add(Table("other", {"g": Column.from_ints([1]),
                               "v": Column.from_ints([2])}))
        a = _shape(db, Q(db).scan("t").aggregate(by=["g"], s=agg.sum(col("v"))))
        b = _shape(db, Q(db).scan("other").aggregate(by=["g"], s=agg.sum(col("v"))))
        assert a.key != b.key

    def test_count_distinct_is_not_a_shape(self):
        # COUNT(DISTINCT x) cannot be merged from per-cell partials, so
        # the canonicalizer must refuse the whole aggregate.
        db = _db()
        shape = _shape(db, Q(db).scan("t")
                       .aggregate(by=["g"], d=agg.count_distinct(col("v"))))
        assert shape is None

    def test_storage_naming_is_deterministic(self):
        db = _db()
        shape = _shape(db, Q(db).scan("t").aggregate(
            by=["g"], a=agg.avg(col("v")), n=agg.count_star()))
        specs, colmap = storage_aggs(shape.measures())
        # avg needs sum+count parts of m0 (=v); count(*) is its own m1.
        assert sorted(specs) == ["m0_cnt", "m0_sum", "m1_star"]
        assert sorted(colmap.values()) == ["m0_cnt", "m0_sum", "m1_star"]


class TestMiner:
    def test_literal_variants_collapse_to_one_spec(self):
        db = _db()
        miner = WorkloadMiner(db)
        for cutoff in (11, 13, 17):
            q = (Q(db).scan("t").filter(col("v") > cutoff)
                 .aggregate(by=["g"], s=agg.sum(col("v"))))
            assert miner.observe(q) == 1
        specs = miner.mine()
        assert len(specs) == 1
        assert specs[0].observations == 3

    def test_min_count_filters_one_offs(self):
        db = _db()
        miner = WorkloadMiner(db)
        miner.observe(Q(db).scan("t").aggregate(by=["g"], s=agg.sum(col("v"))))
        assert miner.mine(min_count=2) == []
        assert len(miner.mine(min_count=1)) == 1

    def test_unplannable_input_contributes_nothing(self):
        db = _db()
        miner = WorkloadMiner(db)
        assert miner.observe("not a plan") == 0
        assert len(miner) == 0

    def test_wider_spec_subsumes_narrower(self):
        db = _db()
        miner = WorkloadMiner(db)
        miner.observe(Q(db).scan("t").aggregate(
            by=["g", "h"], s=agg.sum(col("v")), n=agg.count_star()))
        miner.observe(Q(db).scan("t").aggregate(by=["g"], s=agg.sum(col("v"))))
        wide, narrow = miner.mine()  # widest dimension set first
        assert set(narrow.dims) < set(wide.dims)
        assert wide.subsumes(narrow)
        assert not narrow.subsumes(wide)


class TestBuilder:
    def test_cardinality_guard_rejects_per_row_cubes(self):
        db = _db(n_rows=400)
        plan = Q(db).scan("t").aggregate(by=["u"], s=agg.sum(col("v")))
        catalog = enable_rollups(db, plans=[plan])
        # 400 distinct cells over 400 rows exceeds the 50% cell budget:
        # the cube would be the table.
        assert catalog.cubes == []
        assert catalog.candidates_rejected == 1

    def test_subsumed_candidates_build_one_cube(self):
        db = _db()
        wide = Q(db).scan("t").aggregate(
            by=["g", "h"], s=agg.sum(col("v")), n=agg.count_star())
        narrow = Q(db).scan("t").aggregate(by=["g"], s=agg.sum(col("v")))
        catalog = enable_rollups(db, plans=[wide, narrow])
        assert len(catalog.cubes) == 1
        assert catalog.cubes[0].spec.dims == ("g", "h")

    def test_extending_a_catalog_continues_its_cube_names(self):
        db = _db()
        miner = WorkloadMiner(db)
        miner.observe(Q(db).scan("t").aggregate(by=["g"], s=agg.sum(col("v"))))
        catalog = build_rollups(db, miner.mine())
        miner.observe(Q(db).scan("t").aggregate(by=["h"], s=agg.sum(col("v"))))
        assert build_rollups(db, miner.mine(), catalog=catalog) is catalog
        # The known spec is subsumed by its own cube; only the new one builds.
        assert [cube.name[:len(ROLLUP_PREFIX) + 3] for cube in catalog.cubes] == [
            f"{ROLLUP_PREFIX}00_", f"{ROLLUP_PREFIX}01_"]
        assert [cube.dims for cube in catalog.cubes] == [("g",), ("h",)]
        assert catalog.candidates_considered == 3

    def test_catalog_tables_resolve_through_database(self):
        db = _db()
        plan = Q(db).scan("t").aggregate(by=["g"], s=agg.sum(col("v")))
        catalog = enable_rollups(db, plans=[plan])
        name = catalog.cubes[0].name
        # Cube tables live in the catalog, not the user's table list,
        # but scans must still resolve them by name.
        assert db.table(name).name == name
        assert name not in db.table_names

    def test_build_charges_profile_and_gauges(self):
        db = _db()
        plan = Q(db).scan("t").aggregate(by=["g"], s=agg.sum(col("v")))
        catalog = enable_rollups(db, plans=[plan])
        assert catalog.build_wall_seconds > 0.0
        assert len(catalog.build_profile.operators) > 0
        assert catalog.nbytes > 0
        assert metrics.gauge("rollup.cubes").value == float(len(catalog.cubes))
        assert metrics.gauge("rollup.bytes").value == float(catalog.nbytes)


class TestSemanticDeclines:
    def test_unfiltered_aggregate_declines(self):
        # Without a residual predicate the plain result cache already
        # answers the re-run; the semantic split would only add work.
        db = _db()
        q = sql(db, "SELECT g, SUM(v) AS s FROM t GROUP BY g")
        node = optimize_plan(q.node, db, ROLLUPS_OFF)
        assert semantic_split(node, db) is None

    def test_scalar_subquery_in_residual_declines(self):
        # The re-slice executes inside a scratch database holding only
        # the cube; a subquery over base tables cannot.
        db = _db()
        q = sql(db, "SELECT g, SUM(v) AS s FROM t "
                    "WHERE v > (SELECT MIN(v) FROM t) GROUP BY g")
        node = optimize_plan(q.node, db, ROLLUPS_OFF)
        assert semantic_split(node, db) is None

    def test_filtered_aggregate_splits(self):
        db = _db()
        q = sql(db, "SELECT g, SUM(v) AS s FROM t WHERE v > 12 GROUP BY g")
        node = optimize_plan(q.node, db, ROLLUPS_OFF)
        split = semantic_split(node, db)
        assert split is not None
        _, shape = split
        # The cube groups by every dimension the re-slice needs.
        assert set(shape.dims) == {"g", "v"}


class TestSemanticCube:
    """A literal-only re-run of a filtered shape answers from a one-shape
    cube, built once and kept out of the rollup catalog."""

    SHAPE = "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t WHERE {} GROUP BY g ORDER BY g"

    @staticmethod
    def _db():
        db = _db(n_rows=400)
        enable_rollups(db, plans=[])  # a catalog that routes nothing
        return db

    @staticmethod
    def _scanned(result) -> float:
        return sum(op.tuples_in for op in result.profile.operators if op.operator == "scan")

    def test_a_fresh_literal_reslices_the_cube(self):
        db = self._db()
        with ParallelExecutor(db, workers=2) as engine:
            engine.execute(sql(db, self.SHAPE.format("h = 0")))
            hits = engine.semantic.hits
            got = engine.execute(sql(db, self.SHAPE.format("h = 1")))
            assert engine.semantic.hits == hits + 1
        # The six (g, h) cells, not the 400 base rows.
        assert 0 < self._scanned(got) <= 6
        want = Executor(db, ROLLUPS_OFF).execute(sql(db, self.SHAPE.format("h = 1")))
        assert got.rows == want.rows

    def test_a_shape_past_the_guard_is_cached_negative(self):
        db = self._db()
        text = self.SHAPE.format("u > {}")
        with ParallelExecutor(db, workers=2) as engine:
            for cutoff in (10, 20):
                got = engine.execute(sql(db, text.format(cutoff)))
                want = Executor(db, ROLLUPS_OFF).execute(sql(db, text.format(cutoff)))
                assert got.rows == want.rows
                assert self._scanned(got) == 400  # answered from the base table
            # 400 (g, u) cells exceed half the 400 source rows: one
            # rejected build, then its negative entry answers the re-run.
            assert engine.semantic.stats() == {
                "capacity": 16, "entries": 1, "hits": 1, "misses": 1}

    def test_entries_stay_out_of_the_catalog(self):
        from repro.serve import QueryServer

        db = _db(n_rows=400)
        catalog = enable_rollups(
            db, plans=[Q(db).scan("t").aggregate(by=["g"], s=agg.sum(col("v")))])
        gauges = [metrics.gauge(n).value for n in ("rollup.cubes", "rollup.bytes")]
        with QueryServer(db, workers=2) as server:
            for literal in (0, 1):
                server.query(self.SHAPE.format(f"h = {literal}"))
            assert server.executor.semantic.hits == 1
            assert server.stats()["prepared"] == {"entries": 1, "hits": 1, "misses": 1}
        assert db.rollups is catalog and len(catalog) == 1
        assert [metrics.gauge(n).value for n in ("rollup.cubes", "rollup.bytes")] == gauges


class TestServerLiveMining:
    def test_build_rollups_from_observed_traffic(self):
        from repro.serve import QueryServer

        db = _db(n_rows=60)
        with QueryServer(db, workers=2, cache_size=0) as server:
            for cutoff in (20, 30):
                server.query(f"SELECT g, SUM(v) AS s FROM t "
                             f"WHERE v > {cutoff} GROUP BY g")
            assert getattr(db, "rollups", None) is None
            catalog = server.build_rollups(min_count=2)
            assert len(catalog.cubes) == 1
            assert db.rollups is catalog
            # Subsequent requests route onto the freshly built cube.
            routed = server.query("SELECT g, SUM(v) AS s FROM t "
                                  "WHERE v > 40 GROUP BY g")
            base = Executor(db, ROLLUPS_OFF).execute(
                sql(db, "SELECT g, SUM(v) AS s FROM t WHERE v > 40 GROUP BY g"))
            assert sorted(routed.rows) == sorted(base.rows)
            # Rebuilding with no new shapes must not duplicate cubes.
            again = server.build_rollups(min_count=2)
            assert again is catalog
            assert len(again.cubes) == 1
