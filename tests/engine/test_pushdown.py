"""Predicate pushdown: plan-shape rewrites, legality boundaries,
fingerprint/cache interaction, and the scan-level accounting the
pushed-down predicates enable."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    Executor,
    OptimizerSettings,
    Q,
    agg,
    col,
    execute,
    lit,
    plan_fingerprint,
)
from repro.engine.explain import explain
from repro.engine.optimizer import (
    optimize_plan,
    prune_columns,
    pushdown_predicates,
)
from repro.engine.plan import (
    DistinctNode,
    FilterNode,
    JoinNode,
    ProjectNode,
    ScanNode,
    SortNode,
)


def _find(node, cls):
    """All nodes of ``cls`` in the subtree, preorder."""
    found = [node] if isinstance(node, cls) else []
    for child in node.children():
        found.extend(_find(child, cls))
    return found


class TestPushdownShapes:
    def test_filter_becomes_scan_predicate(self, toy_db):
        plan = Q(toy_db).scan("t").filter(col("k") > 3).node
        out = pushdown_predicates(plan, toy_db)
        assert isinstance(out, ScanNode)
        assert out.predicate is not None
        assert not _find(out, FilterNode)

    def test_conjuncts_split_and_merge(self, toy_db):
        plan = (
            Q(toy_db).scan("t")
            .filter(col("k") > 1)
            .filter((col("v") < 50) & (col("s") == lit("a")))
            .node
        )
        out = pushdown_predicates(plan, toy_db)
        assert isinstance(out, ScanNode)
        from repro.engine.zonemap import split_conjuncts

        assert len(split_conjuncts(out.predicate)) == 3

    def test_pushes_through_passthrough_project(self, toy_db):
        plan = (
            Q(toy_db).scan("t")
            .project(key="k", double=col("v") * 2)
            .filter(col("key") > 3)
            .node
        )
        out = pushdown_predicates(plan, toy_db)
        assert isinstance(out, ProjectNode)
        scan = out.child
        assert isinstance(scan, ScanNode)
        # The alias got rewritten back into the base column name.
        assert scan.predicate.references() == {"k"}

    def test_computed_output_blocks_descent(self, toy_db):
        plan = (
            Q(toy_db).scan("t")
            .project(double=col("v") * 2)
            .filter(col("double") > 50)
            .node
        )
        out = pushdown_predicates(plan, toy_db)
        # The filter reads a computed column: it must stay above.
        assert isinstance(out, FilterNode)
        assert isinstance(out.child, ProjectNode)

    def test_join_routes_conjuncts_by_side(self, toy_db):
        plan = (
            Q(toy_db).scan("t")
            .join("u", on=[("k", "k2")])
            .filter((col("v") > 15) & (col("w") < 300))
            .node
        )
        out = pushdown_predicates(plan, toy_db)
        assert isinstance(out, JoinNode)
        left, right = out.left, out.right
        assert isinstance(left, ScanNode) and left.predicate is not None
        assert isinstance(right, ScanNode) and right.predicate is not None
        assert left.predicate.references() == {"v"}
        assert right.predicate.references() == {"w"}

    def test_left_join_keeps_right_side_filter_above(self, toy_db):
        plan = (
            Q(toy_db).scan("t")
            .join("u", on=[("k", "k2")], how="left")
            .filter(col("w") < 300)
            .node
        )
        out = pushdown_predicates(plan, toy_db)
        # Filtering u before a left join would turn non-matches into NULL
        # rows instead of removing them; the filter must stay above.
        assert isinstance(out, FilterNode)
        join = out.child
        assert isinstance(join, JoinNode)
        assert all(s.predicate is None for s in _find(join, ScanNode))

    def test_semi_join_pushes_probe_side(self, toy_db):
        plan = (
            Q(toy_db).scan("t")
            .join("u", on=[("k", "k2")], how="semi")
            .filter(col("v") > 15)
            .node
        )
        out = pushdown_predicates(plan, toy_db)
        assert isinstance(out, JoinNode)
        assert isinstance(out.left, ScanNode)
        assert out.left.predicate is not None

    def test_cross_side_conjunct_stays_above_join(self, toy_db):
        plan = (
            Q(toy_db).scan("t")
            .join("u", on=[("k", "k2")])
            .filter(col("v") < col("w"))
            .node
        )
        out = pushdown_predicates(plan, toy_db)
        assert isinstance(out, FilterNode)

    def test_sort_commutes(self, toy_db):
        plan = (
            Q(toy_db).scan("t").sort("k").filter(col("k") > 2).node
        )
        out = pushdown_predicates(plan, toy_db)
        assert isinstance(out, SortNode)
        assert isinstance(out.child, ScanNode)
        assert out.child.predicate is not None

    def test_whole_row_distinct_commutes_subset_does_not(self, toy_db):
        base = Q(toy_db).scan("t")
        whole = pushdown_predicates(
            base.distinct().filter(col("k") > 2).node, toy_db
        )
        assert isinstance(whole, DistinctNode)
        assert isinstance(whole.child, ScanNode)
        subset = pushdown_predicates(
            base.distinct("s").filter(col("k") > 2).node, toy_db
        )
        assert isinstance(subset, FilterNode)
        assert isinstance(subset.child, DistinctNode)

    def test_aggregate_is_a_barrier_but_descent_restarts(self, toy_db):
        plan = (
            Q(toy_db).scan("t")
            .filter(col("k") > 1)           # below the aggregate: sinks
            .aggregate(by=["s"], n=agg.count_star())
            .filter(col("n") > 0)            # HAVING: stays above
            .node
        )
        out = pushdown_predicates(plan, toy_db)
        assert isinstance(out, FilterNode)
        scans = _find(out, ScanNode)
        assert len(scans) == 1 and scans[0].predicate is not None

    def test_prune_preserves_scan_predicate(self, toy_db):
        plan = (
            Q(toy_db).scan("t").filter(col("k") > 3).select("v").node
        )
        out = optimize_plan(plan, toy_db)
        scan = _find(out, ScanNode)[0]
        assert scan.predicate is not None
        # Predicate-only columns are streamed for evaluation, not emitted.
        assert scan.columns == ("v",)

    def test_disabled_settings_keep_plan_shape(self, toy_db):
        plan = Q(toy_db).scan("t").filter(col("k") > 3).node
        out = optimize_plan(plan, toy_db, OptimizerSettings.disabled())
        assert isinstance(out, FilterNode)
        assert _find(out, ScanNode)[0].predicate is None


class TestExplainAndFingerprint:
    def test_explain_shows_scan_filter(self, toy_db):
        plan = Q(toy_db).scan("t").filter(col("k") > 3).select("v")
        text = explain(plan.node, toy_db)
        assert "Filter (" in text
        off = explain(plan.node, toy_db, settings=OptimizerSettings.disabled())
        assert "Scan t" in off

    def test_fingerprint_normalizes_numpy_scalars(self, toy_db):
        a = Q(toy_db).scan("t").filter(col("k") > lit(np.int64(3))).node
        b = Q(toy_db).scan("t").filter(col("k") > lit(3)).node
        assert plan_fingerprint(a) == plan_fingerprint(b)

    def test_parallel_cache_never_aliases_settings(self, tpch_db):
        from repro.tpch import get_query

        plan = get_query(6).build(tpch_db, {"sf": 0.01})
        with Executor(tpch_db, workers=2, cache_size=64) as on_ex, \
                Executor(
                    tpch_db, workers=2, cache_size=64,
                    settings=OptimizerSettings.disabled(),
                ) as off_ex:
            r_on = on_ex.execute(plan)
            r_off = off_ex.execute(plan)
        assert r_on.rows == r_off.rows


class TestScanAccounting:
    def test_scan_reports_post_skip_tuples(self, toy_db):
        # Clustered ints over >1 block so skipping has something to prove.
        import numpy as np

        from repro.engine import Column, Database, Table

        db = Database("acct")
        db.add(Table("big", {"x": Column.from_ints(np.arange(20_000))}))
        plan = Q(db).scan("big").filter(col("x") < 1000).node

        on = Executor(db).execute(plan)
        scan_op = on.profile.operators[0]
        assert scan_op.operator == "scan"
        # Post-skip cardinality: only surviving blocks' rows, not 20 000.
        assert scan_op.tuples_out < 20_000
        assert on.profile.skipped_bytes > 0
        assert on.profile.zone_probes > 0
        assert on.profile.blocks_skipped > 0

        off = Executor(db, OptimizerSettings.disabled()).execute(plan)
        assert off.profile.skipped_bytes == 0
        assert off.profile.zone_probes == 0
        assert on.rows == off.rows
        # Skipping strictly reduces streamed bytes on clustered data.
        assert on.profile.seq_bytes < off.profile.seq_bytes

    def test_pushdown_without_skipping_streams_everything(self, toy_db):
        import numpy as np

        from repro.engine import Column, Database, Table

        db = Database("acct2")
        db.add(Table("big", {"x": Column.from_ints(np.arange(20_000))}))
        plan = Q(db).scan("big").filter(col("x") < 1000).node
        settings = OptimizerSettings(predicate_pushdown=True, zone_map_skipping=False)
        result = Executor(db, settings).execute(plan)
        assert result.profile.skipped_bytes == 0
        assert result.profile.blocks_skipped == 0
        assert len(result) == 1000

    def test_module_execute_accepts_settings(self, toy_db):
        plan = Q(toy_db).scan("t").filter(col("k") > 3)
        on = execute(toy_db, plan)
        off = execute(toy_db, plan, settings=OptimizerSettings.disabled())
        assert on.rows == off.rows
        assert len(on) == 3


class TestPushdownDoesNotChangeResults:
    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    def test_join_filter_results_stable(self, toy_db, how):
        predicate = (col("k") > 1) if how in ("semi", "anti") else (
            (col("k") > 1) & (col("w") < 300)
        ) if how == "inner" else (col("k") > 1)
        plan = (
            Q(toy_db).scan("t")
            .join("u", on=[("k", "k2")], how=how)
            .filter(predicate)
            .node
        )
        on = Executor(toy_db).execute(plan)
        off = Executor(toy_db, OptimizerSettings.disabled()).execute(plan)
        assert on.rows == off.rows
