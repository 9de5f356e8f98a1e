"""Lowering: the one pass that makes the static physical choices.

``optimize_plan`` decides *what* a query computes; :func:`lower` decides
*how*, once, and returns the tree that
:meth:`~repro.engine.executor.Executor._exec` interprets node by node,
:func:`~repro.engine.explain.explain` prints verbatim, and the server
prices. Three choices are static — they depend on the plan, the catalog
and the executor's configuration, never on a frame — and live here and
nowhere else:

* **top-k fusion** — ``Limit(Sort(x))`` becomes a
  :class:`~repro.engine.plan.TopKNode`;
* **run-level aggregation** — under compressed execution a predicate-free
  scan+aggregate becomes a :class:`~repro.engine.plan.RunLevelAggregateNode`
  carrying the plan ``prepare_aggregate`` proved (one value per RLE run
  beats any morsel split, so it pre-empts segmenting); when the proof is
  declined over compressed inputs the ordinary form is wrapped in an
  :class:`~repro.engine.plan.EncodedMissNode` so the decline is counted
  when — and only when — it executes;
* **morsel segments** — only when lowering for a parallel executor:
  maximal scan → filter/project chains over a morselable base table,
  optionally capped by a decomposable aggregate or a top-k, become
  :class:`~repro.engine.plan.MorselSegmentNode` values with their morsel
  ranges, partial aggregates and scalar subqueries already worked out.

What depends on the data an operator is handed stays in the operator:
Grace spill vs in-memory, the late-materialization break, per-conjunct
encoded-eval fallback, zone-map block classification, morsel pre-skip.
"""

from __future__ import annotations

from .compression import CompressedColumn
from .encoded import prepare_aggregate
from .expr import Expr, ScalarSubquery
from .merge import decompose_aggregates
from .morsel import morsel_ranges, table_is_morselable
from .optimizer import DEFAULT_SETTINGS, OptimizerSettings
from .plan import (
    AggregateNode,
    EncodedMissNode,
    FilterNode,
    LimitNode,
    MorselSegmentNode,
    PlanNode,
    ProjectNode,
    RunLevelAggregateNode,
    ScanNode,
    SortNode,
    TopKNode,
)
from .table import Database

__all__ = ["lower"]

_LOWERED = (TopKNode, RunLevelAggregateNode, EncodedMissNode, MorselSegmentNode)


def _scalar_subqueries(obj, found: list[ScalarSubquery]) -> list[ScalarSubquery]:
    """Every ScalarSubquery reachable from an expression tree."""
    if isinstance(obj, ScalarSubquery):
        found.append(obj)
    elif isinstance(obj, Expr):
        for value in vars(obj).values():
            _scalar_subqueries(value, found)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _scalar_subqueries(value, found)
    return found


def _reads_compressed(node: AggregateNode, table) -> bool:
    refs = set(node.group_by)
    for _, spec in node.aggs:
        if spec.expr is not None:
            refs |= spec.expr.references()
    return any(isinstance(table.columns.get(n), CompressedColumn) for n in refs)


def lower(
    node: PlanNode,
    db: Database,
    settings: OptimizerSettings = DEFAULT_SETTINGS,
    morsels=None,
) -> PlanNode:
    """Lower an optimized plan to the tree the executor interprets.

    ``morsels`` is the :class:`~repro.engine.parallel.ParallelExecutor`
    being lowered for — its ``workers`` / ``morsel_rows`` /
    ``min_parallel_rows`` size the segments; ``None`` lowers for the
    serial executor (no segments). Already-lowered subtrees pass through
    unchanged, so lowering is idempotent.
    """

    def segment(kind: str, plan: PlanNode, top: PlanNode) -> PlanNode | None:
        """``plan`` as a morsel segment, if ``top`` is a morselable scan
        chain worth splitting (at least two morsels)."""
        if morsels is None:
            return None
        exprs: list = []
        scan = top
        while isinstance(scan, (FilterNode, ProjectNode)):
            exprs.append(
                scan.predicate if isinstance(scan, FilterNode)
                else [e for _, e in scan.exprs]
            )
            scan = scan.child
        if not isinstance(scan, ScanNode):
            return None
        table = db.table(scan.table)
        # Every streamed column must slice — including predicate-only
        # columns the scan never emits.
        if not table_is_morselable(
            table, scan.streamed_columns(table),
            allow_encoded=settings.compressed_execution,
        ):
            return None
        if table.nrows < max(morsels.min_parallel_rows, 2):
            return None
        # Shrink morsels so large scans yield at least one per worker.
        per_worker = -(-table.nrows // morsels.workers)
        ranges = morsel_ranges(table.nrows, max(1, min(morsels.morsel_rows, per_worker)))
        if len(ranges) < 2:
            return None
        # Subqueries resolve bottom-up: scan predicate, chain, then the cap.
        exprs = [scan.predicate, *reversed(exprs)]
        morsel = plan
        if kind == "aggregate":
            split = decompose_aggregates(dict(plan.aggs))
            if split is None:
                # e.g. COUNT(DISTINCT): a serial aggregate over the chain,
                # which may still segment on its own.
                return None
            morsel = AggregateNode(top, plan.group_by, tuple(split[0].items()))
            exprs.append([spec.expr for _, spec in plan.aggs])
        return MorselSegmentNode(
            kind, plan, morsel, scan,
            tuple(_scalar_subqueries(exprs, [])), tuple(ranges),
        )

    def walk(node: PlanNode) -> PlanNode:
        if isinstance(node, _LOWERED):
            return node
        if isinstance(node, LimitNode) and isinstance(node.child, SortNode):
            sort = node.child
            fused = TopKNode(sort.child, sort.keys, node.n)
            found = segment("topk", fused, sort.child) if node.n > 0 else None
            return found or fused.map_children(walk)
        if isinstance(node, AggregateNode):
            scan = node.child
            try_runs = (
                settings.compressed_execution
                and isinstance(scan, ScanNode)
                and scan.predicate is None
            )
            if try_runs:
                table = db.table(scan.table)
                proven = prepare_aggregate(table, list(node.group_by), dict(node.aggs))
                if proven is not None:
                    return RunLevelAggregateNode(scan, node.group_by, node.aggs, proven)
            lowered = segment("aggregate", node, node.child) or node.map_children(walk)
            if try_runs and _reads_compressed(node, table):
                lowered = EncodedMissNode(lowered)
            return lowered
        if isinstance(node, (FilterNode, ProjectNode)) or (
            # A scan with a pushed-down predicate carries real per-row
            # work (and skipping), so it parallelizes like scan+filter.
            # Bare predicate-free scans stay serial: slicing and
            # re-concatenating columns copies every array for no gain.
            isinstance(node, ScanNode) and node.predicate is not None
        ):
            return segment("chain", node, node) or node.map_children(walk)
        return node.map_children(walk)

    return walk(node)
