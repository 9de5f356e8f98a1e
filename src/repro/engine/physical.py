"""Lowering: the one pass that makes the static physical choices.

``optimize_plan`` decides *what* a query computes; :func:`lower` decides
*how*, once, and returns the tree that
:meth:`~repro.engine.executor.Executor._exec` interprets node by node,
:func:`~repro.engine.explain.explain` prints verbatim, and the server
prices. Four choices are static — they depend on the plan, the catalog
and the executor's configuration, never on a frame — and live here and
nowhere else:

* **predicated scans** — a ``ScanNode`` with a pushed-down predicate
  becomes a :class:`~repro.engine.plan.PredicatedScanNode` carrying its
  classification: the conjuncts, the zone-map verdict on every block of
  the table, the conjuncts compiled to run on encoded payloads and the
  residual for decoded rows, the streamed columns, late or eager output.
  Compiling counts nothing; the ``engine.encoded.predicate`` hit/miss is
  counted when the scan runs;
* **top-k fusion** — ``Limit(Sort(x))`` becomes a
  :class:`~repro.engine.plan.TopKNode`;
* **run-level aggregation** — under compressed execution a predicate-free
  scan+aggregate becomes a :class:`~repro.engine.plan.RunLevelAggregateNode`
  carrying the plan ``prepare_aggregate`` proved (one value per RLE run
  beats any morsel split, so it pre-empts segmenting); when the proof is
  declined over compressed inputs the ordinary form is wrapped in an
  :class:`~repro.engine.plan.EncodedMissNode` so the decline is counted
  when — and only when — it executes;
* **morsel segments** — only when lowering for more than one worker:
  maximal scan → filter/project chains over a morselable base table,
  optionally capped by a decomposable aggregate or a top-k, become
  :class:`~repro.engine.plan.MorselSegmentNode` values with their
  partial aggregates and scalar subqueries already worked out, and with
  the morsels the zone maps prove empty already dropped from their
  ranges (the dropped ones' accounting rides on the node).

What depends on the data an operator is handed stays in the operator:
Grace spill vs in-memory, the late-materialization break.
"""

from __future__ import annotations

import numpy as np

from .compression import CompressedColumn
from .encoded import compile_predicate, prepare_aggregate
from .expr import Expr, ScalarSubquery
from .morsel import (
    DEFAULT_MORSEL_ROWS,
    MIN_PARALLEL_ROWS,
    morsel_ranges,
    table_is_morselable,
)
from .operators.aggregate import two_phase
from .operators.scan import drop_empty_ranges
from .optimizer import DEFAULT_SETTINGS, OptimizerSettings
from .plan import (
    AggregateNode,
    EncodedMissNode,
    FilterNode,
    LimitNode,
    MorselSegmentNode,
    PlanNode,
    PredicatedScanNode,
    ProjectNode,
    RunLevelAggregateNode,
    ScanNode,
    SortNode,
    TopKNode,
)
from .table import Database
from .zonemap import (
    BLOCK_EVAL,
    BLOCK_TAKE,
    ZONE_MAP_BLOCK_ROWS,
    classify_blocks,
    conjoin,
    extract_sargable,
    split_conjuncts,
)

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


def _reads_compressed(refs, table) -> bool:
    return any(isinstance(table.columns.get(n), CompressedColumn) for n in refs)


def _aggregate_refs(node: AggregateNode) -> set[str]:
    refs = set(node.group_by)
    for _, spec in node.aggs:
        if spec.expr is not None:
            refs |= spec.expr.references()
    return refs


def _classify_scan(
    scan: ScanNode, table, settings: OptimizerSettings
) -> PredicatedScanNode:
    """Everything static about a predicated scan, decided once."""
    conjuncts = split_conjuncts(scan.predicate)
    sargable = [s for s in map(extract_sargable, conjuncts) if s is not None]
    if settings.zone_map_skipping and sargable:
        codes, probes = classify_blocks(table, sargable, 0, table.nrows)
        if len(sargable) < len(conjuncts):
            # TAKE only proves the sargable conjuncts; a non-sargable
            # residue still needs per-row evaluation.
            codes[codes == BLOCK_TAKE] = BLOCK_EVAL
    else:
        nblocks = -(-table.nrows // ZONE_MAP_BLOCK_ROWS)
        codes, probes = np.full(nblocks, BLOCK_EVAL, dtype=np.int8), 0
    encoded, residual, misses = [], scan.predicate, 0
    if settings.compressed_execution:
        encoded, rest = compile_predicate(conjuncts, table)
        if encoded:
            residual = conjoin(rest)
        # A miss only counts when the conjunct actually reads compressed data.
        misses = sum(_reads_compressed(c.references(), table) for c in rest)
    return PredicatedScanNode(
        scan.table, scan.columns, scan.predicate,
        conjuncts=tuple(conjuncts),
        block_codes=codes,
        block_probes=probes // max(1, len(codes)),
        encoded=tuple(encoded),
        encoded_misses=misses,
        residual=residual,
        streamed=tuple(scan.streamed_columns(table)),
        late=settings.late_materialization,
    )


def lower(
    node: PlanNode,
    db: Database,
    settings: OptimizerSettings = DEFAULT_SETTINGS,
    workers: int = 1,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
) -> PlanNode:
    """Lower an optimized plan to the tree the executor interprets.

    ``workers`` and ``morsel_rows`` are the executor's: with more than
    one worker, segments over tables of at least
    :data:`~repro.engine.morsel.MIN_PARALLEL_ROWS` rows are cut into
    morsels of at most ``morsel_rows``; one worker lowers for the serial
    engine (no segments). Already-lowered subtrees pass through
    unchanged, so lowering is idempotent.
    """

    def scans(node: PlanNode) -> PlanNode:
        """Predicated scans first, so every shape above sees them lowered."""
        if isinstance(node, ScanNode):
            if node.predicate is None or isinstance(node, PredicatedScanNode):
                return node
            return _classify_scan(node, db.table(node.table), settings)
        return node.map_children(scans)

    def segment(kind: str, plan: PlanNode, top: PlanNode) -> PlanNode | None:
        """``plan`` as a morsel segment, if ``top`` is a morselable scan
        chain worth splitting (at least two morsels)."""
        if workers < 2:
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
        if table.nrows < max(MIN_PARALLEL_ROWS, 2):
            return None
        # Shrink morsels so large scans yield at least one per worker.
        per_worker = -(-table.nrows // workers)
        ranges = morsel_ranges(table.nrows, max(1, min(morsel_rows, per_worker)))
        if len(ranges) < 2:
            return None
        # Subqueries resolve bottom-up: scan predicate, chain, then the cap.
        exprs = [scan.predicate, *reversed(exprs)]
        morsel = plan
        if kind == "aggregate":
            split = two_phase(dict(plan.aggs))
            if split is None:
                # e.g. COUNT(DISTINCT): a serial aggregate over the chain,
                # which may still segment on its own.
                return None
            morsel = AggregateNode(top, plan.group_by, tuple(split[0].items()))
            exprs.append([spec.expr for _, spec in plan.aggs])
        skipped = None
        if isinstance(scan, PredicatedScanNode):
            ranges, skipped = drop_empty_ranges(table, scan, ranges)
        return MorselSegmentNode(
            kind, plan, morsel, scan,
            tuple(_scalar_subqueries(exprs, [])), tuple(ranges), skipped,
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
            if try_runs and _reads_compressed(_aggregate_refs(node), table):
                lowered = EncodedMissNode(lowered)
            return lowered
        if isinstance(node, (FilterNode, ProjectNode)) or (
            # A scan with a pushed-down predicate carries real per-row
            # work (and skipping), so it parallelizes like scan+filter.
            # Bare predicate-free scans stay serial: slicing and
            # re-concatenating columns copies every array for no gain.
            isinstance(node, PredicatedScanNode)
        ):
            return segment("chain", node, node) or node.map_children(walk)
        return node.map_children(walk)

    return walk(scans(node))
