"""EXPLAIN: render physical plans and per-operator work profiles.

``explain(plan, db)`` prints the tree the executor interprets — the plan
optimized and then lowered by :func:`repro.engine.physical.lower` — one
``-> `` line per profile operator; ``explain_profile(result)`` shows
where a finished query spent its work — useful for understanding why a
query is memory- or compute-bound on a given platform (e.g. Q1's scan
dominance on the Pi).

The static choices (``TopK``, ``[enc-agg: run-level]``, ``[enc-eval
n/m]``, ``[segment: ... xN morsels]`` with ``N`` the morsels left after
zone-map pre-skip) are read off the lowered nodes. The remaining tags are
*predictions* of decisions the operators take at run time, made by
calling the operators' own helpers on static estimates: ``[late ...]``
and ``[spill: ...]`` (``choose_build_side``, ``choose_partitions``).
"""

from __future__ import annotations

from .expr import ColRef
from .optimizer import (
    DEFAULT_SETTINGS,
    OptimizerSettings,
    optimize_plan,
    output_columns,
)
from .physical import lower
from .plan import (
    AggregateNode,
    DistinctNode,
    EncodedMissNode,
    FilterNode,
    JoinNode,
    LimitNode,
    MorselSegmentNode,
    PlanNode,
    PredicatedScanNode,
    ProjectNode,
    Q,
    RunLevelAggregateNode,
    ScanNode,
    SortNode,
    TopKNode,
    UnionAllNode,
)
from .result import Result
from .table import Database
from .zonemap import BLOCK_EVAL

__all__ = ["explain", "explain_profile"]


def _describe(node: PlanNode) -> str:
    if isinstance(node, ScanNode):
        cols = "*" if node.columns is None else ", ".join(node.columns)
        return f"Scan {node.table} [{cols}]"
    if isinstance(node, FilterNode):
        return f"Filter ({node.predicate!r})"
    if isinstance(node, ProjectNode):
        return "Project [" + ", ".join(name for name, _ in node.exprs) + "]"
    if isinstance(node, JoinNode):
        keys = ", ".join(f"{l}={r}" for l, r in zip(node.left_on, node.right_on))
        return f"HashJoin {node.how} on ({keys})"
    if isinstance(node, AggregateNode):
        by = ", ".join(node.group_by) or "<global>"
        aggs = ", ".join(f"{name}={spec.func}" for name, spec in node.aggs)
        return f"Aggregate by [{by}] computing [{aggs}]"
    if isinstance(node, (SortNode, TopKNode)):
        keys = ", ".join(f"{k} {d}" for k, d in node.keys)
        if isinstance(node, TopKNode):
            return f"TopK {node.n} [{keys}]"
        return f"Sort [{keys}]"
    if isinstance(node, LimitNode):
        return f"Limit {node.n}"
    if isinstance(node, DistinctNode):
        cols = "*" if node.columns is None else ", ".join(node.columns)
        return f"Distinct [{cols}]"
    if isinstance(node, UnionAllNode):
        return "UnionAll"
    return type(node).__name__


def _produces_late(node: PlanNode) -> bool:
    """Whether this operator's output rides row ids (under late
    materialization) instead of materialized columns."""
    if isinstance(node, ScanNode):
        return node.predicate is not None
    if isinstance(node, FilterNode):
        return True
    if isinstance(node, JoinNode):
        # Inner and left joins emit their match pairs as row ids; semi
        # and anti joins filter their left input, late or not.
        return node.how in ("inner", "left") or _produces_late(node.left)
    if isinstance(node, ProjectNode):
        # Pass-through projections keep the selection; computed
        # expressions materialize their inputs.
        return all(isinstance(e, ColRef) for _, e in node.exprs) and _produces_late(
            node.child
        )
    if isinstance(node, LimitNode):
        return _produces_late(node.child)
    # Everything else is a pipeline breaker — a morsel segment included:
    # each morsel gathers at its boundary, so the merged frame is dense.
    return False


def _late_tag(node: PlanNode) -> str:
    if _produces_late(node):
        return "  [late: row ids]" if isinstance(node, JoinNode) else "  [late: selection vector]"
    if any(_produces_late(child) for child in node.children()):
        return "  [materialize]"
    return ""


def _enc_eval_tag(scan: PredicatedScanNode) -> str:
    """How many of a pushed-down predicate's conjuncts the scan evaluates
    on the encoded payloads, as lowering compiled them — nothing when the
    zone maps decide every block and no row is evaluated at all."""
    if not (scan.block_codes == BLOCK_EVAL).any():
        return ""
    encoded, total = len(scan.encoded), len(scan.conjuncts)
    if 0 < encoded < total:
        return f"  [enc-eval {encoded}/{total}]"
    return "  [enc-eval]" if encoded else "  [decode]"


def _subtree_size(node: PlanNode, db: Database) -> tuple[float, float]:
    """Static (bytes, rows) upper bound for a subtree's output: the sum
    of its base scans' streamed column bytes (filters only shrink it;
    joins are bounded here by their larger input — a heuristic, the same
    one the runtime dispatch refines with real frame sizes)."""
    if isinstance(node, ScanNode):
        table = db.table(node.table)
        names = list(node.columns) if node.columns is not None else list(table.column_names)
        width = sum(table.column(n).dtype.width for n in names)
        return float(width * table.nrows), float(table.nrows)
    sizes = [_subtree_size(child, db) for child in node.children()]
    if not sizes:
        return 0.0, 0.0
    return sum(b for b, _ in sizes), max(r for _, r in sizes)


def _spill_tag(node: PlanNode, db: Database, budget) -> str:
    """Out-of-core annotation: a dry run of the budget dispatch in
    :mod:`repro.engine.spill`, using static size estimates."""
    from .spill import (MAX_SPILL_DEPTH, choose_build_side, choose_partitions,
                        group_state_bytes, hash_build_bytes)

    limit = getattr(budget, "limit_bytes", budget)
    if limit is None:
        return ""
    if isinstance(node, JoinNode):
        lbytes, lrows = _subtree_size(node.left, db)
        rbytes, nrows = _subtree_size(node.right, db)
        side, estimate = choose_build_side(
            hash_build_bytes(lbytes, lrows), hash_build_bytes(rbytes, nrows), limit
        )
        nrows = nrows if side == "right" else lrows
        kind = "join"
    elif isinstance(node, AggregateNode) and node.group_by:
        _, nrows = _subtree_size(node.child, db)
        estimate = group_state_bytes(nrows, len(node.group_by), len(node.aggs))
        kind = "agg"
    else:
        return ""
    if estimate <= limit:
        return ""
    fanout = 0
    depth = 0
    while estimate > limit and depth < MAX_SPILL_DEPTH and nrows > 1:
        p = choose_partitions(estimate, float(limit), int(nrows), depth)
        if depth == 0:
            fanout = p
        estimate /= p
        nrows /= p
        depth += 1
    return f"  [spill: {kind} p={fanout} depth={depth}]"


def explain(
    plan: "Q | PlanNode",
    db: Database,
    optimize: bool = True,
    settings: OptimizerSettings | None = None,
    memory_budget=None,
) -> str:
    """Render a plan as an indented operator tree (top operator first).

    The tree shown is the one the serial executor interprets under
    ``settings``: ``plan`` optimized (with ``optimize``) and lowered. To
    see what a parallel executor runs, hand over its own lowering —
    ``explain(executor.lower(plan), db, optimize=False, settings=...)`` —
    and the members of each morsel segment carry a ``[segment: ...]``
    tag. A pushed-down scan predicate prints as a ``Filter ... [pushed]``
    line over its ``Scan`` (two profile operators, one physical node).
    With ``memory_budget`` (a byte count or a
    :class:`~repro.engine.spill.MemoryBudget`), joins and grouped
    aggregates whose static size estimate exceeds the budget carry a
    ``[spill: ...]`` tag showing the predicted Grace fan-out and depth."""
    node = plan.node if isinstance(plan, Q) else plan
    if node is None:
        raise ValueError("cannot explain an empty plan")
    effective = settings if settings is not None else DEFAULT_SETTINGS
    if optimize:
        node = optimize_plan(node, db, effective)
    node = lower(node, db, effective)

    from repro.rollup.shapes import ROLLUP_PREFIX

    lines: list[str] = []

    def emit(depth: int, text: str) -> None:
        lines.append("  " * depth + "-> " + text)

    def walk(current: PlanNode, depth: int, segment: str) -> None:
        if isinstance(current, EncodedMissNode):
            return walk(current.child, depth, segment)
        if isinstance(current, MorselSegmentNode):
            tag = f"  [segment: {current.kind} x{len(current.ranges)} morsels]"
            return walk(current.plan, depth, tag)
        tag = _late_tag(current) if effective.late_materialization else ""
        if isinstance(current, RunLevelAggregateNode):
            tag += "  [enc-agg: run-level]"
        if memory_budget is not None and effective.spilling:
            tag += _spill_tag(current, db, memory_budget)
        if isinstance(current, ScanNode):
            if current.predicate is not None:
                if effective.compressed_execution:
                    tag += _enc_eval_tag(current)
                emit(depth, f"Filter ({current.predicate!r})  [pushed]{tag}{segment}")
                depth, tag = depth + 1, ""
            if effective.rollups and current.table.startswith(ROLLUP_PREFIX):
                tag += f"  [rollup: {current.table}]"
        emit(depth, _describe(current) + tag + segment)
        for child in current.children():
            walk(child, depth + 1, segment)

    walk(node, 0, "")
    lines.append("output: [" + ", ".join(output_columns(node, db)) + "]")
    return "\n".join(lines)


def explain_profile(result: Result) -> str:
    """Tabulate a finished query's per-operator work counts."""
    header = (
        f"{'operator':<12} {'tuples_in':>12} {'tuples_out':>12} "
        f"{'seq_MB':>9} {'rand_acc':>12} {'ops':>14} {'out_MB':>8}"
    )
    lines = [header, "-" * len(header)]
    for op in result.profile.operators:
        lines.append(
            f"{op.operator:<12} {op.tuples_in:>12,.0f} {op.tuples_out:>12,.0f} "
            f"{op.seq_bytes / 1e6:>9.2f} {op.rand_accesses:>12,.0f} "
            f"{op.ops:>14,.0f} {op.out_bytes / 1e6:>8.2f}"
        )
    totals = result.profile
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<12} {totals.tuples:>12,.0f} {'':>12} "
        f"{totals.seq_bytes / 1e6:>9.2f} {totals.rand_accesses:>12,.0f} "
        f"{totals.ops:>14,.0f} {totals.out_bytes / 1e6:>8.2f}"
    )
    if totals.zone_probes or totals.skipped_bytes:
        lines.append(
            f"skipping: {totals.skipped_bytes / 1e6:.2f} MB skipped via zone maps "
            f"({totals.blocks_skipped:,.0f} blocks skipped, "
            f"{totals.blocks_scanned:,.0f} scanned, "
            f"{totals.zone_probes:,.0f} probes)"
        )
    if totals.gather_bytes or totals.saved_bytes:
        lines.append(
            f"late materialization: {totals.gather_bytes / 1e6:.2f} MB gathered "
            f"at pipeline breakers, {totals.saved_bytes / 1e6:.2f} MB of eager "
            f"intermediate rewrites avoided"
        )
    if totals.encoded_eval_rows or totals.runs_touched or totals.decoded_bytes:
        lines.append(
            f"compressed execution: {totals.encoded_eval_rows:,.0f} rows "
            f"evaluated in the encoded domain "
            f"({totals.runs_touched:,.0f} runs/blocks touched), "
            f"{totals.decoded_bytes / 1e6:.2f} MB decoded"
        )
    if totals.spilled_bytes or totals.spill_partitions:
        lines.append(
            f"spilling: {totals.spilled_bytes / 1e6:.2f} MB written to "
            f"{totals.spill_partitions:,.0f} partition files "
            f"({totals.respill_depth:,.0f} recursive re-partitions)"
        )
    return "\n".join(lines)
