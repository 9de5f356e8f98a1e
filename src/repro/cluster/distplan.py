"""Distributed query rewriting: local partial aggregation + driver merge.

This implements the paper's "simple driver program" strategy (§III-C3):
each node runs the full query pipeline — including joins, which are local
on the paper's layout because every table except lineitem is replicated —
up to and including the aggregation, producing *partial* aggregates; the
driver concatenates the partials and re-aggregates, then applies any
trailing project/sort/limit. What a partial holds, how partials merge and how the
original columns are recomposed is the engine's one ``two_phase`` split —
the same one morsel segments merge with.

Queries whose aggregate is not decomposable (COUNT DISTINCT) or whose
plan shape is not a chain over a single top aggregate raise
:class:`NotDistributableError`, and :func:`single_node_reason` refuses a
local plan the layout's partitioning would make diverge per shard; the
cluster runs those on a single node, exactly as the paper's Q13 runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.engine import Database, Frame, Q, Table, col, merge
from repro.engine.expr import ColRef
from repro.engine.operators.aggregate import two_phase
from repro.engine.physical import _scalar_subqueries
from repro.engine.plan import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)

__all__ = [
    "NotDistributableError",
    "SplitPlan",
    "concat_frames",
    "single_node_reason",
    "split_for_partial_aggregation",
]


class NotDistributableError(ValueError):
    """The plan cannot be decomposed into partial + final aggregation."""


class _Refused(Exception):
    """Internal: why a subtree cannot run once per shard."""


def single_node_reason(
    local: PlanNode, partition_keys: dict[str, str]
) -> str | None:
    """Why ``local`` must run on one node of a layout that partitions
    ``partition_keys`` (``{table: key column}``) and replicates every
    other table, or ``None`` when its per-shard partials merge to the
    single-node answer.

    A subtree is *partitioned* when it scans a partitioned table; its
    key columns are the partition keys it still carries, through
    pass-through renames and equi-join equivalence. Distribution is
    sound when the plan scans a partitioned table and every step keeps
    each result row on exactly one shard:

    * a nested aggregate over a partitioned subtree groups by a key
      column (Q18's per-order sums; Q17's per-part AVG does not);
    * no scalar subquery scans a partitioned table (Q22's AVG would be
      computed per shard);
    * a join of a partitioned left to a replicated right is local for
      any kind; of two partitioned inputs, its keys must pair both
      sides' key columns; of a replicated left to a partitioned right,
      it must be inner, or a semi join on the right's key column (Q4).

    ``local`` is the per-node half of
    :func:`split_for_partial_aggregation`: its top aggregate is exempt,
    the driver re-aggregates it.
    """
    child = local.child if isinstance(local, AggregateNode) else local
    try:
        keys = _partitioning(child, partition_keys)
    except _Refused as refusal:
        return str(refusal)
    if keys is None:
        return f"scans none of the partitioned tables {sorted(partition_keys)}"
    return None


def _partitioning(node: PlanNode, partition_keys: dict[str, str]):
    """``None`` when ``node`` yields the same rows on every shard, else
    the frozenset of its output columns equal to the partition key
    (possibly empty). Raises :class:`_Refused` when per-shard execution
    would repeat, lose or mis-aggregate rows."""
    for sub in _scalar_plans(node):
        scanned = _scanned_tables(sub) & partition_keys.keys()
        if scanned:
            raise _Refused(
                f"a scalar subquery over partitioned {sorted(scanned)} would "
                "be computed per shard"
            )
    if isinstance(node, ScanNode):
        key = partition_keys.get(node.table)
        if key is None:
            return None
        return frozenset([key] if node.columns is None or key in node.columns else [])
    if isinstance(node, JoinNode):
        return _join_partitioning(
            node,
            _partitioning(node.left, partition_keys),
            _partitioning(node.right, partition_keys),
        )
    inputs = [_partitioning(child, partition_keys) for child in node.children()]
    if all(keys is None for keys in inputs):
        return None
    if isinstance(node, (FilterNode, SortNode)):
        return inputs[0]
    if isinstance(node, ProjectNode):
        return frozenset(
            name for name, expr in node.exprs
            if isinstance(expr, ColRef) and expr.name in inputs[0]
        )
    if isinstance(node, AggregateNode):
        grouped = inputs[0] & set(node.group_by)
        if not grouped:
            raise _Refused(
                f"nested aggregate grouped by {list(node.group_by) or ['<global>']} "
                f"(no partition key among {sorted(inputs[0])}) would diverge per shard"
            )
        return grouped
    raise _Refused(f"{type(node).__name__} over a partitioned input would run per shard")


def _join_partitioning(node: JoinNode, left, right):
    """:func:`_partitioning` of a join whose inputs have ``left`` and
    ``right``."""
    pairs = list(zip(node.left_on, node.right_on))
    if right is None:
        # Every shard holds the whole right side: any kind is local.
        if left is None or node.how != "inner":
            return left
    elif left is None:
        if node.how == "semi" and any(rk in right for _, rk in pairs):
            # Every match of a left row lives on the shard of its key.
            return frozenset(lk for lk, rk in pairs if rk in right)
        if node.how != "inner":
            raise _Refused(
                f"{node.how} join of a replicated input to a partitioned one "
                "would repeat or lose rows per shard"
            )
    elif not any(lk in left and rk in right for lk, rk in pairs):
        raise _Refused(
            f"join on {pairs} does not pair the partition keys "
            f"{sorted(left)} and {sorted(right)}"
        )
    elif node.how != "inner":
        return left
    left, right = left or frozenset(), right or frozenset()
    return (
        left | right
        | {lk for lk, rk in pairs if rk in right}
        | {rk for lk, rk in pairs if lk in left}
    )


def _scalar_plans(node: PlanNode) -> list[PlanNode]:
    """Plans of the scalar subqueries in ``node``'s own expressions."""
    exprs = [value for name, value in vars(node).items()
             if name not in ("child", "left", "right")]
    if isinstance(node, AggregateNode):
        exprs += [spec.expr for _, spec in node.aggs]
    return [getattr(sub.plan, "node", sub.plan)  # a Q builder or its node
            for sub in _scalar_subqueries(exprs, [])]


def _scanned_tables(node: PlanNode) -> set[str]:
    """Tables ``node``'s subtree scans, its scalar subqueries' included."""
    tables: set[str] = set()
    for current in node.walk():
        if isinstance(current, ScanNode):
            tables.add(current.table)
        for sub in _scalar_plans(current):
            tables |= _scanned_tables(sub)
    return tables


@dataclass
class SplitPlan:
    """A distributable query: the per-node plan and a builder for the
    driver-side finalization plan (which scans a ``partials`` table)."""

    local: PlanNode
    build_final: Callable[[Database], PlanNode]


def concat_frames(frames: list[Frame]) -> Table:
    """Stack per-node partial-result frames into one ``partials`` table."""
    if not frames:
        raise ValueError("no partial results to merge")
    names = list(frames[0].columns)
    for index, frame in enumerate(frames[1:], start=1):
        if list(frame.columns) != names:
            raise ValueError(
                f"partial results have mismatched schemas: node 0 returned "
                f"columns {names}, node {index} returned {list(frame.columns)}"
            )
    return Table("partials", merge.concat_frames(frames).columns)


def split_for_partial_aggregation(root: PlanNode) -> SplitPlan:
    """Decompose a plan whose result flows through one top-level
    aggregation (possibly under project/sort/limit/having)."""
    chain: list[PlanNode] = []
    node = root
    while not isinstance(node, AggregateNode):
        if isinstance(node, (SortNode, LimitNode, ProjectNode, FilterNode)):
            if _scalar_plans(node):
                raise NotDistributableError(
                    "a scalar subquery above the aggregate would run against "
                    "the driver's partials"
                )
            chain.append(node)
            node = node.child
        else:
            raise NotDistributableError(
                f"top of plan is {type(node).__name__}, expected an aggregate chain"
            )
    aggregate = node

    # The same partial/final split morsel segments merge with.
    split = two_phase(dict(aggregate.aggs))
    if split is None:
        raise NotDistributableError(
            "an aggregate of the plan is not decomposable into partials"
        )
    partial, final, projections = split
    local = AggregateNode(aggregate.child, aggregate.group_by, tuple(partial.items()))

    def build_final(db: Database) -> PlanNode:
        scan = Q(db).scan("partials").node
        merged: PlanNode = AggregateNode(
            scan, aggregate.group_by, tuple(final.items())
        )
        # Restore the original output names (and recompose multi-part states).
        keys = [(key, col(key)) for key in aggregate.group_by]
        merged = ProjectNode(merged, tuple(keys + projections))
        for upper in reversed(chain):
            merged = replace(upper, child=merged)
        return merged

    return SplitPlan(local=local, build_final=build_final)
