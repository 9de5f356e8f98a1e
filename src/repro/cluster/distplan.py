"""Distributed query rewriting: local partial aggregation + driver merge.

This implements the paper's "simple driver program" strategy (§III-C3):
each node runs the full query pipeline — including joins, which are local
because every table except lineitem is replicated — up to and including
the aggregation, producing *partial* aggregates; the driver concatenates
the partials and re-aggregates, then applies any trailing
project/sort/limit. What a partial holds, how partials merge and how the
original columns are recomposed is the engine's one ``two_phase`` split —
the same one morsel segments merge with.

Queries whose aggregate is not decomposable (COUNT DISTINCT) or whose
plan shape is not a chain over a single top aggregate raise
:class:`NotDistributableError`; the cluster falls back to single-node
execution for them, exactly as the paper's Q13 does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.engine import Database, Frame, Q, Table, col, merge
from repro.engine.operators.aggregate import two_phase
from repro.engine.plan import (
    AggregateNode,
    FilterNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    SortNode,
)

__all__ = [
    "NotDistributableError",
    "SplitPlan",
    "concat_frames",
    "split_for_partial_aggregation",
    "unsound_distribution_reason",
]


class NotDistributableError(ValueError):
    """The plan cannot be decomposed into partial + final aggregation."""


def unsound_distribution_reason(
    local: PlanNode, partitioned: str = "lineitem", key: str = "l_orderkey"
) -> str | None:
    """Why running ``local`` per-partition would give wrong answers, or
    ``None`` when it is sound.

    The partial-aggregation split is correct only when every *nested*
    aggregate over the partitioned table is grouped by the partition
    key (then each group is node-local, e.g. Q18's per-order sums). A
    nested aggregate grouped any other way — Q17's per-part AVG is the
    canonical case — computes a per-shard value where the query means a
    global one, and the partials silently diverge. The top-level partial
    aggregate itself is exempt: the driver re-aggregates it.
    """
    from repro.engine.plan import ScanNode

    def scans_partitioned(node: PlanNode) -> bool:
        return any(
            isinstance(current, ScanNode) and current.table == partitioned
            for current in node.walk()
        )

    nested = local.child.walk() if isinstance(local, AggregateNode) else local.walk()
    for node in nested:
        if isinstance(node, AggregateNode) and scans_partitioned(node):
            if key not in node.group_by:
                group = list(node.group_by) or ["<global>"]
                return (
                    f"nested aggregate over {partitioned!r} grouped by {group} "
                    f"(not the partition key {key!r}) would diverge per shard"
                )
    return None


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
