"""The semantic result cache's split decision.

The plan-fingerprint :class:`~repro.engine.cache.ResultCache` only hits
on *identical* plans — a dashboard that re-runs Q1 with a new date
cutoff misses every time, because the literal is part of the
fingerprint. The semantic layer answers such re-runs from a cube: the
plan's aggregation, canonicalized (:mod:`.shapes`), is the one-shape
:class:`~.miner.CubeSpec` whose cube a caching executor builds once
— with the builder's plan and cell guard (:mod:`.builder`), cached by
the shape's literal-free identity — and every re-run, whatever its
literals, re-slices with the router's one-cube rewrite
(:func:`~.router.reslice`), the wrappers peeled here re-applied on top.
The re-slice touches thousands of cells instead of millions of base
rows.

Soundness is inherited from the rollup algebra: the split only applies
when the aggregation canonicalizes, its filters are provably hoistable,
and its measures decompose exactly. Everything else falls through to
normal execution untouched, and a cube the guard rejects is cached
negatively so the shape is not re-attempted.
"""

from __future__ import annotations

from repro.engine.physical import _scalar_subqueries
from repro.engine.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    SortNode,
)

from .shapes import AggShape, aggregate_shape

__all__ = ["semantic_split"]

# Plan nodes that may sit between the plan root and the aggregation
# being cached; they are peeled off and re-applied to the re-slice.
_WRAPPERS = (SortNode, LimitNode, ProjectNode, FilterNode, DistinctNode)


def semantic_split(node: PlanNode, db) -> tuple[tuple[PlanNode, ...], AggShape] | None:
    """An optimized plan's peeled wrappers and aggregate shape, or ``None``.

    The wrappers (root first) are the sorts, limits, projections,
    filters and DISTINCT above the aggregation; ``None`` means the plan
    cannot be answered from a cube (then the caller executes normally).

    Requires at least one hoisted filter conjunct: without one, the cube
    IS the query and the ordinary fingerprint cache already handles
    re-runs.
    """
    wrappers: list[PlanNode] = []
    current = node
    while isinstance(current, _WRAPPERS):
        wrappers.append(current)
        current = current.child
    if not isinstance(current, AggregateNode):
        return None
    shape = aggregate_shape(current, db)
    if shape is None or not shape.conjuncts:
        return None
    exprs = list(shape.conjuncts)
    for wrapper in wrappers:
        if isinstance(wrapper, FilterNode):
            exprs.append(wrapper.predicate)
        elif isinstance(wrapper, ProjectNode):
            exprs.extend(expr for _, expr in wrapper.exprs)
    if _scalar_subqueries(exprs, []):
        # The re-slice runs against a database holding only the cube;
        # embedded subqueries need the real catalog.
        return None
    return tuple(wrappers), shape
