"""Canonical aggregate shapes: the subsumption algebra behind rollups.

Everything in :mod:`repro.rollup` — the workload miner, the cube
builder, the router, and the semantic result cache — agrees on one
canonical form of "an aggregation over a filtered source":

* the **source** is the aggregate's child subtree with every filter
  removed (``FilterNode`` dropped, scan predicates cleared), scan column
  lists neutralized, identity projections elided, and projections widened
  with identity pass-throughs for every hoisted filter column;
* the **conjuncts** are the removed filter predicates, collected in
  deterministic plan order;
* the **shape** is that source plus the aggregate's group keys and
  measure expressions.

Two plans that differ only in filter literals (a Q1 re-run with a new
date cutoff, a dashboard sliced to a different day) canonicalize to the
same source key, which is exactly what lets one materialized cube — or
one cached finer aggregate — answer both.

Hoisting a conjunct out of the source is only done where it provably
commutes with the source's operators: through inner joins on either
side, through left/semi/anti joins on the probe side only, and through
projections via identity pass-throughs (widening the projection when the
column was pruned away). Aggregates, sorts, limits, DISTINCT, UNION ALL
and the non-probe side of outer/semi/anti joins are opaque barriers:
their subtrees are kept verbatim (literals included), so matching them
requires exact re-occurrence. Anything unprovable makes the whole shape
unmatchable — the conservative fallback the router's soundness rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.expr import ColRef, Expr, col
from repro.engine.fingerprint import nested_key, structural_key
from repro.engine.operators.aggregate import AGG_STATES, AggSpec, two_phase
from repro.engine.optimizer import output_columns
from repro.engine.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    UnionAllNode,
)
from repro.engine.zonemap import split_conjuncts

__all__ = [
    "ROLLUP_PREFIX",
    "STAR_KEY",
    "SUPPORTED_FUNCS",
    "AggShape",
    "aggregate_shape",
    "derived_rewrite",
    "expr_key",
    "scans_rollup_table",
    "source_key",
    "storage_aggs",
]

# Namespace for materialized cube tables inside the database catalog.
ROLLUP_PREFIX = "__rollup_"

# Measure key for COUNT(*) (it has no input expression).
STAR_KEY = "__star__"

# Aggregate functions whose per-cell states recombine exactly — every
# function with mergeable state parts (``AGG_STATES``: SUM/COUNT/MIN/MAX
# re-reduce, AVG decomposes into SUM + COUNT) that a query can ask for;
# ``isum`` only ever merges states. COUNT(DISTINCT) has none — its state
# is the distinct set.
SUPPORTED_FUNCS = set(AGG_STATES) - {"isum"}

# Builder of each stored state part from its measure expression.
_PART_BUILDERS = {
    part: build for states in AGG_STATES.values() for part, build, _ in states
}

# Opaque barriers: kept verbatim, never hoisted through.
_OPAQUE = (AggregateNode, SortNode, LimitNode, DistinctNode, UnionAllNode)


class _Unmatchable(Exception):
    """The subtree cannot be canonicalized soundly; decline the shape."""


def expr_key(expr: Expr | None) -> str:
    """Stable structural identity of a measure expression. Integral
    numeric literals key as floats, so ``price * (1 - disc)`` (SQL
    front-end) and ``price * (1.0 - disc)`` (template builders) share one
    measure: every supported aggregate of the two is numerically
    identical — engine arithmetic promotes the int literal against the
    float column either way, and ``/`` is always true division."""
    if expr is None:
        return STAR_KEY
    return repr(nested_key(expr, fold_ints=True))


def source_key(source: PlanNode) -> str:
    """Stable identity of a canonical (stripped) source subtree."""
    return structural_key(source)


def _strip(node: PlanNode) -> tuple[PlanNode, list[Expr]]:
    """Remove filters from a source subtree, collecting their conjuncts.

    Returns ``(stripped, conjuncts)``; raises :class:`_Unmatchable` when
    a conjunct cannot be hoisted soundly.
    """
    if isinstance(node, ScanNode):
        conjuncts = (
            split_conjuncts(node.predicate) if node.predicate is not None else []
        )
        return ScanNode(node.table, None, None), conjuncts

    if isinstance(node, FilterNode):
        child, conjuncts = _strip(node.child)
        return child, conjuncts + split_conjuncts(node.predicate)

    if isinstance(node, ProjectNode):
        child, conjuncts = _strip(node.child)
        exprs = list(node.exprs)
        out_names = {name for name, _ in exprs}
        identity = {
            name
            for name, expr in exprs
            if isinstance(expr, ColRef) and expr.name == name
        }
        for conjunct in conjuncts:
            for ref in sorted(conjunct.references()):
                if ref in identity:
                    continue
                if ref in out_names:
                    # An output of the same name computes something else;
                    # the conjunct would change meaning above this node.
                    raise _Unmatchable
                exprs.append((ref, ColRef(ref)))
                out_names.add(ref)
                identity.add(ref)
        if len(identity) == len(exprs):
            # Pure column selection: semantically irrelevant for the
            # source (the cube build re-prunes), so eliding it lets
            # queries with different pruned column sets share a key.
            return child, conjuncts
        return ProjectNode(child, tuple(exprs)), conjuncts

    if isinstance(node, JoinNode):
        left, conjuncts = _strip(node.left)
        if node.how == "inner":
            right, right_conjuncts = _strip(node.right)
            conjuncts = conjuncts + right_conjuncts
        else:
            # left/semi/anti: filtering the non-probe side changes which
            # probe rows survive, so that subtree stays verbatim.
            right = node.right
        return (
            JoinNode(left, right, node.left_on, node.right_on, node.how),
            conjuncts,
        )

    if isinstance(node, _OPAQUE):
        return node, []

    raise _Unmatchable


@dataclass(frozen=True)
class AggShape:
    """One aggregation in canonical form (see module docstring)."""

    source: PlanNode
    key: str
    conjuncts: tuple[Expr, ...]
    group_by: tuple[str, ...]
    aggs: tuple[tuple[str, AggSpec], ...]

    @property
    def conjunct_columns(self) -> set[str]:
        refs: set[str] = set()
        for conjunct in self.conjuncts:
            refs |= conjunct.references()
        return refs

    @property
    def dims(self) -> tuple[str, ...]:
        """Dimensions a cube must carry to answer this shape: group keys
        plus every filtered column (sorted, deduplicated)."""
        return tuple(sorted(set(self.group_by) | self.conjunct_columns))

    def measures(self) -> dict[str, tuple[Expr | None, set[str]]]:
        """Measure-expression key -> (expression, needed stored parts)."""
        out: dict[str, tuple[Expr | None, set[str]]] = {}
        for _, spec in self.aggs:
            key = expr_key(spec.expr)
            expr, parts = out.get(key, (spec.expr, set()))
            parts.update(part for part, _, _ in AGG_STATES[spec.func])
            out[key] = (expr, parts)
        return out


def scans_rollup_table(node: PlanNode) -> bool:
    """True when any scan in the subtree reads a materialized rollup."""
    return any(
        isinstance(current, ScanNode) and current.table.startswith(ROLLUP_PREFIX)
        for current in node.walk()
    )


def aggregate_shape(node: AggregateNode, db) -> AggShape | None:
    """Canonicalize one AggregateNode, or ``None`` when it cannot be
    matched soundly (unhoistable filters, unsupported measures, scans of
    other rollups, ambiguous column names)."""
    if any(spec.func not in SUPPORTED_FUNCS for _, spec in node.aggs):
        return None
    if scans_rollup_table(node):
        return None
    try:
        source, conjuncts = _strip(node.child)
    except _Unmatchable:
        return None
    try:
        cols = output_columns(source, db)
    except (KeyError, TypeError):
        return None
    available = set(cols)
    if len(available) != len(cols):
        return None  # duplicate names after widening: ambiguous
    needed = set(node.group_by)
    for conjunct in conjuncts:
        needed |= conjunct.references()
    for _, spec in node.aggs:
        if spec.expr is not None:
            needed |= spec.expr.references()
    if not needed <= available:
        return None
    return AggShape(
        source=source,
        key=source_key(source),
        conjuncts=tuple(conjuncts),
        group_by=node.group_by,
        aggs=node.aggs,
    )


def storage_aggs(
    measures: dict[str, tuple[Expr | None, set[str]]],
) -> tuple[dict[str, AggSpec], dict[tuple[str, str], str]]:
    """Storage aggregate specs for a cube (or finer cached aggregate).

    Returns ``(agg_specs, column_map)`` where ``column_map`` maps
    ``(measure_key, part)`` to the stored column name. Naming is
    deterministic in the sorted measure-key order, so identical shapes
    produce identical storage plans (and identical fingerprints).
    """
    specs: dict[str, AggSpec] = {}
    colmap: dict[tuple[str, str], str] = {}
    for i, key in enumerate(sorted(measures)):
        expr, parts = measures[key]
        for part in sorted(parts):
            name = f"m{i}_{part}"
            specs[name] = _PART_BUILDERS[part](expr)
            colmap[(key, part)] = name
    return specs, colmap


def derived_rewrite(
    aggs: tuple[tuple[str, AggSpec], ...],
    group_by: tuple[str, ...],
    colmap: dict[tuple[str, str], str],
) -> tuple[tuple[tuple[str, AggSpec], ...], tuple[tuple[str, Expr], ...]]:
    """Rewrite original aggregates into (cell-merge specs, recomposition
    projections) over stored measure columns: the final and projection
    thirds of the engine's ``two_phase`` split, with every state part
    read from the cube column ``colmap`` stored it in. The projection
    preserves the aggregate's original output column order exactly.
    """
    _, inner, projections = two_phase(
        dict(aggs), lambda spec, part: colmap[(expr_key(spec.expr), part)]
    )
    return tuple(inner.items()), tuple([(g, col(g)) for g in group_by] + projections)
