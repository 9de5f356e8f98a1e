"""Semantic query routing: rewriting aggregations onto materialized cubes.

``route_plan`` walks an already-optimized plan top-down. Every
:class:`AggregateNode` it meets is canonicalized
(:func:`~repro.rollup.shapes.aggregate_shape`) and checked against the
catalog's cubes for the same canonical source. A cube answers the query
when it *subsumes* it:

* the query's group keys are a subset of the cube's dimensions,
* every filtered column is cube-resident (the filter re-applies to
  cells, exactly: a cell passes iff all of its rows pass, because the
  filter only references dimension columns), and
* every measure is derivable from stored parts (SUM from sums, COUNT
  from exact-integer count re-summation, AVG as merged SUM over merged
  COUNT, MIN/MAX by re-reduction).

On a match the aggregate is replaced by ``Project(Aggregate(Scan(cube,
filter)))`` — a plain plan over an ordinary table, so zone maps,
compression and late materialization all still apply downstream. On any
doubt the aggregate is left untouched and the walk continues into its
children (an outer aggregate that declines may still contain a routable
inner one). Routing never changes results; it only changes which table
produces them.
"""

from __future__ import annotations

from repro.engine.plan import AggregateNode, PlanNode, ProjectNode, ScanNode
from repro.obs.metrics import HitMissStats

from .shapes import ROLLUP_PREFIX, AggShape, aggregate_shape, derived_rewrite

__all__ = ["reslice", "route_plan", "try_route_aggregate", "routed_tables", "ROUTER_STATS"]

# Process-wide routing hit/miss counters, mirrored into the metrics
# registry as rollup.router.hits / rollup.router.misses.
ROUTER_STATS = HitMissStats("rollup.router")


def try_route_aggregate(node: AggregateNode, db, catalog) -> PlanNode | None:
    """Rewrite one aggregate onto the smallest subsuming cube, or return
    ``None`` when no cube provably answers it."""
    shape = aggregate_shape(node, db)
    if shape is None:
        return None
    for cube in catalog.cubes_for(shape.key):
        routed = reslice(shape, cube)
        if routed is not None:
            return routed
    return None


def reslice(shape: AggShape, cube) -> PlanNode | None:
    """``shape`` answered from one cube over its source, or ``None`` when
    the cube does not subsume it: scan the cells its filter keeps,
    re-merge their stored states to the shape's grouping, recompose the
    measures."""
    if not (set(shape.group_by) | shape.conjunct_columns) <= set(cube.dims):
        return None
    if any(not parts <= cube.parts_for(key) for key, (_, parts) in shape.measures().items()):
        return None
    predicate = None
    for conjunct in shape.conjuncts:
        predicate = conjunct if predicate is None else (predicate & conjunct)
    inner_aggs, projections = derived_rewrite(shape.aggs, shape.group_by, cube.colmap)
    scan_columns: list[str] = list(shape.group_by)
    for _, spec in inner_aggs:
        for ref in sorted(spec.expr.references()):
            if ref not in scan_columns:
                scan_columns.append(ref)
    rewritten: PlanNode = ScanNode(cube.name, tuple(scan_columns), predicate)
    rewritten = AggregateNode(rewritten, shape.group_by, inner_aggs)
    return ProjectNode(rewritten, projections)


def route_plan(node: PlanNode, db, catalog, decisions: list | None = None) -> PlanNode:
    """Rewrite every provably-routable aggregate in the plan onto its
    cube; everything else is rebuilt unchanged. Each routing decision
    (``True`` for a hit) is also appended to ``decisions`` when given."""
    if catalog is None or not len(catalog):
        return node
    return _route(node, db, catalog, decisions)


def _route(node: PlanNode, db, catalog, decisions) -> PlanNode:
    if isinstance(node, AggregateNode):
        routed = try_route_aggregate(node, db, catalog)
        if decisions is not None:
            decisions.append(routed is not None)
        if routed is not None:
            ROUTER_STATS.hit()
            return routed
        ROUTER_STATS.miss()
    return node.map_children(lambda child: _route(child, db, catalog, decisions))


def routed_tables(node: PlanNode) -> list[str]:
    """Rollup tables the plan scans, in plan order (explain/trace tag)."""
    names: list[str] = []
    stack = [node]
    while stack:
        current = stack.pop(0)
        if isinstance(current, ScanNode) and current.table.startswith(ROLLUP_PREFIX):
            if current.table not in names:
                names.append(current.table)
        stack.extend(current.children())
    return names
