"""The optimizer: predicate pushdown and projection pruning.

Two rewrites keep the work profiles honest and open the door to data
skipping:

* **Predicate pushdown** — conjunctive filters sink below projections
  (through pass-through aliases) and joins (to whichever side holds
  their columns); sargable conjuncts (``col <op> literal``, ``BETWEEN``,
  ``IN``) attach to the :class:`~repro.engine.plan.ScanNode` itself as
  *scan predicates*, where zone maps can prove whole blocks empty and
  skip streaming them (the paper's §III-C2 point: the cheapest byte is
  the one never read).
* **Projection pruning** — scans read only the columns some ancestor
  needs; a selective TPC-H query must not be charged for streaming the
  16-column lineitem table when it touches four columns.

:class:`OptimizerSettings` gates each rewrite — the ``--no-skipping``
CLI ablation maps to ``OptimizerSettings.disabled()``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .expr import ColRef, Expr, rewrite_colrefs
from .plan import (
    AggregateNode,
    DistinctNode,
    EncodedMissNode,
    FilterNode,
    JoinNode,
    LimitNode,
    MorselSegmentNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    TopKNode,
    UnionAllNode,
)
from .table import Database
from .zonemap import conjoin, split_conjuncts

__all__ = [
    "DEFAULT_SETTINGS",
    "OptimizerSettings",
    "optimize_plan",
    "output_columns",
    "prune_columns",
    "pushdown_predicates",
    "route_rollups",
]


@dataclass(frozen=True)
class OptimizerSettings:
    """Optimizer feature gates.

    Attributes:
        predicate_pushdown: sink filters toward scans and attach sargable
            conjuncts as scan predicates.
        zone_map_skipping: let scans consult zone maps to skip blocks a
            scan predicate provably excludes (pushdown without skipping
            still filters at the scan, it just streams every block).
        late_materialization: have scans and filters emit selection
            vectors, and inner and left joins row ids per input, over
            the base columns instead of rewriting compact column copies;
            each column is gathered by its first reader (a join's keys,
            aggregates, sorts, DISTINCT, UNION ALL, the final result).
            Orthogonal to pushdown/skipping: the ``--no-latemat``
            ablation flips only this flag.
        compressed_execution: evaluate predicates directly on encoded
            (bitpack/FoR/RLE) columns and aggregate over RLE runs
            (:mod:`repro.engine.encoded`) instead of decoding first;
            unsupported shapes fall back per operator. The
            ``--no-compressed-exec`` ablation flips only this flag.
        rollups: route aggregate plans to materialized rollup cubes when
            the database carries a rollup catalog (``db.rollups``, built
            by :mod:`repro.rollup`) and subsumption is proven; also
            enables the semantic result cache in the parallel executor.
            A no-op for databases without a catalog. The ``--no-rollups``
            ablation flips only this flag.
        spilling: allow hash joins and grouped aggregations whose state
            exceeds the executor's memory budget to run out-of-core via
            Grace partitioning (:mod:`repro.engine.spill`). With spilling
            off, an over-budget operator raises
            :class:`~repro.engine.spill.MemoryBudgetExceeded` instead —
            the modeled in-memory-only wimpy node. A no-op without a
            memory budget. The ``--no-spill`` ablation flips only this
            flag.
    """

    predicate_pushdown: bool = True
    zone_map_skipping: bool = True
    late_materialization: bool = True
    compressed_execution: bool = True
    rollups: bool = True
    spilling: bool = True

    @classmethod
    def disabled(cls) -> "OptimizerSettings":
        """The ``--no-skipping`` ablation: no pushdown, no skipping.
        Late materialization and compressed execution are left at their
        defaults — each is a separate ablation axis."""
        return cls(predicate_pushdown=False, zone_map_skipping=False)

    def without_latemat(self) -> "OptimizerSettings":
        """These settings with late materialization turned off (every
        filter rewrites compact column copies, as the seed engine did)."""
        return replace(self, late_materialization=False)

    def without_compressed(self) -> "OptimizerSettings":
        """These settings with compressed execution turned off (every
        operator decodes to flat arrays first, as before)."""
        return replace(self, compressed_execution=False)

    def without_rollups(self) -> "OptimizerSettings":
        """These settings with rollup routing and the semantic result
        cache turned off (every aggregate runs against base tables)."""
        return replace(self, rollups=False)

    def without_spilling(self) -> "OptimizerSettings":
        """These settings with out-of-core execution turned off (an
        over-budget operator raises instead of spilling)."""
        return replace(self, spilling=False)

    def cache_key(self) -> str:
        """Stable tag mixed into plan fingerprints so results computed
        under different optimizer settings never alias in the cache."""
        return (
            f"pd={int(self.predicate_pushdown)},"
            f"zm={int(self.zone_map_skipping)},"
            f"lm={int(self.late_materialization)},"
            f"ce={int(self.compressed_execution)},"
            f"ru={int(self.rollups)},"
            f"sp={int(self.spilling)}"
        )


DEFAULT_SETTINGS = OptimizerSettings()


def optimize_plan(
    node: PlanNode, db: Database, settings: OptimizerSettings = DEFAULT_SETTINGS
) -> PlanNode:
    """The full rewrite stack: predicate pushdown, then projection
    pruning (in that order — pushdown moves predicates below projects,
    pruning then sees the final column demand at every scan), then rollup
    routing (the router matches the *optimized* shape, so mined templates
    and live queries canonicalize identically)."""
    if settings.predicate_pushdown:
        node = pushdown_predicates(node, db)
    node = prune_columns(node, db, required=None)
    return route_rollups(node, db, settings)


def route_rollups(
    node: PlanNode,
    db: Database,
    settings: OptimizerSettings = DEFAULT_SETTINGS,
    decisions: list | None = None,
) -> PlanNode:
    """The last optimizer stage on its own: route an otherwise-optimized
    plan onto ``db``'s rollup cubes (a no-op without a catalog or with
    ``settings.rollups`` off). The server mines the unrouted tree, then
    routes it here — one optimize per request — and keeps the routing
    ``decisions`` (see :func:`~repro.rollup.router.route_plan`)."""
    if settings.rollups and getattr(db, "rollups", None) is not None:
        from repro.rollup.router import route_plan

        node = route_plan(node, db, db.rollups, decisions)
    return node


def pushdown_predicates(node: PlanNode, db: Database) -> PlanNode:
    """Sink conjunctive filter predicates as close to the scans as
    legality allows; conjuncts that reach a scan attach to it as the
    scan predicate (evaluated while streaming, with zone-map skipping
    for the sargable subset)."""
    return _push(node, [], db)


def _wrap_residual(node: PlanNode, conjuncts: list[Expr]) -> PlanNode:
    """Re-materialize conjuncts that could not sink past ``node``."""
    predicate = conjoin(conjuncts)
    return node if predicate is None else FilterNode(node, predicate)


def _push(node: PlanNode, conjuncts: list[Expr], db: Database) -> PlanNode:
    """Rewrite ``node`` with ``conjuncts`` (filters collected from above)
    applied at the lowest legal position."""
    if isinstance(node, FilterNode):
        # Absorb the filter into the in-flight conjunct set and continue.
        return _push(node.child, conjuncts + split_conjuncts(node.predicate), db)

    if isinstance(node, ScanNode):
        available = set(db.table(node.table).column_names)
        local = [c for c in conjuncts if c.references() <= available]
        rest = [c for c in conjuncts if not (c.references() <= available)]
        predicate = node.predicate
        if local:
            existing = [predicate] if predicate is not None else []
            predicate = conjoin(existing + local)
        return _wrap_residual(
            ScanNode(node.table, node.columns, predicate), rest
        )

    if isinstance(node, ProjectNode):
        # A conjunct passes through when every column it reads is a bare
        # pass-through alias (``name -> col(child_name)``); it is rewritten
        # into child-column terms. Computed outputs block the descent.
        passthrough = {
            name: expr.name for name, expr in node.exprs if isinstance(expr, ColRef)
        }
        down: list[Expr] = []
        keep: list[Expr] = []
        for conjunct in conjuncts:
            refs = conjunct.references()
            if refs <= passthrough.keys():
                down.append(
                    rewrite_colrefs(conjunct, {r: passthrough[r] for r in refs})
                )
            else:
                keep.append(conjunct)
        child = _push(node.child, down, db)
        return _wrap_residual(ProjectNode(child, node.exprs), keep)

    if isinstance(node, JoinNode):
        # Single-side conjuncts route to their side. The probe (left) side
        # accepts them for any join type we evaluate left-driven; the
        # build (right) side only for inner joins — filtering the right
        # input of a left/semi/anti join changes which left rows match.
        left_cols = set(output_columns(node.left, db))
        right_cols = set(output_columns(node.right, db))
        to_left: list[Expr] = []
        to_right: list[Expr] = []
        keep = []
        for conjunct in conjuncts:
            refs = conjunct.references()
            if refs <= left_cols and node.how in ("inner", "left", "semi", "anti"):
                to_left.append(conjunct)
            elif refs <= right_cols and node.how == "inner":
                to_right.append(conjunct)
            else:
                keep.append(conjunct)
        return _wrap_residual(
            JoinNode(
                _push(node.left, to_left, db),
                _push(node.right, to_right, db),
                node.left_on,
                node.right_on,
                node.how,
            ),
            keep,
        )

    if isinstance(node, UnionAllNode):
        # Filter distributes over concatenation; both sides produce the
        # same column set.
        return UnionAllNode(
            _push(node.left, list(conjuncts), db),
            _push(node.right, list(conjuncts), db),
        )

    if isinstance(node, SortNode):
        # Filtering commutes with ordering.
        return SortNode(_push(node.child, conjuncts, db), node.keys)

    if isinstance(node, DistinctNode):
        # Row-level predicates commute with duplicate elimination only
        # when DISTINCT keeps whole rows; with a column subset the kept
        # representative row could change, so stay above.
        child = _push(node.child, [] if node.columns else conjuncts, db)
        residual = conjuncts if node.columns else []
        return _wrap_residual(DistinctNode(child, node.columns), residual)

    if isinstance(node, (AggregateNode, LimitNode)):
        # Barriers: a filter above an aggregate is a HAVING, a filter
        # above a limit sees the truncated rows. Restart the descent in
        # the subtree so nested filters still sink.
        if isinstance(node, AggregateNode):
            rebuilt: PlanNode = AggregateNode(
                _push(node.child, [], db), node.group_by, node.aggs
            )
        else:
            rebuilt = LimitNode(_push(node.child, [], db), node.n)
        return _wrap_residual(rebuilt, conjuncts)

    raise TypeError(f"unknown plan node {type(node).__name__}")


def output_columns(node: PlanNode, db: Database) -> list[str]:
    """The column names a (logical or lowered) node produces."""
    if isinstance(node, ScanNode):
        if node.columns is not None:
            return list(node.columns)
        return db.table(node.table).column_names
    if isinstance(
        node, (FilterNode, SortNode, LimitNode, DistinctNode, TopKNode, EncodedMissNode)
    ):
        return output_columns(node.child, db)
    if isinstance(node, MorselSegmentNode):
        return output_columns(node.plan, db)
    if isinstance(node, ProjectNode):
        return [name for name, _ in node.exprs]
    if isinstance(node, AggregateNode):
        return list(node.group_by) + [name for name, _ in node.aggs]
    if isinstance(node, UnionAllNode):
        return output_columns(node.left, db)
    if isinstance(node, JoinNode):
        left = output_columns(node.left, db)
        if node.how in ("semi", "anti"):
            return left
        right = [
            c
            for c in output_columns(node.right, db)
            if not (c in left and c in node.right_on)
        ]
        return left + right
    raise TypeError(f"unknown plan node {type(node).__name__}")


def prune_columns(node: PlanNode, db: Database, required: set[str] | None = None) -> PlanNode:
    """Rewrite the plan so scans read only columns some ancestor needs.

    ``required=None`` means "everything the node produces is needed"
    (the root, or below operators that need all columns).
    """
    if isinstance(node, ScanNode):
        available = output_columns(node, db)
        if required is None:
            return node
        keep = [c for c in available if c in required]
        if not keep:  # degenerate (e.g. COUNT(*) over a bare scan)
            keep = available[:1]
        # A pushed-down predicate survives pruning; its columns are
        # streamed for evaluation even when not emitted.
        return ScanNode(node.table, tuple(keep), node.predicate)

    if isinstance(node, FilterNode):
        child_req = None if required is None else required | node.predicate.references()
        return FilterNode(prune_columns(node.child, db, child_req), node.predicate)

    if isinstance(node, ProjectNode):
        exprs = node.exprs if required is None else tuple(
            (name, e) for name, e in node.exprs if name in required
        )
        if not exprs:
            exprs = node.exprs[:1]
        child_req: set[str] = set()
        for _, expr in exprs:
            child_req |= expr.references()
        return ProjectNode(prune_columns(node.child, db, child_req), exprs)

    if isinstance(node, JoinNode):
        left_cols = set(output_columns(node.left, db))
        right_cols = set(output_columns(node.right, db))
        if required is None:
            left_req, right_req = None, None
        else:
            left_req = (required & left_cols) | set(node.left_on)
            right_req = (required & right_cols) | set(node.right_on)
        if node.how in ("semi", "anti"):
            right_req = set(node.right_on) if right_req is not None or True else None
        return JoinNode(
            prune_columns(node.left, db, left_req),
            prune_columns(node.right, db, right_req),
            node.left_on,
            node.right_on,
            node.how,
        )

    if isinstance(node, AggregateNode):
        child_req = set(node.group_by)
        for _, spec in node.aggs:
            if spec.expr is not None:
                child_req |= spec.expr.references()
        # COUNT(*)-only aggregates leave child_req empty; the scan rule
        # falls back to reading a single column.
        return AggregateNode(
            prune_columns(node.child, db, child_req), node.group_by, node.aggs
        )

    if isinstance(node, SortNode):
        child_req = None if required is None else required | {k for k, _ in node.keys}
        return SortNode(prune_columns(node.child, db, child_req), node.keys)

    if isinstance(node, LimitNode):
        return LimitNode(prune_columns(node.child, db, required), node.n)

    if isinstance(node, UnionAllNode):
        # Children must stay positionally aligned: prune both with the
        # same requirement set.
        return UnionAllNode(
            prune_columns(node.left, db, required),
            prune_columns(node.right, db, required),
        )

    if isinstance(node, DistinctNode):
        # DISTINCT ON a subset still *outputs* all child columns (first
        # row per group), so the child's requirement only narrows when an
        # ancestor narrowed ours.
        if required is None:
            child_req = None
        else:
            child_req = required | set(node.columns or ())
        return DistinctNode(prune_columns(node.child, db, child_req), node.columns)

    raise TypeError(f"unknown plan node {type(node).__name__}")
