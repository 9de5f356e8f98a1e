"""Full-materialization (MonetDB-style) plan executor with profiling."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.obs.trace import NULL_TRACER, OperatorSpanScope

from .frame import Frame
from .optimizer import DEFAULT_SETTINGS, OptimizerSettings, optimize_plan
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
    ProjectNode,
    Q,
    RunLevelAggregateNode,
    ScanNode,
    SortNode,
    TopKNode,
    UnionAllNode,
)
from .profile import OperatorContext, WorkProfile
from .result import Result
from .table import Database
from .encoded import aggregate_stats
from .operators.distinct import execute_distinct
from .operators.filter import execute_filter
from .operators.limit import execute_limit
from .operators.project import execute_project
from .operators.scan import scan_range
from .operators.sort import execute_sort, execute_topk
from .operators.unionall import execute_union_all
from .spill import MemoryBudget, maybe_spill_aggregate, maybe_spill_join

__all__ = ["ExecContext", "Executor", "execute"]


def _annotate_rollups(qspan, node: PlanNode, settings: OptimizerSettings) -> None:
    """Tag a query span with the rollup tables its (optimized) plan
    scans, so routing decisions are visible in traces."""
    if not settings.rollups:
        return
    from repro.rollup.router import routed_tables

    routed = routed_tables(node)
    if routed:
        qspan.annotate(rollup=",".join(routed))


class ExecContext(OperatorContext):
    """Per-query execution state: the accumulating profile, the operator
    currently charging work, and the scalar-subquery cache."""

    def __init__(
        self,
        db: Database,
        executor: "Executor",
        tracer=None,
        parent_span=None,
        cancel=None,
    ):
        super().__init__(tracer, parent_span)
        self.db = db
        self._executor = executor
        self.cancel = cancel
        # Budget-aware operator dispatch (spill.py) reads these, and
        # joins read ``late``; morsel contexts inherit all three so
        # workers share one budget.
        self.budget = getattr(executor, "memory_budget", None)
        self.spilling = executor.settings.spilling
        self.late = executor.settings.late_materialization
        self.pipeline_span = parent_span
        self._scalar_cache: dict[int, object] = {}
        # Reentrant: a scalar subquery's plan may itself reference another
        # scalar subquery. Morsel workers share this context, so cache
        # fills must be serialized.
        self._scalar_lock = threading.RLock()

    @contextmanager
    def nested_pipeline(self, name: str):
        """Run a nested plan's operators (a scalar subquery) under their
        own pipeline span, morsel segments included. The interrupted
        operator's span closes first, so siblings never overlap, and
        stays the target of that operator's ``note``s afterwards; it is
        truncated at the subquery's start, so that operator's work after
        the subquery (the rest of a filter's mask, say) lies outside
        every operator span."""
        outer = self._ops
        if outer is None:
            yield
            return
        interrupted, parent = outer.open_span, self.pipeline_span
        outer.close()
        self.pipeline_span = self.tracer.start("pipeline", name, parent=parent)
        self._ops = OperatorSpanScope(self.tracer, self.pipeline_span)
        try:
            yield
        finally:
            self._ops.close()
            self.tracer.finish(self.pipeline_span)
            self._ops, self.pipeline_span = outer, parent
            outer.open_span = interrupted

    def scalar(self, plan) -> object:
        """Evaluate an uncorrelated scalar subquery once, merging its work
        into this query's profile."""
        key = id(plan)
        with self._scalar_lock:
            if key not in self._scalar_cache:
                saved = self.work
                node = plan.node if isinstance(plan, Q) else plan
                with self.nested_pipeline("scalar"):
                    frame = self._executor._exec(self._executor._lower(node), self)
                self.work = saved
                if frame.nrows != 1 or len(frame.columns) != 1:
                    raise ValueError("scalar subquery must produce a 1x1 result")
                name = next(iter(frame.columns))
                self._scalar_cache[key] = frame.column(name).to_list()[0]
            return self._scalar_cache[key]


class Executor:
    """Executes plans against a database catalog: optimize, lower
    (:mod:`repro.engine.physical`), interpret."""

    def __init__(
        self,
        db: Database,
        settings: OptimizerSettings | None = None,
        tracer=None,
        memory_budget: "MemoryBudget | int | None" = None,
    ):
        self.db = db
        self.settings = settings if settings is not None else DEFAULT_SETTINGS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if memory_budget is not None and not isinstance(memory_budget, MemoryBudget):
            memory_budget = MemoryBudget(limit_bytes=int(memory_budget))
        self.memory_budget = memory_budget

    def lower(self, plan: "Q | PlanNode", optimize: bool = True) -> PlanNode:
        """The physical plan this executor runs for ``plan``: what
        :meth:`execute` interprets and what
        ``explain(executor.lower(plan), db, optimize=False)`` prints."""
        return self._lower(self._optimized(plan, optimize))

    def _optimized(self, plan: "Q | PlanNode", optimize: bool) -> PlanNode:
        node = plan.node if isinstance(plan, Q) else plan
        if node is None:
            raise ValueError("cannot execute an empty plan")
        return optimize_plan(node, self.db, self.settings) if optimize else node

    def _lower(self, node: PlanNode) -> PlanNode:
        return lower(node, self.db, self.settings)

    def execute(
        self,
        plan: "Q | PlanNode",
        optimize: bool = True,
        label: str | None = None,
        parent_span=None,
        cancel=None,
    ) -> Result:
        """Run a plan and return its :class:`Result` (rows + profile).

        With a tracer attached, the execution contributes one "query"
        root span (or a child of ``parent_span`` — the cluster drivers
        nest per-node executions under their shard spans), labeled
        ``label`` when given. ``cancel`` is an optional
        :class:`~repro.engine.cancel.CancelToken` checked at every
        operator dispatch.
        """
        if cancel is not None:
            cancel.check()
        node = self._optimized(plan, optimize)
        tracer = self.tracer
        qspan = None
        if tracer.enabled:
            qspan = tracer.start("query", label or "query", parent=parent_span)
            _annotate_rollups(qspan, node, self.settings)
        start = time.perf_counter()
        try:
            frame, profile, cached = self._run(node, qspan, cancel)
        except BaseException:
            if qspan is not None:
                qspan.annotate(error=True)
                tracer.finish(qspan)
                tracer.finalize(qspan)
            raise
        elapsed = time.perf_counter() - start
        if qspan is not None:
            if cached is not None:
                # A cache hit leaves the span childless: the observation
                # is "this execution was served from the result cache".
                qspan.annotate(cached=cached)
            qspan.annotate(rows=frame.nrows, operators=len(profile.operators))
            tracer.finish(qspan)
            tracer.finalize(qspan)
        return Result(frame, profile, wall_seconds=elapsed, cached=bool(cached))

    def _run(self, node: PlanNode, qspan, cancel) -> tuple[Frame, WorkProfile, "bool | None"]:
        """Execute an optimized plan; the third element says whether a
        result cache served it (``None``: this executor has none)."""
        return (*self._run_direct(node, qspan, cancel), None)

    def _run_direct(self, node: PlanNode, qspan, cancel) -> tuple[Frame, WorkProfile]:
        """Lower an optimized plan and interpret it under one "main"
        pipeline span."""
        tracer = self.tracer
        pspan = (
            tracer.start("pipeline", "main", parent=qspan)
            if qspan is not None
            else None
        )
        ctx = ExecContext(self.db, self, tracer=tracer, parent_span=pspan, cancel=cancel)
        try:
            frame = self._exec(self._lower(node), ctx)
            if frame.is_late:
                # The result boundary is the last pipeline breaker: gather
                # the surviving rows and charge it to the final operator.
                frame = frame.dense(
                    ctx.profile.operators[-1] if ctx.profile.operators else None
                )
        finally:
            if pspan is not None:
                ctx.close_op_span()
                tracer.finish(pspan)
        return frame, ctx.profile

    # ------------------------------------------------------------------

    def _exec(self, node: PlanNode, ctx) -> Frame:
        """The interpreter: one branch per (lowered) node. Every static
        choice was made by :func:`~repro.engine.physical.lower`; what is
        left to the operators depends on the frames they are handed."""
        if ctx.cancel is not None:
            ctx.cancel.check()
        if isinstance(node, ScanNode):
            # Over the whole table, or one morsel's rows of it.
            ctx.begin_operator("scan")
            table = self.db.table(node.table)
            lo, hi = ctx.rows or (0, table.nrows)
            return scan_range(table, node, lo, hi, ctx)
        if isinstance(node, MorselSegmentNode):
            return self._exec_segment(node, ctx)
        if isinstance(node, FilterNode):
            child = self._exec(node.child, ctx)
            ctx.begin_operator("filter")
            return execute_filter(
                child, node.predicate, ctx,
                late=self.settings.late_materialization,
            )
        if isinstance(node, ProjectNode):
            child = self._exec(node.child, ctx)
            ctx.begin_operator("project")
            return execute_project(child, dict(node.exprs), ctx)
        if isinstance(node, JoinNode):
            left = self._exec(node.left, ctx)
            right = self._exec(node.right, ctx)
            ctx.begin_operator("hashjoin")
            return maybe_spill_join(
                left, right, list(node.left_on), list(node.right_on), node.how, ctx
            )
        if isinstance(node, RunLevelAggregateNode):  # before its base class
            aggregate_stats.hit()
            return node.plan.execute(ctx)
        if isinstance(node, EncodedMissNode):
            aggregate_stats.miss()
            return self._exec(node.child, ctx)
        if isinstance(node, AggregateNode):
            child = self._exec(node.child, ctx)
            ctx.begin_operator("aggregate")
            # Budget-aware: inside a segment each worker's partial state
            # charges the query's shared MemoryBudget and spills when over.
            return maybe_spill_aggregate(
                child, list(node.group_by), dict(node.aggs), ctx
            )
        if isinstance(node, SortNode):
            child = self._exec(node.child, ctx)
            ctx.begin_operator("sort")
            return execute_sort(child, list(node.keys), ctx)
        if isinstance(node, TopKNode):
            child = self._exec(node.child, ctx)
            ctx.begin_operator("topk")
            return execute_topk(child, list(node.keys), node.n, ctx)
        if isinstance(node, LimitNode):
            child = self._exec(node.child, ctx)
            ctx.begin_operator("limit")
            return execute_limit(child, node.n, ctx)
        if isinstance(node, UnionAllNode):
            left = self._exec(node.left, ctx)
            right = self._exec(node.right, ctx)
            ctx.begin_operator("unionall")
            return execute_union_all(left, right, ctx)
        if isinstance(node, DistinctNode):
            child = self._exec(node.child, ctx)
            ctx.begin_operator("distinct")
            return execute_distinct(
                child, list(node.columns) if node.columns else None, ctx
            )
        raise TypeError(f"unknown plan node {type(node).__name__}")


def execute(
    db: Database,
    plan: "Q | PlanNode",
    optimize: bool = True,
    settings: OptimizerSettings | None = None,
    tracer=None,
    label: str | None = None,
    cancel=None,
    memory_budget: "MemoryBudget | int | None" = None,
) -> Result:
    """Convenience wrapper: ``Executor(db).execute(plan)``."""
    return Executor(db, settings, tracer=tracer, memory_budget=memory_budget).execute(
        plan, optimize=optimize, label=label, cancel=cancel
    )
