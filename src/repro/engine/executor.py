"""The plan executor: optimize, lower, interpret — on one or more cores.

:class:`Executor` keeps as many of a wimpy node's cores busy as it is
given (the paper's Table I point: the Pi 3B+ has four cores, and OLAP
throughput on it lives or dies by using them). With ``workers > 1``,
lowering (:mod:`repro.engine.physical`) marks the *parallelizable
segments* of a plan — maximal scan → filter/project chains over a base
table, optionally capped by a decomposable aggregate or a fused top-k —
as :class:`~repro.engine.plan.MorselSegmentNode` values; the executor
runs each segment's per-morsel plan through the ordinary interpreter on
a shared ``ThreadPoolExecutor`` (the numpy kernels release the GIL),
then merges partial states with :mod:`repro.engine.merge`. Everything
outside a segment (joins, sorts, DISTINCT, non-decomposable aggregates)
runs serially over the merged intermediates, so *every* plan executes
correctly; parallelism is an optimization, never a semantics change.
One worker is the serial engine: no segments, no pool.

With ``cache_size > 0``, repeated plans are served from a
plan-fingerprint :class:`~repro.engine.cache.ResultCache`
(single-flight), which is what the Fig. 3 / Table II sweeps hit when
they re-run the same 22 queries per platform.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from contextlib import contextmanager
from dataclasses import replace

from repro.obs.trace import NULL_TRACER, OperatorSpanScope

from .cache import ResultCache
from .fingerprint import plan_fingerprint
from .frame import Frame
from .merge import (
    concat_frames,
    merge_partial_aggregates,
    merge_profiles,
    merge_topk,
)
from .morsel import DEFAULT_MORSEL_ROWS, MorselContext
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
        self.budget = executor.memory_budget
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
        """Evaluate an uncorrelated scalar subquery once (optimized and
        lowered like any plan), merging its work into this query's
        profile."""
        key = id(plan)
        with self._scalar_lock:
            if key not in self._scalar_cache:
                saved = self.work
                node = plan.node if isinstance(plan, Q) else plan
                with self.nested_pipeline("scalar"):
                    frame = self._executor._exec(self._executor.lower(node), self)
                self.work = saved
                if frame.nrows != 1 or len(frame.columns) != 1:
                    raise ValueError("scalar subquery must produce a 1x1 result")
                name = next(iter(frame.columns))
                self._scalar_cache[key] = frame.column(name).to_list()[0]
            return self._scalar_cache[key]


class Executor:
    """Executes plans against a database catalog: optimize, lower
    (:mod:`repro.engine.physical`), interpret.

    Args:
        db: the database catalog.
        settings: the optimizer gates (default: all on).
        workers: threads a query's morsel segments run on. ``1`` (the
            default) is the serial engine: lowering cuts no segments.
        morsel_rows: target rows per morsel; the effective size shrinks
            so large scans yield at least one morsel per worker.
        cache_size: LRU capacity of the plan-fingerprint result cache
            and of the semantic cache beside it; ``0`` disables both.
        memory_budget: byte cap on operator working memory (a
            :class:`~repro.engine.spill.MemoryBudget` or an int).
        tracer: optional tracer; each execution contributes one
            ``query`` span.
    """

    def __init__(
        self,
        db: Database,
        settings: OptimizerSettings | None = None,
        *,
        workers: int = 1,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        cache_size: int = 0,
        memory_budget: "MemoryBudget | int | None" = None,
        tracer=None,
    ):
        self.db = db
        self.settings = settings if settings is not None else DEFAULT_SETTINGS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if memory_budget is not None and not isinstance(memory_budget, MemoryBudget):
            memory_budget = MemoryBudget(limit_bytes=int(memory_budget))
        self.memory_budget = memory_budget
        self.workers = max(1, workers)
        self.morsel_rows = max(1, morsel_rows)
        self.cache: ResultCache | None = ResultCache(cache_size) if cache_size else None
        # Semantic layer: caches literal-free finer aggregates so shape
        # re-runs with new filter literals re-slice instead of re-scan.
        # Tied to cache_size so "caching off" disables both layers.
        self.semantic: ResultCache | None = (
            ResultCache(capacity=16, stats_name="rollup.semantic_cache")
            if cache_size
            else None
        )
        self._pool: _ThreadPool | None = None
        self._pool_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------

    def _ensure_pool(self) -> _ThreadPool:
        with self._pool_lock:
            if self._pool is None:
                self._pool = _ThreadPool(
                    max_workers=self.workers, thread_name_prefix="morsel"
                )
            return self._pool

    def close(self) -> None:
        """Shut down the worker pool, if one was started (idempotent)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    # -- entry point ----------------------------------------------------

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
        return lower(node, self.db, self.settings, self.workers, self.morsel_rows)

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
        operator dispatch and morsel boundary.
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
            if self.cache is None:
                frame, profile = self._run_semantic(node, qspan, cancel)
                cached = None
            else:
                # Single-flight: one execution per fingerprint, however
                # many threads ask for it at once.
                (frame, profile), cached = self.cache.get_or_run(
                    plan_fingerprint(node),
                    lambda: self._run_semantic(node, qspan, cancel),
                    cancel=cancel,
                )
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

    def _run_semantic(self, node: PlanNode, qspan, cancel) -> tuple[Frame, WorkProfile]:
        """Execute an optimized plan, preferring the semantic cache.

        When the plan's aggregation is a shape a cube can answer
        (:mod:`repro.rollup.semantic`), that one-shape cube is built once
        and every literal variation of the shape re-slices it. Anything
        unsplittable executes directly.
        """
        split = None
        if (
            self.semantic is not None
            and self.settings.rollups
            and getattr(self.db, "rollups", None) is not None
        ):
            from repro.rollup.semantic import semantic_split

            try:
                split = semantic_split(node, self.db)
            except Exception:
                split = None
        if split is None:
            return self._run_direct(node, qspan, cancel)

        from repro.rollup.builder import cell_budget, cube_plan, make_cube
        from repro.rollup.miner import CubeSpec
        from repro.rollup.router import reslice

        wrappers, shape = split
        spec = CubeSpec.of(shape)
        parts = sorted((key, tuple(sorted(p))) for key, (_, p) in spec.measures.items())
        key = (shape.key, spec.dims, tuple(parts))
        unrouted = self.settings.without_rollups()

        def build():
            # Built unrouted: a served cube that subsumed this one would
            # have subsumed, and routed, the query itself.
            plan, colmap = cube_plan(spec)
            frame, profile = self._run_direct(
                optimize_plan(plan, self.db, unrouted), qspan, cancel
            )
            budget = cell_budget(self.db, spec)
            if budget is None or frame.nrows > budget:
                return None  # negatively cached: not worth a cube
            cube = make_cube(f"semantic_{shape.key[:8]}", spec, frame, colmap)
            cells = Database("semantic")
            cells.add(cube.table)
            return cube, Executor(cells, unrouted), profile

        value, was_cached = self.semantic.get_or_run(key, build, cancel=cancel)
        if value is None:
            return self._run_direct(node, qspan, cancel)
        cube, cells, build_profile = value
        plan = reslice(shape, cube)
        for wrapper in reversed(wrappers):
            plan = replace(wrapper, child=plan)
        residual = cells.execute(plan, label="semantic-reslice")
        if qspan is not None:
            qspan.annotate(semantic="hit" if was_cached else "build")
        if was_cached:
            # The only real work this execution did was the re-slice.
            return residual.frame, residual.profile
        combined = WorkProfile()
        combined.absorb(build_profile)
        combined.absorb(residual.profile)
        return residual.frame, combined

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

    # -- interpreter ----------------------------------------------------

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

    # -- segment execution ---------------------------------------------

    def _exec_segment(self, segment: MorselSegmentNode, ctx: ExecContext) -> Frame:
        scan = segment.scan
        ranges = segment.ranges

        # Resolve scalar subqueries on the main thread so morsel workers
        # only ever hit the warm cache — a worker re-entering the executor
        # could otherwise deadlock the pool on itself.
        for sub in segment.subqueries:
            ctx.scalar(sub.plan)

        tracer = ctx.tracer
        tracing = tracer.enabled
        seg_span = None
        if tracing:
            # A still-open operator span would overlap the segment span
            # as a sibling; close it first (scalar-subquery pre-warm above
            # already emitted its operator spans under their own
            # ``pipeline scalar`` span, strictly before the segment
            # interval starts).
            ctx.close_op_span()
            seg_span = tracer.start(
                "pipeline", f"segment:{segment.kind}:{scan.table}",
                parent=ctx.pipeline_span,
            )
            seg_span.annotate(morsels=len(ranges), workers=self.workers)

        cancel = ctx.cancel

        def run_morsel(bounds: tuple[int, int]) -> tuple[Frame, WorkProfile]:
            # Morsel boundaries are the parallel engine's preemption
            # points: a cancelled query never starts another morsel, so
            # its worker slots free within one in-flight morsel's work.
            if cancel is not None:
                cancel.check()
            mspan = None
            if tracing:
                mspan = tracer.start(
                    "morsel", f"{scan.table}[{bounds[0]}:{bounds[1]})",
                    parent=seg_span,
                )
            mctx = MorselContext(self.db, ctx, bounds, tracer=tracer, span=mspan)
            # Morsel boundaries are pipeline breakers: the merge phase
            # concatenates physical columns, so late morsels gather here
            # (charged to the morsel's last operator).
            frame = self._exec(segment.morsel, mctx).dense(mctx.work)
            if mspan is not None:
                mctx.close_op_span()
                mspan.annotate(rows=frame.nrows)
                tracer.finish(mspan)
            return frame, mctx.profile

        results = list(self._ensure_pool().map(run_morsel, ranges))

        frames = [frame for frame, _ in results]
        merged = merge_profiles([profile for _, profile in results])
        if segment.skipped is not None and merged.operators:
            # Morsels lowering dropped charge their skip accounting onto
            # the coalesced scan operator.
            merged.operators[0].add(segment.skipped)
        ctx.profile.absorb(merged)
        # Merge-phase work is charged onto the segment's last (coalesced)
        # operator so the profile keeps the serial operator count.
        ctx.work = ctx.profile.operators[-1] if ctx.profile.operators else None

        if tracing:
            # One operator span per coalesced profile operator: zero-length
            # markers referencing the very OperatorWork objects absorbed
            # into the final profile, so the end-of-query snapshot also
            # captures post-merge charges (merge-phase work, pre-skip
            # accounting, the result-boundary gather). These — not the
            # per-morsel fragment spans — are what reconciles 1:1 against
            # the WorkProfile.
            for op_work in merged.operators:
                mark = tracer.start(
                    "operator", op_work.operator, parent=seg_span, work=op_work
                )
                mark.attrs["coalesced"] = True
                tracer.finish(mark, end_s=mark.start_s)

        plan = segment.plan
        if segment.kind == "aggregate":
            out = merge_partial_aggregates(
                frames, list(plan.group_by), dict(plan.aggs), ctx
            )
        elif segment.kind == "topk":
            out = merge_topk(frames, list(plan.keys), plan.n, ctx)
        else:
            out = concat_frames(frames)
        if seg_span is not None:
            tracer.finish(seg_span)
        return out


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
