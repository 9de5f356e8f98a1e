"""Morsel-driven parallel plan executor.

:class:`ParallelExecutor` is a drop-in for
:class:`~repro.engine.executor.Executor` that keeps all of a wimpy
node's cores busy (the paper's Table I point: the Pi 3B+ has four cores,
and OLAP throughput on it lives or dies by using them). Lowering
(:mod:`repro.engine.physical`) marks the *parallelizable segments* of a
plan — maximal scan → filter/project chains over a base table,
optionally capped by a decomposable aggregate or a fused top-k — as
:class:`~repro.engine.plan.MorselSegmentNode` values; this class runs
each segment's per-morsel plan through the ordinary interpreter on a
shared ``ThreadPoolExecutor`` (the numpy kernels release the GIL), then
merges partial states with :mod:`repro.engine.merge`. Everything outside
a segment (joins, sorts, DISTINCT, non-decomposable aggregates) runs
serially over the merged intermediates, so *every* plan executes
correctly; parallelism is an optimization, never a semantics change.

Repeated plans are served from a plan-fingerprint
:class:`~repro.engine.cache.ResultCache` (single-flight), which is what
the Fig. 3 / Table II sweeps hit when they re-run the same 22 queries
per platform.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from dataclasses import replace

from .cache import ResultCache
from .executor import ExecContext, Executor
from .fingerprint import plan_fingerprint
from .frame import Frame
from .merge import (
    concat_frames,
    merge_partial_aggregates,
    merge_profiles,
    merge_topk,
)
from .morsel import DEFAULT_MORSEL_ROWS, MIN_PARALLEL_ROWS, MorselContext
from .optimizer import OptimizerSettings, optimize_plan
from .physical import lower
from .plan import MorselSegmentNode, PlanNode
from .profile import WorkProfile
from .table import Database

__all__ = ["ParallelExecutor"]


class ParallelExecutor(Executor):
    """Executes plans with intra-query (morsel) parallelism.

    Args:
        db: the database catalog.
        workers: thread count (default: all host cores). ``workers=1``
            still exercises the morsel/merge machinery, just inline.
        morsel_rows: target rows per morsel; the effective size shrinks
            so large scans yield at least one morsel per worker.
        cache_size: LRU capacity of the plan-fingerprint result cache;
            ``0`` disables caching.
    """

    def __init__(
        self,
        db,
        workers: int | None = None,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        cache_size: int = 64,
        min_parallel_rows: int = MIN_PARALLEL_ROWS,
        settings: OptimizerSettings | None = None,
        tracer=None,
        memory_budget=None,
    ):
        super().__init__(db, settings, tracer=tracer, memory_budget=memory_budget)
        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self.morsel_rows = max(1, morsel_rows)
        self.min_parallel_rows = min_parallel_rows
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
        """Shut down the worker pool (idempotent)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    # -- entry point ----------------------------------------------------

    def _lower(self, node: PlanNode) -> PlanNode:
        return lower(node, self.db, self.settings, morsels=self)

    def _run(self, node: PlanNode, qspan, cancel) -> tuple[Frame, WorkProfile, bool]:
        """Serve an optimized plan from the fingerprint cache
        (single-flight), executing it on a miss."""
        if self.cache is None:
            return (*self._run_semantic(node, qspan, cancel), False)
        key = plan_fingerprint(node, self.settings)
        (frame, profile), was_cached = self.cache.get_or_run(
            key, lambda: self._run_semantic(node, qspan, cancel), cancel=cancel
        )
        return frame, profile, was_cached

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
        key = (shape.key, spec.dims, tuple(parts), self.settings.cache_key())
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

        if self.workers > 1:
            results = list(self._ensure_pool().map(run_morsel, ranges))
        else:
            results = [run_morsel(bounds) for bounds in ranges]

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
