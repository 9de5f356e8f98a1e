"""Workload mining: canonical aggregate shapes worth materializing.

The miner watches plans — the 22 TPC-H + 11 ad-events templates at load
time, live :class:`~repro.serve.QueryServer` traffic afterwards —
canonicalizes every aggregation it sees (:mod:`repro.rollup.shapes`),
and accumulates per-shape observation counts. ``mine()`` turns the
accumulated shapes into :class:`CubeSpec` candidates: one cube per
distinct (source, dimension-set) pair, with the measure set unioned
across every observation that shares it.

Literals never reach the miner: a Q1 with cutoff ``1998-09-02`` and a
re-run with ``1998-08-01`` count as two observations of one shape, which
is the whole point — the shipped cube carries the filter column as a
dimension and answers both.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.engine.optimizer import DEFAULT_SETTINGS, optimize_plan
from repro.engine.plan import AggregateNode, PlanNode, Q

from .shapes import AggShape, aggregate_shape

__all__ = ["CubeSpec", "WorkloadMiner", "default_workload_plans"]


@dataclass
class CubeSpec:
    """One candidate cube: a canonical source, its dimensions, and the
    union of measures the observed workload asked of it."""

    source: PlanNode
    source_key: str
    dims: tuple[str, ...]
    measures: dict[str, tuple[object, set[str]]] = field(default_factory=dict)
    observations: int = 0

    @classmethod
    def of(cls, shape: AggShape) -> "CubeSpec":
        """The one-shape spec: a cube answering exactly ``shape``."""
        spec = cls(shape.source, shape.key, shape.dims)
        spec.absorb(shape)
        return spec

    def absorb(self, shape: AggShape) -> None:
        self.observations += 1
        for key, (expr, parts) in shape.measures().items():
            known_expr, known_parts = self.measures.get(key, (expr, set()))
            known_parts.update(parts)
            self.measures[key] = (known_expr, known_parts)

    def subsumes(self, other: "CubeSpec") -> bool:
        """True when this cube can answer everything ``other`` can."""
        if self.source_key != other.source_key:
            return False
        if not set(other.dims) <= set(self.dims):
            return False
        for key, (_, parts) in other.measures.items():
            mine = self.measures.get(key)
            if mine is None or not parts <= mine[1]:
                return False
        return True


class WorkloadMiner:
    """Accumulates canonical aggregate shapes from observed plans."""

    def __init__(self, db):
        self.db = db
        self._lock = threading.Lock()
        self._specs: dict[tuple[str, tuple[str, ...]], CubeSpec] = {}

    def observe(self, plan: "Q | PlanNode", settings=None) -> int:
        """Mine one plan (pre-optimization); returns the number of
        aggregate shapes recorded. Never raises — a plan the optimizer or
        canonicalizer rejects simply contributes nothing."""
        node = plan.node if isinstance(plan, Q) else plan
        if node is None:
            return 0
        settings = (settings or DEFAULT_SETTINGS).without_rollups()
        try:
            optimized = optimize_plan(node, self.db, settings)
        except Exception:
            return 0
        return self.absorb(self.shapes_of(optimized))

    def shapes_of(self, node: PlanNode) -> list[AggShape]:
        """The canonical shapes of an already-optimized (but unrouted)
        plan's aggregates; those that do not canonicalize are left out."""
        shapes = []
        for aggregate in node.walk():
            if not isinstance(aggregate, AggregateNode):
                continue
            try:
                shape = aggregate_shape(aggregate, self.db)
            except Exception:
                shape = None
            if shape is not None:
                shapes.append(shape)
        return shapes

    def absorb(self, shapes) -> int:
        """Record one observation of each shape; returns how many."""
        with self._lock:
            for shape in shapes:
                spec = self._specs.get((shape.key, shape.dims))
                if spec is None:
                    self._specs[(shape.key, shape.dims)] = CubeSpec.of(shape)
                else:
                    spec.absorb(shape)
        return len(shapes)

    def mine(self, min_count: int = 1) -> list[CubeSpec]:
        """Candidate cubes seen at least ``min_count`` times, widest
        dimension sets first (the builder skips candidates an
        already-built cube subsumes), deterministically ordered."""
        with self._lock:
            specs = [s for s in self._specs.values() if s.observations >= min_count]
        return sorted(specs, key=lambda s: (s.source_key, -len(s.dims), s.dims))

    def __len__(self) -> int:
        with self._lock:
            return len(self._specs)


def default_workload_plans(db) -> list[PlanNode]:
    """The template workload for load-time seeding: every TPC-H and
    ad-events query whose tables exist in ``db``. Templates that fail to
    build (missing tables, parameter quirks) are skipped — seeding must
    never block a load."""
    plans: list[PlanNode] = []
    if "lineitem" in db:
        from repro.tpch import ALL_QUERY_NUMBERS, get_query

        for number in ALL_QUERY_NUMBERS:
            try:
                plans.append(get_query(number).build(db, {"sf": 1.0}).node)
            except Exception:
                continue
    if "events" in db:
        from repro.adevents import QUERY_NAMES, build

        for name in QUERY_NAMES:
            try:
                built = build(db, name)
                plans.append(built.node if isinstance(built, Q) else built)
            except Exception:
                continue
    return plans
