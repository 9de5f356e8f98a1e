"""Cube materialization: turning mined specs into in-engine tables.

A rollup cube is an *ordinary table*: it is built by the engine's own
aggregate kernel, stored through the normal :class:`Table` path, and
therefore inherits every storage feature the base tables have — zone
maps for skipping, optional dictionary/bit-packed compression, late
materialization on scans. The router (:mod:`repro.rollup.router`)
rewrites matching aggregations into plain scans of these tables, so no
new executor machinery is needed downstream.

Cost discipline: each cube's build runs through the serial executor and
its :class:`WorkProfile` is kept — the performance model charges it like
any other query — and each cube's bytes are reported so the cluster
memory model can tax the footprint. Cubes whose cell count approaches
the source cardinality are discarded: a "rollup" that barely reduces
rows (Q6's near-unique filter columns) costs memory without saving scan
work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.executor import Executor
from repro.engine.optimizer import DEFAULT_SETTINGS
from repro.engine.plan import AggregateNode, ScanNode
from repro.engine.profile import WorkProfile
from repro.engine.table import Table
from repro.obs.metrics import metrics

from .miner import CubeSpec, WorkloadMiner, default_workload_plans
from .shapes import ROLLUP_PREFIX, storage_aggs

__all__ = [
    "Cube",
    "RollupCatalog",
    "build_rollups",
    "cell_budget",
    "cube_plan",
    "enable_rollups",
    "make_cube",
    "refresh_rollup_gauges",
    "MAX_CUBE_CELLS",
    "MAX_CELL_FRACTION",
]

# Hard ceiling on cells per cube: beyond this a cube stops being "a few
# pages the dashboard re-reads" and starts competing with base tables
# for wimpy-node memory.
MAX_CUBE_CELLS = 65536

# A cube must shrink its source by at least this factor (except for tiny
# sources, where the max(64, ...) floor applies) to be worth keeping.
MAX_CELL_FRACTION = 0.5


def cube_plan(spec: CubeSpec) -> tuple[AggregateNode, dict[tuple[str, str], str]]:
    """The aggregate that materializes ``spec`` — its source grouped by
    its dimensions, one stored column per measure part — and the map from
    ``(measure_key, part)`` to that column."""
    agg_specs, colmap = storage_aggs(spec.measures)
    return AggregateNode(spec.source, spec.dims, tuple(sorted(agg_specs.items()))), colmap


def cell_budget(
    db,
    spec: CubeSpec,
    max_cells: int = MAX_CUBE_CELLS,
    max_cell_fraction: float = MAX_CELL_FRACTION,
) -> int | None:
    """Most cells a cube of ``spec`` may hold to be worth keeping, or
    ``None`` when none of its source tables is in ``db``."""
    source_rows = [
        db.table(node.table).nrows
        for node in spec.source.walk()
        if isinstance(node, ScanNode) and node.table in db
    ]
    if not source_rows:
        return None
    return min(max_cells, max(64, int(max(source_rows) * max_cell_fraction)))


def make_cube(name: str, spec: CubeSpec, frame, colmap, compress: bool = False) -> "Cube":
    """A materialized cube frame as a named table with zone maps."""
    table = Table(name, dict(frame.columns))
    if compress:
        from repro.engine.compression import compress_table

        table = compress_table(table)
        table.name = name
    if table.nrows > 0:
        table.build_zone_maps()
    return Cube(name, spec, table, colmap)


@dataclass
class Cube:
    """One materialized rollup: its table plus routing metadata."""

    name: str
    spec: CubeSpec
    table: Table
    colmap: dict[tuple[str, str], str]

    @property
    def source_key(self) -> str:
        return self.spec.source_key

    @property
    def dims(self) -> tuple[str, ...]:
        return self.spec.dims

    @property
    def nrows(self) -> int:
        return self.table.nrows

    @property
    def nbytes(self) -> int:
        return self.table.nbytes

    def parts_for(self, measure_key: str) -> set[str]:
        stored = self.spec.measures.get(measure_key)
        return set() if stored is None else set(stored[1])


@dataclass
class RollupCatalog:
    """All cubes built for one database, with lookup indexes and the
    total build cost/footprint the models charge."""

    cubes: list[Cube] = field(default_factory=list)
    build_profile: WorkProfile = field(default_factory=WorkProfile)
    build_wall_seconds: float = 0.0
    candidates_considered: int = 0
    candidates_rejected: int = 0

    def __post_init__(self):
        self._by_name = {cube.name: cube for cube in self.cubes}
        self._by_source: dict[str, list[Cube]] = {}
        for cube in self.cubes:
            self._by_source.setdefault(cube.source_key, []).append(cube)

    def _register(self, cube: Cube) -> None:
        self.cubes.append(cube)
        self._by_name[cube.name] = cube
        self._by_source.setdefault(cube.source_key, []).append(cube)

    def table(self, name: str) -> Table | None:
        cube = self._by_name.get(name)
        return cube.table if cube is not None else None

    def cubes_for(self, source_key: str) -> list[Cube]:
        """Cubes over one canonical source, smallest first — the router
        prefers the tightest subsuming cube."""
        return sorted(
            self._by_source.get(source_key, ()), key=lambda c: (c.nrows, c.name)
        )

    @property
    def nbytes(self) -> int:
        return sum(cube.nbytes for cube in self.cubes)

    @property
    def total_cells(self) -> int:
        return sum(cube.nrows for cube in self.cubes)

    def stats(self) -> dict:
        return {
            "cubes": len(self.cubes),
            "cells": self.total_cells,
            "bytes": self.nbytes,
            "candidates_considered": self.candidates_considered,
            "candidates_rejected": self.candidates_rejected,
        }

    def __len__(self) -> int:
        return len(self.cubes)


def build_rollups(
    db,
    specs: list[CubeSpec],
    settings=None,
    max_cells: int = MAX_CUBE_CELLS,
    max_cell_fraction: float = MAX_CELL_FRACTION,
    compress: bool = False,
    catalog: RollupCatalog | None = None,
) -> RollupCatalog:
    """Materialize mined cube specs as catalog tables, extending
    ``catalog`` when given (its cube names continue its numbering) or a
    new one.

    ``specs`` arrive widest-dimension-set-first (the miner's order); a
    candidate subsumed by an already-kept cube is skipped, and a
    candidate whose cell count breaks the cardinality guard is rejected
    after the fact. Builds run through the plain serial executor with
    rollups disabled (a cube never routes through another cube).
    """
    settings = (settings or DEFAULT_SETTINGS).without_rollups()
    executor = Executor(db, settings)
    catalog = catalog if catalog is not None else RollupCatalog()
    for spec in specs:
        catalog.candidates_considered += 1
        if any(kept.spec.subsumes(spec) for kept in catalog.cubes):
            continue
        budget = cell_budget(db, spec, max_cells, max_cell_fraction)
        if budget is None:
            catalog.candidates_rejected += 1
            continue
        plan, colmap = cube_plan(spec)
        try:
            result = executor.execute(plan, label=f"rollup-build:{spec.source_key[:8]}")
        except Exception:
            catalog.candidates_rejected += 1
            continue
        if result.frame.nrows > budget:
            catalog.candidates_rejected += 1
            continue
        name = f"{ROLLUP_PREFIX}{len(catalog.cubes):02d}_{spec.source_key[:8]}"
        catalog._register(make_cube(name, spec, result.frame, colmap, compress))
        catalog.build_profile.absorb(result.profile)
        catalog.build_wall_seconds += result.wall_seconds
    refresh_rollup_gauges(catalog)
    return catalog


def refresh_rollup_gauges(catalog: RollupCatalog) -> None:
    """Publish catalog size into the metrics registry (rollup.cubes /
    rollup.bytes gauges)."""
    metrics.gauge("rollup.cubes").set(float(len(catalog.cubes)))
    metrics.gauge("rollup.bytes").set(float(catalog.nbytes))


def enable_rollups(
    db,
    plans=None,
    settings=None,
    compress: bool = False,
    min_count: int = 1,
    max_cells: int = MAX_CUBE_CELLS,
    max_cell_fraction: float = MAX_CELL_FRACTION,
) -> RollupCatalog:
    """Mine a workload, build its cubes, and attach them to ``db``.

    With no explicit ``plans`` the default template workload (all TPC-H
    and ad-events queries whose tables exist) seeds the miner — the
    load-time path. Returns the catalog, which is also installed as
    ``db.rollups`` so the optimizer's router starts using it.
    """
    miner = WorkloadMiner(db)
    if plans is None:
        plans = default_workload_plans(db)
    for plan in plans:
        miner.observe(plan, settings=settings)
    catalog = build_rollups(
        db,
        miner.mine(min_count=min_count),
        settings=settings,
        max_cells=max_cells,
        max_cell_fraction=max_cell_fraction,
        compress=compress,
    )
    db.rollups = catalog
    return catalog
