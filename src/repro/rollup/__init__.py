"""Workload-adaptive rollups: mined cubes, semantic routing, and the
subsumption-aware result cache.

The paper's wimpy-node thesis is that OLAP fleets are provisioned for
*repeated* analytical workloads — dashboards, reports, monitoring — not
one-off exploration. This package exploits the repetition: mine the
workload's canonical aggregate shapes (:mod:`.miner`), materialize small
cubes for them as ordinary in-engine tables at load time (:mod:`.builder`),
route matching queries onto those cubes with a provable subsumption test
(:mod:`.router`), and answer literal-only re-runs from a semantic result
cache whose entries are one-shape cubes, built and re-sliced the same way
(:mod:`.semantic`).

Entry point::

    from repro.rollup import enable_rollups
    enable_rollups(db)          # mine templates, build cubes, attach

After that, ``OptimizerSettings.rollups`` (on by default; ``--no-rollups``
to ablate) makes the optimizer route eligible aggregations automatically.
"""

from .builder import (
    MAX_CELL_FRACTION,
    MAX_CUBE_CELLS,
    Cube,
    RollupCatalog,
    build_rollups,
    enable_rollups,
)
from .miner import CubeSpec, WorkloadMiner, default_workload_plans
from .router import ROUTER_STATS, route_plan, routed_tables, try_route_aggregate
from .semantic import semantic_split
from .shapes import (
    ROLLUP_PREFIX,
    SUPPORTED_FUNCS,
    AggShape,
    aggregate_shape,
    derived_rewrite,
    expr_key,
    source_key,
    storage_aggs,
)

__all__ = [
    "AggShape",
    "Cube",
    "CubeSpec",
    "MAX_CELL_FRACTION",
    "MAX_CUBE_CELLS",
    "ROLLUP_PREFIX",
    "ROUTER_STATS",
    "RollupCatalog",
    "SUPPORTED_FUNCS",
    "WorkloadMiner",
    "aggregate_shape",
    "build_rollups",
    "default_workload_plans",
    "derived_rewrite",
    "enable_rollups",
    "expr_key",
    "route_plan",
    "routed_tables",
    "semantic_split",
    "source_key",
    "storage_aggs",
    "try_route_aggregate",
]
