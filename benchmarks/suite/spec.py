"""The benchmark's contract: workload names, metric names, units, bounds.

This module is the single source for ``BENCHMARK.json`` (written by
``run.py --write-manifest`` and by every full-suite run) and for the
names ``run.py`` is allowed to emit: a run that produces a metric not
listed here, or omits one that is, fails before printing a result.
"""

from __future__ import annotations

import json
from pathlib import Path

# Seconds of timed region per run. With three set-up repetitions, the
# oracle subprocess and at least ten passes, a run ends in ~25-30 s
# here, so the driver's 4 + 22 x 4 runs stay inside its 3420 s cap.
RUN_SECONDS = 16

COMMAND = ["python3", "benchmarks/suite/run.py"]
PATHS = ["benchmarks/suite"]

WORKLOADS = (
    ("tpch_power",
     "All 22 TPC-H queries from SQL text, serial Executor, plain storage: "
     "hash-join and aggregate kernels do the work, SQL frontend ~1%."),
    ("scan_encoded",
     "12 scan classes on compressed date-clustered tables, 2 morsel workers: "
     "scan, residual-filter and aggregate kernels over encoded morsels do "
     "the work, hash joins 5%."),
    ("serve_closed",
     "QueryServer, 2 closed-loop clients, 1.5-40 ms dashboard mix: parse/plan/"
     "optimize, caches, rollup routing and hand-off do the work."),
    ("spill_budget",
     "Q3,5,9,10,13,18 under a 1 MiB memory budget: Grace partitioning, codec "
     "round-trips and temp-file I/O do the work."),
)

# (name, unit, better, bound). Bounds are shares of the parent's median.
# On this shared 2-vCPU box the wall of one identical pass flips between
# two levels ~20% apart inside a run (CPU pinning and occupying the other
# vCPU change nothing; the memory-bound workloads move most), so ten
# back-to-back runs of unchanged code spread 2-12% on every wall-clock
# metric (README, "A/A"). Their bounds are therefore the contract's
# maximum; the ten-run medians the driver compares agree within 6%.
# modeled_pi_s repeats exactly for one seed; its bound covers dbgen's
# spread across seeds (<= 1.3%), which is what the driver's ten-seed
# check sees. error_rate is not listed: it is 0 on a healthy run, which
# the contract forbids for a bounded metric; it is carried by the result
# line's attempted/failed and printed by the suite.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("latency_ms_geomean", "ms", "lower", 0.25),
    ("latency_ms_slowest", "ms", "lower", 0.25),
    ("latency_ms_p95", "ms", "lower", 0.25),
    ("modeled_pi_s", "s", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.25),
)

# (name, unit, better). Grouped by the layer that owns the number; the
# README maps each group to the end-to-end metric it should move.
PER_LAYER = (
    # engine.sql
    ("sql.lex_ms", "ms", "lower"),
    ("sql.parse_ms", "ms", "lower"),
    ("sql.plan_ms", "ms", "lower"),
    # engine.optimizer / rollup.router
    ("optimizer.optimize_ms", "ms", "lower"),
    ("rollup.route_hit_ratio", "ratio", "higher"),
    ("rollup.routed_count", "count", "higher"),
    # engine.executor + engine.operators
    ("exec.execute_ms", "ms", "lower"),
    ("op.scan_ms", "ms", "lower"),
    ("op.filter_ms", "ms", "lower"),
    ("op.project_ms", "ms", "lower"),
    ("op.hashjoin_ms", "ms", "lower"),
    ("op.aggregate_ms", "ms", "lower"),
    ("op.sort_ms", "ms", "lower"),
    ("op.other_ms", "ms", "lower"),
    ("exec.untraced_ms", "ms", "lower"),
    ("result.rows_ms", "ms", "lower"),
    # engine.zonemap / operators.scan / late materialization
    ("scan.seq_mb", "MB", "lower"),
    ("scan.skipped_mb", "MB", "higher"),
    ("scan.blocks_scanned", "count", "lower"),
    ("scan.blocks_skipped", "count", "higher"),
    ("scan.skip_ratio", "ratio", "higher"),
    ("latemat.gather_mb", "MB", "lower"),
    ("latemat.saved_mb", "MB", "higher"),
    # engine.encoded / engine.compression
    ("encoded.decoded_mb", "MB", "lower"),
    ("encoded.eval_rows", "count", "higher"),
    ("encoded.runs_touched", "count", "lower"),
    ("encoded.predicate_hit_ratio", "ratio", "higher"),
    ("encoded.aggregate_hit_ratio", "ratio", "higher"),
    ("compression.ratio", "ratio", "higher"),
    ("setup.compress_s", "s", "lower"),
    # engine.morsel / engine.merge / engine.parallel
    ("morsel.count", "count", "lower"),
    ("morsel.busy_ms", "ms", "lower"),
    ("morsel.segment_ms", "ms", "lower"),
    ("morsel.busy_share", "ratio", "higher"),
    # engine.cache / engine.keycache / rollup.semantic
    ("cache.result_hit_ratio", "ratio", "higher"),
    ("cache.semantic_hit_ratio", "ratio", "higher"),
    ("keycache.hit_ratio", "ratio", "higher"),
    # engine.spill
    ("spill.spilled_mb", "MB", "lower"),
    ("spill.partitions", "count", "lower"),
    ("spill.respill_depth_max", "count", "lower"),
    ("spill.exec_ms_ratio", "ratio", "lower"),
    # serve.admission / serve.server
    ("serve.submit_ms", "ms", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p95", "ms", "lower"),
    ("serve.service_ms_p50", "ms", "lower"),
    ("serve.service_ms_p95", "ms", "lower"),
    ("serve.handoff_ms_p50", "ms", "lower"),
    ("serve.admitted", "count", "higher"),
    ("serve.shed", "count", "lower"),
    # hardware.perfmodel
    ("perfmodel.predict_ms", "ms", "lower"),
    ("modeled.compute_s", "s", "lower"),
    ("modeled.memory_s", "s", "lower"),
    ("modeled.random_s", "s", "lower"),
    ("modeled.dispatch_s", "s", "lower"),
    ("modeled.spill_s", "s", "lower"),
    # set-up and harness
    ("setup.import_s", "s", "lower"),
    ("setup.dbgen_s", "s", "lower"),
    ("setup.zonemap_s", "s", "lower"),
    ("setup.rollup_build_s", "s", "lower"),
    ("setup.start_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("setup.oracle_s", "s", "lower"),
    ("db.resident_mb", "MB", "lower"),
    ("pass.wall_ms_p50", "ms", "lower"),
    ("pass.wall_ms_iqr", "ms", "lower"),
    ("host.loadavg_1m", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("frontend_share", "ratio", "lower"),
)

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def write_manifest(repo_root: Path) -> Path:
    path = repo_root / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    return path
