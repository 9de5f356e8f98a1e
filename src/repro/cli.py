"""Command-line interface: rerun any of the paper's experiments.

Examples::

    python -m repro list
    python -m repro table2 --base-sf 0.05
    python -m repro fig7 --json fig7.json
    python -m repro dbgen --sf 0.1 --out /tmp/tpch
    python -m repro query 6 --sf 0.02 --explain
"""

from __future__ import annotations

import argparse
import sys

from repro.engine.cancel import DeadlineExceeded
from repro.engine.spill import MemoryBudgetExceeded

from repro.core import EXPERIMENT_IDS, ExperimentStudy, StudyConfig, save_json
from repro.core.extensions import compression_study, nam_study, proportionality_study
from repro.mlbench import ml_study

__all__ = ["main", "build_parser"]

_EXTENSIONS = {
    "ext-compression": compression_study,
    "ext-nam": nam_study,
    "ext-proportionality": proportionality_study,
    "ext-ml": ml_study,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'The Case for In-Memory OLAP on Wimpy Nodes' (ICDE 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiment ids")

    for experiment_id in EXPERIMENT_IDS:
        p = sub.add_parser(experiment_id, help=f"run experiment {experiment_id}")
        p.add_argument("--base-sf", type=float, default=0.02,
                       help="scale factor actually executed (default 0.02)")
        p.add_argument("--json", metavar="PATH", help="write the result as JSON")

    for name in _EXTENSIONS:
        p = sub.add_parser(name, help=f"run extension study {name}")
        p.add_argument("--json", metavar="PATH", help="write the result as JSON")

    dbgen = sub.add_parser("dbgen", help="generate TPC-H data as CSV files")
    dbgen.add_argument("--sf", type=float, default=0.01)
    dbgen.add_argument("--seed", type=int, default=42)
    dbgen.add_argument("--out", required=True, help="output directory")

    query = sub.add_parser("query", help="run one TPC-H query and print rows")
    query.add_argument("number", type=int, help="query number 1-22")
    query.add_argument("--sf", type=float, default=0.01)
    query.add_argument("--limit", type=int, default=10, help="rows to print")
    query.add_argument("--explain", action="store_true", help="print the plan")
    query.add_argument("--profile", action="store_true",
                       help="print the per-operator work profile")
    query.add_argument("--workers", type=int, default=1,
                       help="morsel-parallel worker threads (default: 1, serial)")
    _add_engine_args(query)
    _add_trace_args(query)

    validate = sub.add_parser(
        "validate", help="evaluate the paper's prose claims against the reproduction"
    )
    validate.add_argument("--base-sf", type=float, default=0.02)

    report = sub.add_parser("report", help="render the full study as one text report")
    report.add_argument("--base-sf", type=float, default=0.02)
    report.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    report.add_argument("--extensions", action="store_true",
                        help="include the extension studies")

    cluster = sub.add_parser("cluster", help="run a query on the WIMPI cluster simulator")
    cluster.add_argument("number", type=int, help="TPC-H query number")
    cluster.add_argument("--nodes", type=int, default=24)
    cluster.add_argument("--base-sf", type=float, default=0.02)
    cluster.add_argument("--target-sf", type=float, default=10.0)
    cluster.add_argument("--compress", action="store_true",
                         help="compress base data (SIII-C2 extension)")
    cluster.add_argument("--nam", action="store_true",
                         help="attach a memory server (SIII-C1 extension)")
    cluster.add_argument("--no-swap", action="store_true",
                         help="fail with OOM instead of thrashing (SIII-C4)")
    cluster.add_argument("--chaos", action="store_true",
                         help="inject a seeded fault plan (OOMs, hangs, "
                              "network drops, stragglers) and run through "
                              "the resilient driver")
    cluster.add_argument("--seed", type=int, default=7,
                         help="chaos fault-plan seed (default 7; same seed "
                              "-> same faults, same recovery, same result)")
    cluster.add_argument("--replication", type=int, default=None,
                         help="lineitem replication factor (buddy replicas; "
                              "default 2 with --chaos, else 1)")
    cluster.add_argument("--timeout-factor", type=float, default=4.0,
                         help="abandon/speculate once a node exceeds this "
                              "multiple of the median modeled estimate")
    cluster.add_argument("--retries", type=int, default=2,
                         help="transient-fault retries per node before "
                              "failing over to a replica")
    _add_trace_args(cluster)

    sql_cmd = sub.add_parser("sql", help="run ad-hoc SQL against TPC-H data")
    sql_cmd.add_argument("statement", help="a SELECT statement")
    sql_cmd.add_argument("--sf", type=float, default=0.01)
    sql_cmd.add_argument("--limit", type=int, default=20, help="rows to print")
    sql_cmd.add_argument("--explain", action="store_true", help="print the plan")
    sql_cmd.add_argument("--workers", type=int, default=1,
                         help="morsel-parallel worker threads (default: 1, serial)")
    _add_engine_args(sql_cmd)
    _add_trace_args(sql_cmd)

    trace_cmd = sub.add_parser(
        "trace",
        help="run one TPC-H query with tracing on, print the span tree, "
             "and optionally export the trace",
    )
    trace_cmd.add_argument("number", type=int, help="query number 1-22")
    trace_cmd.add_argument("--sf", type=float, default=0.01)
    trace_cmd.add_argument("--workers", type=int, default=1,
                           help="morsel-parallel worker threads (default: 1, serial)")
    trace_cmd.add_argument("--out", metavar="PATH",
                           help="write the trace to PATH")
    trace_cmd.add_argument("--format", choices=("json", "chrome"), default="json",
                           help="trace file format: versioned JSON document "
                                "or chrome://tracing events (default json)")
    trace_cmd.add_argument("--validate", action="store_true",
                           help="validate the JSON trace document against "
                                "the checked-in schema")
    _add_engine_args(trace_cmd, budget=False)
    trace_cmd.add_argument("--metrics", action="store_true",
                           help="print the process-wide metrics registry "
                                "(cache and encoded-dispatch hit/miss "
                                "counters) after the run")

    scaling = sub.add_parser(
        "scaling",
        help="measure the engine's multi-worker speedup curve and the "
             "calibrated Amdahl serial fraction it implies",
    )
    scaling.add_argument("--sf", type=float, default=0.05)
    scaling.add_argument("--workers", default="1,2,4",
                         help="comma-separated worker counts (default 1,2,4)")
    scaling.add_argument("--queries", default="1,6",
                         help="comma-separated TPC-H query numbers (default 1,6)")
    scaling.add_argument("--repeats", type=int, default=3,
                         help="timing repetitions per point (best-of)")
    return parser


def _render(value, indent: int = 0) -> str:
    import json

    from repro.core.results import to_jsonable

    return json.dumps(to_jsonable(value), indent=2, sort_keys=True)


def _add_engine_args(parser, budget: bool = True) -> None:
    """The engine's feature gates, shared by query / sql / trace;
    ``budget`` adds the deadline and memory-budget flags (not on trace)."""
    if budget:
        parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                            help="abort with a typed deadline error if the query "
                                 "runs longer than this")
    parser.add_argument("--no-skipping", action="store_true",
                        help="ablation: disable predicate pushdown and "
                             "zone-map data skipping")
    parser.add_argument("--no-latemat", action="store_true",
                        help="ablation: disable late materialization "
                             "(selection-vector execution)")
    parser.add_argument("--no-compressed-exec", action="store_true",
                        help="ablation: disable compressed execution "
                             "(decode-then-eval on encoded columns)")
    parser.add_argument("--compress", action="store_true",
                        help="compress the generated tables so compressed "
                             "execution has encoded columns to work on")
    parser.add_argument("--no-rollups", action="store_true",
                        help="ablation: skip rollup-cube materialization and "
                             "semantic routing"
                             + (" (aggregate over base tables)" if budget else ""))
    if budget:
        parser.add_argument("--memory-budget", type=int, default=None, metavar="BYTES",
                            help="cap operator working memory; joins and grouped "
                                 "aggregates over the cap Grace-partition to disk")
        parser.add_argument("--no-spill", action="store_true",
                            help="ablation: fail over-budget operators with a "
                                 "typed error instead of spilling to disk")


def _settings_from(args):
    """OptimizerSettings for the gate flags ``_add_engine_args`` declared."""
    from repro.engine import DEFAULT_SETTINGS, OptimizerSettings

    settings = OptimizerSettings.disabled() if args.no_skipping else DEFAULT_SETTINGS
    if args.no_latemat:
        settings = settings.without_latemat()
    if args.no_compressed_exec:
        settings = settings.without_compressed()
    if args.no_rollups:
        settings = settings.without_rollups()
    if getattr(args, "no_spill", False):
        settings = settings.without_spilling()
    return settings


def _maybe_compress_db(db, enabled: bool):
    """With --compress, re-catalog every table through compress_table."""
    if not enabled:
        return db
    from repro.engine.compression import compress_table
    from repro.engine.table import Database

    out = Database(db.name)
    for name in db.table_names:
        out.add(compress_table(db.table(name)))
    return out


def _add_trace_args(parser) -> None:
    parser.add_argument("--trace", metavar="PATH",
                        help="record a trace of the execution and write it "
                             "to PATH")
    parser.add_argument("--trace-format", choices=("json", "chrome"),
                        default="json",
                        help="trace file format: versioned JSON document or "
                             "chrome://tracing events (default json)")


def _make_tracer(path):
    """A live Tracer when --trace was given, else None (NullTracer path)."""
    if not path:
        return None
    from repro.obs import Tracer

    return Tracer()


def _write_trace(tracer, path, fmt: str, meta: dict | None = None) -> None:
    from repro.obs import write_chrome_trace, write_json_trace

    if fmt == "chrome":
        write_chrome_trace(path, tracer)
    else:
        write_json_trace(path, tracer, meta=meta)
    print(f"wrote {fmt} trace to {path}")


def _run_engine_command(args) -> int:
    """query / sql / trace: generate, compress, build rollups, plan, pick
    the settings, explain, execute (typed failures become exit codes),
    print, write the trace."""
    from repro.engine import CancelToken, Executor
    from repro.tpch import generate, get_query

    db = _maybe_compress_db(generate(args.sf), args.compress)
    if not args.no_rollups:
        # Mine the template workload and materialize rollup cubes.
        from repro.rollup import enable_rollups

        enable_rollups(db)
    if args.command == "sql":
        from repro.engine.sql import SqlError, sql as parse_sql

        try:
            plan = parse_sql(db, args.statement)
        except SqlError as err:
            print(f"SQL error: {err}", file=sys.stderr)
            return 2
        label, meta = "sql", {"sql": args.statement}
    else:
        plan = get_query(args.number).build(db, {"sf": args.sf})
        label, meta = f"Q{args.number}", {"query": args.number}
    settings = _settings_from(args)
    memory_budget = getattr(args, "memory_budget", None)
    tracing = args.command == "trace"
    if tracing:
        from repro.obs import Tracer

        tracer, trace_path, trace_format = Tracer(), args.out, args.format
    else:
        tracer, trace_path, trace_format = (
            _make_tracer(args.trace), args.trace, args.trace_format
        )
    timeout = getattr(args, "timeout", None)
    cancel = CancelToken.from_timeout(timeout) if timeout is not None else None
    executor = Executor(
        db, settings, workers=args.workers, memory_budget=memory_budget, tracer=tracer
    )
    if getattr(args, "explain", False):
        from repro.engine.explain import explain

        # What this executor runs: with --workers N, morsel segments tagged.
        print(explain(
            executor.lower(plan), db, optimize=False, settings=settings,
            memory_budget=memory_budget,
        ))
        print()
    try:
        with executor:
            result = executor.execute(plan, label=label, cancel=cancel)
    except MemoryBudgetExceeded as err:
        print(f"memory budget exceeded: {err}", file=sys.stderr)
        return 4
    except DeadlineExceeded as err:
        print(f"deadline exceeded: {err}", file=sys.stderr)
        return 3
    if tracing:
        from repro.obs import render_tree, trace_to_dict, validate_trace

        print(f"{label}: {len(result)} rows ({result.wall_seconds * 1e3:.1f} ms wall)")
        print(render_tree(tracer))
        if args.metrics:
            from repro.obs.metrics import metrics

            print("metrics:")
            for key, value in metrics.snapshot().items():
                print(f"  {key} = {value:g}")
        if args.validate:
            validate_trace(trace_to_dict(tracer))
            print("trace document validates against the schema")
    else:
        prefix = "" if args.command == "sql" else f"{label}: "
        print(f"{prefix}{len(result)} rows; columns {result.column_names}")
        for row in result.rows[: args.limit]:
            print("  ", row)
        if getattr(args, "profile", False):
            from repro.engine.explain import explain_profile

            print()
            print(explain_profile(result))
    if trace_path:
        _write_trace(
            tracer, trace_path, trace_format,
            meta={**meta, "sf": args.sf, "workers": args.workers},
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for experiment_id in EXPERIMENT_IDS:
            print(experiment_id)
        for name in _EXTENSIONS:
            print(name)
        return 0

    if args.command == "dbgen":
        from repro.engine.io import save_database
        from repro.tpch import generate

        db = generate(args.sf, seed=args.seed)
        directory = save_database(db, args.out)
        for name in db.table_names:
            print(f"wrote {directory / (name + '.csv')} ({db.table(name).nrows} rows)")
        return 0

    if args.command in ("query", "sql", "trace"):
        return _run_engine_command(args)

    if args.command == "report":
        from repro.core.report import full_report

        study = ExperimentStudy(StudyConfig(base_sf=args.base_sf))
        text = full_report(study, include_extensions=args.extensions)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
            print(f"wrote {args.out}")
        else:
            print(text)
        return 0

    if args.command == "cluster":
        from repro.cluster import FaultPlan, RecoveryPolicy, SwapPolicy, WimPiCluster
        from repro.cluster.nam import NamCluster

        replication = args.replication
        if replication is None:
            replication = 2 if args.chaos else 1
        resilient = args.chaos or replication > 1
        if resilient and args.nam:
            print("--chaos / --replication are not supported with --nam")
            return 2
        cluster_cls = NamCluster if args.nam else WimPiCluster
        kwargs = {}
        fault_plan = None
        if resilient:
            if args.chaos:
                fault_plan = FaultPlan.chaos(args.seed, args.nodes)
            kwargs = dict(
                replication=replication,
                fault_plan=fault_plan,
                recovery=RecoveryPolicy(
                    timeout_factor=args.timeout_factor, max_retries=args.retries
                ),
            )
        tracer = _make_tracer(args.trace)
        cluster = cluster_cls(
            args.nodes,
            base_sf=args.base_sf,
            target_sf=args.target_sf,
            compress=args.compress,
            swap_policy=SwapPolicy.NO_SWAP if args.no_swap else SwapPolicy.SWAP,
            tracer=tracer,
            **kwargs,
        )
        run = cluster.run_query(args.number)
        if tracer is not None:
            _write_trace(
                tracer, args.trace, args.trace_format,
                meta={"query": args.number, "nodes": args.nodes,
                      "chaos": args.chaos, "seed": args.seed,
                      "replication": replication},
            )
        print(f"Q{args.number} on {args.nodes} nodes (SF {args.target_sf:g} modeled):")
        if fault_plan is not None:
            print(f"  {fault_plan.describe()}")
        print(f"  wall-clock: {run.total_seconds:.3f} s")
        if hasattr(run, "offloaded_nodes") and run.offloaded_nodes:
            print(f"  offloaded fragments: {len(run.offloaded_nodes)} -> memory server")
        base = run.base if hasattr(run, "base") else run
        if base.node_pressure:
            print(f"  max node pressure: {max(base.node_pressure):.2f}")
        print(f"  gather: {base.gather_seconds:.3f} s, merge: {base.merge_seconds:.3f} s")
        if resilient:
            print(f"  recovery overhead: {base.recovery_seconds:.3f} s "
                  f"(coverage {base.coverage:.3f})")
            print(base.run.report())
        result = run.result
        if result is None:
            print("  result: NONE (all replicas exhausted; coverage 0)")
            return 1
        print(f"  result rows: {len(result)}")
        for row in result.rows[:5]:
            print("   ", row)
        return 0

    if args.command == "validate":
        from repro.core.claims import evaluate_claims

        study = ExperimentStudy(StudyConfig(base_sf=args.base_sf))
        results = evaluate_claims(study)
        passed = sum(r.passed for r in results)
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"[{mark}] {r.claim_id:<8} {r.quote}")
            print(f"        -> {r.detail}")
        print(f"\n{passed}/{len(results)} claims reproduced")
        return 0 if passed == len(results) else 1

    if args.command == "scaling":
        from repro.hardware import (
            PI_KEY,
            PerformanceModel,
            get_platform,
            measure_parallel_scaling,
        )
        from repro.tpch import generate, get_query

        worker_counts = [int(w) for w in args.workers.split(",")]
        numbers = [int(q) for q in args.queries.split(",")]
        db = generate(args.sf)
        plans = [get_query(n).build(db, {"sf": args.sf}) for n in numbers]
        curve = measure_parallel_scaling(
            db, plans, worker_counts=worker_counts, repeats=args.repeats
        )
        print(f"measured speedup curve (SF {args.sf:g}, Q{numbers}):")
        for n, s in curve.points:
            print(f"  {int(n)} workers: {s:.2f}x")
        print(f"fitted Amdahl serial fraction: {curve.serial_fraction:.4f}")
        # Show what the calibrated curve does to the Pi prediction.
        from repro.engine import execute as _execute

        profile = _execute(db, plans[0]).profile
        pi = get_platform(PI_KEY)
        assumed = PerformanceModel().predict(profile, pi)
        calibrated = PerformanceModel(scaling=curve).predict(profile, pi)
        print(f"Pi 3B+ prediction for Q{numbers[0]} at this profile: "
              f"{assumed:.3f}s assumed-Amdahl -> {calibrated:.3f}s calibrated")
        return 0

    if args.command in _EXTENSIONS:
        result = _EXTENSIONS[args.command]()
        if args.json:
            save_json(result, args.json)
            print(f"wrote {args.json}")
        else:
            print(_render(result))
        return 0

    study = ExperimentStudy(StudyConfig(base_sf=args.base_sf))
    result = study.run(args.command)
    if args.json:
        save_json(result, args.json)
        print(f"wrote {args.json}")
    else:
        print(_render(result))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
