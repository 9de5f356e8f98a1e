"""The benchmark command.

Driver form (one workload, one fresh process, one JSON result line)::

    python3 benchmarks/suite/run.py --workload tpch_power --seed 42 \
        --seconds 16 --trace 0

Suite form (all four workloads, a subprocess each, untraced then
traced; rewrites ``BENCHMARK.json`` from ``spec.py``)::

    python3 benchmarks/suite/run.py --seed 42            # ~4 min
    python3 benchmarks/suite/run.py --seed 42 --smoke    # < 20 s

``python -m benchmarks.suite.run`` works the same from the repo root.
See README.md in this directory for what is measured and why.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import gc
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
TMP = HERE / ".tmp"
sys.path[:0] = [str(HERE), str(REPO / "src")]

import spec  # noqa: E402  (needs HERE on sys.path)

SETUP_REPS = 3
MIN_PASSES = 10  # no class median over fewer samples than this
MIN_TRACED_PASSES = 2


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def latency_metrics(passes, pooled_p95: bool) -> tuple[dict, dict]:
    """End-to-end latency numbers and the per-class table behind them.

    Every statistic is a median over the samples of one query class,
    combined across classes. A pooled p95 is an order statistic of
    whichever heavy classes straddle the rank unless thousands of
    samples back it, so only ``serve_closed`` pools; the batch
    workloads report the class-stratified p95 (nearest-rank p95 over
    class medians: the latency 95% of the query classes stay under).
    """
    from layers import nearest_rank

    by_class: dict = {}
    for p in passes:
        for cls, latency in p.samples:
            by_class.setdefault(cls, []).append(latency * 1e3)
    medians = {cls: statistics.median(v) for cls, v in by_class.items()}
    if pooled_p95:
        pool = [v for values in by_class.values() for v in values]
        p95 = nearest_rank(pool, 0.95)
    else:
        p95 = nearest_rank(list(medians.values()), 0.95)
    out = {
        "latency_ms_geomean": math.exp(
            sum(math.log(m) for m in medians.values()) / len(medians)
        ),
        "latency_ms_slowest": max(medians.values()),
        "latency_ms_p95": p95,
    }
    total = sum(sum(values) for values in by_class.values())
    return out, {
        cls: (medians[cls], len(by_class[cls]), sum(by_class[cls]) / total)
        for cls in sorted(medians)
    }


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------


def pin_environment() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` (set and dict order of
    strings is then the same in every run) and with temp files, which
    the spill workload writes, inside the checkout."""
    if os.environ.get("PYTHONHASHSEED") == "0" and os.environ.get("TMPDIR") == str(TMP):
        return
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(TMP))
    os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *sys.argv[1:]], env)


def fetch_oracle(name: str, seed: int, smoke: bool):
    """Expected rows from a child process, so this process's peak RSS
    is the system under test's and not the oracle's."""
    start = time.perf_counter()
    cmd = [sys.executable, str(HERE / "run.py"), "--oracle", name, "--seed", str(seed)]
    done = subprocess.run(cmd + (["--smoke"] if smoke else []),
                          stdout=subprocess.PIPE, check=True)
    return pickle.loads(done.stdout), time.perf_counter() - start


def emit_oracle(name: str, seed: int, smoke: bool) -> None:
    import workloads

    payload = workloads.WORKLOADS[name](smoke).oracle(seed)
    sys.stdout.buffer.write(pickle.dumps(payload))


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads
    import layers

    import_s = time.perf_counter() - _PROCESS_START
    min_passes = 2 if smoke else MIN_PASSES
    wl = workloads.WORKLOADS[name](smoke)
    wl.expected, oracle_s = fetch_oracle(name, seed, smoke)

    # -- set-up, repeated: setup_s is import + the median repetition ----
    state, reps = None, []
    for _ in range(SETUP_REPS):
        if state is not None:
            wl.teardown(state)
            state = None
        workloads.reset_engine_caches()
        stages: dict = {}
        start = time.perf_counter()
        state = wl.setup(seed, stages)
        stages["total"] = time.perf_counter() - start
        reps.append(stages)
    stage_s = {
        key: statistics.median(rep.get(key, 0.0) for rep in reps)
        for key in sorted({k for rep in reps for k in rep})
    }
    setup_s = import_s + stage_s.pop("total")

    # -- timed passes, tracing off; with --trace 1 each is followed by a
    # traced pass on a second, tracer-carrying instance, so the slow
    # drift of this shared host lands on both sides of the overhead ratio
    traced = wl.traced_state(state) if trace else None
    floor = MIN_TRACED_PASSES if trace else min_passes
    passes, sums, traced_walls = [], [], []
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < seconds or len(passes) < floor:
        gc.collect()  # between passes; the collector stays on inside them
        passes.append(wl.run_pass(state, len(passes)))
        elapsed += passes[-1].wall_s
        if traced is not None:
            gc.collect()
            wall, layer_sums = wl.traced_pass(traced, len(passes) - 1)
            sums.append(layer_sums)
            traced_walls.append(wall)
            elapsed = time.perf_counter() - start  # span analysis included
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [p.wall_s for p in passes]
    q1, wall_p50, q3 = quartiles(walls)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(f"[{name}] seed={seed} sf={wl.sf:g} passes={len(passes)} "
          f"attempted={attempted} failed={failed} nproc={os.cpu_count()} "
          f"loadavg_1m={os.getloadavg()[0]:.2f}")
    for why in [why for p in passes for why in p.failures][:5]:
        print(f"[{name}] FAILED {why}")
    print(f"[{name}] pass wall s: q1={q1:.4f} p50={wall_p50:.4f} q3={q3:.4f} "
          f"all={' '.join(f'{w:.3f}' for w in walls)}")

    if not trace:
        latency, table = latency_metrics(passes, wl.pooled_p95)
        for cls, (median_ms, n, share) in table.items():
            print(f"[{name}]   class {cls:<14} p50={median_ms:10.3f} ms  n={n:<5} "
                  f"{share:6.1%} of all latency")
        modeled = layers.modeled_layers(wl.modeled_profiles(state, passes[0]))
        correct_per_pass = statistics.median(len(p.samples) for p in passes)
        values = {
            "setup_s": setup_s,
            "queries_per_s": correct_per_pass / wall_p50,
            **latency,
            "modeled_pi_s": modeled["modeled_pi_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = spec.END_TO_END_UNITS
    else:
        values = {
            key: statistics.fmean(s.get(key, 0.0) for s in sums)
            for key in {k for s in sums for k in s}
        }
        values.update(wl.extra_layers(state))
        wl.teardown(traced)
        covered, _ = values.pop("_covered_ms"), values.pop("_query_ms")
        values.pop("modeled_pi_s")
        values["exec.untraced_ms"] = values["exec.execute_ms"] - covered
        values["morsel.busy_share"] = values["morsel.busy_ms"] / (
            workloads.ENGINE_WORKERS * values["exec.execute_ms"]
        )
        frontend = (values["sql.parse_ms"] + values["sql.plan_ms"]
                    + values["optimizer.optimize_ms"])
        values["frontend_share"] = frontend / (frontend + values["exec.execute_ms"])
        values["trace.overhead_pct"] = (
            statistics.median(traced_walls) / wall_p50 - 1
        ) * 100
        values.update(stage_s)
        values.update({
            "setup.import_s": import_s,
            "setup.oracle_s": oracle_s,
            "db.resident_mb": wl.resident_mb(state),
            "pass.wall_ms_p50": wall_p50 * 1e3,
            "pass.wall_ms_iqr": (q3 - q1) * 1e3,
            "host.loadavg_1m": os.getloadavg()[0],
        })
        units = spec.PER_LAYER_UNITS
        unknown = set(values) - set(units)
        if unknown:
            raise RuntimeError(f"metrics not in spec.PER_LAYER: {sorted(unknown)}")
        values = {key: values.get(key, 0.0) for key in units}
        print(f"[{name}] traced passes={len(sums)}")

    wl.teardown(state)
    for key, value in values.items():
        print(f"[{name}]   {key:<30} {value:14.4f} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in values.items()
        },
    }


# ----------------------------------------------------------------------
# the whole suite
# ----------------------------------------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool,
              echo: bool = True) -> dict:
    """One workload in a fresh subprocess; returns its result object."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd + (["--smoke"] if smoke else []),
                          stdout=subprocess.PIPE, text=True, check=True)
    *log, last = done.stdout.strip().splitlines()
    if echo:
        print("\n".join(log))
    return json.loads(last)


def run_suite(seed: int, seconds: float, smoke: bool) -> int:
    spec.write_manifest(REPO)
    errors = 0
    for name in spec.WORKLOAD_NAMES:
        for trace in (0, 1):
            result = run_child(name, seed, seconds, trace, smoke)
            wanted = spec.PER_LAYER_UNITS if trace else spec.END_TO_END_UNITS
            if list(result["metrics"]) != list(wanted):
                raise RuntimeError(f"{name}: metric names differ from spec.py")
            rate = result["failed"] / result["attempted"]
            print(f"[{name}] trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']} error_rate={rate:.6f}")
            errors += result["failed"]
    print("suite:", "FAILED" if errors else "ok", f"({errors} failed requests)")
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="SF 0.01, 2 passes: names, schema and oracle only")
    parser.add_argument("--oracle", choices=spec.WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args()

    if args.write_manifest:
        print(spec.write_manifest(REPO))
        return 0
    seconds = args.seconds if args.seconds is not None else (
        0.2 if args.smoke else spec.RUN_SECONDS
    )
    if args.workload is None and args.oracle is None:
        return run_suite(args.seed, seconds, args.smoke)

    pin_environment()
    TMP.mkdir(exist_ok=True)
    try:
        if args.oracle is not None:
            emit_oracle(args.oracle, args.seed, args.smoke)
            return 0
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace),
                              args.smoke)
    finally:
        if args.oracle is None:
            shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
