"""Parallel-executor smoke benchmark: Q1 and Q6 wall clock, serial vs
morsel-parallel.

The ISSUE's acceptance target is >= 2x at 4 workers on a 4-core runner
for Q1/Q6 at SF 0.1. Hosts with fewer cores (CI containers, laptops on
battery) cannot hit that, so the hard assertion is opt-in via
``--assert-speedup X``; by default the benchmark reports the measured
curve as an artifact.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_smoke.py -q \
        --workers 4 [--assert-speedup 2.0]
"""

from __future__ import annotations

import os
import time

import pytest

from repro.engine import Executor
from repro.tpch import generate, get_query

from conftest import write_artifact

SMOKE_SF = 0.1
SMOKE_QUERIES = (1, 6)
REPEATS = 3


def pytest_generate_tests(metafunc):
    if "query_number" in metafunc.fixturenames:
        metafunc.parametrize("query_number", SMOKE_QUERIES)


@pytest.fixture(scope="module")
def smoke_db():
    return generate(SMOKE_SF, seed=42)


def _best_wall(run) -> float:
    return min(run() for _ in range(REPEATS))


def test_parallel_smoke(benchmark, smoke_db, output_dir, request, query_number):
    workers = int(request.config.getoption("--workers"))
    assert_speedup = request.config.getoption("--assert-speedup")
    plan = get_query(query_number).build(smoke_db, {"sf": SMOKE_SF})

    serial = Executor(smoke_db)

    def run_serial():
        start = time.perf_counter()
        serial.execute(plan)
        return time.perf_counter() - start

    t_serial = _best_wall(run_serial)

    with Executor(smoke_db, workers=workers) as parallel:
        def run_parallel():
            start = time.perf_counter()
            parallel.execute(plan)
            return time.perf_counter() - start

        benchmark.pedantic(run_parallel, rounds=1, iterations=1)
        t_parallel = _best_wall(run_parallel)

    speedup = t_serial / max(t_parallel, 1e-9)
    text = (
        f"Q{query_number} @ SF {SMOKE_SF:g} (host cores: {os.cpu_count()})\n"
        f"  serial:            {t_serial * 1e3:8.2f} ms\n"
        f"  {workers} workers: {t_parallel * 1e3:8.2f} ms\n"
        f"  speedup:           {speedup:8.2f}x"
    )
    write_artifact(output_dir, f"parallel_smoke_q{query_number}", text)
    print("\n" + text)

    if assert_speedup is not None:
        assert speedup >= float(assert_speedup), (
            f"Q{query_number}: {speedup:.2f}x < required {assert_speedup}x "
            f"at {workers} workers"
        )
