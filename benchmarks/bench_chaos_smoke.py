"""Chaos smoke benchmark: one dead node + one straggler, full recovery.

The CI gate for the resilient runtime (ISSUE 3): with a *fixed* fault
plan — one sticky node failure plus one straggler — and replication 2,
every one of the 22 TPC-H queries must still match the committed
fault-free goldens, and the whole run must stay inside a wall-clock
budget (injected hangs and backoffs never sleep, so chaos runs at test
speed). The same plan then runs through a ``WimPiCluster`` and a
``NamCluster``, whose own clocks price every attempt: the goldens still
hold, and no query's modeled total comes in under the clean
replication-2 cluster's of the same kind.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_chaos_smoke.py -q
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import pytest

from repro.cluster import (
    FaultPlan,
    InjectedFault,
    RecoveryPolicy,
    ResilientDriver,
    WimPiCluster,
    replicate_database,
)
from repro.cluster.nam import NamCluster
from repro.tpch import ALL_QUERY_NUMBERS, generate, get_query

from conftest import write_artifact

SMOKE_SF = 0.01  # must match the committed goldens
SMOKE_SEED = 42
N_NODES = 4
REPLICATION = 2
WALL_BUDGET_S = 120.0

# The scripted chaos: node 1 dies outright (the paper's swap-off OOM),
# node 3 straggles hard enough to trigger speculation.
SMOKE_PLAN = FaultPlan((
    InjectedFault("oom", 1, pressure=1.4),
    InjectedFault("straggler", 3, slowdown=40.0),
), seed=SMOKE_SEED)

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "tests" / "tpch" / "data"
     / "golden_sf001_seed42.json").read_text()
)


def _numeric_sum(rows) -> float:
    total = 0.0
    for row in rows:
        for value in row:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if isinstance(value, float) and math.isnan(value):
                    continue
                total += float(value)
    return total


def _assert_golden(number, run):
    expected = GOLDEN[str(number)]
    assert run.coverage == 1.0, f"Q{number}: lost data under the smoke plan"
    assert len(run.result) == expected["rows"], f"Q{number}: row count"
    assert run.result.column_names == expected["columns"], f"Q{number}: columns"
    assert _numeric_sum(run.result.rows) == pytest.approx(
        expected["numeric_sum"], rel=1e-6, abs=0.02
    ), f"Q{number}: checksum"


def test_chaos_smoke(output_dir):
    db = generate(SMOKE_SF, seed=SMOKE_SEED)
    layout = replicate_database(db, N_NODES, replication=REPLICATION)
    driver = ResilientDriver(layout, fault_plan=SMOKE_PLAN, policy=RecoveryPolicy())

    start = time.perf_counter()
    lines = [SMOKE_PLAN.describe(), ""]
    events = 0
    for number in ALL_QUERY_NUMBERS:
        run = driver.run(get_query(number), {"sf": SMOKE_SF})
        _assert_golden(number, run)
        events += len(run.recovery.events)
        lines.append(
            f"Q{number:>2}: coverage {run.coverage:.3f}, "
            f"{len(run.recovery.events)} recovery events, "
            f"modeled completion {run.completion_s:.3f}s"
        )
    wall = time.perf_counter() - start

    assert events > 0, "the smoke plan injected no recoverable faults?"
    assert wall < WALL_BUDGET_S, f"chaos smoke took {wall:.1f}s (budget {WALL_BUDGET_S}s)"

    lines += ["", f"all 22 queries match goldens; wall clock {wall:.2f}s "
              f"(budget {WALL_BUDGET_S:.0f}s), {events} recovery events total"]

    # The clusters' clocks: the same plan, every attempt priced at SF 10,
    # on the plain cluster and on the NAM hybrid.
    kwargs = dict(base_sf=SMOKE_SF, db=db, replication=REPLICATION)
    for cls in (WimPiCluster, NamCluster):
        chaos = cls(N_NODES, fault_plan=SMOKE_PLAN, **kwargs)
        clean = cls(N_NODES, **kwargs)
        lines += ["", f"{cls.__name__}({N_NODES}, replication={REPLICATION}) at "
                  f"SF {chaos.target_sf:g} modeled: clean vs smoke-plan total seconds"]
        for number in ALL_QUERY_NUMBERS:
            run = chaos.run_query(number)
            _assert_golden(number, run)
            clean_s = clean.run_query(number).total_seconds
            assert run.total_seconds >= clean_s, f"Q{number}: faults made it faster"
            lines.append(
                f"Q{number:>2}: clean {clean_s:.3f}s, chaos {run.total_seconds:.3f}s, "
                f"{len(run.recovery_log.events)} recovery events, "
                f"{len(run.offloaded)} offloaded"
            )
    write_artifact(output_dir, "chaos_smoke", "\n".join(lines))
