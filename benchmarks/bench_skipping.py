"""Data-skipping benchmark: selective queries with zone maps on/off.

The paper's §III-C2 argument is that a wimpy node's scarce resource is
memory bandwidth, so the cheapest byte is the one never read. This
benchmark measures that claim end to end on the engine: selective
queries run against date-clustered table copies — the layout a
time-partitioned warehouse load produces, and the one zone maps are
designed for; TPC-H's generator emits dates in random order, where a
min/max statistic can prove nothing — with the optimizer's predicate
pushdown + zone-map skipping enabled and disabled (`--no-skipping`).

Two query groups are measured:

* **Q6-class** — scan-dominated selective aggregates (TPC-H Q6 itself
  plus date-windowed single-table scans over lineitem/orders). These
  carry the acceptance floor: >= 1.5x wall-clock speedup with a reported
  bytes-scanned reduction on at least 3 of them. Skipping removes most
  of their total work, so the win shows up on the clock.
* **informative** — selective TPC-H queries whose runtime is dominated
  by joins/aggregation after the filter (Q14, Q15, Q20). Their
  bytes-scanned reduction is just as large, but downstream operators cap
  the end-to-end speedup; they are reported, not gated.

Emits ``benchmarks/output/BENCH_skipping.json``.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_skipping.py -q
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.engine import Database, Executor, OptimizerSettings, Q, agg, col
from repro.engine.sql import sql
from repro.tpch import generate, get_query
from repro.tpch.sqltext import sql_text

from conftest import write_artifact

BENCH_SF = 0.5
REPEATS = 3
REQUIRED_SPEEDUP = 1.5
REQUIRED_QUERIES = 3

# Cluster each date-partitioned fact table by its natural load order.
_CLUSTER_KEYS = {"lineitem": "l_shipdate", "orders": "o_orderdate"}


def _q6(db):
    return get_query(6).build(db, {"sf": BENCH_SF})


def _q6_narrow(db):
    """Q6 shape over a one-month window: ~99% of blocks prune."""
    return sql(db, sql_text(6).replace("INTERVAL '1' YEAR", "INTERVAL '1' MONTH"))


def _orders_quarter(db):
    """Order-priority counts for one quarter (Q4 without the semi-join)."""
    return (
        Q(db)
        .scan("orders")
        .filter(
            (col("o_orderdate") >= "1993-07-01")
            & (col("o_orderdate") < "1993-10-01")
        )
        .aggregate(
            by=["o_orderpriority"],
            order_count=agg.count_star(),
            total_price=agg.sum(col("o_totalprice")),
        )
        .sort("o_orderpriority")
    )


def _lineitem_recent(db):
    """Revenue from the trailing months of the shipdate range."""
    return (
        Q(db)
        .scan("lineitem")
        .filter(col("l_shipdate") >= "1998-03-01")
        .aggregate(
            revenue=agg.sum(col("l_extendedprice") * (1 - col("l_discount"))),
            items=agg.count_star(),
        )
    )


# (label, plan builder, gated?) — gated entries carry the acceptance floor.
BENCH_QUERIES = (
    ("Q6", _q6, True),
    ("Q6-narrow", _q6_narrow, True),
    ("orders-quarter", _orders_quarter, True),
    ("lineitem-recent", _lineitem_recent, True),
    ("Q14", lambda db: get_query(14).build(db, {"sf": BENCH_SF}), False),
    ("Q15", lambda db: get_query(15).build(db, {"sf": BENCH_SF}), False),
    ("Q20", lambda db: get_query(20).build(db, {"sf": BENCH_SF}), False),
)


@pytest.fixture(scope="module")
def clustered_db():
    db = generate(BENCH_SF, seed=42)
    clustered = Database(db.name)
    for name in db.table_names:
        table = db.table(name)
        key = _CLUSTER_KEYS.get(name)
        if key is not None:
            order = np.argsort(table.column(key).values, kind="stable")
            table = table.select_rows(order)
        clustered.add(table)
    # Load-time statistics pass: first-query latency must not include it.
    clustered.build_zone_maps()
    return clustered


def _best_wall(executor, plan):
    best, result = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = executor.execute(plan)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_skipping_speedup(benchmark, clustered_db, output_dir):
    on = Executor(clustered_db)
    off = Executor(clustered_db, OptimizerSettings.disabled())

    entries = []
    for label, build, gated in BENCH_QUERIES:
        plan = build(clustered_db)
        t_off, r_off = _best_wall(off, plan)
        t_on, r_on = _best_wall(on, plan)
        assert sorted(map(str, r_on.rows)) == sorted(map(str, r_off.rows)), (
            f"{label}: skipping changed the result"
        )
        p_on, p_off = r_on.profile, r_off.profile
        scanned_off = p_off.seq_bytes
        scanned_on = p_on.seq_bytes
        entries.append({
            "query": label,
            "gated": gated,
            "seconds_no_skipping": t_off,
            "seconds_skipping": t_on,
            "speedup": t_off / max(t_on, 1e-9),
            "bytes_scanned_no_skipping": scanned_off,
            "bytes_scanned_skipping": scanned_on,
            "bytes_skipped": p_on.skipped_bytes,
            "bytes_scanned_reduction": 1.0 - scanned_on / max(scanned_off, 1e-9),
            "zone_probes": p_on.zone_probes,
            "blocks_skipped": p_on.blocks_skipped,
            "blocks_scanned": p_on.blocks_scanned,
        })

    benchmark.pedantic(
        lambda: on.execute(_q6(clustered_db)), rounds=1, iterations=1
    )

    report = {
        "sf": BENCH_SF,
        "clustered": sorted(_CLUSTER_KEYS),
        "repeats": REPEATS,
        "queries": entries,
    }
    (output_dir / "BENCH_skipping.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    lines = [f"data skipping @ SF {BENCH_SF:g} (date-clustered tables)"]
    for e in entries:
        tag = "" if e["gated"] else "  [informative]"
        lines.append(
            f"  {e['query']:<16} {e['seconds_no_skipping'] * 1e3:8.2f} ms -> "
            f"{e['seconds_skipping'] * 1e3:8.2f} ms "
            f"({e['speedup']:.2f}x, bytes scanned -{e['bytes_scanned_reduction']:.0%}, "
            f"{int(e['blocks_skipped'])}/{int(e['blocks_skipped'] + e['blocks_scanned'])} blocks skipped)"
            f"{tag}"
        )
    text = "\n".join(lines)
    write_artifact(output_dir, "skipping", text)
    print("\n" + text)

    gated = [e for e in entries if e["gated"]]
    winners = [
        e for e in gated
        if e["speedup"] >= REQUIRED_SPEEDUP and e["bytes_scanned_reduction"] > 0
    ]
    assert len(winners) >= REQUIRED_QUERIES, (
        f"only {len(winners)} of {len(gated)} Q6-class queries reached "
        f"{REQUIRED_SPEEDUP}x with a bytes-scanned reduction: "
        + ", ".join(f"{e['query']}={e['speedup']:.2f}x" for e in gated)
    )
