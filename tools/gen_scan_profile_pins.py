#!/usr/bin/env python
"""Regenerate the pinned scan work profiles.

Usage:  PYTHONPATH=src python tools/gen_scan_profile_pins.py

Writes tests/engine/data/scan_profile_pins.json: for every combination of
the ``zone_map_skipping`` x ``late_materialization`` x
``compressed_execution`` gates, on plain and on date-clustered compressed
TPC-H tables (SF 0.01, seed 42), serial and with 3 morsel workers, the
per-operator ``OperatorWork`` counts of the benchmark suite's seven scan
classes plus Q1/Q6/Q12/Q14 (zero fields omitted). ``tests/engine/
test_scan_profile_pins.py`` re-collects them and asserts equality, so a
scan-path refactor proves "same work" against a committed file instead of
a throwaway script. Regenerate only for *intentional* accounting
changes, and review the diff.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from repro.engine import Database, Executor, OptimizerSettings, ParallelExecutor
from repro.engine.compression import compress_table
from repro.engine.sql import sql
from repro.tpch import generate
from repro.tpch.sqltext import sql_text

SF = 0.01
SEED = 42
WORKERS = 3
PINS = Path(__file__).parent.parent / "tests" / "engine" / "data" / "scan_profile_pins.json"

# The scan classes of benchmarks/suite's scan_encoded workload (that
# directory is the benchmark's; the texts are repeated here on purpose).
QUERIES = {
    "win_count":
        "SELECT COUNT(*) AS n FROM lineitem "
        "WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'",
    "day_groupby":
        "SELECT l_shipdate, COUNT(*) AS n FROM lineitem GROUP BY l_shipdate",
    "flag_groupby":
        "SELECT l_returnflag, SUM(l_quantity) AS qty, COUNT(*) AS n "
        "FROM lineitem GROUP BY l_returnflag",
    "disc_in":
        "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS total FROM lineitem "
        "WHERE l_discount IN (0.02, 0.05, 0.08)",
    "mode_like":
        "SELECT l_shipmode, COUNT(*) AS n FROM lineitem "
        "WHERE l_shipinstruct LIKE 'DELIVER%' GROUP BY l_shipmode",
    "orders_prio":
        "SELECT o_orderpriority, COUNT(*) AS n FROM orders "
        "WHERE o_orderdate >= DATE '1995-01-01' "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority",
    "topk_price":
        "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
        "WHERE l_shipdate >= DATE '1997-01-01' "
        "ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 10",
    **{f"q{n}": sql_text(n, {"sf": SF}) for n in (1, 6, 12, 14)},
}

CLUSTER_KEYS = {"lineitem": "l_shipdate", "orders": "o_orderdate"}

# (zone_map_skipping, late_materialization, compressed_execution)
GATES = list(itertools.product((True, False), repeat=3))


def gate_settings(skipping: bool, late: bool, compressed: bool) -> OptimizerSettings:
    return OptimizerSettings(
        zone_map_skipping=skipping,
        late_materialization=late,
        compressed_execution=compressed,
    )


def clustered_compressed(db: Database) -> Database:
    """``db`` with the fact tables sorted on their date column (what a
    time-partitioned load produces) and every table compressed."""
    out = Database(db.name + "-clustered-compressed")
    for name in db.table_names:
        table = db.table(name)
        key = CLUSTER_KEYS.get(name)
        if key is not None:
            table = table.select_rows(np.argsort(table.column(key).values, kind="stable"))
        out.add(compress_table(table))
    return out


def config_key(gates, storage: str, workers: int | None) -> str:
    skipping, late, compressed = gates
    mode = "serial" if workers is None else f"w{workers}"
    return f"skip={int(skipping)},late={int(late)},enc={int(compressed)}|{storage}|{mode}"


def make_executor(db: Database, gates, workers: int | None, **kwargs):
    settings = gate_settings(*gates)
    if workers is None:
        return Executor(db, settings, **kwargs)
    return ParallelExecutor(db, workers=workers, cache_size=0, settings=settings, **kwargs)


def profile_rows(profile) -> list[dict]:
    """One dict per profile operator: its name plus every nonzero count."""
    return [{"operator": op.operator, **op.counters()} for op in profile.operators]


def collect(databases: dict[str, Database]) -> dict[str, list[dict]]:
    """``{"<config>|<query>": profile_rows}`` over the whole pinned set."""
    pins: dict[str, list[dict]] = {}
    for storage, db in databases.items():
        plans = {name: sql(db, text) for name, text in QUERIES.items()}
        for gates in GATES:
            for workers in (None, WORKERS):
                executor = make_executor(db, gates, workers)
                for name, plan in plans.items():
                    key = f"{config_key(gates, storage, workers)}|{name}"
                    pins[key] = profile_rows(executor.execute(plan).profile)
                if workers is not None:
                    executor.close()
    return pins


def main() -> None:
    plain = generate(SF, seed=SEED)
    pins = collect({"plain": plain, "compressed": clustered_compressed(plain)})
    body = ",\n".join(
        f" {json.dumps(key)}: {json.dumps(rows, separators=(',', ':'))}"
        for key, rows in sorted(pins.items())
    )
    PINS.parent.mkdir(parents=True, exist_ok=True)
    PINS.write_text("{\n" + body + "\n}\n")
    print(f"wrote {PINS} ({len(pins)} profiles)")


if __name__ == "__main__":
    main()
