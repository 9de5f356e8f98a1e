"""Compressed-execution benchmark: encoded-domain eval on vs off.

Compression already pays once on a wimpy node by shrinking the bytes a
scan streams (§III-C2's bandwidth-for-cycles trade). Compressed
execution collects the second payment: sargable predicates evaluate
directly on the packed/run-length payloads and predicate-free
aggregations reduce over RLE runs, so the decode cycles the first trade
*bought* are simply not spent. Both sides of every comparison here run
against the same compressed, date-clustered database — the delta is
purely encoded-domain evaluation (the default) vs decode-then-eval
(``--no-compressed-exec``).

Two query groups:

* **gated** — RLE/FoR-friendly scans and group-bys (a date-window count
  over the run-length shipdate column, a per-day group-by that reduces
  ~3M rows to ~2.5k runs, and TPC-H Q6 whose conjuncts all compile).
  At least one must reach >= 2x wall-clock with fewer decoded bytes.
* **guard** — queries dominated by joins and residual predicates (Q1,
  Q18) where encoded eval applies to little of the work. They gate only
  against regression: neither may run more than 5% slower with
  compressed execution on.

Emits ``benchmarks/output/BENCH_compressed.json``.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_compressed.py -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import DEFAULT_SETTINGS, Database, Executor, Q, agg, col
from repro.engine.compression import compress_table
from repro.tpch import generate, get_query

from conftest import paired_overhead, write_artifact

BENCH_SF = 0.5
REPEATS = 3
REQUIRED_SPEEDUP = 2.0
MAX_GUARD_SLOWDOWN = 1.05

# Date-clustering is what a time-partitioned load produces, and it is
# what gives the shipdate/orderdate columns their long runs (RLE).
_CLUSTER_KEYS = {"lineitem": "l_shipdate", "orders": "o_orderdate"}


def _rle_filter_count(db):
    """Date-window count: every conjunct compiles against the RLE
    shipdate column, and COUNT(*) needs no payload — the encoded run
    never decodes a single value."""
    return (
        Q(db)
        .scan("lineitem")
        .filter(col("l_shipdate") >= "1994-01-01")
        .filter(col("l_shipdate") < "1995-01-01")
        .aggregate(items=agg.count_star())
    )


def _rle_groupby(db):
    """Shipments per day: a predicate-free group-by on the RLE shipdate
    key reduces one value per run instead of hashing ~3M rows."""
    return (
        Q(db)
        .scan("lineitem")
        .aggregate(by=["l_shipdate"], items=agg.count_star())
    )


# (label, plan builder, kind) — kind "gated" carries the speedup floor,
# "guard" carries the no-regression ceiling for decode-fallback shapes.
BENCH_QUERIES = (
    ("rle-filter-count", _rle_filter_count, "gated"),
    ("rle-groupby", _rle_groupby, "gated"),
    ("Q6", lambda db: get_query(6).build(db, {"sf": BENCH_SF}), "gated"),
    ("Q1", lambda db: get_query(1).build(db, {"sf": BENCH_SF}), "guard"),
    ("Q18", lambda db: get_query(18).build(db, {"sf": BENCH_SF}), "guard"),
)


@pytest.fixture(scope="module")
def compressed_db():
    db = generate(BENCH_SF, seed=42)
    compressed = Database(db.name)
    for name in db.table_names:
        table = db.table(name)
        key = _CLUSTER_KEYS.get(name)
        if key is not None:
            order = np.argsort(table.column(key).values, kind="stable")
            table = table.select_rows(order)
        compressed.add(compress_table(table))
    compressed.build_zone_maps()
    return compressed


def test_compressed_execution_speedup(benchmark, compressed_db, output_dir):
    enc = Executor(compressed_db)  # compressed execution is the default
    dec = Executor(compressed_db, DEFAULT_SETTINGS.without_compressed())

    entries, slowdowns = [], {}
    for label, build, kind in BENCH_QUERIES:
        plan = build(compressed_db)
        ratio, t_dec, t_enc, (r_dec, r_enc) = paired_overhead(
            dec, enc, plan, REPEATS
        )
        assert sorted(map(str, r_enc.rows)) == sorted(map(str, r_dec.rows)), (
            f"{label}: compressed execution changed the result"
        )
        p_enc, p_dec = r_enc.profile, r_dec.profile
        entries.append({
            "query": label,
            "kind": kind,
            "seconds_decode": t_dec,
            "seconds_encoded": t_enc,
            "speedup": t_dec / max(t_enc, 1e-9),
            "decoded_bytes_decode": p_dec.decoded_bytes,
            "decoded_bytes_encoded": p_enc.decoded_bytes,
            "decode_reduction": 1.0
            - p_enc.decoded_bytes / max(p_dec.decoded_bytes, 1e-9),
            "encoded_eval_rows": p_enc.encoded_eval_rows,
            "runs_touched": p_enc.runs_touched,
        })
        slowdowns[label] = ratio

    benchmark.pedantic(
        lambda: enc.execute(_rle_groupby(compressed_db)), rounds=1, iterations=1
    )

    report = {
        "sf": BENCH_SF,
        "clustered": sorted(_CLUSTER_KEYS),
        "repeats": REPEATS,
        "queries": entries,
    }
    (output_dir / "BENCH_compressed.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    lines = [f"compressed execution @ SF {BENCH_SF:g} (date-clustered, compressed tables)"]
    for e in entries:
        tag = "  [guard]" if e["kind"] == "guard" else ""
        lines.append(
            f"  {e['query']:<18} {e['seconds_decode'] * 1e3:8.2f} ms -> "
            f"{e['seconds_encoded'] * 1e3:8.2f} ms "
            f"({e['speedup']:.2f}x, decoded bytes -{e['decode_reduction']:.0%}, "
            f"{e['encoded_eval_rows'] / 1e6:.1f}M rows encoded-eval, "
            f"{e['runs_touched']:,.0f} runs/blocks)"
            f"{tag}"
        )
    text = "\n".join(lines)
    write_artifact(output_dir, "compressed", text)
    print("\n" + text)

    gated = [e for e in entries if e["kind"] == "gated"]
    winners = [
        e for e in gated
        if e["speedup"] >= REQUIRED_SPEEDUP and e["decode_reduction"] > 0
    ]
    assert winners, (
        f"no RLE/FoR-friendly query reached {REQUIRED_SPEEDUP}x with fewer "
        "decoded bytes: "
        + ", ".join(f"{e['query']}={e['speedup']:.2f}x" for e in gated)
    )
    for e in entries:
        if e["kind"] == "guard":
            assert slowdowns[e["query"]] <= MAX_GUARD_SLOWDOWN, (
                f"{e['query']} regressed under compressed execution "
                f"({slowdowns[e['query']]:.3f}x, paired median): "
                f"{e['seconds_decode'] * 1e3:.2f} ms -> "
                f"{e['seconds_encoded'] * 1e3:.2f} ms"
            )
