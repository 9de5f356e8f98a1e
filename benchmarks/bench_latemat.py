"""Late-materialization benchmark: selection-vector execution on/off.

Late materialization attacks the same scarce resource as data skipping —
a wimpy node's memory bandwidth — from the other side: instead of not
*reading* bytes, it avoids *writing* them. A filter emits a selection
vector over the untouched base columns, and a join emits row ids, rather
than compactly rewriting every payload column; the gather is deferred to
the first operator that reads a column, by which point most queries have
narrowed what they actually touch.

Three query groups are measured against the same clustered database, late
materialization enabled (default) and disabled (``--no-latemat``):

* **join-heavy** — TPC-H Q18 and Q3, Q5 and Q21, where inputs flow
  through several joins before an aggregate reads them: a late join
  composes row ids instead of gathering both sides' payload. These carry
  the acceptance floor: at least one must reach >= 1.3x wall-clock with
  a reported rewrite-bytes reduction, and none may run more than 5%
  slower with late materialization on.
* **Q6-class** — selective scan+aggregate pipelines (TPC-H Q6 and
  windowed single-table variants, including a deliberately unselective
  ~50% window). Reported, not gated: since a predicated scan decodes
  only its surviving runs in either mode, the eager pipeline streams the
  same bytes and the two modes run level here.

Emits ``benchmarks/output/BENCH_latemat.json``.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_latemat.py -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import DEFAULT_SETTINGS, Database, Executor, Q, agg, col
from repro.tpch import generate, get_query

from conftest import paired_overhead, write_artifact

BENCH_SF = 0.5
REPEATS = 3
REQUIRED_SPEEDUP = 1.3
MAX_GUARD_SLOWDOWN = 1.05

# Same clustering as the skipping bench: the layout a time-partitioned
# load produces, and the one that makes surviving rows contiguous.
_CLUSTER_KEYS = {"lineitem": "l_shipdate", "orders": "o_orderdate"}


def _q6(db):
    return get_query(6).build(db, {"sf": BENCH_SF})


def _lineitem_half(db):
    """~50%-selectivity window: zone maps skip little, so nearly the whole
    table streams either way — the late win is purely the avoided compact
    rewrite of every payload column."""
    return (
        Q(db)
        .scan("lineitem")
        .filter(col("l_shipdate") >= "1995-06-17")
        .aggregate(
            revenue=agg.sum(col("l_extendedprice") * (1 - col("l_discount"))),
            items=agg.count_star(),
        )
    )


def _lineitem_recent(db):
    """Highly selective trailing window: contiguous TAKE survivors."""
    return (
        Q(db)
        .scan("lineitem")
        .filter(col("l_shipdate") >= "1998-03-01")
        .aggregate(
            revenue=agg.sum(col("l_extendedprice") * (1 - col("l_discount"))),
            items=agg.count_star(),
        )
    )


def _tpch(number):
    return lambda db: get_query(number).build(db, {"sf": BENCH_SF})


# (label, plan builder, kind) — kind "gated" carries the speedup floor
# and the no-regression ceiling, "report" only prints.
BENCH_QUERIES = (
    ("Q18", _tpch(18), "gated"),
    ("Q3", _tpch(3), "gated"),
    ("Q5", _tpch(5), "gated"),
    ("Q21", _tpch(21), "gated"),
    ("Q6", _q6, "report"),
    ("lineitem-half", _lineitem_half, "report"),
    ("lineitem-recent", _lineitem_recent, "report"),
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
    clustered.build_zone_maps()
    return clustered


def test_latemat_speedup(benchmark, clustered_db, output_dir):
    late = Executor(clustered_db)  # late materialization is the default
    eager = Executor(clustered_db, DEFAULT_SETTINGS.without_latemat())

    entries, slowdowns = [], {}
    for label, build, kind in BENCH_QUERIES:
        plan = build(clustered_db)
        ratio, t_eager, t_late, (r_eager, r_late) = paired_overhead(
            eager, late, plan, REPEATS
        )
        assert sorted(map(str, r_late.rows)) == sorted(map(str, r_eager.rows)), (
            f"{label}: late materialization changed the result"
        )
        p_late, p_eager = r_late.profile, r_eager.profile
        written_eager = p_eager.out_bytes
        written_late = p_late.out_bytes
        entries.append({
            "query": label,
            "kind": kind,
            "seconds_eager": t_eager,
            "seconds_late": t_late,
            "speedup": t_eager / max(t_late, 1e-9),
            "bytes_written_eager": written_eager,
            "bytes_written_late": written_late,
            "bytes_rewrite_avoided": p_late.saved_bytes,
            "bytes_gathered": p_late.gather_bytes,
            "rewrite_reduction": 1.0 - written_late / max(written_eager, 1e-9),
        })
        slowdowns[label] = ratio

    benchmark.pedantic(
        lambda: late.execute(_q6(clustered_db)), rounds=1, iterations=1
    )

    report = {
        "sf": BENCH_SF,
        "clustered": sorted(_CLUSTER_KEYS),
        "repeats": REPEATS,
        "queries": entries,
    }
    (output_dir / "BENCH_latemat.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    lines = [f"late materialization @ SF {BENCH_SF:g} (date-clustered tables)"]
    for e in entries:
        tag = "  [report]" if e["kind"] == "report" else ""
        lines.append(
            f"  {e['query']:<16} {e['seconds_eager'] * 1e3:8.2f} ms -> "
            f"{e['seconds_late'] * 1e3:8.2f} ms "
            f"({e['speedup']:.2f}x, intermediate writes -{e['rewrite_reduction']:.0%}, "
            f"{e['bytes_gathered'] / 1e6:.1f} MB gathered at breakers)"
            f"{tag}"
        )
    text = "\n".join(lines)
    write_artifact(output_dir, "latemat", text)
    print("\n" + text)

    gated = [e for e in entries if e["kind"] == "gated"]
    winners = [
        e for e in gated
        if e["speedup"] >= REQUIRED_SPEEDUP and e["rewrite_reduction"] > 0
    ]
    assert winners, (
        f"no join-heavy query reached {REQUIRED_SPEEDUP}x with a rewrite reduction: "
        + ", ".join(f"{e['query']}={e['speedup']:.2f}x" for e in gated)
    )
    for e in gated:
        assert slowdowns[e["query"]] <= MAX_GUARD_SLOWDOWN, (
            f"{e['query']} regressed under late materialization "
            f"({slowdowns[e['query']]:.3f}x, paired median): "
            f"{e['seconds_eager'] * 1e3:.2f} ms -> {e['seconds_late'] * 1e3:.2f} ms"
        )
