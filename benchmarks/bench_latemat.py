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
  slower with late materialization on. They are built with the ``Q``
  builder in the text order the SQL planner joined them in before it
  ordered joins by estimated cardinality — the plans the floor was set
  on, whose 600k-row intermediates late materialization saves most on.
* **join-heavy, as planned** — the same four queries as the SQL planner
  orders them today (``get_query(n).build``). Held to the 5% guard, not
  to the floor: with small intermediates there is little left to save.
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

import functools
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


def _revenue():
    return col("l_extendedprice") * (1 - col("l_discount"))


def _conjoin(*predicates):
    return functools.reduce(lambda a, b: a & b, predicates)


def _orders_by_key(db, having, lineitem=None):
    """``SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING ...``
    as the SQL planner lowers an ``IN`` subquery."""
    lineitem = lineitem if lineitem is not None else Q(db).scan("lineitem")
    aggs = {"__agg0": having[0]}
    return (lineitem.aggregate(by=["l_orderkey"], **aggs)
            .filter(having[1](col("__agg0")))
            .project(l_orderkey=col("l_orderkey"))
            .project(__sub=col("l_orderkey")))


def _q18_text_order(db):
    big = _orders_by_key(db, (agg.sum(col("l_quantity")), lambda a: a > 300))
    keys = ["c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]
    return (Q(db).scan("customer")
            .join("orders", on=[("c_custkey", "o_custkey")])
            .join("lineitem", on=[("o_orderkey", "l_orderkey")])
            .join(big, on=[("o_orderkey", "__sub")], how="semi")
            .aggregate(by=keys, **{"__agg0": agg.sum(col("l_quantity"))})
            .project(**{k: col(k) for k in keys}, sum_qty=col("__agg0"))
            .sort(("o_totalprice", "desc"), "o_orderdate")
            .limit(100))


def _q3_text_order(db):
    keys = ["l_orderkey", "o_orderdate", "o_shippriority"]
    return (Q(db).scan("customer")
            .join("orders", on=[("c_custkey", "o_custkey")])
            .join("lineitem", on=[("o_orderkey", "l_orderkey")])
            .filter(_conjoin(col("c_mktsegment") == "BUILDING",
                             col("o_orderdate") < "1995-03-15",
                             col("l_shipdate") > "1995-03-15"))
            .aggregate(by=keys, **{"__agg0": agg.sum(_revenue())})
            .project(**{k: col(k) for k in keys}, revenue=col("__agg0"))
            .sort(("revenue", "desc"), "o_orderdate")
            .limit(10))


def _q5_text_order(db):
    return (Q(db).scan("customer")
            .join("orders", on=[("c_custkey", "o_custkey")])
            .join("lineitem", on=[("o_orderkey", "l_orderkey")])
            .join("supplier", on=[("l_suppkey", "s_suppkey"),
                                  ("c_nationkey", "s_nationkey")])
            .join("nation", on=[("c_nationkey", "n_nationkey")])
            .join("region", on=[("n_regionkey", "r_regionkey")])
            .filter(_conjoin(col("r_name") == "ASIA",
                             col("o_orderdate") >= "1994-01-01",
                             col("o_orderdate") < "1995-01-01"))
            .aggregate(by=["n_name"], **{"__agg0": agg.sum(_revenue())})
            .project(n_name=col("n_name"), revenue=col("__agg0"))
            .sort(("revenue", "desc")))


def _q21_text_order(db):
    two_suppliers = (agg.count_distinct(col("l_suppkey")), lambda a: a >= 2)
    late = Q(db).scan("lineitem").filter(col("l_receiptdate") > col("l_commitdate"))
    return (Q(db).scan("supplier")
            .join("lineitem", on=[("s_suppkey", "l_suppkey")])
            .join("orders", on=[("l_orderkey", "o_orderkey")])
            .join("nation", on=[("s_nationkey", "n_nationkey")])
            .join(_orders_by_key(db, two_suppliers), on=[("l_orderkey", "__sub")],
                  how="semi")
            .join(_orders_by_key(db, two_suppliers, late), on=[("l_orderkey", "__sub")],
                  how="anti")
            .filter(_conjoin(col("o_orderstatus") == "F",
                             col("n_name") == "SAUDI ARABIA",
                             col("l_receiptdate") > col("l_commitdate")))
            .aggregate(by=["s_name"], **{"__agg0": agg.count_star()})
            .project(s_name=col("s_name"), numwait=col("__agg0"))
            .sort(("numwait", "desc"), "s_name")
            .limit(100))


# (label, plan builder, kind) — kind "gated" carries the speedup floor
# and the no-regression ceiling, "guard" only the ceiling, "report" only
# prints.
BENCH_QUERIES = (
    ("Q18", _q18_text_order, "gated"),
    ("Q3", _q3_text_order, "gated"),
    ("Q5", _q5_text_order, "gated"),
    ("Q21", _q21_text_order, "gated"),
    ("Q18 planned", _tpch(18), "guard"),
    ("Q3 planned", _tpch(3), "guard"),
    ("Q5 planned", _tpch(5), "guard"),
    ("Q21 planned", _tpch(21), "guard"),
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
        tag = {"gated": "", "guard": "  [guard]", "report": "  [report]"}[e["kind"]]
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
    for e in entries:
        if e["kind"] == "report":
            continue
        assert slowdowns[e["query"]] <= MAX_GUARD_SLOWDOWN, (
            f"{e['query']} regressed under late materialization "
            f"({slowdowns[e['query']]:.3f}x, paired median): "
            f"{e['seconds_eager'] * 1e3:.2f} ms -> {e['seconds_late'] * 1e3:.2f} ms"
        )
