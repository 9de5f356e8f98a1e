"""Decisions taken, not predicted: every hashjoin span says which probe
kernel ran, which input was the build side and whether its output is
late, every grouped aggregate and distinct span which factorization
kernel produced its group ids, and the registry counters agree with the
spans — and with EXPLAIN's late tags, which predict them."""

import collections
import re

import pytest

from repro.engine import Executor, Q, agg
from repro.engine.explain import explain
from repro.engine.expr import col
from repro.obs.metrics import metrics
from repro.obs.trace import Tracer, iter_spans
from repro.tpch import ALL_QUERY_NUMBERS, get_query

from .test_trace_invariants import assert_reconciles, assert_span_tree

KERNELS = ("dense", "sort")


def _kernel_counts() -> dict:
    return {k: metrics.counter(f"engine.join.kernel.{k}").value for k in KERNELS}


def _traced_joins(db, params, number):
    """``(join spans, counter deltas)`` of one traced serial run."""
    before = _kernel_counts()
    tracer = Tracer()
    Executor(db, tracer=tracer).execute(
        get_query(number).build(db, params), label=f"Q{number}"
    )
    moved = {k: v - before[k] for k, v in _kernel_counts().items()}
    joins = [s for s in iter_spans(tracer.roots[0]) if s.name == "hashjoin"]
    return joins, moved


def test_q3_joins_are_all_dense(tpch_db, tpch_params):
    joins, moved = _traced_joins(tpch_db, tpch_params, 3)
    assert [s.attrs["kernel"] for s in joins] == ["dense", "dense"]
    assert moved == {"dense": 2, "sort": 0}


def test_q9_sorts_only_its_composite_key_join(tpch_db, tpch_params):
    joins, moved = _traced_joins(tpch_db, tpch_params, 9)
    partsupp_rows = tpch_db.table("partsupp").nrows
    sort = [s for s in joins if s.attrs["kernel"] == "sort"]
    # (ps_partkey, ps_suppkey) mixes into one sparse combined code.
    assert [s.attrs["right_rows"] for s in sort] == [partsupp_rows]
    assert len(joins) == 5 and all(s.attrs["kernel"] in KERNELS for s in joins)
    spans = collections.Counter(s.attrs["kernel"] for s in joins)
    assert moved == {"dense": spans["dense"], "sort": spans["sort"]}


def test_q21_holds_its_suppliers_not_its_lineitems(tpch_db, tpch_params):
    """Q21's ``supplier ⋈ lineitem`` left side is one nation's few,
    unique supplier keys: the table is theirs and every lineitem probes
    it. Its other joins, semi and anti included, keep the right table."""
    joins, moved = _traced_joins(tpch_db, tpch_params, 21)
    left = [s for s in joins if s.attrs["table"] == "left"]
    assert [s.attrs["kernel"] for s in left] == ["dense"]
    (span,) = left
    assert span.attrs["how"] == "inner"
    assert span.attrs["left_rows"] < tpch_db.table("supplier").nrows < span.attrs["right_rows"]
    assert {s.attrs["table"] for s in joins} == {"left", "right"}
    spans = collections.Counter(s.attrs["kernel"] for s in joins)
    assert moved == {"dense": spans["dense"], "sort": spans["sort"]}


def _budgeted_joins(db, params, number, memory_budget):
    """Join spans of one traced serial run under ``memory_budget``, whose
    spans must reconcile with its profile whichever side was built."""
    tracer = Tracer()
    result = Executor(db, tracer=tracer, memory_budget=memory_budget).execute(
        get_query(number).build(db, params), label=f"Q{number}"
    )
    assert_span_tree(tracer.roots[0])
    assert_reconciles(tracer.roots[0], result.profile)
    return [s for s in iter_spans(tracer.roots[0]) if s.name == "hashjoin"]


def test_unbudgeted_joins_build_right(tpch_db, tpch_params):
    for number in (3, 9, 13):
        joins = _budgeted_joins(tpch_db, tpch_params, number, None)
        assert {s.attrs["build"] for s in joins} == {"right"}, number
        assert not any("spill" in s.attrs for s in joins), number


def test_budgeted_q3_builds_left_in_memory(tpch_db, tpch_params):
    """Both of Q3's left inputs fit 256 KiB where neither right input
    does: the joins run in memory over the left side, nothing spills."""
    joins = _budgeted_joins(tpch_db, tpch_params, 3, 256 * 1024)
    assert [s.attrs["build"] for s in joins] == ["left", "left"]
    assert not any("spill" in s.attrs for s in joins)
    assert all(s.attrs.get("spilled_bytes", 0) == 0 for s in joins)


def test_grace_join_span_names_the_side_it_partitioned_for(tpch_db, tpch_params):
    # 64 KiB: Q3's second join fits neither input and goes Grace, sized
    # by (and reporting) its smaller, left input.
    joins = _budgeted_joins(tpch_db, tpch_params, 3, 64 * 1024)
    assert [s.attrs.get("spill") for s in joins] == [None, "grace-join"]
    assert [s.attrs["build"] for s in joins] == ["left", "left"]
    assert joins[1].attrs["spilled_bytes"] > 0


# ----------------------------------------------------------------------
# Group-by and DISTINCT say which factorization kernel produced their ids
# ----------------------------------------------------------------------

def _group_counts() -> dict:
    return {k: metrics.counter(f"engine.group.kernel.{k}").value for k in KERNELS}


def _traced_plan(db, plan):
    """``(spans, group-kernel counter deltas)`` of one traced serial run,
    its spans reconciled with its profile."""
    before = _group_counts()
    tracer = Tracer()
    result = Executor(db, tracer=tracer).execute(plan)
    assert_span_tree(tracer.roots[0])
    assert_reconciles(tracer.roots[0], result.profile)
    moved = {k: v - before[k] for k, v in _group_counts().items()}
    return list(iter_spans(tracer.roots[0])), moved


def test_q1_groups_by_direct_addressing(tpch_db, tpch_params):
    direct = metrics.counter("engine.group.kernel.direct")
    before = direct.value
    spans, moved = _traced_plan(tpch_db, get_query(1).build(tpch_db, tpch_params))
    aggregates = [s for s in spans if s.name == "aggregate"]
    # Two dictionary-coded keys: their code pair is the group's slot.
    assert [s.attrs["kernel"] for s in aggregates] == ["direct"]
    assert aggregates[0].attrs["groups"] == 4
    assert {"direct": direct.value - before, **moved} == {"direct": 1, "dense": 0, "sort": 0}


def test_float_keyed_group_by_sorts(tpch_db):
    plan = Q(tpch_db).scan("lineitem").aggregate(by=["l_extendedprice"], n=agg.count_star())
    spans, moved = _traced_plan(tpch_db, plan)
    assert [s.attrs["kernel"] for s in spans if s.name == "aggregate"] == ["sort"]
    assert moved == {"dense": 0, "sort": 1}


def test_distinct_span_names_its_kernel(tpch_db):
    for column, kernel in (("l_linestatus", "dense"), ("l_extendedprice", "sort")):
        plan = Q(tpch_db).scan("lineitem").distinct(column)
        spans, moved = _traced_plan(tpch_db, plan)
        assert [s.attrs["kernel"] for s in spans if s.name == "distinct"] == [kernel]
        assert moved[kernel] == 1 and sum(moved.values()) == 1


def test_global_aggregate_factorizes_nothing_and_says_so(tpch_db, tpch_params):
    spans, moved = _traced_plan(tpch_db, get_query(6).build(tpch_db, tpch_params))
    aggregates = [s for s in spans if s.name == "aggregate"]
    assert aggregates and not any("kernel" in s.attrs for s in aggregates)
    assert moved == {"dense": 0, "sort": 0}


LATE_SPANS = ("filter", "hashjoin", "sort", "topk", "distinct")


def _explained_late(text: str) -> list[tuple[str, bool]]:
    """``(operator, late tag?)`` of EXPLAIN's Filter, HashJoin, Sort, TopK
    and Distinct lines in execution order: the printed tree walked
    children first."""
    root: dict = {"line": "", "children": []}
    stack = [(-1, root)]
    for line in text.splitlines():
        m = re.match(r"( *)-> (.*)", line)
        if m is None:
            continue
        depth, node = len(m.group(1)) // 2, {"line": m.group(2), "children": []}
        while stack[-1][0] >= depth:
            stack.pop()
        stack[-1][1]["children"].append(node)
        stack.append((depth, node))

    def walk(node):
        for child in node["children"]:
            yield from walk(child)
        yield node["line"]

    kinds = {"Filter": "filter", "HashJoin": "hashjoin", "Sort": "sort",
             "TopK": "topk", "Distinct": "distinct"}
    return [
        (kinds[line.split()[0]], "[late:" in line)
        for line in walk(root)
        if line.split() and line.split()[0] in kinds
    ]


@pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
def test_late_spans_match_explain(tpch_db, tpch_params, number):
    """Every join, filter, sort, top-k and distinct span of the main
    pipeline carries ``late``, equal to EXPLAIN's ``[late: ...]`` tag for
    that node (scalar subqueries run under their own pipeline span and
    EXPLAIN does not print them). Semi and anti joins inherit their left
    input's form, and so do sorts, top-ks and distincts: each is a
    ``take`` that composes row ids."""
    plan = get_query(number).build(tpch_db, tpch_params)
    tracer = Tracer()
    Executor(tpch_db, tracer=tracer).execute(plan, label=f"Q{number}")
    main = next(s for s in iter_spans(tracer.roots[0]) if s.kind == "pipeline")
    assert main.name == "main"
    spans = [s for s in main.children if s.name in LATE_SPANS]
    assert all("late" in s.attrs for s in spans)
    got = [(s.name, s.attrs.get("late")) for s in spans]
    assert got == _explained_late(explain(plan, tpch_db)), f"Q{number}"


def test_narrow_payload_join_is_late_as_explained(tpch_db):
    """A join whose kept columns are two 4-byte date keys writes row ids
    exactly as wide as its payload. It is late all the same, as EXPLAIN
    says, and charges its row ids as output with nothing saved."""
    plan = (
        Q(tpch_db).scan("orders", ["o_orderdate"])
        .filter(col("o_orderdate") < "1992-02-01")
        .join(Q(tpch_db).scan("lineitem", ["l_receiptdate"]),
              on=[("o_orderdate", "l_receiptdate")])
        .aggregate(n=agg.count_star())
    )
    assert ("hashjoin", True) in _explained_late(explain(plan, tpch_db))
    tracer = Tracer()
    result = Executor(tpch_db, tracer=tracer).execute(plan)
    (span,) = [s for s in iter_spans(tracer.roots[0]) if s.name == "hashjoin"]
    assert span.attrs["late"] is True and span.attrs["matches"] > 0
    (work,) = [op for op in result.profile.operators if op.operator == "hashjoin"]
    row_ids = span.attrs["matches"] * 2 * 4  # two sources, int32 ids
    assert work.out_bytes == span.attrs["right_rows"] * 16 + row_ids
    assert work.saved_bytes == 0
