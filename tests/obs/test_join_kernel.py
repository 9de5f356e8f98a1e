"""Decisions taken, not predicted: every hashjoin span says which probe
kernel ran and which input was the build side, and the two registry
counters agree with the spans."""

import collections

from repro.engine import Executor
from repro.obs.metrics import metrics
from repro.obs.trace import Tracer, iter_spans
from repro.tpch import get_query

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
