"""Decisions taken, not predicted: every hashjoin span says which probe
kernel ran, and the two registry counters agree with the spans."""

import collections

from repro.engine import Executor
from repro.obs.metrics import metrics
from repro.obs.trace import Tracer, iter_spans
from repro.tpch import get_query

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
