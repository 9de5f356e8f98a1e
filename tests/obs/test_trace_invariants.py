"""Property tests over randomly generated plans: trace spans form a
proper tree, EXPLAIN operators appear exactly once per pipeline, and
non-fragment operator spans reconcile exactly with the WorkProfile."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, Executor, Q, Table, agg, col, physical
from repro.engine.column import Column
from repro.engine.explain import explain
from repro.engine.profile import WORK_FIELDS
from repro.obs.trace import Tracer, iter_spans

N_ROWS = 600


def _build_db() -> Database:
    rng = np.random.default_rng(7)
    db = Database("inv")
    db.add(Table("t", {
        "k": Column.from_ints(rng.integers(0, 5, N_ROWS).tolist()),
        "v": Column.from_ints(rng.integers(0, 100, N_ROWS).tolist()),
        "w": Column.from_floats(np.round(rng.random(N_ROWS), 3).tolist()),
    }))
    db.add(Table("u", {
        "k2": Column.from_ints(list(range(5))),
        "tag": Column.from_ints([10, 20, 30, 40, 50]),
    }))
    db.build_zone_maps()
    return db


DB = _build_db()


@pytest.fixture(scope="module")
def parallel():
    # Lowering reads the threshold at every execution, so the patch
    # spans the fixture's life: the 600-row table must split.
    with pytest.MonkeyPatch.context() as patch, \
            Executor(DB, workers=3, morsel_rows=128) as ex:
        patch.setattr(physical, "MIN_PARALLEL_ROWS", 1)
        yield ex


# -- plan generation --------------------------------------------------------

plan_specs = st.fixed_dictionaries({
    "filter": st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
    "filter_op": st.sampled_from(["lt", "ge"]),
    "join": st.booleans(),
    "shape": st.sampled_from(["none", "project", "distinct"]),
    "agg": st.sampled_from(["none", "global", "by_k"]),
    "tail": st.sampled_from(["none", "sort", "limit", "topk"]),
})


def build_plan(spec) -> Q:
    q = Q(DB).scan("t")
    if spec["filter"] is not None:
        pred = (col("v") < spec["filter"] if spec["filter_op"] == "lt"
                else col("v") >= spec["filter"])
        q = q.filter(pred)
    if spec["join"]:
        q = q.join("u", on=[("k", "k2")])
    value_col = "v"  # a numeric column guaranteed to exist downstream
    if spec["shape"] == "project":
        q = q.project(k="k", vv=col("v") * 2)
        value_col = "vv"
    elif spec["shape"] == "distinct":
        q = q.distinct("k")
        value_col = "k"
    if spec["agg"] == "global":
        q = q.aggregate(total=agg.sum(col(value_col)))
        sort_key = "total"
    elif spec["agg"] == "by_k":
        q = q.aggregate(["k"], n=agg.count_star())
        sort_key = "k"
    else:
        sort_key = "k"
    if spec["tail"] == "sort":
        q = q.sort((sort_key, "desc"))
    elif spec["tail"] == "limit":
        q = q.limit(10)
    elif spec["tail"] == "topk":
        q = q.sort((sort_key, "desc")).limit(5)
    return q


# -- invariant helpers ------------------------------------------------------

def assert_span_tree(root):
    """Spans nest properly: children inside parents, same-thread
    siblings strictly ordered without overlap."""
    for span in iter_spans(root):
        assert span.end_s is not None, f"unfinished span {span.kind}:{span.name}"
        assert span.end_s >= span.start_s
        for child in span.children:
            assert child.start_s >= span.start_s
            assert child.end_s <= span.end_s
        by_thread = collections.defaultdict(list)
        for child in span.children:
            by_thread[child.thread].append(child)
        for siblings in by_thread.values():
            ordered = sorted(siblings, key=lambda s: (s.start_s, s.end_s))
            for prev, nxt in zip(ordered, ordered[1:]):
                assert prev.end_s <= nxt.start_s, (
                    f"same-thread siblings overlap: {prev.name} / {nxt.name}"
                )


def explain_operator_multiset(executor, plan):
    """Operator names EXPLAIN prints for the tree ``executor`` runs: the
    first word of each ``-> `` line. EXPLAIN prints the lowered plan
    verbatim, one line per profile operator, so there is nothing to
    re-derive here."""
    text = explain(executor.lower(plan), executor.db, optimize=False,
                   settings=executor.settings)
    return collections.Counter(
        line.split()[1].lower()
        for line in text.splitlines()
        if line.lstrip().startswith("-> ")
    )


def operator_spans(root):
    return [s for s in iter_spans(root)
            if s.kind == "operator" and not s.attrs.get("fragment")]


def assert_reconciles(root, profile):
    """Non-fragment operator spans correspond 1:1, in order, with the
    profile's operators — every work field matches exactly."""
    spans = operator_spans(root)
    assert [s.name for s in spans] == [o.operator for o in profile.operators]
    for span, op in zip(spans, profile.operators):
        for field in WORK_FIELDS:
            assert span.attrs.get(field, 0) == getattr(op, field), (
                f"{span.name}.{field}: span={span.attrs.get(field, 0)} "
                f"profile={getattr(op, field)}"
            )
    for field in WORK_FIELDS:
        assert sum(s.attrs.get(field, 0) for s in spans) == sum(
            getattr(o, field) for o in profile.operators
        )


def run_and_check(executor, plan, check_explain=True):
    tracer = executor.tracer
    before = len(tracer.roots)
    res = executor.execute(plan)
    assert len(tracer.roots) == before + 1
    root = tracer.roots[-1]
    assert root.kind == "query"
    assert_span_tree(root)
    assert_reconciles(root, res.profile)
    pipelines = [s for s in iter_spans(root) if s.kind == "pipeline"]
    assert pipelines and pipelines[0].name == "main"
    if check_explain:
        got = collections.Counter(s.name for s in operator_spans(root))
        assert got == explain_operator_multiset(executor, plan)
    return res


# -- properties -------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(spec=plan_specs)
def test_serial_trace_invariants(spec):
    executor = Executor(DB, tracer=Tracer())
    run_and_check(executor, build_plan(spec))


@settings(max_examples=25, deadline=None)
@given(spec=plan_specs)
def test_parallel_trace_invariants(spec, parallel):
    parallel.tracer = Tracer()
    res = run_and_check(parallel, build_plan(spec))
    root = parallel.tracer.roots[-1]
    morsels = [s for s in iter_spans(root) if s.kind == "morsel"]
    for m in morsels:
        assert all(c.kind == "operator" and c.attrs.get("fragment")
                   for c in m.children)


def test_union_all_traced():
    left = Q(DB).scan("t").filter(col("v") < 50).select("k", "v")
    right = Q(DB).scan("t").filter(col("v") >= 50).select("k", "v")
    plan = left.union_all(right).aggregate(["k"], n=agg.count_star())
    executor = Executor(DB, tracer=Tracer())
    res = run_and_check(executor, plan)
    assert res.frame.nrows == 5


def test_fragment_spans_sum_to_coalesced_span_or_less(parallel):
    """Per-morsel fragment spans cover the parallel portion of each
    operator's work; the coalesced marker holds the merged total, which
    also includes merge-phase and boundary charges."""
    parallel.tracer = Tracer()
    res = parallel.execute(
        Q(DB).scan("t").filter(col("v") < 70).aggregate(["k"], s=agg.sum(col("w")))
    )
    root = parallel.tracer.roots[-1]
    frags = collections.defaultdict(float)
    for s in iter_spans(root):
        if s.kind == "operator" and s.attrs.get("fragment"):
            frags[s.name] += s.attrs.get("tuples_in", 0)
    coalesced = {s.name: s for s in iter_spans(root)
                 if s.kind == "operator" and s.attrs.get("coalesced")}
    assert coalesced, "parallel segment emitted no coalesced markers"
    for name, span in coalesced.items():
        assert span.end_s == span.start_s  # zero-length marker
        assert frags[name] <= span.attrs.get("tuples_in", 0) or frags[name] == 0
    assert_reconciles(root, res.profile)


def test_spill_counters_reconcile_on_a_budgeted_q9(tpch_db, tpch_params):
    """Operator spans snapshot every OperatorWork counter, the three
    spill counters included: on a Q9 that Grace-partitions (and
    re-partitions) under a one-byte budget, spans and profile agree."""
    from repro.tpch import get_query

    executor = Executor(tpch_db, memory_budget=1, tracer=Tracer())
    res = executor.execute(get_query(9).build(tpch_db, tpch_params), label="Q9")
    root = executor.tracer.roots[-1]
    assert_reconciles(root, res.profile)
    for field in ("spilled_bytes", "spill_partitions", "respill_depth"):
        assert field in WORK_FIELDS
        assert getattr(res.profile, field) > 0
        assert sum(s.attrs.get(field, 0) for s in operator_spans(root)) == getattr(
            res.profile, field
        )
