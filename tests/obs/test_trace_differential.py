"""Differential tests: tracing must be an observer, not a participant.

Every TPC-H query runs serial and morsel-parallel, each with tracing on
and off; the traced run must return byte-identical rows and an equal
WorkProfile, and the trace itself must reconcile exactly with that
profile. The NullTracer must record nothing.
"""

import pytest

from repro.engine import Executor
from repro.obs.export import trace_to_dict, validate_trace
from repro.engine.profile import WORK_FIELDS
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, iter_spans
from repro.tpch import ALL_QUERY_NUMBERS, get_query

from ..conftest import TEST_SF


@pytest.fixture(scope="module")
def parallel_pair(tpch_db):
    """One untraced and one traced 4-worker executor, shared across
    queries (cache disabled so every run really executes)."""
    with Executor(tpch_db, workers=4) as plain, \
         Executor(tpch_db, workers=4) as traced:
        yield plain, traced


def _operator_spans(root):
    return [s for s in iter_spans(root)
            if s.kind == "operator" and not s.attrs.get("fragment")]


def _assert_reconciles(root, profile):
    spans = _operator_spans(root)
    assert [s.name for s in spans] == [o.operator for o in profile.operators]
    for span, op in zip(spans, profile.operators):
        for field in WORK_FIELDS:
            assert span.attrs.get(field, 0) == getattr(op, field), (
                f"{span.name}.{field}"
            )


@pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
def test_serial_tracing_is_pure(tpch_db, tpch_params, number):
    plan = get_query(number).build(tpch_db, tpch_params)
    plain = Executor(tpch_db).execute(plan)
    tracer = Tracer()
    traced = Executor(tpch_db, tracer=tracer).execute(plan, label=f"Q{number}")

    assert traced.rows == plain.rows
    assert traced.profile.operators == plain.profile.operators
    assert len(tracer.roots) == 1
    root = tracer.roots[0]
    assert root.kind == "query" and root.name == f"Q{number}"
    assert root.attrs["rows"] == len(plain.rows)
    _assert_reconciles(root, traced.profile)


@pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
def test_parallel_tracing_is_pure(tpch_db, tpch_params, parallel_pair, number):
    plain_ex, traced_ex = parallel_pair
    traced_ex.tracer = Tracer()
    plan = get_query(number).build(tpch_db, tpch_params)
    plain = plain_ex.execute(plan)
    traced = traced_ex.execute(plan, label=f"Q{number}")

    assert traced.rows == plain.rows
    assert traced.profile.operators == plain.profile.operators
    root = traced_ex.tracer.roots[-1]
    assert root.kind == "query" and root.name == f"Q{number}"
    _assert_reconciles(root, traced.profile)


def test_null_tracer_records_nothing(tpch_db, tpch_params):
    plan = get_query(6).build(tpch_db, tpch_params)
    null = NullTracer()
    res = Executor(tpch_db, tracer=null).execute(plan)
    assert null.roots == ()
    assert res.rows == Executor(tpch_db).execute(plan).rows
    # the default executor shares the same disabled path
    assert Executor(tpch_db).tracer is NULL_TRACER


def test_traces_export_and_validate(tpch_db, tpch_params):
    tracer = Tracer()
    executor = Executor(tpch_db, tracer=tracer)
    for number in (1, 6):
        executor.execute(get_query(number).build(tpch_db, tpch_params),
                         label=f"Q{number}")
    doc = trace_to_dict(tracer, meta={"sf": TEST_SF})
    validate_trace(doc)  # raises on schema violation
    assert [s["name"] for s in doc["spans"]] == ["Q1", "Q6"]
    assert doc["meta"]["sf"] == TEST_SF
