"""Chaos tracing: under injected faults, the query trace must carry
exactly the recovery events the RecoveryLog reports — same kinds, same
shards/nodes/attempts, same order — and a same-seed replay must produce
an identical event sequence."""

import pytest

from repro.cluster import FaultPlan, ResilientDriver, replicate_database
from repro.obs.trace import Tracer, iter_spans
from repro.tpch import get_query

CHAOS_KW = dict(p_oom=0.2, p_hang=0.15, p_drop=0.2, p_straggler=0.2)


@pytest.fixture(scope="module")
def layout(tpch_db):
    return replicate_database(tpch_db, 4, replication=2)


def _run_traced(layout, plan, number, params):
    tracer = Tracer()
    driver = ResilientDriver(layout, fault_plan=plan, tracer=tracer)
    run = driver.run(get_query(number), params)
    assert len(tracer.roots) == 1
    root = tracer.roots[0]
    assert root.kind == "query" and root.name == f"cluster:Q{number}"
    return run, root


def _recovery_events(root):
    """Root-span recovery events as (kind, shard, node, attempt)."""
    return [
        (e["name"], e["attrs"]["shard"], e["attrs"]["node"], e["attrs"]["attempt"])
        for e in root.events
    ]


class TestChaosTraceMirrorsRecoveryLog:
    def test_events_match_log_exactly(self, layout, tpch_params):
        plan = FaultPlan.chaos(5, 4, **CHAOS_KW)
        run, root = _run_traced(layout, plan, 6, tpch_params)
        assert run.recovery.events, "chaos seed 5 should inject recoverable faults"
        assert tuple(_recovery_events(root)) == run.recovery.signature()
        for event, logged in zip(root.events, run.recovery.events):
            assert event["attrs"]["charged_s"] == logged.charged_s
            assert event["attrs"]["detail"] == logged.detail
        assert root.attrs["recovery_events"] == len(run.recovery.events)
        assert root.attrs["coverage"] == 1.0

    @pytest.mark.parametrize("seed", [5, 11, 23])
    def test_same_seed_replays_identically(self, layout, tpch_params, seed):
        plan = FaultPlan.chaos(seed, 4, **CHAOS_KW)
        first, root_a = _run_traced(layout, plan, 6, tpch_params)
        replay = FaultPlan.chaos(seed, 4, **CHAOS_KW)
        second, root_b = _run_traced(layout, replay, 6, tpch_params)
        assert _recovery_events(root_a) == _recovery_events(root_b)
        assert first.recovery.signature() == second.recovery.signature()
        assert first.result.rows == second.result.rows

    def test_clean_plan_has_no_recovery_events(self, layout, tpch_params):
        run, root = _run_traced(layout, FaultPlan.none(), 6, tpch_params)
        assert run.recovery.events == []
        assert root.events == []
        assert root.attrs["recovery_events"] == 0

    def test_shard_spans_record_attempts(self, layout, tpch_params):
        plan = FaultPlan.chaos(5, 4, **CHAOS_KW)
        run, root = _run_traced(layout, plan, 6, tpch_params)
        shards = [s for s in iter_spans(root) if s.kind == "shard"]
        assert len(shards) == layout.n_nodes
        for span in shards:
            attempts = [e for e in span.events if e["name"] == "attempt"]
            assert attempts, f"{span.name} recorded no attempt events"
            assert attempts[-1]["attrs"]["outcome"] in ("ok", "drop", "oom", "hang")

    @pytest.mark.parametrize("number", [6, 13])
    def test_operator_spans_nest_under_every_shard(self, layout, tpch_params, number):
        run, root = _run_traced(layout, FaultPlan.none(), number, tpch_params)
        shards = [s for s in iter_spans(root) if s.kind == "shard"]
        assert len(shards) == len(run.shard_outcomes)
        for span in shards:
            operators = {s.name for s in iter_spans(span) if s.kind == "operator"}
            assert {"scan", "aggregate"} <= operators, span.name

    def test_single_node_route_still_traced(self, layout, tpch_params):
        # Q13 avoids lineitem -> single-node path, still one query span.
        run, root = _run_traced(layout, FaultPlan.none(), 13, tpch_params)
        assert run.single_node
        assert root.attrs["single_node"] is True
        shards = [s for s in iter_spans(root) if s.kind == "shard"]
        assert len(shards) == 1 and shards[0].name == "shard:0"
