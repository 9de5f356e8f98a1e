"""Fault-injection layer tests: plans are deterministic values, nodes
fail exactly as scripted (paper §III-C4 failure modes)."""

import pytest

from repro.cluster import (
    FAULT_KINDS,
    FaultPlan,
    FaultingNode,
    InjectedFault,
    TransientNetworkError,
)
from repro.cluster.reliability import NodeUnresponsiveError, QueryOutOfMemoryError
from repro.engine import Result, execute
from repro.tpch import get_query


class TestInjectedFault:
    def test_valid_kinds(self):
        for kind in FAULT_KINDS:
            assert InjectedFault(kind, 0).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            InjectedFault("meteor", 0)

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError):
            InjectedFault("oom", -1)

    def test_drop_needs_positive_drops(self):
        with pytest.raises(ValueError):
            InjectedFault("drop", 0, drops=0)

    def test_straggler_slowdown_must_exceed_one(self):
        with pytest.raises(ValueError):
            InjectedFault("straggler", 0, slowdown=1.0)

    def test_pressure_must_overcommit(self):
        with pytest.raises(ValueError):
            InjectedFault("oom", 0, pressure=0.9)

    def test_sticky(self):
        assert InjectedFault("oom", 0).sticky
        assert InjectedFault("hang", 0).sticky
        assert not InjectedFault("drop", 0).sticky
        assert not InjectedFault("straggler", 0).sticky


class TestFaultPlan:
    def test_one_fault_per_node(self):
        with pytest.raises(ValueError, match="one injected fault per node"):
            FaultPlan((InjectedFault("oom", 1), InjectedFault("drop", 1)))

    def test_fault_for(self):
        plan = FaultPlan((InjectedFault("oom", 2),))
        assert plan.fault_for(2).kind == "oom"
        assert plan.fault_for(0) is None

    def test_dead_nodes_are_sticky_only(self):
        plan = FaultPlan((
            InjectedFault("oom", 0),
            InjectedFault("hang", 1),
            InjectedFault("drop", 2),
            InjectedFault("straggler", 3),
        ))
        assert plan.dead_nodes == frozenset({0, 1})

    def test_none_plan(self):
        plan = FaultPlan.none()
        assert plan.faults == ()
        assert plan.dead_nodes == frozenset()
        assert plan.describe() == "fault plan: none"

    def test_describe_mentions_every_fault(self):
        plan = FaultPlan((
            InjectedFault("straggler", 1, slowdown=6.0),
            InjectedFault("drop", 0, drops=2),
        ))
        text = plan.describe()
        assert "node 0: drop x2" in text
        assert "node 1: straggler x6.0" in text


class TestChaos:
    def test_same_seed_same_plan(self):
        assert FaultPlan.chaos(7, 16) == FaultPlan.chaos(7, 16)

    def test_different_seeds_differ(self):
        plans = {FaultPlan.chaos(seed, 16).faults for seed in range(20)}
        assert len(plans) > 1

    def test_at_most_one_fault_per_node(self):
        for seed in range(10):
            plan = FaultPlan.chaos(seed, 24)
            nodes = [f.node for f in plan.faults]
            assert len(nodes) == len(set(nodes))

    def test_probability_zero_is_faultless(self):
        plan = FaultPlan.chaos(1, 8, p_oom=0, p_hang=0, p_drop=0, p_straggler=0)
        assert plan.faults == ()

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.chaos(1, 8, p_oom=0.9, p_drop=0.9)
        with pytest.raises(ValueError):
            FaultPlan.chaos(1, 8, p_oom=-0.1)
        with pytest.raises(ValueError):
            FaultPlan.chaos(1, 0)

    def test_seed_recorded(self):
        assert FaultPlan.chaos(11, 4).seed == 11


class TestFaultingNode:
    @pytest.fixture(scope="class")
    def plan6(self, tpch_db, tpch_params):
        return get_query(6).build(tpch_db, tpch_params).node

    def test_healthy_node_returns_real_result(self, tpch_db, tpch_params, plan6):
        node = FaultingNode(0)
        attempt = node.execute(tpch_db, plan6, shard=3, attempt=0)
        reference = execute(tpch_db, get_query(6).build(tpch_db, tpch_params))
        assert Result(attempt.frame, attempt.profile).rows == reference.rows
        assert attempt.shard == 3
        assert attempt.estimate_s > 0
        assert attempt.simulated_s == attempt.estimate_s  # no slowdown

    def test_oom_raises_every_attempt(self, tpch_db, plan6):
        node = FaultingNode(1, FaultPlan((InjectedFault("oom", 1, pressure=1.4),)))
        for attempt in range(3):
            with pytest.raises(QueryOutOfMemoryError) as excinfo:
                node.execute(tpch_db, plan6, attempt=attempt)
            assert excinfo.value.node == 1
            assert excinfo.value.pressure == pytest.approx(1.4)

    def test_hang_raises_every_attempt(self, tpch_db, plan6):
        node = FaultingNode(2, FaultPlan((InjectedFault("hang", 2),)))
        with pytest.raises(NodeUnresponsiveError):
            node.execute(tpch_db, plan6)

    def test_drop_recovers_after_scripted_attempts(self, tpch_db, plan6):
        node = FaultingNode(0, FaultPlan((InjectedFault("drop", 0, drops=2),)))
        for attempt in range(2):
            with pytest.raises(TransientNetworkError):
                node.execute(tpch_db, plan6, attempt=attempt)
        result = node.execute(tpch_db, plan6, attempt=2)
        assert result.frame.nrows == 1

    def test_straggler_succeeds_with_slowdown(self, tpch_db, plan6):
        node = FaultingNode(0, FaultPlan((InjectedFault("straggler", 0, slowdown=5.0),)))
        attempt = node.execute(tpch_db, plan6)
        assert attempt.slowdown == 5.0
        assert attempt.simulated_s == pytest.approx(5.0 * attempt.estimate_s)

    def test_attempt_is_priced_by_the_hook(self, tpch_db, plan6):
        seen = []

        def price(node, db, plan, profile):
            seen.append((node, db, plan))
            return 2.0, 0.5, True

        plan = FaultPlan((InjectedFault("straggler", 3, slowdown=5.0),))
        attempt = FaultingNode(3, plan, price).execute(tpch_db, plan6)
        assert seen == [(3, tpch_db, plan6)]
        assert (attempt.estimate_s, attempt.pressure) == (2.0, 0.5)
        assert attempt.simulated_s == 10.0

    def test_straggler_spares_a_fragment_run_off_the_node(self, tpch_db, plan6):
        plan = FaultPlan((InjectedFault("straggler", 3, slowdown=5.0),))
        attempt = FaultingNode(3, plan, lambda *_: (2.0, 1.5, False)).execute(
            tpch_db, plan6
        )
        assert attempt.slowdown == 1.0
        assert attempt.simulated_s == 2.0

    def test_fault_on_other_node_is_ignored(self, tpch_db, plan6):
        node = FaultingNode(0, FaultPlan((InjectedFault("oom", 1),)))
        assert node.execute(tpch_db, plan6).frame.nrows == 1
