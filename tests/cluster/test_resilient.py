"""Resilient driver tests: retries, failover, speculation, degradation.

Everything here runs real executions under scripted faults; correctness
is judged against plain single-node execution of the same query.
"""

import math

import pytest

from repro.cluster import (
    FaultPlan,
    InjectedFault,
    RecoveryPolicy,
    ResilientDriver,
    replicate_database,
)
from repro.engine import execute
from repro.tpch import ALL_QUERY_NUMBERS, get_query


def _rows_close(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert len(ra) == len(rb)
        for va, vb in zip(ra, rb):
            if isinstance(va, float) or isinstance(vb, float):
                assert math.isclose(float(va), float(vb), rel_tol=1e-6, abs_tol=1e-6)
            else:
                assert va == vb


@pytest.fixture(scope="module")
def layout(tpch_db):
    return replicate_database(tpch_db, 4, replication=2)


def make_driver(layout, faults=(), **policy_kwargs):
    return ResilientDriver(
        layout,
        fault_plan=FaultPlan(tuple(faults)),
        policy=RecoveryPolicy(**policy_kwargs) if policy_kwargs else None,
    )


class TestRecoveryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RecoveryPolicy(backoff_base_s=0.1, backoff_cap_s=0.3)
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(2) == pytest.approx(0.3)  # capped
        assert policy.backoff_s(10) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_base_s=1.0, backoff_cap_s=0.5)
        with pytest.raises(ValueError):
            RecoveryPolicy(timeout_factor=1.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(fallback_timeout_s=0.0)


class TestFaultFree:
    def test_matches_single_node(self, tpch_db, tpch_params, layout):
        driver = make_driver(layout)
        run = driver.run(get_query(6), tpch_params)
        single = execute(tpch_db, get_query(6).build(tpch_db, tpch_params))
        _rows_close(run.result.rows, single.rows)
        assert run.coverage == 1.0
        assert not run.degraded
        assert run.recovery.events == []
        assert all(o.status == "ok" for o in run.shard_outcomes)
        assert run.exec_nodes == [0, 1, 2, 3]  # primaries

    def test_zero_overhead_without_faults(self, tpch_params, layout):
        run = make_driver(layout).run(get_query(1), tpch_params)
        assert all(o.overhead_s == 0.0 for o in run.shard_outcomes)

    def test_partials_are_one_small_frame_per_node(self, tpch_params, layout):
        """Partial aggregates are tiny compared to base data — the whole
        point of the paper's driver strategy."""
        run = make_driver(layout).run(get_query(6), tpch_params)
        assert not run.single_node
        assert run.node_results_rows == [1, 1, 1, 1]
        assert len(run.node_profiles) == 4
        run = make_driver(layout).run(get_query(1), tpch_params)
        assert all(b < 10_000 for b in run.partial_bytes_per_node)


class TestTransientRetry:
    def test_drop_retried_on_same_node(self, tpch_db, tpch_params, layout):
        driver = make_driver(layout, [InjectedFault("drop", 1, drops=2)])
        run = driver.run(get_query(6), tpch_params)
        single = execute(tpch_db, get_query(6).build(tpch_db, tpch_params))
        _rows_close(run.result.rows, single.rows)
        assert run.coverage == 1.0
        assert run.recovery.count("retry") == 2
        assert run.recovery.count("failover") == 0
        outcome = run.shard_outcomes[1]
        assert outcome.status == "ok"  # primary eventually answered
        assert outcome.winner.node == 1
        assert outcome.winner.attempt == 2

    def test_backoff_charged_as_fixed_overhead(self, tpch_params, layout):
        driver = make_driver(layout, [InjectedFault("drop", 1, drops=2)])
        run = driver.run(get_query(6), tpch_params)
        outcome = run.shard_outcomes[1]
        policy, net = driver.policy, driver.network
        expected = sum(policy.backoff_s(a) + net.resend_time() for a in (0, 1))
        assert outcome.overhead_s == pytest.approx(expected)
        # Backoff and re-sends are all the overhead: nothing else charged.
        assert outcome.completion_s == pytest.approx(
            expected + outcome.winner.simulated_s
        )

    def test_drops_beyond_retry_budget_fail_over(self, tpch_db, tpch_params, layout):
        driver = make_driver(
            layout, [InjectedFault("drop", 1, drops=3)], max_retries=2
        )
        run = driver.run(get_query(6), tpch_params)
        assert run.coverage == 1.0
        assert run.shard_outcomes[1].status == "recovered"
        assert run.shard_outcomes[1].winner.node == 2  # buddy replica
        assert run.recovery.count("failover") == 1


class TestReplicaRecovery:
    @pytest.mark.parametrize("kind,event", [("oom", "oom"), ("hang", "timeout")])
    def test_dead_primary_recovers_from_buddy(
        self, tpch_db, tpch_params, layout, kind, event
    ):
        driver = make_driver(layout, [InjectedFault(kind, 1)])
        run = driver.run(get_query(1), tpch_params)
        single = execute(tpch_db, get_query(1).build(tpch_db, tpch_params))
        _rows_close(run.result.rows, single.rows)
        assert run.coverage == 1.0
        outcome = run.shard_outcomes[1]
        assert outcome.status == "recovered"
        assert outcome.winner.node == 2
        assert run.recovery.count(event) == 1
        assert run.recovery.count("failover") == 1
        # The abandoned attempt costs estimate-derived time.
        assert outcome.overhead_s > 0

    def test_timeout_charges_factor_times_estimate(self, tpch_params, layout):
        driver = make_driver(layout, [InjectedFault("hang", 2)], timeout_factor=6.0)
        run = driver.run(get_query(6), tpch_params)
        [timeout] = [e for e in run.recovery.events if e.kind == "timeout"]
        estimates = sorted(
            o.winner.estimate_s for o in run.shard_outcomes if o.winner is not None
        )
        median = (estimates[1] + estimates[2]) / 2 if len(estimates) == 4 else estimates[len(estimates) // 2]
        assert timeout.charged_s == pytest.approx(6.0 * median)

    def test_two_dead_nodes_still_complete(self, tpch_db, tpch_params):
        """Replication 3 survives two sticky failures on one shard's
        holders."""
        layout3 = replicate_database(tpch_db, 4, replication=3)
        driver = make_driver(
            layout3, [InjectedFault("oom", 1), InjectedFault("hang", 2)]
        )
        run = driver.run(get_query(6), tpch_params)
        single = execute(tpch_db, get_query(6).build(tpch_db, tpch_params))
        assert run.coverage == 1.0
        _rows_close(run.result.rows, single.rows)


class TestSpeculation:
    def test_straggler_gets_speculative_copy(self, tpch_db, tpch_params, layout):
        driver = make_driver(layout, [InjectedFault("straggler", 2, slowdown=50.0)])
        run = driver.run(get_query(6), tpch_params)
        single = execute(tpch_db, get_query(6).build(tpch_db, tpch_params))
        _rows_close(run.result.rows, single.rows)
        assert run.recovery.count("speculate") == 1
        outcome = run.shard_outcomes[2]
        assert outcome.status == "recovered"
        assert outcome.winner.node == 3  # buddy replica adopted
        # Adopting the copy beats riding out the straggler.
        straggler_s = next(
            r.result.simulated_s
            for r in outcome.attempts
            if r.result is not None and r.result.slowdown > 1.0
        )
        assert outcome.completion_s < straggler_s

    def test_mild_straggler_not_speculated(self, tpch_params, layout):
        """Below the timeout_factor threshold nothing happens."""
        driver = make_driver(
            layout, [InjectedFault("straggler", 2, slowdown=2.0)], timeout_factor=4.0
        )
        run = driver.run(get_query(6), tpch_params)
        assert run.recovery.count("speculate") == 0
        assert run.shard_outcomes[2].winner.node == 2

    def test_speculation_disabled(self, tpch_params, layout):
        driver = make_driver(
            layout, [InjectedFault("straggler", 2, slowdown=50.0)], speculate=False
        )
        run = driver.run(get_query(6), tpch_params)
        assert run.recovery.count("speculate") == 0
        assert run.shard_outcomes[2].winner.node == 2


class TestDegradation:
    def test_unrecoverable_shard_degrades_not_crashes(self, tpch_params, layout):
        # Both holders of shard 1 (nodes 1 and 2) are sticky-dead.
        driver = make_driver(
            layout, [InjectedFault("oom", 1), InjectedFault("hang", 2)]
        )
        run = driver.run(get_query(6), tpch_params)
        assert run.degraded
        assert 0.0 < run.coverage < 1.0
        assert run.result is not None  # partial answer, not a crash
        assert run.recovery.count("lost") >= 1
        lost = [o for o in run.shard_outcomes if o.status == "lost"]
        assert [o.shard for o in lost] == [1]
        assert run.coverage == pytest.approx(
            1.0 - layout.shard_rows(1) / layout.total_rows
        )

    def test_coverage_reported_in_report(self, tpch_params, layout):
        driver = make_driver(
            layout, [InjectedFault("oom", 1), InjectedFault("hang", 2)]
        )
        run = driver.run(get_query(6), tpch_params)
        text = run.report()
        assert "DEGRADED" in text
        assert "lost" in text
        assert f"coverage {run.coverage:.3f}" in text

    def test_all_nodes_dead_yields_no_result(self, tpch_db, tpch_params):
        layout1 = replicate_database(tpch_db, 2, replication=1)
        driver = make_driver(
            layout1, [InjectedFault("oom", 0), InjectedFault("oom", 1)]
        )
        run = driver.run(get_query(6), tpch_params)
        assert run.result is None
        assert run.coverage == 0.0
        assert run.degraded


class TestSingleNodeFallback:
    @pytest.mark.parametrize("number", [11, 13])
    def test_non_lineitem_query_gathers_nothing(self, tpch_params, layout, number):
        run = make_driver(layout).run(get_query(number), tpch_params)
        assert run.single_node
        assert run.exec_nodes == [0]
        assert run.partial_bytes_per_node == []
        assert run.merge_profile is None

    def test_one_node_cluster_bypasses_rewrite(self, tpch_db, tpch_params):
        solo = make_driver(replicate_database(tpch_db, 1, replication=1))
        run = solo.run(get_query(6), tpch_params)
        assert run.single_node

    def test_fallback_host_leads_the_failover_order(self, tpch_params, layout):
        healthy = make_driver(layout).run(get_query(13), tpch_params, fallback_host=2)
        assert healthy.exec_nodes == [2]
        assert healthy.shard_outcomes[0].status == "ok"
        dead = make_driver(layout, [InjectedFault("hang", 2)])
        run = dead.run(get_query(13), tpch_params, fallback_host=2)
        assert run.exec_nodes == [0]
        assert run.recovery.signature() == (("timeout", 0, 2, 0), ("failover", 0, 0, 0))

    def test_speculation_decision_matches_the_sharded_path(self, tpch_params, layout):
        """Backoff paid inside the speculative chain counts against the
        copy on one node exactly as it does on a shard: with the
        straggler only just past the threshold, two drops on the backup
        tip the decision to 'decline' in both paths."""
        policy = dict(timeout_factor=4.0, backoff_base_s=50.0, backoff_cap_s=100.0)
        for number, shard, faults in (
            (11, 0, [InjectedFault("straggler", 0, slowdown=6.0),
                     InjectedFault("drop", 1, drops=2)]),
            (6, 2, [InjectedFault("straggler", 2, slowdown=6.0),
                    InjectedFault("drop", 3, drops=2)]),
        ):
            run = make_driver(layout, faults, **policy).run(get_query(number), tpch_params)
            outcome = run.shard_outcomes[shard]
            assert [r.outcome for r in outcome.attempts if r.speculative] == [
                "drop", "drop", "ok",
            ], number
            assert run.recovery.count("speculate") == 0, number
            assert outcome.winner.slowdown == 6.0, number
            # Without the drops the same copy is adopted.
            run = make_driver(layout, faults[:1], **policy).run(
                get_query(number), tpch_params
            )
            assert run.recovery.count("speculate") == 1, number

    def test_non_lineitem_query_fails_over(self, tpch_db, tpch_params, layout):
        driver = make_driver(layout, [InjectedFault("oom", 0)])
        run = driver.run(get_query(11), tpch_params)  # no lineitem
        single = execute(tpch_db, get_query(11).build(tpch_db, tpch_params))
        assert run.single_node
        _rows_close(run.result.rows, single.rows)
        assert run.exec_nodes == [1]  # node 0 skipped
        assert run.recovery.count("failover") == 1

    @pytest.mark.parametrize("number", [15, 17, 20])
    def test_undistributable_lineitem_queries_use_full_catalog(
        self, tpch_db, tpch_params, layout, number
    ):
        """Q15/Q20 (nested lineitem scans) and Q17 (per-shard divergent
        nested AVG) must run against the whole table, not one shard."""
        run = make_driver(layout).run(get_query(number), tpch_params)
        single = execute(tpch_db, get_query(number).build(tpch_db, tpch_params))
        assert run.single_node
        _rows_close(run.result.rows, single.rows)


class TestDeterminism:
    def test_same_plan_same_everything(self, tpch_params, layout):
        faults = [
            InjectedFault("oom", 0),
            InjectedFault("drop", 2, drops=1),
            InjectedFault("straggler", 3, slowdown=40.0),
        ]
        runs = [
            make_driver(layout, faults).run(get_query(1), tpch_params)
            for _ in range(2)
        ]
        assert runs[0].result.rows == runs[1].result.rows  # bit-identical
        assert runs[0].recovery.signature() == runs[1].recovery.signature()
        assert runs[0].recovery.charged_s == runs[1].recovery.charged_s
        assert [o.completion_s for o in runs[0].shard_outcomes] == [
            o.completion_s for o in runs[1].shard_outcomes
        ]

    def test_chaos_seed_reproducible_end_to_end(self, tpch_db, tpch_params):
        def run_once():
            layout = replicate_database(tpch_db, 4, replication=2)
            driver = ResilientDriver(layout, fault_plan=FaultPlan.chaos(5, 4))
            return driver.run(get_query(6), tpch_params)

        a, b = run_once(), run_once()
        assert a.recovery.signature() == b.recovery.signature()
        if a.result is not None:
            assert a.result.rows == b.result.rows


class TestAllQueriesFaultFree:
    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    def test_matches_single_node(self, tpch_db, tpch_params, layout, number):
        """Every one of the 22 queries agrees with plain execution under
        the driver — including Q15/Q17/Q20, which a shard-local
        fallback would get wrong."""
        run = make_driver(layout).run(get_query(number), tpch_params)
        single = execute(tpch_db, get_query(number).build(tpch_db, tpch_params))
        _rows_close(run.result.rows, single.rows)
        assert run.coverage == 1.0
