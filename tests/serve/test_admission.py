"""Unit coverage for the admission controller, retry policy, and
circuit breaker — the policy layer the server composes."""

from __future__ import annotations

import threading
import time

import pytest

import collections

from repro.engine import Column, Database, Table
from repro.engine import optimizer as optimizer_module
from repro.engine.sql import SqlError, planner as planner_module, sql as parse_sql
from repro.obs import metrics
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    CircuitBreaker,
    CircuitOpen,
    Overloaded,
    QueryServer,
    RetryPolicy,
)


class TestAdmissionPolicy:
    def test_resolve_derives_limits_from_workers(self):
        policy = AdmissionPolicy().resolve(workers=4)
        assert policy.max_concurrent == 4
        assert policy.queue_capacity == 16

    def test_resolve_keeps_explicit_values(self):
        policy = AdmissionPolicy(max_concurrent=2, queue_capacity=3).resolve(8)
        assert policy.max_concurrent == 2
        assert policy.queue_capacity == 3

    def test_resolve_floors_at_one_slot(self):
        assert AdmissionPolicy().resolve(workers=0).max_concurrent == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_concurrent": 0},
            {"queue_capacity": -1},
            {"max_queue_delay_s": 0},
            {"initial_service_s": -1.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionPolicy(**kwargs)

    def test_unresolved_policy_rejected_by_controller(self):
        with pytest.raises(ValueError):
            AdmissionController(AdmissionPolicy())


def _controller(**kwargs) -> AdmissionController:
    defaults = dict(
        max_concurrent=2, queue_capacity=2, max_queue_delay_s=1e9,
        initial_service_s=0.05,
    )
    defaults.update(kwargs)
    return AdmissionController(AdmissionPolicy(**defaults))


class TestAdmissionController:
    def test_admit_start_finish_accounting(self):
        ctl = _controller()
        ctl.admit()
        assert ctl.snapshot()["waiting"] == 1
        ctl.start(queued_s=0.01)
        snap = ctl.snapshot()
        assert snap["waiting"] == 0
        assert snap["running"] == 1
        ctl.finish(service_s=0.02)
        assert ctl.snapshot()["running"] == 0

    def test_queue_full_sheds(self):
        ctl = _controller(queue_capacity=2)
        ctl.admit()
        ctl.admit()
        with pytest.raises(Overloaded) as exc_info:
            ctl.admit()
        assert exc_info.value.reason == "queue-full"

    def test_projected_delay_sheds(self):
        # One waiter ahead at 10s EWMA over 2 slots projects 5s > 1ms.
        ctl = _controller(
            queue_capacity=100, max_queue_delay_s=0.001, initial_service_s=10.0
        )
        ctl.admit()
        with pytest.raises(Overloaded) as exc_info:
            ctl.admit()
        assert exc_info.value.reason == "queue-delay"

    def test_running_at_limit_does_not_count_as_backlog(self):
        ctl = _controller(
            max_concurrent=1, queue_capacity=100,
            max_queue_delay_s=0.001, initial_service_s=10.0,
        )
        ctl.admit()
        ctl.start(0.0)
        # running == max_concurrent is full utilization, not backlog:
        # the next arrival waits zero projected queue time and gets in.
        ctl.admit()
        # The one after it, though, would wait behind a real waiter.
        with pytest.raises(Overloaded) as exc_info:
            ctl.admit()
        assert exc_info.value.reason == "queue-delay"

    def test_ewma_tracks_service_times(self):
        ctl = _controller(initial_service_s=1.0)
        ctl.admit()
        ctl.start(0.0)
        ctl.finish(service_s=0.0)
        # alpha=0.3: 0.7 * 1.0 + 0.3 * 0.0
        assert ctl.snapshot()["ewma_service_s"] == pytest.approx(0.7)

    def test_negative_service_time_skips_ewma(self):
        # Shed/cancelled requests must not drag the estimate to zero.
        ctl = _controller(initial_service_s=1.0)
        ctl.admit()
        ctl.start(0.0)
        ctl.finish(service_s=-1.0)
        assert ctl.snapshot()["ewma_service_s"] == 1.0

    def test_release_unstarted_frees_the_slot(self):
        ctl = _controller(queue_capacity=1)
        ctl.admit()
        with pytest.raises(Overloaded):
            ctl.admit()
        ctl.release_unstarted()
        ctl.admit()  # slot is back

    def test_breaker_gates_the_front_door(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        ctl = AdmissionController(
            AdmissionPolicy(max_concurrent=1, queue_capacity=10), breaker=breaker
        )
        ctl.admit()
        breaker.record_failure()
        with pytest.raises(CircuitOpen):
            ctl.admit()

    def test_concurrent_admits_respect_capacity(self):
        ctl = _controller(max_concurrent=4, queue_capacity=8)
        admitted, shed = [], []
        barrier = threading.Barrier(16)

        def client(i):
            barrier.wait()
            try:
                ctl.admit()
                admitted.append(i)
            except Overloaded:
                shed.append(i)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 8  # exactly queue_capacity made it in
        assert len(shed) == 8
        assert ctl.snapshot()["waiting"] == 8


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(max_retries=5, backoff_base_s=0.01, backoff_cap_s=0.05)
        assert policy.backoff_s(0) == pytest.approx(0.01)
        assert policy.backoff_s(1) == pytest.approx(0.02)
        assert policy.backoff_s(2) == pytest.approx(0.04)
        assert policy.backoff_s(3) == pytest.approx(0.05)  # capped
        assert policy.backoff_s(10) == pytest.approx(0.05)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=0.5, backoff_cap_s=0.1)


class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=60.0)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == "closed"
            assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.02)
        breaker.record_failure()
        assert not breaker.allow()
        time.sleep(0.03)
        assert breaker.allow()  # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # second caller waits for the probe

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.02)
        breaker.record_failure()
        time.sleep(0.03)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.02)
        breaker.record_failure()
        time.sleep(0.03)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=0)


@pytest.fixture()
def sized_db() -> Database:
    """A big and a small table: a query over ``big`` takes far longer
    than one over ``small``."""
    db = Database("sized")
    db.add(Table("big", {
        "v": Column.from_ints(range(200_000)),
        "g": Column.from_ints([i % 5 for i in range(200_000)]),
    }))
    db.add(Table("small", {"v": Column.from_ints(range(10))}))
    return db


GROUPED_SQL = "SELECT g, SUM(v) AS s FROM big GROUP BY g"


class TestUnplannablePayloads:
    def test_ticket_resolves_with_its_error(self, sized_db):
        # Garbage must never raise out of submit — the error lands on
        # the ticket.
        errors = metrics.counter("serve.sql_errors")
        before = errors.value
        with QueryServer(sized_db, workers=1) as server:
            for payload in ("SELEC oops FROM nowhere", object()):
                ticket = server.submit(payload)
                with pytest.raises(SqlError):
                    ticket.result(timeout=30)
                assert ticket.outcome == "sql-error"
        assert errors.value - before == 2


class TestOneFrontendTrip:
    def test_request_is_parsed_optimized_and_routed_once(self, sized_db, monkeypatch):
        """``submit`` prepares the request — parse, optimize, mine,
        route — and the worker executes that plan as is."""
        from repro.rollup import enable_rollups

        enable_rollups(sized_db, plans=[parse_sql(sized_db, GROUPED_SQL)])
        calls = collections.Counter()

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        # Each is reached through its module global exactly once per
        # sql() / optimize_plan() call, however the callers imported those.
        count(planner_module, "parse_statement")
        count(optimizer_module, "pushdown_predicates")
        with QueryServer(sized_db, workers=1) as server:
            routed = metrics.counter("rollup.router.hits")
            before = routed.value
            assert len(server.query(GROUPED_SQL).rows) == 5
            assert routed.value - before == 1
            assert dict(calls) == {"parse_statement": 1, "pushdown_predicates": 1}
            assert len(server.miner) == 1

            # A second request, a seen shape with a new WHERE literal:
            # it re-binds into the prepared plan, and none of the
            # frontend's passes runs again — yet its routing decision
            # and mined shape still count.
            from repro.rollup import miner as miner_module
            from repro.rollup import router as router_module

            count(miner_module, "aggregate_shape")
            count(router_module, "aggregate_shape")
            count(router_module, "route_plan")
            filtered = "SELECT g, SUM(v) AS s FROM big WHERE g >= {} GROUP BY g"
            assert len(server.query(filtered.format(1)).rows) == 4
            calls.clear()
            before = routed.value
            rows = server.query(filtered.format(3)).rows
            assert sorted(rows) == [
                (g, sum(range(g, 200_000, 5))) for g in (3, 4)
            ]
            assert dict(calls) == {}
            assert routed.value - before == 1
            assert server.stats()["prepared"] == {"entries": 2, "hits": 1, "misses": 2}
            assert len(server.miner) == 1 and server.miner.mine()[0].observations == 3


class _GatedServer(QueryServer):
    """Single-purpose copy of the server-test gate: executions block on
    an event so the dispatch queue builds a deterministic backlog."""

    def __init__(self, *args, **kwargs):
        self.gate = threading.Event()
        self.executed: list[str] = []
        self._order_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def _execute(self, req):
        assert self.gate.wait(timeout=30), "test gate never released"
        with self._order_lock:
            self.executed.append(req.ticket.label)
        return super()._execute(req)


class TestDispatchOrder:
    def test_priority_first_then_fifo(self, sized_db):
        """Higher priority runs first; within a priority, arrival order —
        however much work each request scans."""
        server = _GatedServer(
            sized_db,
            workers=1,
            admission=AdmissionPolicy(
                max_concurrent=1, queue_capacity=10, max_queue_delay_s=1e9
            ),
        )
        try:
            blocker = server.submit("SELECT SUM(v) AS s FROM small",
                                    label="blocker")
            deadline = time.monotonic() + 10.0
            while server.admission.snapshot()["running"] != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            tickets = [blocker] + [
                server.submit(f"SELECT SUM(v) AS s FROM {table}",
                              priority=priority, label=f"{table}-{priority}")
                for table, priority in (("big", 0), ("small", 5), ("small", 0), ("big", 5))
            ]
            server.gate.set()
            for ticket in tickets:
                ticket.result(timeout=30)
            assert server.executed == ["blocker", "small-5", "big-5", "big-0", "small-0"]
        finally:
            server.gate.set()
            server.close()
