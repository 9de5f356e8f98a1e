"""Serving-layer behavior: correctness under concurrency, typed
overload shedding, priorities, retries, and the circuit breaker.

The differential here is the acceptance wall for the serving layer: all
22 TPC-H queries and all 11 ad-events queries submitted *concurrently*
through one server over one merged catalog must return rows identical
to serial execution and consistent with the committed goldens.
"""

from __future__ import annotations

import json
import math
import threading
import time
from pathlib import Path

import pytest

from repro.adevents import ADEVENTS_QUERIES
from repro.adevents import generate as adevents_generate
from repro.engine import Database, Executor
from repro.engine.cancel import QueryCancelled
from repro.engine.plan import LimitNode, SortNode
from repro.engine.sql import SqlError
from repro.serve import (
    AdmissionPolicy,
    CircuitBreaker,
    CircuitOpen,
    Overloaded,
    QueryFailed,
    QueryServer,
    RetryPolicy,
    ServerClosed,
    TransientServeError,
)
from repro.tpch import ALL_QUERY_NUMBERS, generate as tpch_generate, get_query

TPCH_GOLDEN = json.loads(
    (Path(__file__).parent.parent / "tpch" / "data" / "golden_sf001_seed42.json")
    .read_text()
)
ADEVENTS_GOLDEN = json.loads(
    (Path(__file__).parent.parent / "adevents" / "data" / "golden_x1_seed7.json")
    .read_text()
)

TPCH_SF = 0.01
MORSEL_ROWS = 2048  # force real multi-morsel execution at these scales


@pytest.fixture(scope="module")
def merged_db() -> Database:
    """One catalog holding both workloads (table names never collide),
    so a single server serves TPC-H plans and ad-events SQL at once."""
    db = Database("serving")
    for source in (tpch_generate(TPCH_SF, seed=42), adevents_generate(1.0, seed=7)):
        for name in source.table_names:
            db.add(source.table(name))
    return db


def _canonical(rows):
    def norm(v):
        if isinstance(v, float):
            return "nan" if math.isnan(v) else round(v, 7)
        return v

    return sorted(tuple(norm(v) for v in row) for row in rows)


def _numeric_sum(rows) -> float:
    total = 0.0
    for row in rows:
        for value in row:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if isinstance(value, float) and math.isnan(value):
                    continue
                total += float(value)
    return total


def _assert_rows_match(serial_rows, served_rows, ordered: bool, label: str):
    if ordered:
        assert len(serial_rows) == len(served_rows), label
        for i, (expected, actual) in enumerate(zip(serial_rows, served_rows)):
            for a, b in zip(expected, actual):
                if isinstance(a, float) and isinstance(b, float):
                    if math.isnan(a) and math.isnan(b):
                        continue
                    assert b == pytest.approx(a, rel=1e-9, abs=1e-9), (label, i)
                else:
                    assert a == b, (label, i)
    else:
        assert _canonical(served_rows) == _canonical(serial_rows), label


def _is_ordered(node) -> bool:
    while isinstance(node, LimitNode):
        node = node.child
    return isinstance(node, SortNode)


class TestConcurrentDifferential:
    """The acceptance wall: 33 queries concurrently vs serial + goldens."""

    def test_all_queries_concurrently_match_serial_and_goldens(self, merged_db):
        serial = Executor(merged_db)
        from repro.engine.sql import sql as parse_sql

        cases = []  # (label, payload, serial_rows, ordered, golden)
        for number in ALL_QUERY_NUMBERS:
            plan = get_query(number).build(merged_db, {"sf": TPCH_SF})
            rows = serial.execute(plan).rows
            cases.append((
                f"Q{number}", plan, rows, _is_ordered(plan.node),
                TPCH_GOLDEN[str(number)],
            ))
        for name, text in ADEVENTS_QUERIES.items():
            plan = parse_sql(merged_db, text)
            rows = serial.execute(plan).rows
            cases.append((
                name, text, rows, _is_ordered(plan.node),
                ADEVENTS_GOLDEN[name],
            ))

        with QueryServer(
            merged_db,
            workers=4,
            morsel_rows=MORSEL_ROWS,
            admission=AdmissionPolicy(
                max_concurrent=4, queue_capacity=len(cases), max_queue_delay_s=1e9
            ),
        ) as server:
            # Submit from several client threads at once: the queue sees
            # a real concurrent burst, not a polite serial trickle.
            n_clients = 8
            tickets = [None] * len(cases)
            barrier = threading.Barrier(n_clients)

            def client(worker: int):
                barrier.wait()
                for i in range(worker, len(cases), n_clients):
                    label, payload, _, _, _ = cases[i]
                    tickets[i] = server.submit(payload, label=label)

            threads = [
                threading.Thread(target=client, args=(w,)) for w in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            for (label, _, serial_rows, ordered, golden), ticket in zip(
                cases, tickets
            ):
                result = ticket.result(timeout=120)
                assert ticket.outcome == "ok", label
                _assert_rows_match(serial_rows, result.rows, ordered, label)
                assert len(result.rows) == golden["rows"], label
                assert _numeric_sum(result.rows) == pytest.approx(
                    golden["numeric_sum"], rel=1e-6, abs=0.02
                ), label

    def test_identical_inflight_queries_dedupe(self, merged_db):
        plan = get_query(1).build(merged_db, {"sf": TPCH_SF})
        with QueryServer(merged_db, workers=2, morsel_rows=MORSEL_ROWS) as server:
            tickets = [server.submit(plan, label="Q1") for _ in range(6)]
            results = [t.result(timeout=60) for t in tickets]
        cached = [r.cached for r in results]
        # Single-flight: at most one real execution; the rest are cache
        # hits (either piggybacked in flight or served after).
        assert cached.count(False) == 1
        reference = results[0].rows
        for r in results[1:]:
            assert r.rows == reference


class _GatedServer(QueryServer):
    """Server whose executions block on an event until released —
    deterministic backlog for admission and priority tests."""

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


def _wait_for(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


COUNT_SQL = "SELECT COUNT(*) AS n FROM region"


class TestOverload:
    def test_queue_full_sheds_typed_and_recovers(self, merged_db):
        server = _GatedServer(
            merged_db,
            workers=2,
            admission=AdmissionPolicy(
                max_concurrent=2, queue_capacity=2, max_queue_delay_s=1e9
            ),
        )
        try:
            running = [server.submit(COUNT_SQL, label=f"run-{i}") for i in range(2)]
            _wait_for(lambda: server.admission.snapshot()["running"] == 2)
            queued = [server.submit(COUNT_SQL, label=f"queue-{i}") for i in range(2)]

            with pytest.raises(Overloaded) as exc_info:
                server.submit(COUNT_SQL, label="shed-me")
            assert exc_info.value.reason == "queue-full"

            # Shedding is not collapse: release the gate and every
            # admitted request completes correctly.
            server.gate.set()
            for ticket in running + queued:
                result = ticket.result(timeout=30)
                assert result.rows == [(5,)]
            # And the server keeps serving new requests afterwards.
            assert server.query(COUNT_SQL).rows == [(5,)]
        finally:
            server.gate.set()
            server.close()

    def test_queue_delay_sheds_typed(self, merged_db):
        server = _GatedServer(
            merged_db,
            workers=2,
            admission=AdmissionPolicy(
                max_concurrent=2,
                queue_capacity=100,
                max_queue_delay_s=0.001,
                initial_service_s=10.0,  # pessimistic EWMA seed
            ),
        )
        try:
            # Saturate the workers one by one (submitting both at once
            # could race the pickup and count the first as backlog).
            for i in range(2):
                server.submit(COUNT_SQL, label=f"run-{i}")
                _wait_for(lambda n=i + 1: server.admission.snapshot()["running"] == n)
            # Workers saturated; the first *waiting* request would
            # project 10s/2 of queue delay >> 1ms: shed.
            queued = server.submit(COUNT_SQL, label="first-waiter")
            with pytest.raises(Overloaded) as exc_info:
                server.submit(COUNT_SQL, label="delayed")
            assert exc_info.value.reason == "queue-delay"
            server.gate.set()
            assert queued.result(timeout=30).rows == [(5,)]
        finally:
            server.gate.set()
            server.close()

    def test_priorities_order_the_backlog(self, merged_db):
        server = _GatedServer(
            merged_db,
            workers=1,
            admission=AdmissionPolicy(
                max_concurrent=1, queue_capacity=10, max_queue_delay_s=1e9
            ),
        )
        try:
            blocker = server.submit(COUNT_SQL, label="blocker")
            _wait_for(lambda: server.admission.snapshot()["running"] == 1)
            low = server.submit(COUNT_SQL, priority=0, label="low")
            high = server.submit(COUNT_SQL, priority=5, label="high")
            server.gate.set()
            for ticket in (blocker, low, high):
                ticket.result(timeout=30)
            assert server.executed == ["blocker", "high", "low"]
        finally:
            server.gate.set()
            server.close()


class _FlakyServer(QueryServer):
    """Fails the first ``fail_times`` execution attempts transiently."""

    def __init__(self, *args, fail_times: int = 0, **kwargs):
        self.fail_times = fail_times
        self.attempts = 0
        super().__init__(*args, **kwargs)

    def _execute(self, req):
        self.attempts += 1
        if self.attempts <= self.fail_times:
            raise TransientServeError(f"injected transient #{self.attempts}")
        return super()._execute(req)


class _BrokenServer(QueryServer):
    """Every execution attempt raises an unexpected error."""

    def _execute(self, req):
        raise RuntimeError("injected executor bug")


class TestRetriesAndBreaker:
    def test_transient_failures_retry_with_backoff(self, merged_db):
        with _FlakyServer(
            merged_db,
            workers=1,
            fail_times=2,
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.001, backoff_cap_s=0.01),
        ) as server:
            result = server.query(COUNT_SQL)
            assert result.rows == [(5,)]
            assert server.attempts == 3

    def test_retried_request_is_mined_once(self, merged_db):
        """One request whose execution fails transiently and retries is
        one observation: alone it must not satisfy
        ``build_rollups(min_count=2)``."""
        with QueryServer(
            merged_db,
            workers=1,
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.001, backoff_cap_s=0.01),
        ) as server:
            real_execute = server.executor.execute
            attempts = []

            def flaky_execute(*args, **kwargs):
                attempts.append(1)
                if len(attempts) == 1:
                    raise TransientServeError("injected transient")
                return real_execute(*args, **kwargs)

            server.executor.execute = flaky_execute
            result = server.query(
                "SELECT l_returnflag, SUM(l_quantity) AS qty FROM lineitem "
                "GROUP BY l_returnflag"
            )
            assert len(result.rows) == 3 and len(attempts) == 2
            assert len(server.miner.mine(min_count=1)) == 1
            assert server.miner.mine(min_count=2) == []

    def test_transients_past_budget_fail_typed(self, merged_db):
        with _FlakyServer(
            merged_db,
            workers=1,
            fail_times=10,
            retry=RetryPolicy(max_retries=1, backoff_base_s=0.001, backoff_cap_s=0.01),
        ) as server:
            with pytest.raises(QueryFailed):
                server.query(COUNT_SQL)
            # The wrapped cause is the transient error, typed and visible.
            ticket = server.submit(COUNT_SQL)
            with pytest.raises(QueryFailed) as exc_info:
                ticket.result(timeout=30)
            assert isinstance(exc_info.value.__cause__, TransientServeError)

    def test_breaker_opens_fails_fast_then_recovers(self, merged_db):
        server = _BrokenServer(
            merged_db,
            workers=1,
            retry=RetryPolicy(max_retries=0),
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=0.05),
        )
        try:
            for _ in range(2):
                with pytest.raises(QueryFailed):
                    server.query(COUNT_SQL)
            assert server.breaker.state == "open"
            with pytest.raises(CircuitOpen):
                server.submit(COUNT_SQL)
            # After the cooldown a half-open probe goes through; make the
            # executor healthy again and the breaker closes.
            time.sleep(0.06)
            server._execute = lambda req: QueryServer._execute(server, req)
            assert server.query(COUNT_SQL).rows == [(5,)]
            assert server.breaker.state == "closed"
        finally:
            server.close()


class TestFrontDoorContract:
    def test_sql_error_is_typed_and_server_survives(self, merged_db):
        with QueryServer(merged_db, workers=1) as server:
            with pytest.raises(SqlError) as exc_info:
                server.query("SELECT FROM WHERE")
            assert not exc_info.value.internal
            assert server.query(COUNT_SQL).rows == [(5,)]

    def test_unsupported_payload_is_sql_error_not_crash(self, merged_db):
        with QueryServer(merged_db, workers=1) as server:
            with pytest.raises(SqlError):
                server.query({"not": "a query"})
            assert server.query(COUNT_SQL).rows == [(5,)]

    def test_closed_server_sheds_typed(self, merged_db):
        server = QueryServer(merged_db, workers=1)
        server.close()
        with pytest.raises(ServerClosed):
            server.submit(COUNT_SQL)

    def test_close_without_drain_cancels_queued(self, merged_db):
        server = _GatedServer(
            merged_db,
            workers=1,
            admission=AdmissionPolicy(
                max_concurrent=1, queue_capacity=10, max_queue_delay_s=1e9
            ),
        )
        blocker = server.submit(COUNT_SQL, label="blocker")
        _wait_for(lambda: server.admission.snapshot()["running"] == 1)
        queued = server.submit(COUNT_SQL, label="queued")
        server.gate.set()
        server.close(drain=False)
        blocker.result(timeout=30)  # was already executing: completes
        with pytest.raises(QueryCancelled):
            queued.result(timeout=30)

    def test_result_timeout_is_a_peek_not_a_cancel(self, merged_db):
        server = _GatedServer(merged_db, workers=1)
        try:
            ticket = server.submit(COUNT_SQL)
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.01)
            server.gate.set()
            assert ticket.result(timeout=30).rows == [(5,)]
        finally:
            server.gate.set()
            server.close()
