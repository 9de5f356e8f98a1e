"""Cancellation and deadlines: tokens, morsel-boundary responsiveness,
and the single-flight cache's never-retain-interrupted contract.

The acceptance property pinned here: a query cancelled mid-flight stops
scheduling new morsels within one morsel boundary — asserted by counting
``morsel`` trace spans after a cancel fired partway through — and the
engine stays fully serviceable afterwards.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import Executor
from repro.engine.cache import ResultCache
from repro.engine.cancel import (
    CancelToken,
    DeadlineExceeded,
    QueryCancelled,
    QueryInterrupted,
)
from repro.engine.sql import sql as parse_sql
from repro.obs.trace import Tracer, iter_spans
from repro.serve import QueryServer

MORSEL_ROWS = 512  # tiny morsels: many boundaries, fast cancel turnaround

LINEITEM_AGG = (
    "SELECT l_returnflag, SUM(l_quantity) AS q, COUNT(*) AS n "
    "FROM lineitem GROUP BY l_returnflag"
)


class TestCancelToken:
    def test_fresh_token_passes_checks(self):
        token = CancelToken()
        token.check()  # no-op
        assert not token.cancelled
        assert token.remaining_s() is None
        assert not token.expired

    def test_cancel_is_sticky_and_idempotent(self):
        token = CancelToken()
        token.cancel("first reason")
        token.cancel("second reason")  # first wins
        assert token.cancelled
        with pytest.raises(QueryCancelled, match="first reason"):
            token.check()

    def test_deadline_expires(self):
        token = CancelToken.from_timeout(0.0)
        assert token.expired
        with pytest.raises(DeadlineExceeded):
            token.check()

    def test_no_timeout_means_no_deadline(self):
        token = CancelToken.from_timeout(None)
        assert token.deadline_s is None
        token.check()

    def test_remaining_counts_down(self):
        token = CancelToken.from_timeout(60.0)
        remaining = token.remaining_s()
        assert remaining is not None and 0 < remaining <= 60.0

    def test_interrupted_hierarchy(self):
        # Both interruption flavors are catchable as one family, and
        # that family is distinct from ordinary errors.
        assert issubclass(QueryCancelled, QueryInterrupted)
        assert issubclass(DeadlineExceeded, QueryInterrupted)
        assert not issubclass(ValueError, QueryInterrupted)


class _CancelAfterMorsels(Tracer):
    """Flips a cancel token when the Nth morsel span starts."""

    def __init__(self, token: CancelToken, after: int):
        super().__init__()
        self.token = token
        self.after = after
        self.morsels_started = 0
        self._count_lock = threading.Lock()

    def start(self, kind, name, parent=None, start_s=None, work=None):
        if kind == "morsel":
            with self._count_lock:
                self.morsels_started += 1
                if self.morsels_started == self.after:
                    self.token.cancel("cancelled mid-flight by test")
        return super().start(kind, name, parent=parent, start_s=start_s, work=work)


class TestMorselBoundaryCancel:
    def test_cancel_stops_within_one_morsel_boundary(self, tpch_db):
        """After the cancel fires, only morsels already past their
        boundary check (at most one per engine worker) may still start."""
        workers = 2
        cancel_after = 3
        token = CancelToken()
        tracer = _CancelAfterMorsels(token, cancel_after)
        with Executor(
            tpch_db, workers=workers, morsel_rows=MORSEL_ROWS,
            cache_size=4, tracer=tracer,
        ) as executor:
            plan = parse_sql(tpch_db, LINEITEM_AGG)
            total_morsels = -(-tpch_db.table("lineitem").nrows // MORSEL_ROWS)
            assert total_morsels > cancel_after + workers + 2, (
                "test needs enough morsels that a late cancel is detectable"
            )

            with pytest.raises(QueryCancelled):
                executor.execute(plan, cancel=token)

            started = sum(
                1
                for root in tracer.roots
                for span in iter_spans(root)
                if span.kind == "morsel"
            )
            # Every morsel past the cancel point was skipped: at most the
            # N that triggered the cancel plus one in-flight per worker.
            assert started <= cancel_after + workers
            assert started < total_morsels
            # All spans were closed despite the abort (finalize ran).
            for root in tracer.roots:
                for span in iter_spans(root):
                    assert span.end_s is not None

            # The cancelled query never populated the result cache...
            assert len(executor.cache) == 0
            # ...and the engine serves the same plan fine afterwards.
            result = executor.execute(plan)
            serial = Executor(tpch_db).execute(plan)
            assert sorted(result.rows) == sorted(serial.rows)

    def test_expired_deadline_rejects_before_any_work(self, tpch_db):
        tracer = Tracer()
        with Executor(
            tpch_db, workers=2, morsel_rows=MORSEL_ROWS,
            cache_size=4, tracer=tracer,
        ) as executor:
            plan = parse_sql(tpch_db, LINEITEM_AGG)
            with pytest.raises(DeadlineExceeded):
                executor.execute(plan, cancel=CancelToken.from_timeout(0.0))
            assert len(executor.cache) == 0
            assert all(
                span.kind != "morsel"
                for root in tracer.roots
                for span in iter_spans(root)
            )

    def test_serial_executor_honors_cancel(self, tpch_db):
        plan = parse_sql(tpch_db, LINEITEM_AGG)
        token = CancelToken()
        token.cancel("before execution")
        with pytest.raises(QueryCancelled):
            Executor(tpch_db).execute(plan, cancel=token)


class TestServerCancellation:
    def test_client_cancel_resolves_ticket_and_frees_slot(self, tpch_db):
        gate = threading.Event()

        class _Gated(QueryServer):
            def _execute(self, req):
                assert gate.wait(timeout=30)
                return super()._execute(req)

        server = _Gated(tpch_db, workers=2, morsel_rows=MORSEL_ROWS)
        try:
            ticket = server.submit(LINEITEM_AGG, label="doomed")
            ticket.cancel("changed my mind")
            gate.set()
            with pytest.raises(QueryCancelled):
                ticket.result(timeout=30)
            assert ticket.outcome == "cancelled"
            # The slot is free and the cache holds nothing poisoned.
            result = server.query(LINEITEM_AGG)
            serial = Executor(tpch_db).execute(parse_sql(tpch_db, LINEITEM_AGG))
            assert sorted(result.rows) == sorted(serial.rows)
        finally:
            gate.set()
            server.close()

    def test_request_deadline_resolves_as_timeout(self, tpch_db):
        with QueryServer(tpch_db, workers=2, morsel_rows=MORSEL_ROWS) as server:
            ticket = server.submit(LINEITEM_AGG, timeout_s=0.0)
            with pytest.raises(DeadlineExceeded):
                ticket.result(timeout=30)
            assert ticket.outcome == "timeout"
            assert server.query("SELECT COUNT(*) AS n FROM region").rows == [(5,)]


class TestCacheInterruptionSemantics:
    """The satellite fix: failed/cancelled runs never retain entries."""

    def test_waiter_recomputes_after_owner_cancelled(self):
        cache = ResultCache(capacity=4)
        owner_running = threading.Event()
        release_owner = threading.Event()
        outcomes = {}

        def owner_run():
            owner_running.set()
            assert release_owner.wait(timeout=10)
            raise QueryCancelled("owner abandoned")

        def owner():
            try:
                cache.get_or_run("k", owner_run)
            except QueryCancelled as exc:
                outcomes["owner"] = exc

        def waiter():
            outcomes["waiter"] = cache.get_or_run("k", lambda: "fresh")

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert owner_running.wait(timeout=10)
        waiter_thread = threading.Thread(target=waiter)
        waiter_thread.start()
        time.sleep(0.05)  # let the waiter actually block on the entry
        release_owner.set()
        owner_thread.join(timeout=10)
        waiter_thread.join(timeout=10)

        # The owner saw its own cancellation; the waiter did NOT inherit
        # it — it re-contended, became the new owner, and recomputed.
        assert isinstance(outcomes["owner"], QueryCancelled)
        assert outcomes["waiter"] == ("fresh", False)
        assert cache.stats()["entries"] == 1  # only the fresh value

    def test_waiters_inherit_real_errors_and_entry_is_evicted(self):
        cache = ResultCache(capacity=4)
        owner_running = threading.Event()
        release_owner = threading.Event()
        boom = ValueError("the plan is broken for everyone")
        outcomes = {}

        def owner_run():
            owner_running.set()
            assert release_owner.wait(timeout=10)
            raise boom

        def owner():
            try:
                cache.get_or_run("k", owner_run)
            except ValueError as exc:
                outcomes["owner"] = exc

        def waiter():
            try:
                cache.get_or_run("k", lambda: "never runs")
            except ValueError as exc:
                outcomes["waiter"] = exc

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert owner_running.wait(timeout=10)
        waiter_thread = threading.Thread(target=waiter)
        waiter_thread.start()
        time.sleep(0.05)
        release_owner.set()
        owner_thread.join(timeout=10)
        waiter_thread.join(timeout=10)

        assert outcomes["owner"] is boom
        assert outcomes["waiter"] is boom
        assert len(cache) == 0  # nothing poisoned was retained
        # A later request recomputes from scratch.
        assert cache.get_or_run("k", lambda: 42) == (42, False)

    def test_waiters_own_deadline_fires_while_blocked(self):
        cache = ResultCache(capacity=4)
        owner_running = threading.Event()
        release_owner = threading.Event()
        outcomes = {}

        def owner_run():
            owner_running.set()
            assert release_owner.wait(timeout=10)
            return "slow value"

        def owner():
            outcomes["owner"] = cache.get_or_run("k", owner_run)

        def waiter():
            try:
                cache.get_or_run(
                    "k", lambda: "unused", cancel=CancelToken.from_timeout(0.1)
                )
            except DeadlineExceeded as exc:
                outcomes["waiter"] = exc

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert owner_running.wait(timeout=10)
        waiter_thread = threading.Thread(target=waiter)
        waiter_thread.start()
        waiter_thread.join(timeout=10)
        assert isinstance(outcomes.get("waiter"), DeadlineExceeded)

        release_owner.set()
        owner_thread.join(timeout=10)
        # The owner was unaffected by the waiter's deadline.
        assert outcomes["owner"] == ("slow value", False)
