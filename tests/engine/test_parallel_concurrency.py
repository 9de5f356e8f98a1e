"""Concurrency tests: result cache single-flight and WorkProfile safety.

One multi-worker :class:`Executor` is hammered from many client threads while
its own morsel pool also runs; the assertions are the ones that break
under lost updates or duplicated work:

* at most one execution per cached plan fingerprint (single-flight);
* every client sees the identical result frame;
* no lost or duplicated work counts in concurrently-built profiles.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import (
    Executor,
    ResultCache,
    WorkProfile,
    plan_fingerprint,
)
from repro.tpch import get_query

CLIENT_THREADS = 8
MORSEL_ROWS = 2048


def _assert_rows_equal(actual, expected):
    """Row equality with float tolerance (partial sums reorder float adds)."""
    assert len(actual) == len(expected)
    for row_a, row_e in zip(actual, expected):
        assert len(row_a) == len(row_e)
        for a, e in zip(row_a, row_e):
            if isinstance(e, float):
                assert a == pytest.approx(e, rel=1e-9, abs=1e-9)
            else:
                assert a == e


def _hammer(n_threads, fn):
    """Run ``fn(i)`` on n threads, released simultaneously by a barrier."""
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads
    errors = []

    def work(i):
        barrier.wait()
        try:
            results[i] = fn(i)
        except BaseException as exc:  # surface, don't swallow
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


class TestResultCacheSingleFlight:
    def test_one_execution_per_key(self):
        cache = ResultCache(capacity=8)
        runs = []
        gate = threading.Event()

        def run():
            runs.append(1)  # append is atomic; duplicates would show
            gate.wait(timeout=5)
            return "value"

        def client(i):
            return cache.get_or_run("k", run)

        # The owner blocks on the gate until every waiter has had a chance
        # to pile up on the in-flight entry; release shortly after start.
        releaser = threading.Timer(0.2, gate.set)
        releaser.start()
        results = _hammer(CLIENT_THREADS, client)
        releaser.cancel()

        assert len(runs) == 1
        assert all(value == "value" for value, _ in results)
        assert sum(1 for _, was_cached in results if not was_cached) == 1
        assert cache.misses == 1
        assert cache.hits == CLIENT_THREADS - 1

    def test_failed_run_is_retryable(self):
        cache = ResultCache(capacity=8)

        def boom():
            raise RuntimeError("transient")

        with pytest.raises(RuntimeError):
            cache.get_or_run("k", boom)
        value, was_cached = cache.get_or_run("k", lambda: 42)
        assert (value, was_cached) == (42, False)

    def test_capacity_evicts_completed_entries_only(self):
        cache = ResultCache(capacity=2)
        for i in range(5):
            cache.get_or_run(f"k{i}", lambda i=i: i)
        assert len(cache) == 2
        # Most recent keys survive.
        assert cache.get_or_run("k4", lambda: -1) == (4, True)


class TestSharedExecutorConcurrency:
    def test_hammered_executor_single_flight_and_identical_results(
        self, tpch_db, tpch_params
    ):
        plan = get_query(6).build(tpch_db, tpch_params)
        with Executor(
            tpch_db, workers=2, morsel_rows=MORSEL_ROWS, cache_size=8
        ) as executor:
            results = _hammer(CLIENT_THREADS, lambda i: executor.execute(plan))

            # At-most-one execution per fingerprint: one owner, rest cached.
            assert executor.cache.misses == 1
            assert executor.cache.hits == CLIENT_THREADS - 1
            assert sum(1 for r in results if not r.cached) == 1

            serial = Executor(tpch_db).execute(plan).rows
            for r in results:
                _assert_rows_equal(r.rows, serial)

    def test_distinct_plans_each_execute_once(self, tpch_db, tpch_params):
        numbers = [1, 3, 6, 14]
        plans = [get_query(n).build(tpch_db, tpch_params) for n in numbers]
        fingerprints = {plan_fingerprint(p) for p in plans}
        assert len(fingerprints) == len(plans)

        with Executor(
            tpch_db, workers=2, morsel_rows=MORSEL_ROWS, cache_size=8
        ) as executor:
            # 2 client threads per plan, all racing.
            results = _hammer(
                2 * len(plans),
                lambda i: executor.execute(plans[i % len(plans)]),
            )
            assert executor.cache.misses == len(plans)
            assert executor.cache.hits == len(plans)
            assert sum(1 for r in results if not r.cached) == len(plans)

    def test_uncached_concurrent_runs_do_not_corrupt_profiles(
        self, tpch_db, tpch_params
    ):
        """Without the cache every client runs the morsel pipeline itself;
        each result's profile must match a solo parallel run's totals
        exactly (no counts lost to, or duplicated from, a concurrent
        execution). The merge phase adds a little work over serial — one
        partial row per morsel — so the serial profile is only checked for
        operator shape."""
        plan = get_query(6).build(tpch_db, tpch_params)
        serial = Executor(tpch_db).execute(plan).profile.summary()
        with Executor(
            tpch_db, workers=2, morsel_rows=MORSEL_ROWS
        ) as executor:
            solo = executor.execute(plan).profile.summary()
            results = _hammer(4, lambda i: executor.execute(plan))
        assert solo["n_operators"] == serial["n_operators"]
        for r in results:
            got = r.profile.summary()
            assert got["n_operators"] == solo["n_operators"]
            assert got["tuples"] == pytest.approx(solo["tuples"], rel=1e-12)
            assert got["seq_bytes"] == pytest.approx(solo["seq_bytes"], rel=1e-12)
            assert got["ops"] == pytest.approx(solo["ops"], rel=1e-12)
            assert got["out_bytes"] == pytest.approx(solo["out_bytes"], rel=1e-12)


class TestWorkProfileThreadSafety:
    def test_concurrent_new_operator_loses_nothing(self):
        profile = WorkProfile()
        per_thread = 200

        def client(i):
            for _ in range(per_thread):
                work = profile.new_operator(f"op{i}")
                work.ops += 1.0

        _hammer(CLIENT_THREADS, client)
        assert len(profile.operators) == CLIENT_THREADS * per_thread
        assert profile.ops == CLIENT_THREADS * per_thread

    def test_concurrent_absorb_loses_nothing(self):
        shared = WorkProfile()
        per_thread = 50

        def client(i):
            for _ in range(per_thread):
                local = WorkProfile()
                work = local.new_operator("scan")
                work.tuples_in = 3.0
                shared.absorb(local)

        _hammer(CLIENT_THREADS, client)
        assert len(shared.operators) == CLIENT_THREADS * per_thread
        assert shared.tuples == CLIENT_THREADS * per_thread * 3.0
