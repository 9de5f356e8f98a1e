"""Concurrency stress for the engine's two shared caches.

Morsel workers and serving threads hammer :class:`ResultCache` and
:class:`KeyCache` simultaneously; these tests drive both with thread
storms well past their capacities and assert the invariants that keep
them safe to share: values are always correct, single-flight really is
single-flight, bounds hold, and the accounting (hits + misses) stays
exact under interleaving.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro.engine import keycache
from repro.engine.cache import ResultCache
from repro.engine.keycache import KeyCache


def _run_threads(n: int, target) -> None:
    barrier = threading.Barrier(n)

    def wrapped(i):
        barrier.wait()
        target(i)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestResultCacheStress:
    N_THREADS = 8
    N_KEYS = 16
    ROUNDS = 60
    CAPACITY = 4

    def test_storm_returns_correct_values_and_exact_accounting(self):
        cache = ResultCache(capacity=self.CAPACITY)
        runs_per_key = [0] * self.N_KEYS
        runs_lock = threading.Lock()
        errors = []

        def compute(k: int):
            def run():
                with runs_lock:
                    runs_per_key[k] += 1
                return ("value", k * 10)

            return run

        def client(i: int):
            rng = random.Random(1000 + i)
            try:
                for _ in range(self.ROUNDS):
                    k = rng.randrange(self.N_KEYS)
                    value, _ = cache.get_or_run(f"k{k}", compute(k))
                    assert value == ("value", k * 10)
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        _run_threads(self.N_THREADS, client)
        assert not errors

        stats = cache.stats()
        total_calls = self.N_THREADS * self.ROUNDS
        # Every call recorded exactly one hit or one miss...
        assert stats["hits"] + stats["misses"] == total_calls
        # ...and every miss corresponds to exactly one run() execution
        # (single-flight: concurrent requests for a key share one run).
        assert stats["misses"] == sum(runs_per_key)

        # One quiet insert lets eviction settle; the bound then holds.
        cache.get_or_run("settle", lambda: None)
        assert len(cache) <= self.CAPACITY

    def test_single_flight_under_contention(self):
        """All threads ask for ONE key at once: exactly one run."""
        cache = ResultCache(capacity=4)
        runs = []
        release = threading.Event()

        def slow_run():
            runs.append(1)
            assert release.wait(timeout=10)
            return "shared"

        results = [None] * self.N_THREADS
        barrier = threading.Barrier(self.N_THREADS + 1)

        def client(i):
            barrier.wait()
            results[i] = cache.get_or_run("hot", slow_run)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        barrier.wait()  # all clients racing for the same key
        release.set()
        for t in threads:
            t.join(timeout=10)

        assert len(runs) == 1
        assert all(value == "shared" for value, _ in results)
        # Exactly one miss (the owner); everyone else piggybacked.
        assert [r for _, r in results].count(False) == 1

    def test_in_flight_entries_survive_eviction_pressure(self):
        """A slow in-flight entry must not be evicted by faster keys
        churning the LRU past capacity around it."""
        cache = ResultCache(capacity=2)
        release = threading.Event()
        outcome = {}

        def slow_run():
            assert release.wait(timeout=10)
            return "slow"

        def slow_client():
            outcome["slow"] = cache.get_or_run("slow-key", slow_run)

        thread = threading.Thread(target=slow_client)
        thread.start()
        # Churn many completed entries through the cache meanwhile.
        for i in range(20):
            cache.get_or_run(f"churn-{i}", lambda i=i: i)
        release.set()
        thread.join(timeout=10)
        assert outcome["slow"] == ("slow", False)
        # And the hot key is still servable (recompute or hit, both fine).
        value, _ = cache.get_or_run("slow-key", lambda: "slow")
        assert value == "slow"


class TestKeyCacheStress:
    N_THREADS = 8
    ROUNDS = 40

    @pytest.fixture()
    def arrays(self):
        rng = np.random.default_rng(7)
        return [
            rng.integers(0, 50, size=200 + 37 * i, dtype=np.int64)
            for i in range(12)
        ]

    def test_concurrent_factorize_matches_numpy(self, arrays):
        cache = KeyCache()
        expected = [np.unique(a, return_inverse=True) for a in arrays]
        errors = []

        def client(i: int):
            rng = random.Random(i)
            try:
                for _ in range(self.ROUNDS):
                    j = rng.randrange(len(arrays))
                    uniques, codes = cache.factorize(arrays[j])
                    exp_uniques, exp_codes = expected[j]
                    np.testing.assert_array_equal(uniques, exp_uniques)
                    np.testing.assert_array_equal(
                        codes, exp_codes.reshape(arrays[j].shape)
                    )
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        _run_threads(self.N_THREADS, client)
        assert not errors

        stats = cache.stats()
        assert stats["entries"] <= len(arrays)  # one result per array
        assert stats["hits"] + stats["misses"] == self.N_THREADS * self.ROUNDS

    def test_concurrent_sort_order_matches_numpy(self, arrays):
        cache = KeyCache()
        expected = [np.argsort(a, kind="stable") for a in arrays]
        errors = []

        def client(i: int):
            rng = random.Random(100 + i)
            try:
                for _ in range(self.ROUNDS):
                    j = rng.randrange(len(arrays))
                    np.testing.assert_array_equal(
                        cache.sort_order(arrays[j]), expected[j]
                    )
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        _run_threads(self.N_THREADS, client)
        assert not errors
        assert cache.stats()["entries"] <= len(arrays)  # one result per array

    def test_four_threads_factorizing_one_array_compute_it_once(self, monkeypatch):
        """Racing threads wait for the one computation of an
        ``(array, key)`` and share its result."""
        runs, factorize = [], keycache.factorize

        def counting(keys):
            runs.append(id(keys))
            return factorize(keys)

        monkeypatch.setattr(keycache, "factorize", counting)
        cache = KeyCache()
        keys = np.random.default_rng(11).integers(0, 5_000, size=200_000)
        results = [None] * 4

        def client(i: int):
            results[i] = cache.factorize(keys)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(4, client)
        finally:
            sys.setswitchinterval(switch)
        assert runs == [id(keys)]
        assert all(r is results[0] for r in results)
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 3

    def test_a_slow_computation_does_not_hold_up_other_keys(self):
        """Only callers of the same ``(array, key)`` wait: a worker
        computing one key never blocks another worker's different key."""
        cache = KeyCache()
        slow_keys, fast_keys = np.arange(10), np.arange(10)
        started, released, waited = threading.Event(), threading.Event(), []

        def slow(keys):
            started.set()
            waited.append(released.wait(timeout=5))
            return keys + 1

        def fast(keys):
            released.set()
            return keys * 2

        thread = threading.Thread(target=cache.memo, args=(slow_keys, "slow", slow))
        thread.start()
        assert started.wait(timeout=5)
        assert cache.memo(fast_keys, "fast", fast).tolist() == (fast_keys * 2).tolist()
        thread.join(timeout=10)
        assert waited == [True]
        assert cache.memo(slow_keys, "slow", slow).tolist() == (slow_keys + 1).tolist()
        assert cache.stats() == {"entries": 2, "hits": 1, "misses": 2}

    def test_a_failed_computation_reaches_its_waiters_and_is_not_kept(self):
        cache = KeyCache()
        keys = np.arange(10)
        started, release = threading.Event(), threading.Event()
        errors = []

        def failing(_):
            started.set()
            assert release.wait(timeout=5)
            raise ValueError("boom")

        def caller():
            try:
                cache.memo(keys, "k", failing)
            except ValueError as exc:
                errors.append(str(exc))

        first = threading.Thread(target=caller)
        first.start()
        assert started.wait(timeout=5)
        second = threading.Thread(target=caller)
        second.start()
        for _ in range(5000):  # until the second caller waits on the first
            if cache.hits:
                break
            threading.Event().wait(0.001)
        release.set()
        first.join(timeout=10)
        second.join(timeout=10)
        assert errors == ["boom", "boom"]
        assert cache.memo(keys, "k", lambda k: k + 1).tolist() == (keys + 1).tolist()
        assert cache.stats()["misses"] == 2
