"""MetricsRegistry semantics and the deduped cache hit/miss bookkeeping."""

import pytest

from repro.engine import Database, Executor, Q, Table, agg, col
from repro.engine.cache import ResultCache
from repro.engine.column import Column
from repro.engine.keycache import KeyCache
from repro.obs.metrics import (
    Counter, Gauge, Histogram, HitMissStats, MetricsRegistry, metrics,
)

import numpy as np


class TestCounter:
    def test_monotonic(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_reset(self):
        c = Counter("c")
        c.inc(7)
        c.reset()
        assert c.value == 0.0


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("g")
        g.set(10)
        g.add(-3)
        assert g.value == 7.0


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0, 0.1):
            h.observe(v)
        d = h.describe()
        assert d["buckets"] == [2, 1, 1]
        assert d["count"] == 4
        assert d["min"] == 0.1 and d["max"] == 50.0
        assert d["sum"] == pytest.approx(55.6)

    def test_describe_keys_sorted(self):
        d = Histogram("h").describe()
        assert list(d) == sorted(d)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_snapshot_sorted_and_plain(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc(2)
        reg.counter("a.first").inc(1)
        reg.gauge("m.middle").set(5)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a.first"] == 1.0
        assert snap["z.last"] == 2.0
        assert snap["m.middle"] == 5.0

    def test_reset_in_place_keeps_references(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        c.inc(9)
        reg.reset()
        assert c.value == 0.0
        assert reg.counter("a") is c

    def test_global_registry_exists(self):
        assert isinstance(metrics, MetricsRegistry)


class TestHitMissStats:
    def test_local_counts(self):
        reg = MetricsRegistry()
        s = HitMissStats("test.cache", registry=reg)
        s.hit()
        s.hit()
        s.miss()
        assert (s.hits, s.misses) == (2, 1)
        assert reg.counter("test.cache.hits").value == 2.0
        assert reg.counter("test.cache.misses").value == 1.0

    def test_reset_local_keeps_global_cumulative(self):
        reg = MetricsRegistry()
        s = HitMissStats("test.cache", registry=reg)
        s.hit()
        s.miss()
        s.reset_local()
        assert (s.hits, s.misses) == (0, 0)
        assert reg.counter("test.cache.hits").value == 1.0
        assert reg.counter("test.cache.misses").value == 1.0

    def test_two_instances_share_global_counters(self):
        reg = MetricsRegistry()
        a = HitMissStats("shared", registry=reg)
        b = HitMissStats("shared", registry=reg)
        a.hit()
        b.hit()
        assert a.hits == 1 and b.hits == 1
        assert reg.counter("shared.hits").value == 2.0


class TestCacheStatsDedup:
    def test_result_cache_counts_and_registry(self):
        before_hits = metrics.counter("engine.result_cache.hits").value
        before_misses = metrics.counter("engine.result_cache.misses").value
        cache = ResultCache(capacity=4)
        cache.get_or_run("k", lambda: 1)
        cache.get_or_run("k", lambda: 1)
        assert cache.misses == 1 and cache.hits == 1
        assert metrics.counter("engine.result_cache.hits").value == before_hits + 1
        assert metrics.counter("engine.result_cache.misses").value == before_misses + 1

    def test_result_cache_stats_key_order(self):
        stats = ResultCache(capacity=4).stats()
        assert list(stats) == sorted(stats)
        assert list(stats) == ["capacity", "entries", "hits", "misses"]

    def test_key_cache_counts_and_registry(self):
        before_hits = metrics.counter("engine.key_cache.hits").value
        before_misses = metrics.counter("engine.key_cache.misses").value
        kc = KeyCache()
        arr = np.array([3, 1, 2, 1], dtype=np.int64)
        kc.factorize(arr)
        kc.factorize(arr)
        assert kc.misses == 1 and kc.hits == 1
        assert metrics.counter("engine.key_cache.hits").value == before_hits + 1
        assert metrics.counter("engine.key_cache.misses").value == before_misses + 1

    def test_key_cache_stats_key_order(self):
        stats = KeyCache().stats()
        assert list(stats) == sorted(stats)
        assert list(stats) == ["entries", "hits", "misses"]

    def test_key_cache_clear_resets_local_only(self):
        before = metrics.counter("engine.key_cache.misses").value
        kc = KeyCache()
        kc.factorize(np.array([1, 2], dtype=np.int64))
        kc.clear()
        assert kc.misses == 0
        assert metrics.counter("engine.key_cache.misses").value == before + 1


class TestEngineCountersFlow:
    def test_zone_probe_counters_advance_on_skipping_scan(self):
        db = Database("m")
        db.add(Table("t", {
            "k": Column.from_ints(list(range(4096))),
            "v": Column.from_floats([float(i % 7) for i in range(4096)]),
        }))
        db.build_zone_maps()
        before = metrics.counter("engine.zonemap.probes").value
        Executor(db).execute(
            Q(db).scan("t").filter(col("k") < 10).aggregate(s=agg.sum(col("v")))
        )
        assert metrics.counter("engine.zonemap.probes").value > before
