"""Property-based tests (hypothesis) for the parallel merge layer.

The merge layer's contract is: for *any* morsel split of the input, the
merged partial states equal the single-pass serial operator. Hypothesis
drives random data and random split points through each merge path:

* partial-aggregate merge is associative/commutative (any split, any
  morsel order) and agrees with single-pass aggregation;
* filter + concat preserves row order;
* top-k merge equals global sort-then-limit.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Frame, WorkProfile, agg, col
from repro.engine.merge import (
    concat_frames,
    merge_partial_aggregates,
    merge_profiles,
    merge_topk,
)
from repro.engine.operators.aggregate import execute_aggregate, two_phase
from repro.engine.operators.filter import execute_filter
from repro.engine.operators.sort import execute_sort, execute_topk


class _Ctx:
    """Minimal operator context: a profile and a current-work slot."""

    def __init__(self):
        self.profile = WorkProfile()
        self.work = self.profile.new_operator("test")


def _frame(keys, values):
    return Frame({
        "k": Column.from_ints(keys),
        "v": Column.from_floats(values),
    }, len(keys))


def _split(frame, cut_points):
    """Split a frame at the given sorted row offsets."""
    bounds = [0] + sorted(set(cut_points)) + [frame.nrows]
    parts = [
        frame.slice(lo, hi)
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    return parts or [frame]


rows = st.integers(min_value=1, max_value=60)


@st.composite
def keyed_data(draw):
    n = draw(rows)
    keys = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    values = draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
        min_size=n, max_size=n,
    ))
    cuts = draw(st.lists(st.integers(0, n), min_size=0, max_size=5))
    return keys, values, cuts


AGGS = {
    "s": agg.sum(col("v")),
    "a": agg.avg(col("v")),
    "c": agg.count(col("v")),
    "n": agg.count_star(),
    "lo": agg.min(col("v")),
    "hi": agg.max(col("v")),
}


def _rows_of(frame):
    lists = [c.to_list() for c in frame.columns.values()]
    return list(zip(*lists))


def _assert_rows_close(actual, expected):
    assert len(actual) == len(expected)
    for row_a, row_e in zip(actual, expected):
        for a, e in zip(row_a, row_e):
            if isinstance(e, float):
                if math.isnan(e):
                    assert math.isnan(a)
                else:
                    assert a == pytest.approx(e, rel=1e-9, abs=1e-9)
            else:
                assert a == e


class TestPartialAggregateMerge:
    @given(keyed_data())
    @settings(max_examples=60, deadline=None)
    def test_merge_agrees_with_single_pass(self, data):
        keys, values, cuts = data
        frame = _frame(keys, values)
        serial = execute_aggregate(frame, ["k"], AGGS, _Ctx())

        partial_specs, _ = two_phase(AGGS)[:2]
        partials = [
            execute_aggregate(part, ["k"], partial_specs, _Ctx())
            for part in _split(frame, cuts)
        ]
        merged = merge_partial_aggregates(partials, ["k"], AGGS, _Ctx())

        assert list(merged.columns) == list(serial.columns)
        _assert_rows_close(_rows_of(merged), _rows_of(serial))

    @given(keyed_data(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_merge_is_commutative_in_morsel_order(self, data, rng):
        keys, values, cuts = data
        frame = _frame(keys, values)
        partial_specs, _ = two_phase(AGGS)[:2]
        partials = [
            execute_aggregate(part, ["k"], partial_specs, _Ctx())
            for part in _split(frame, cuts)
        ]
        shuffled = list(partials)
        rng.shuffle(shuffled)
        a = merge_partial_aggregates(partials, ["k"], AGGS, _Ctx())
        b = merge_partial_aggregates(shuffled, ["k"], AGGS, _Ctx())
        _assert_rows_close(_rows_of(b), _rows_of(a))

    @given(keyed_data())
    @settings(max_examples=40, deadline=None)
    def test_merge_is_associative(self, data):
        """Merging a pre-merged prefix equals merging all morsels flat.

        The partial specs are themselves decomposable (AVG is already
        split into SUM+COUNT), so merging a prefix of partials *under the
        partial specs* yields a frame shaped exactly like a fresh partial
        — a true merge-of-merges.
        """
        keys, values, cuts = data
        frame = _frame(keys, values)
        partial_specs, _ = two_phase(AGGS)[:2]
        flat = [
            execute_aggregate(part, ["k"], partial_specs, _Ctx())
            for part in _split(frame, cuts)
        ]
        if len(flat) > 1:
            prefix = merge_partial_aggregates(
                flat[:2], ["k"], partial_specs, _Ctx()
            )
            regrouped = [prefix] + flat[2:]
        else:
            regrouped = flat
        a = merge_partial_aggregates(flat, ["k"], AGGS, _Ctx())
        b = merge_partial_aggregates(regrouped, ["k"], AGGS, _Ctx())
        _assert_rows_close(_rows_of(b), _rows_of(a))

    def test_count_distinct_is_not_decomposable(self):
        assert two_phase({"d": agg.count_distinct(col("v"))}) is None


class TestOrderPreservation:
    @given(keyed_data())
    @settings(max_examples=60, deadline=None)
    def test_filter_concat_preserves_row_order(self, data):
        keys, values, cuts = data
        frame = _frame(keys, values)
        predicate = col("k") >= 3
        serial = execute_filter(frame, predicate, _Ctx())
        parts = [
            execute_filter(part, predicate, _Ctx())
            for part in _split(frame, cuts)
        ]
        merged = concat_frames(parts)
        assert _rows_of(merged) == _rows_of(serial)


class TestTopKMerge:
    @given(keyed_data(), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_topk_merge_equals_sort_then_limit(self, data, n):
        keys, values, cuts = data
        frame = _frame(keys, values)
        sort_keys = [("k", "asc"), ("v", "desc")]
        global_sorted = execute_sort(frame, sort_keys, _Ctx()).slice(0, n)
        local = [
            execute_topk(part, sort_keys, n, _Ctx())
            for part in _split(frame, cuts)
        ]
        merged = merge_topk(local, sort_keys, n, _Ctx())
        assert _rows_of(merged) == _rows_of(global_sorted)


class TestProfileMerge:
    def test_aligned_profiles_coalesce(self):
        profiles = []
        for _ in range(3):
            p = WorkProfile()
            scan = p.new_operator("scan")
            scan.ops = 10.0
            scan.tuples_in = 5.0
            agg_work = p.new_operator("aggregate")
            agg_work.rand_accesses = 2.0
            profiles.append(p)
        merged = merge_profiles(profiles)
        assert [op.operator for op in merged.operators] == ["scan", "aggregate"]
        assert merged.operators[0].ops == 30.0
        assert merged.operators[0].tuples_in == 15.0
        assert merged.operators[1].rand_accesses == 6.0

    def test_misaligned_profiles_concatenate(self):
        a = WorkProfile()
        a.new_operator("scan")
        b = WorkProfile()
        b.new_operator("scan")
        b.new_operator("filter")
        merged = merge_profiles([a, b])
        assert [op.operator for op in merged.operators] == ["scan", "scan", "filter"]
