"""Group-key factorization walls: ``keycache.factorize`` is
``np.unique(..., return_inverse=True)`` on both sides of its density
cut-off, and nothing a group-by, DISTINCT, COUNT(DISTINCT) or Grace
partitioning returns or charges depends on which kernel ran. ``np.unique``
and Python sets stay here as the oracles."""

import dataclasses
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Column, Database, Executor, Frame, Q, Table, agg, col,
    execute, keycache,
)
from repro.engine.keycache import combine_codes, dense_span, factorize
from repro.engine.operators import aggregate as aggregate_module
from repro.engine.operators.aggregate import AggSpec, execute_aggregate
from repro.engine.operators.distinct import execute_distinct
from repro.engine.profile import OperatorContext
from repro.engine.spill import _group_partition_keys, _to_uint64
from repro.engine.sql import sql
from repro.engine.types import FLOAT64, INT64

# Tier-1 example counts; CI raises them (HYPOTHESIS_PROFILE=ci).
_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"
_wall = settings(max_examples=400 if _CI else 60, deadline=None, derandomize=True)

_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def _assert_is_numpy_unique(keys):
    got_uniques, got_codes = factorize(keys)
    want_uniques, want_codes = np.unique(keys, return_inverse=True)
    assert got_uniques.dtype == want_uniques.dtype == keys.dtype
    assert got_codes.dtype == np.int64 and got_codes.shape == keys.shape
    assert np.array_equal(got_codes, want_codes)
    if keys.dtype.kind == "f":
        assert np.array_equal(got_uniques, want_uniques, equal_nan=True)
    else:
        assert np.array_equal(got_uniques, want_uniques)


def _spread(dtype, base, span, n, seed):
    """``n`` shuffled ``dtype`` keys in ``[base, base + span)`` with both
    ends present whenever ``n >= 2``; Python-int arithmetic throughout."""
    rng = np.random.default_rng(seed)
    offsets = [0, span - 1][:n] + [int(o) for o in rng.integers(0, span, size=max(0, n - 2))]
    rng.shuffle(offsets)
    return np.asarray([base + o for o in offsets], dtype=dtype)


class TestFactorize:
    """``factorize(keys)`` is ``np.unique(keys, return_inverse=True)`` —
    uniques, codes and dtypes — whichever kernel computes it."""

    @_wall
    @given(
        dtype=st.sampled_from(_INT_DTYPES),
        where=st.sampled_from(["min", "negative", "zero", "max"]),
        span=st.sampled_from([1, 2, 3, 7, 100, 255, 256]),
        density=st.sampled_from([0.5, 0.51, 1.0, 4.0]),
        seed=st.integers(0, 2**16),
    )
    def test_dense_keys_match_numpy(self, dtype, where, span, density, seed):
        info = np.iinfo(dtype)
        span = min(span, int(info.max) - int(info.min) + 1)
        top = int(info.max) - span + 1  # the last base whose span still fits
        base = {"min": int(info.min), "negative": -span // 2 - 1, "zero": 0, "max": top}[where]
        base = min(max(base, int(info.min)), top)
        keys = _spread(dtype, base, span, int(span * density) + 1, seed)
        if len(keys) >= 2:
            assert dense_span(keys, len(keys)) == (base, span)
        _assert_is_numpy_unique(keys)

    @pytest.mark.parametrize("dtype", _INT_DTYPES)
    def test_dtype_min_and_max_together_cannot_wrap(self, dtype):
        info = np.iinfo(dtype)
        keys = np.asarray([info.max, info.min, -1, 0, info.min, info.max] * 50, dtype=dtype)
        # int8's 256-value range is dense in 300 rows, so the offsets
        # must be taken in int64; the wider dtypes are exactly sparse.
        assert (dense_span(keys, len(keys)) is not None) == (dtype is np.int8)
        _assert_is_numpy_unique(keys)

    @_wall
    @given(
        dtype=st.sampled_from([np.int32, np.int64]),
        base=st.sampled_from([-(2**31), -3, 0, 2**20]),
        factor=st.sampled_from([1, 2, 8, 64]),
        n=st.integers(2, 120),
        seed=st.integers(0, 2**16),
    )
    def test_at_and_above_the_cutoff(self, dtype, base, factor, n, seed):
        with mock.patch.object(keycache, "_DENSE_FACTOR", factor):
            at = _spread(dtype, base, factor * n, n, seed)
            above = _spread(dtype, base, factor * n + 1, n, seed)
            assert dense_span(at, n) == (base, factor * n)
            assert dense_span(above, n) is None
            _assert_is_numpy_unique(at)
            _assert_is_numpy_unique(above)

    @pytest.mark.parametrize("keys", [
        np.empty(0, dtype=np.int64),
        np.asarray([7], dtype=np.int32),
        Column.from_strings(["b", "a", "b", "c", "a"] * 9).values,  # int32 codes
        Column.from_dates(["1995-03-15", "1992-01-01", "1995-03-15"] * 400).values,
        np.asarray([0, 10**12, 5], dtype=np.int64),          # sparse
        np.asarray([True, False, True]),                     # bool
        np.asarray([3, 1, 2, 1], dtype=np.uint8),            # unsigned: not "dense"
        np.asarray([0.5, np.nan, -1.0, np.nan, 0.5]),        # floats, NaNs merge
        np.asarray(["b", "a", "b"], dtype=object),           # strings
    ], ids=["empty", "one", "dict", "date", "sparse", "bool", "uint8", "nan", "str"])
    def test_fallthroughs_and_edges(self, keys):
        _assert_is_numpy_unique(keys)

    def test_key_cache_misses_and_hits_return_it(self):
        keys = np.asarray([5, 3, 5, 4] * 10, dtype=np.int64)
        for _ in range(2):  # miss, then hit
            uniques, codes = keycache.key_cache.factorize(keys)
            assert np.array_equal(uniques, [3, 4, 5]) and codes.dtype == np.int64
            assert np.array_equal(uniques[codes], keys)


# ----------------------------------------------------------------------
# The operator: same rows, same order, same work, dense or sparse keys
# ----------------------------------------------------------------------

_SPARSE = 10**6

_AGGS = {
    "n": AggSpec("count_star"),
    "s": AggSpec("sum", col("v")),
    "lo": AggSpec("min", col("v")),
    "d": AggSpec("count_distinct", col("w")),
}


def _key_column(values, nulls, scale):
    data = np.asarray(values, dtype=np.int64) * scale
    if any(nulls):
        return Column(INT64, data, valid=~np.asarray(nulls, dtype=bool))
    return Column(INT64, data)


def _run_aggregate(rows, n_keys, scale, with_nulls):
    """``(rows with keys scaled back, OperatorWork)`` of one grouped
    aggregate whose key values are multiplied by ``scale``."""
    columns = {}
    for i in range(n_keys):
        values = [row[i] for row in rows]
        nulls = [with_nulls and row[3] == i for row in rows]
        columns[f"k{i}"] = _key_column(values, nulls, scale)
    columns["v"] = Column(FLOAT64, np.asarray([row[4] / 4 for row in rows]))
    columns["w"] = Column.from_ints([row[4] % 5 for row in rows])
    frame = Frame(columns, len(rows))
    ctx = OperatorContext(None, None)
    work = ctx.begin_operator("aggregate")
    out = execute_aggregate(frame, [f"k{i}" for i in range(n_keys)], dict(_AGGS), ctx)
    keys = [
        [None if v is None else v // scale for v in out.column(f"k{i}").to_list()]
        for i in range(n_keys)
    ]
    payload = [out.column(name).to_list() for name in _AGGS]
    return list(zip(*keys, *payload)), work


def _reference_groups(rows, n_keys, with_nulls):
    groups: dict = {}
    for row in rows:
        key = tuple(
            None if (with_nulls and row[3] == i) else row[i] for i in range(n_keys)
        )
        groups.setdefault(key, []).append(row[4])
    # NULL sorts first in every key column (reserved code 0).
    order = sorted(groups, key=lambda k: tuple((v is not None, v or 0) for v in k))
    return [
        (*key, len(vs), sum(v / 4 for v in vs), min(vs) / 4, len({v % 5 for v in vs}))
        for key in order
        for vs in [groups[key]]
    ]


_agg_rows = st.lists(
    st.tuples(
        st.integers(-3, 8), st.integers(0, 4), st.integers(0, 2),
        st.integers(0, 5),      # which key column (if any) is NULL here
        st.integers(0, 40),     # the aggregated payload
    ),
    min_size=1, max_size=80,
)


class TestAggregateDenseVsSparseKeys:
    @_wall
    @given(rows=_agg_rows, n_keys=st.integers(1, 3), with_nulls=st.booleans(),
           overflow=st.booleans())
    def test_same_rows_order_and_work(self, rows, n_keys, with_nulls, overflow):
        # `overflow` forces combine_codes' lexicographic fallback, whose
        # ranks are dense whatever the keys were.
        limit = 1 if overflow else keycache._INT64_LIMIT
        with mock.patch.object(keycache, "_INT64_LIMIT", limit):
            dense_rows, dense_work = _run_aggregate(rows, n_keys, 1, with_nulls)
            sparse_rows, sparse_work = _run_aggregate(rows, n_keys, _SPARSE, with_nulls)
        assert dense_rows == sparse_rows
        assert dataclasses.asdict(dense_work) == dataclasses.asdict(sparse_work)
        want = _reference_groups(rows, n_keys, with_nulls)
        assert [r[:n_keys + 1] for r in dense_rows] == [r[:n_keys + 1] for r in want]
        for got_row, want_row in zip(dense_rows, want):
            assert got_row[n_keys + 1] == pytest.approx(want_row[n_keys + 1])
            assert got_row[n_keys + 2:] == want_row[n_keys + 2:]

    def test_the_two_key_shapes_do_take_different_kernels(self):
        from repro.obs.metrics import metrics

        rows = [(i % 7, 0, 0, 9, i) for i in range(50)]
        counts = {}
        for name, scale in (("dense", 1), ("sort", _SPARSE)):
            counter = metrics.counter(f"engine.group.kernel.{name}")
            before = counter.value
            _run_aggregate(rows, 1, scale, False)
            counts[name] = counter.value - before
        assert counts == {"dense": 1, "sort": 1}


# ----------------------------------------------------------------------
# Grace partition keys: the parent's np.unique + searchsorted, kept here
# ----------------------------------------------------------------------

def _reference_key_codes(column):
    values = column.values
    if column.valid is not None and not bool(column.valid.all()):
        uniques = np.unique(values[column.valid])
        codes = np.searchsorted(uniques, values) + 1
        codes[~column.valid] = 0
        return codes.astype(np.int64), len(uniques) + 1
    uniques, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64), max(1, len(uniques))


class TestGroupPartitionKeys:
    @_wall
    @given(
        rows=st.lists(
            st.tuples(st.integers(-4, 9), st.integers(0, 3), st.booleans(), st.booleans()),
            min_size=1, max_size=100,
        ),
        scale=st.sampled_from([1, _SPARSE]),
        as_float=st.booleans(),
    )
    def test_equals_the_numpy_reference(self, rows, scale, as_float):
        a, b, a_null, b_null = (list(part) for part in zip(*rows))
        first = _key_column(a, a_null, scale)
        if as_float:
            first = Column(FLOAT64, first.values / 2, valid=first.valid)
        frame = Frame({"a": first, "b": _key_column(b, b_null, 1)}, len(rows))
        for group_by in (["a"], ["b"], ["a", "b"]):
            codes, cards = zip(*(_reference_key_codes(frame.column(n)) for n in group_by))
            want = _to_uint64(combine_codes(list(codes), list(cards)))
            got = _group_partition_keys(frame, group_by)
            assert got.dtype == want.dtype and np.array_equal(got, want)


# ----------------------------------------------------------------------
# COUNT(DISTINCT): one helper, both sides of its product guard, and the
# global aggregate as its one-group case
# ----------------------------------------------------------------------

def _count_distinct_rows(groups, column, by):
    db = Database()
    db.add(Table("t", {"g": Column.from_ints(groups), "v": column}))
    return execute(db, Q(db).scan("t").aggregate(by=by, n=agg.count_distinct(col("v")))).rows


_distinct_rows = st.lists(
    st.tuples(st.integers(0, 5), st.integers(-(10**6), 10**6), st.booleans()),
    min_size=1, max_size=120,
)


class TestCountDistinctKernel:
    @_wall
    @given(rows=_distinct_rows, scale=st.sampled_from([1, 10**9]),
           modulus=st.sampled_from([3, 11, 10**7]), guard=st.booleans())
    def test_integer_keys_equal_set_sizes_either_side_of_the_guard(
        self, rows, scale, modulus, guard
    ):
        groups, draws, nulls = (list(part) for part in zip(*rows))
        values = [(d % modulus) * scale for d in draws]
        column = Column(INT64, np.asarray(values, dtype=np.int64),
                        valid=~np.asarray(nulls, dtype=bool))
        want: dict = {}
        for g, v, null in zip(groups, values, nulls):
            want.setdefault(g, set())
            if not null:
                want[g].add(v)
        # A limit of 1 refuses every gid * card + code product.
        limit = 1 if guard else aggregate_module._INT64_LIMIT
        with mock.patch.object(aggregate_module, "_INT64_LIMIT", limit):
            got = _count_distinct_rows(groups, column, ["g"])
        assert got == sorted((g, len(vs)) for g, vs in want.items())

    @pytest.mark.parametrize("kind", ["ints", "nan", "strings", "nulls", "all-null"])
    def test_global_is_the_single_group_case(self, kind):
        n = 60
        if kind == "ints":
            column, distinct = Column.from_ints([i % 7 * 10**10 for i in range(n)]), 7
        elif kind == "nan":
            values = [float("nan") if i % 5 == 0 else (i % 4) / 2 for i in range(n)]
            # Every NaN is its own value on both paths: 12 NaNs + {.5, 1, 1.5}
            # (i % 4 == 0 is NaN or 0.0: 0.0 survives at i = 4, 8, ...).
            column = Column.from_floats(values)
            distinct = sum(math.isnan(v) for v in values) + len(
                {v for v in values if not math.isnan(v)})
        elif kind == "strings":
            column, distinct = Column.from_strings([f"s{i % 6}" for i in range(n)]), 6
        else:
            valid = np.asarray([kind == "nulls" and i % 3 != 0 for i in range(n)])
            column = Column(INT64, np.arange(n, dtype=np.int64) % 9, valid=valid)
            distinct = len({i % 9 for i in range(n) if valid[i]})
        grouped = _count_distinct_rows([1] * n, column, ["g"])
        assert grouped == [(1, distinct)]
        assert _count_distinct_rows([1] * n, column, []) == [(distinct,)]


# ----------------------------------------------------------------------
# DISTINCT honours validity masks (NULL is one value, as in GROUP BY)
# ----------------------------------------------------------------------

def _distinct(frame, columns=None):
    ctx = OperatorContext(None, None)
    work = ctx.begin_operator("distinct")
    return execute_distinct(frame, columns, ctx), work


class TestDistinctNulls:
    def test_null_payloads_neither_merge_with_values_nor_stay_apart(self):
        # NULLs over payloads 7, 5, 9: one NULL row, and the valid 7 survives.
        column = Column(INT64, np.asarray([5, 7, 5, 9, 7], dtype=np.int64),
                        valid=np.asarray([True, False, False, False, True]))
        out, work = _distinct(Frame({"x": column}, 5))
        assert out.column("x").to_list() == [5, None, 7]
        assert (work.tuples_in, work.tuples_out, work.ops, work.rand_accesses) == (5, 3, 5, 5)

    def test_two_columns(self):
        a = Column(INT64, np.asarray([1, 1, 1, 2, 1, 2], dtype=np.int64),
                   valid=np.asarray([True, False, True, True, False, True]))
        b = Column.from_strings(["x", "x", "x", "y", "x", "z"])
        out, _ = _distinct(Frame({"a": a, "b": b}, 6))
        assert list(zip(out.column("a").to_list(), out.column("b").to_list())) == [
            (1, "x"), (None, "x"), (2, "y"), (2, "z")]
        out, _ = _distinct(Frame({"a": a, "b": b}, 6), ["a"])
        assert out.column("a").to_list() == [1, None, 2]

    def test_matches_group_by_on_the_same_frame(self):
        column = Column(FLOAT64, np.asarray([0.5, 0.5, 2.0, 0.5]),
                        valid=np.asarray([True, False, True, False]))
        frame = Frame({"x": column}, 4)
        ctx = OperatorContext(None, None)
        ctx.begin_operator("aggregate")
        grouped = execute_aggregate(frame, ["x"], {"n": AggSpec("count_star")}, ctx)
        out, _ = _distinct(frame)
        assert sorted(out.column("x").to_list(), key=repr) == sorted(
            grouped.column("x").to_list(), key=repr)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_sql_distinct_over_a_left_join_column(self, tpch_db, workers):
        # UNION (not ALL) is the grammar's DISTINCT. A customer without
        # orders carries build row 0's status under its NULL mask.
        side = "SELECT o_orderstatus FROM customer LEFT JOIN orders ON c_custkey = o_custkey"
        plan = sql(tpch_db, f"{side} UNION {side}")
        if workers == 1:
            rows = Executor(tpch_db).execute(plan).rows
        else:
            executor = Executor(tpch_db, workers=workers, morsel_rows=2048)
            try:
                rows = executor.execute(plan).rows
            finally:
                executor.close()
        assert sorted(rows, key=repr) == sorted([("F",), ("O",), ("P",), (None,)], key=repr)
