"""Hash-join tests: all join types, duplicates, multi-key, nulls."""

import dataclasses
import os
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, Frame, Q, Table, col, execute, keycache
from repro.engine.keycache import dense_span, stable_order
from repro.engine.operators.join import (
    _expand,
    _match,
    _probe_dense,
    _probe_sort,
    execute_join,
)
from repro.engine.profile import OperatorContext
from repro.engine.types import INT64
from repro.obs.metrics import metrics


class TestInnerJoin:
    def test_basic_with_duplicates(self, toy_db):
        result = execute(
            toy_db,
            Q(toy_db).scan("t").join("u", on=[("k", "k2")]).sort("k", "w"),
        )
        assert result.column("k") == [1, 2, 2]
        assert result.column("w") == [100.0, 200.0, 201.0]

    def test_no_matches(self, toy_db):
        db = toy_db
        result = execute(
            db,
            Q(db).scan("t").filter(col("k") == 3).join("u", on=[("k", "k2")]),
        )
        assert len(result) == 0

    def test_join_keeps_both_sides_columns(self, toy_db):
        result = execute(toy_db, Q(toy_db).scan("t").join("u", on=[("k", "k2")]))
        assert set(result.column_names) >= {"k", "v", "k2", "w", "name"}

    def test_equal_key_names_deduplicated(self):
        db = Database()
        db.add(Table("a", {"id": Column.from_ints([1, 2]), "x": Column.from_ints([10, 20])}))
        db.add(Table("b", {"id": Column.from_ints([2, 3]), "y": Column.from_ints([200, 300])}))
        result = execute(db, Q(db).scan("a").join("b", on=[("id", "id")]))
        assert result.column_names.count("id") == 1
        assert result.rows == [(2, 20, 200)]

    def test_non_key_collision_raises(self):
        db = Database()
        db.add(Table("a", {"id": Column.from_ints([1]), "x": Column.from_ints([1])}))
        db.add(Table("b", {"id2": Column.from_ints([1]), "x": Column.from_ints([2])}))
        with pytest.raises(ValueError, match="duplicate"):
            execute(db, Q(db).scan("a").join("b", on=[("id", "id2")]))

    def test_string_keys(self):
        db = Database()
        db.add(Table("a", {"s": Column.from_strings(["x", "y", "z"])}))
        db.add(Table("b", {"s2": Column.from_strings(["y", "z", "w"]),
                           "n": Column.from_ints([1, 2, 3])}))
        result = execute(db, Q(db).scan("a").join("b", on=[("s", "s2")]).sort("s"))
        assert result.column("s") == ["y", "z"]
        assert result.column("n") == [1, 2]

    def test_multi_key_join(self):
        db = Database()
        db.add(Table("a", {
            "p": Column.from_ints([1, 1, 2]),
            "q": Column.from_ints([10, 20, 10]),
        }))
        db.add(Table("b", {
            "p2": Column.from_ints([1, 2, 1]),
            "q2": Column.from_ints([10, 10, 99]),
            "tag": Column.from_strings(["m1", "m2", "m3"]),
        }))
        result = execute(
            db, Q(db).scan("a").join("b", on=[("p", "p2"), ("q", "q2")]).sort("p")
        )
        assert result.column("tag") == ["m1", "m2"]

    def test_multi_key_string_and_int(self):
        db = Database()
        db.add(Table("a", {
            "i": Column.from_ints([1, 2]),
            "s": Column.from_strings(["x", "y"]),
        }))
        db.add(Table("b", {
            "i2": Column.from_ints([1, 2]),
            "s2": Column.from_strings(["x", "z"]),
            "v": Column.from_ints([7, 8]),
        }))
        result = execute(db, Q(db).scan("a").join("b", on=[("i", "i2"), ("s", "s2")]))
        # Differently-named right key columns survive the join.
        assert result.rows == [(1, "x", 1, "x", 7)]


class TestLeftJoin:
    def test_unmatched_left_rows_get_nulls(self, toy_db):
        result = execute(
            toy_db,
            Q(toy_db).scan("t").join("u", on=[("k", "k2")], how="left").sort("k"),
        )
        w = dict(zip(result.column("k"), result.column("w")))
        assert w[3] is None and w[6] is None
        assert w[1] == 100.0

    def test_row_count(self, toy_db):
        result = execute(
            toy_db, Q(toy_db).scan("t").join("u", on=[("k", "k2")], how="left")
        )
        # 6 left rows, k=2 matches twice -> 7 output rows
        assert len(result) == 7

    def test_null_keys_do_not_cascade(self, toy_db):
        # Left-joining twice: nulls from the first join must not match
        plan = (
            Q(toy_db).scan("t")
            .join("u", on=[("k", "k2")], how="left")
            .filter(col("w").is_null())
        )
        result = execute(toy_db, plan)
        assert sorted(result.column("k")) == [3, 4, 5, 6]


class TestSemiAnti:
    def test_semi_keeps_left_columns_only(self, toy_db):
        result = execute(
            toy_db, Q(toy_db).scan("t").join("u", on=[("k", "k2")], how="semi")
        )
        assert result.column_names == ["k", "v", "s", "d"]
        assert sorted(result.column("k")) == [1, 2]

    def test_semi_no_duplicate_explosion(self, toy_db):
        # k=2 matches two u rows but must appear once.
        result = execute(
            toy_db, Q(toy_db).scan("t").join("u", on=[("k", "k2")], how="semi")
        )
        assert len(result) == 2

    def test_anti_complement(self, toy_db):
        semi = execute(
            toy_db, Q(toy_db).scan("t").join("u", on=[("k", "k2")], how="semi")
        )
        anti = execute(
            toy_db, Q(toy_db).scan("t").join("u", on=[("k", "k2")], how="anti")
        )
        assert sorted(semi.column("k") + anti.column("k")) == [1, 2, 3, 4, 5, 6]

    def test_unknown_join_type(self, toy_db):
        with pytest.raises(ValueError, match="unknown join type"):
            execute(toy_db, Q(toy_db).scan("t").join("u", on=[("k", "k2")], how="full"))


class TestJoinProfile:
    def test_probe_accounting(self, toy_db):
        result = execute(toy_db, Q(toy_db).scan("t").join("u", on=[("k", "k2")]))
        join_work = [op for op in result.profile.operators if op.operator == "hashjoin"][0]
        assert join_work.tuples_in == 10  # 6 left + 4 right
        assert join_work.rand_accesses >= 6  # at least one probe per left row
        assert join_work.out_bytes > 0

    def test_join_with_subplan(self, toy_db):
        filtered_u = Q(toy_db).scan("u").filter(col("w") > 150.0)
        result = execute(
            toy_db, Q(toy_db).scan("t").join(filtered_u, on=[("k", "k2")])
        )
        assert sorted(result.column("w")) == [200.0, 201.0]


# ----------------------------------------------------------------------
# Two probe kernels, two build orders: the equivalence wall
# ----------------------------------------------------------------------

# Tier-1 example counts; CI raises them (HYPOTHESIS_PROFILE=ci).
_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"
_wall = settings(max_examples=400 if _CI else 60, deadline=None, derandomize=True)

_INT_DTYPES = (np.int32, np.int64)


def _keys_spanning(dtype, base, span, n, distinct, seed):
    """``n`` shuffled keys of ``dtype`` drawn from ``distinct`` values in
    ``[base, base + span)``, both ends included whenever ``n >= 2``."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, span, size=max(1, min(distinct, n)))
    offsets = pool[rng.integers(0, len(pool), size=n)]
    offsets[:2] = (0, span - 1)[:n]
    rng.shuffle(offsets)
    return (offsets + base).astype(dtype)


def _assert_same_order(keys):
    got, want = stable_order(keys), np.argsort(keys, kind="stable")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestStableOrder:
    """``stable_order(keys)`` is ``np.argsort(keys, kind="stable")`` —
    values and dtype — on both sides of its density cut-off."""

    @_wall
    @given(
        dtype=st.sampled_from(_INT_DTYPES),
        base=st.sampled_from([-(2**31), -70_000, -65_536, -1, 0, 1, 65_535, 2**30]),
        # Digit boundaries: one pass up to 2**16 values, two beyond.
        span=st.sampled_from([1, 2, 3, 255, 65_535, 65_536, 65_537, 70_001, 131_073]),
        density=st.sampled_from([0.5, 0.51, 1.0, 3.0]),
        distinct=st.sampled_from([1, 2, 7, 1_000, 10**6]),
        seed=st.integers(0, 2**16),
    )
    def test_dense_keys_match_numpy(self, dtype, base, span, density, distinct, seed):
        n = int(span * density) + 1  # always at or above the cut-off
        keys = _keys_spanning(dtype, base, span, n, distinct, seed)
        assert dense_span(keys, len(keys)) is not None
        _assert_same_order(keys)

    @_wall
    @given(
        dtype=st.sampled_from(_INT_DTYPES),
        base=st.sampled_from([-(2**31), -3, 0, 2**20]),
        n=st.integers(0, 300),
        over=st.integers(1, 2**20),
        seed=st.integers(0, 2**16),
    )
    def test_at_and_above_the_cutoff(self, dtype, base, n, over, seed):
        # span == 2n is the last dense length; anything wider (and
        # lengths 0 and 1) is numpy's own sort. Both must agree with it.
        at = _keys_spanning(dtype, base, max(1, 2 * n), n, n, seed)
        above = _keys_spanning(dtype, base, 2 * n + over, n, n, seed)
        if n >= 2:
            assert dense_span(at, n) == (base, 2 * n)
            assert dense_span(above, n) is None
        _assert_same_order(at)
        _assert_same_order(above)

    @_wall
    @given(
        dtype=st.sampled_from(_INT_DTYPES),
        # Three and four digit passes: never dense at a real cut-off
        # (2**31 rows), so the cut-off is lifted for this test.
        span=st.sampled_from([2**32 - 1, 2**32, 2**32 + 1, 2**47, 2**48 + 5, 2**63 + 9, 2**64]),
        n=st.integers(2, 200),
        seed=st.integers(0, 2**16),
    )
    def test_wide_digit_boundaries(self, dtype, span, n, seed):
        info = np.iinfo(dtype)
        span = min(span, int(info.max) - int(info.min) + 1)
        # Python ints: neither ``span`` nor ``min + span`` need fit int64.
        draw = random.Random(seed)
        offsets = [0, span - 1] + [draw.randrange(span) for _ in range(n - 2)]
        draw.shuffle(offsets)
        keys = np.asarray([int(info.min) + o for o in offsets], dtype=dtype)
        with mock.patch.object(keycache, "_DENSE_FACTOR", 2**64):
            assert dense_span(keys, n) == (int(info.min), span)
            _assert_same_order(keys)

    @pytest.mark.parametrize("keys", [
        np.empty(0, dtype=np.int64),
        np.asarray([7], dtype=np.int32),
        np.arange(1000, dtype=np.int64),            # presorted: numpy's O(n) scan
        np.arange(1000, dtype=np.int64)[::-1],      # dense, descending
        np.asarray([0.5, np.nan, -1.0, np.nan]),    # floats fall back, NaN last
        np.asarray(["b", "a", "b"], dtype=object),  # strings fall back
        np.asarray([3, 1, 2, 1], dtype=np.uint8),   # unsigned: not "dense"
        np.asarray([-128, 127, 0, -1] * 40, dtype=np.int8),  # span > dtype max
    ], ids=["empty", "one", "sorted", "reversed", "nan", "str", "uint8", "int8"])
    def test_fallbacks_and_edges(self, keys):
        _assert_same_order(keys)

    def test_sparse_range_wider_than_int64_is_not_dense(self):
        info = np.iinfo(np.int64)
        keys = np.asarray([info.min, info.max] * 4, dtype=np.int64)
        assert dense_span(keys, 10**9) is None  # 2**64 values: exact, no wrap
        _assert_same_order(keys)


def _sort_pairs(left, right):
    counts, lo, order = _probe_sort(left, right)
    return (counts, *_expand(counts, lo, order))


def _dense_pairs(left, right):
    base = int(right.min())
    span = int(right.max()) - base + 1
    counts, lo, order = _probe_dense(left, right, base, span, True)
    only_counts = _probe_dense(left, right, base, span, False)
    assert only_counts[1] is None and only_counts[2] is None
    assert np.array_equal(only_counts[0], counts)
    return (counts, *_expand(counts, lo, order))


def _assert_same_pairs(left, right):
    for got, want in zip(_dense_pairs(left, right), _sort_pairs(left, right)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestProbeKernels:
    """The direct-address kernel returns exactly what the sort kernel
    returns: counts, left indices, right indices, values and dtypes."""

    @_wall
    @given(
        dtype=st.sampled_from(_INT_DTYPES),
        # Build range anchored at either end of the dtype, or inside it.
        anchor=st.sampled_from(["min", "max", "zero", "negative"]),
        span=st.integers(1, 300),
        n_right=st.integers(1, 200),
        n_left=st.integers(0, 200),
        # "unique": distinct keys sampled from the span, every build key
        # once, so the dense kernel reads its matches off the slot table.
        distinct=st.sampled_from([1, 3, 50, 10**6, "unique"]),
        seed=st.integers(0, 2**16),
    )
    def test_dense_equals_sort(self, dtype, anchor, span, n_right, n_left, distinct, seed):
        info = np.iinfo(dtype)
        base = {
            "min": int(info.min), "max": int(info.max) - span + 1,
            "zero": 0, "negative": -span // 2,
        }[anchor]
        if distinct == "unique":
            offsets = np.random.default_rng(seed).choice(span, min(n_right, span), replace=False)
            right = (offsets + base).astype(dtype)
            low = int(right.min())
            _, _, order = _probe_dense(right, right, low, int(right.max()) - low + 1, True)
            assert order is None  # the slot path: nothing sorted
        else:
            right = _keys_spanning(dtype, base, span, n_right, distinct, seed)
        # Probe keys: inside the build range (duplicates included), just
        # outside it on both ends, and at both ends of the dtype.
        rng = np.random.default_rng(seed + 1)
        inside = [base + int(o) for o in rng.integers(0, span, size=n_left)]
        outside = [base - 1, base - 7, base + span, base + span + 7, int(info.min), int(info.max)]
        pool = inside + [v for v in outside if info.min <= v <= info.max]
        left = np.asarray(pool, dtype=dtype)[rng.permutation(len(pool))[:n_left]]
        _assert_same_pairs(left, right)

    def test_empty_probe(self):
        right = np.asarray([5, 3, 3, 9], dtype=np.int64)
        _assert_same_pairs(np.empty(0, dtype=np.int64), right)

    def test_int32_dictionary_codes(self):
        left = Column.from_strings(["b", "a", "zz", "b", "c"])
        right = Column.from_string_codes(np.asarray([2, 0, 0, 1]), left.dictionary)
        assert left.values.dtype == right.values.dtype == np.int32
        _assert_same_pairs(left.values, right.values)
        assert _match(left.values, right.values, True)[0] == "dense"

    def test_match_picks_the_kernel_from_the_keys(self):
        build = np.arange(100, dtype=np.int64)
        probe = np.asarray([3, 3, 250, -1], dtype=np.int64)
        assert _match(probe, build, True)[0] == "dense"
        assert _match(probe, build * 10**6, True)[0] == "sort"       # sparse
        assert _match(probe, build.astype(np.float64), True)[0] == "sort"
        assert _match(probe.astype(np.float64), build, True)[0] == "sort"
        # An empty build has no range to address.
        kernel, counts, lo, order = _match(probe, build[:0], True)
        assert kernel == "sort" and not counts.any()
        assert all(len(idx) == 0 for idx in _expand(counts, lo, order))

    def test_mixed_width_sides_take_the_sort_kernel(self):
        # Probe keys an int32 build side cannot represent: the dtype
        # check routes mixed widths to the sort kernel, whose
        # ``searchsorted`` promotes, before any int32 arithmetic on
        # ``2**40`` could raise OverflowError.
        build = np.arange(100, dtype=np.int32)
        probe = np.asarray([5, 2**40, -(2**40), 99], dtype=np.int64)
        kernel, counts, _, _ = _match(probe, build, True)
        assert kernel == "sort" and counts.tolist() == [1, 0, 0, 1]
        kernel, counts, _, _ = _match(build, probe, False)
        assert kernel == "sort" and int(counts.sum()) == 2


def _key_column(values, nulls):
    valid = None if not any(nulls) else ~np.asarray(nulls, dtype=bool)
    return Column(INT64, np.asarray(values, dtype=np.int64), valid=valid)


def _frames(lkeys, lnulls, rkeys, rnulls, scale=1):
    left = Frame({
        "k": _key_column([k * scale for k in lkeys], lnulls),
        "lv": Column.from_ints(range(len(lkeys))),
    }, len(lkeys))
    right = Frame({
        "k2": _key_column([k * scale for k in rkeys], rnulls),
        "rv": Column.from_ints(range(len(rkeys))),
    }, len(rkeys))
    return left, right


def _run_join(left, right, how):
    ctx = OperatorContext(None, None)
    work = ctx.begin_operator("hashjoin")
    out = execute_join(left, right, ["k"], ["k2"], how, ctx)
    payload = [out.column("lv").to_list()]
    if how in ("inner", "left"):
        payload.append(out.column("rv").to_list())
    return list(zip(*payload)), work


def _reference_join(lkeys, lnulls, rkeys, rnulls, how):
    """Nested loops in emission order: left rows ascending, right rows
    ascending within a key, outer misses last. NULL never matches."""
    hits = [
        [j for j, rk in enumerate(rkeys) if rk == lk and not rnulls[j] and not lnulls[i]]
        for i, lk in enumerate(lkeys)
    ]
    if how == "semi":
        return [(i,) for i, h in enumerate(hits) if h]
    if how == "anti":
        return [(i,) for i, h in enumerate(hits) if not h]
    rows = [(i, j) for i, h in enumerate(hits) for j in h]
    if how == "left":
        rows += [(i, None) for i, h in enumerate(hits) if not h]
    return rows


_sides = st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-5, 30), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n),
))


class TestJoinKernelsEndToEnd:
    @_wall
    @given(left=_sides, right=_sides, how=st.sampled_from(["inner", "left", "semi", "anti"]))
    def test_all_hows_with_nulls_match_nested_loops(self, left, right, how):
        rows, _ = _run_join(*_frames(*left, *right), how)
        assert rows == _reference_join(*left, *right, how)

    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    def test_same_rows_same_work_whichever_kernel(self, how):
        """``modeled_pi_s`` hangs on this: the kernel is a wall-clock
        choice, the recorded work is the classic hash join's either way
        (in particular, semi/anti charge ``rand_accesses`` from the
        NULL-masked counts exactly what the pair list used to)."""
        rng = np.random.default_rng(19)
        lkeys = rng.integers(0, 60, 500).tolist()
        rkeys = rng.integers(10, 80, 300).tolist()
        lnulls = (rng.random(500) < 0.1).tolist()
        rnulls = (rng.random(300) < 0.1).tolist()
        ran = {}
        for kernel, scale in (("dense", 1), ("sort", 10**6)):  # k * 10**6 is sparse
            counter = metrics.counter(f"engine.join.kernel.{kernel}")
            before = counter.value
            ran[kernel] = _run_join(*_frames(lkeys, lnulls, rkeys, rnulls, scale), how)
            assert counter.value == before + 1
        (dense_rows, dense_work), (sort_rows, sort_work) = ran["dense"], ran["sort"]
        assert dense_rows == sort_rows == _reference_join(lkeys, lnulls, rkeys, rnulls, how)
        assert dataclasses.asdict(dense_work) == dataclasses.asdict(sort_work)
        assert dense_work.rand_accesses > len(lkeys)  # probes + matches

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_unique_build_with_nulls_equals_the_sort_kernel(self, how):
        """A unique dense build side takes the slot table (no build order
        is asked for); NULL keys on either side still match nothing, and
        rows and work equal the sort kernel's."""
        rng = np.random.default_rng(23)
        lkeys = rng.integers(0, 90, 400).tolist()
        rkeys = rng.permutation(80)[:60].tolist()  # each key once
        lnulls = (rng.random(400) < 0.15).tolist()
        rnulls = (rng.random(60) < 0.15).tolist()
        with mock.patch.object(keycache.key_cache, "sort_order", side_effect=AssertionError):
            dense_rows, dense_work = _run_join(*_frames(lkeys, lnulls, rkeys, rnulls), how)
        sort_rows, sort_work = _run_join(*_frames(lkeys, lnulls, rkeys, rnulls, 10**6), how)
        assert dense_rows == sort_rows == _reference_join(lkeys, lnulls, rkeys, rnulls, how)
        assert dataclasses.asdict(dense_work) == dataclasses.asdict(sort_work)
        assert any(r is None for _, r in dense_rows) == (how == "left")
