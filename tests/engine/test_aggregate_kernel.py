"""Aggregate-function walls: each function is defined once — how it
reduces (``reduce_groups``) and what it keeps so partitions merge
(``AGG_STATES`` through ``two_phase``) — and every caller agrees with a
per-group pure-Python reference that shares no code with either."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, Executor, Frame, Q, Table, agg, col, physical
from repro.engine.merge import concat_frames, decompose_aggregates, merge_partial_aggregates
from repro.engine.operators.aggregate import (
    AGG_STATES,
    AggSpec,
    execute_aggregate,
    reduce_groups,
    two_phase,
)
from repro.engine.profile import WORK_FIELDS, OperatorContext
from repro.engine.sql import sql
from repro.engine.types import DATE, FLOAT64, INT64
from repro.rollup.shapes import AggShape, derived_rewrite, storage_aggs

# Tier-1 example counts; CI raises them (HYPOTHESIS_PROFILE=ci).
_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"
_wall = settings(max_examples=500 if _CI else 100, deadline=None, derandomize=True)

# NaN inputs make numpy's minimum/maximum raise the FP "invalid" flag.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")

FUNCS = ("sum", "avg", "count", "count_star", "isum", "min", "max", "count_distinct")
BIG = 2**53


def _ctx():
    ctx = OperatorContext(None, None)
    ctx.begin_operator("aggregate")
    return ctx


# ----------------------------------------------------------------------
# The reference: one Python loop per group
# ----------------------------------------------------------------------


def _reference(func, kind, values, valid, gids, n_groups):
    """Per-group results as Python values; ``None`` is NULL."""
    out = []
    for g in range(n_groups):
        rows = [i for i, gid in enumerate(gids) if gid == g]
        live = [values[i] for i in rows if valid is None or valid[i]]
        if func == "count_star":
            out.append(len(rows))
        elif func == "count":
            out.append(len(live))
        elif func == "count_distinct":
            nans = sum(1 for v in live if isinstance(v, float) and math.isnan(v))
            out.append(len({v for v in live if v == v}) + nans)
        elif func in ("sum", "avg", "isum"):
            total = 0.0
            with np.errstate(invalid="ignore"):
                for v in live:  # bincount adds in row order
                    total = float(np.float64(total) + np.float64(v))
            if func == "sum":
                out.append(total)
            elif func == "isum":
                out.append(int(round(total)))
            else:
                out.append(total / len(live) if live else None)
        elif not live:
            out.append(None)
        elif kind == "int64":
            out.append(min(live) if func == "min" else max(live))  # exact Python ints
        elif any(math.isnan(v) for v in map(float, live)):
            out.append(math.nan)  # NaN is a value, and it poisons
        else:
            out.append(float(min(live) if func == "min" else max(live)))
    return out


def _as_python(column: Column):
    """A result column as Python values, NULL (mask, or NaN where the
    dtype has no mask) as ``None`` — NaN *values* are told apart by the
    caller, which knows whether the group was empty."""
    values = column.values.tolist()
    if column.valid is not None:
        return [v if ok else None for v, ok in zip(values, column.valid.tolist())]
    return values


def _same(got, want, nullable_float):
    if want is None:
        return got is None or (nullable_float and isinstance(got, float) and math.isnan(got))
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return got == want and type(got) is type(want)


_FLOATS = st.sampled_from([0.0, 1.5, -2.25, 3.0, 1e300, -1e300, math.inf, -math.inf, math.nan])
_BIG_INTS = st.sampled_from(
    [0, 1, -1, 7, BIG - 1, BIG, BIG + 1, BIG + 3, -BIG - 1, -BIG - 3, 2**62 + 1, -(2**62) - 1]
)
_SMALL_INTS = st.integers(-50, 50)
_DATES = st.integers(8000, 8040)


@st.composite
def _reduce_case(draw):
    kind = draw(st.sampled_from(["float64", "int64", "small", "date"]))
    n_groups = draw(st.integers(1, 5))
    n = draw(st.integers(0, 24))
    # Groups drawn from a subset, so some are never seen.
    reachable = draw(st.lists(st.integers(0, n_groups - 1), min_size=1, max_size=n_groups))
    gids = draw(st.lists(st.sampled_from(reachable), min_size=n, max_size=n))
    element = {"float64": _FLOATS, "int64": _BIG_INTS, "small": _SMALL_INTS, "date": _DATES}[kind]
    values = draw(st.lists(element, min_size=n, max_size=n))
    valid = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    return kind, n_groups, gids, values, valid


def _column(kind, values, valid):
    mask = None if valid is None else np.asarray(valid, dtype=bool)
    if kind == "float64":
        return Column(FLOAT64, np.asarray(values, dtype=np.float64), valid=mask)
    if kind == "date":
        return Column(DATE, np.asarray(values, dtype=np.int32), valid=mask)
    return Column(INT64, np.asarray(values, dtype=np.int64), valid=mask)


class TestReduceGroups:
    @_wall
    @given(case=_reduce_case(), func=st.sampled_from(FUNCS))
    def test_equals_the_per_group_reference(self, case, func):
        kind, n_groups, gids, values, valid = case
        if func == "isum" and kind != "small":  # isum merges counts: small integers
            kind, values = "small", [i % 97 for i in range(len(values))]
        column = None if func == "count_star" else _column(kind, values, valid)
        got = reduce_groups(func, column, np.asarray(gids, dtype=np.int64), n_groups)
        want = _reference(func, "int64" if kind in ("int64", "small") else kind,
                          values, None if func == "count_star" else valid, gids, n_groups)
        assert len(got) == n_groups
        if func in ("count", "count_star", "isum", "count_distinct"):
            assert got.dtype is INT64 and got.valid is None
        elif func in ("min", "max"):  # NULL by mask; INT64 in, INT64 out
            assert got.dtype is (INT64 if kind in ("int64", "small") else FLOAT64)
        elif func == "avg":  # NULL by mask exactly where no valid row reached
            assert got.dtype is FLOAT64
            assert [a is None for a in _as_python(got)] == [b is None for b in want]
        else:
            assert got.dtype is FLOAT64 and got.valid is None
        nullable_float = got.dtype is FLOAT64
        for g, (a, b) in enumerate(zip(_as_python(got), want)):
            assert _same(a, b, nullable_float), (func, kind, g, a, b)

    @_wall
    @given(case=_reduce_case(), func=st.sampled_from(("sum", "avg", "count", "count_star", "min", "max")))
    def test_counts_given_are_counts_computed(self, case, func):
        """``counts=`` is only ever a saving: handing the kernel the rows
        per group changes nothing it returns."""
        kind, n_groups, gids, values, _ = case
        gids = np.asarray(gids, dtype=np.int64)
        column = None if func == "count_star" else _column(kind, values, None)
        counts = np.bincount(gids, minlength=n_groups)
        want = reduce_groups(func, column, gids, n_groups)
        got = reduce_groups(func, column, gids, n_groups, counts)
        assert got.dtype is want.dtype
        assert np.array_equal(got.values, want.values, equal_nan=True)
        assert (got.valid is None) == (want.valid is None)
        assert got.valid is None or np.array_equal(got.valid, want.valid)

    def test_unknown_function_is_refused(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            reduce_groups("median", Column.from_ints([1]), np.zeros(1, dtype=np.int64), 1)


# ----------------------------------------------------------------------
# No keys is the one-group case
# ----------------------------------------------------------------------


_ALL_AGGS = {
    "s": agg.sum(col("v")), "a": agg.avg(col("v")), "c": agg.count(col("v")),
    "n": agg.count_star(), "lo": agg.min(col("v")), "hi": agg.max(col("v")),
    "d": agg.count_distinct(col("v")), "i": AggSpec("isum", col("w")),
    "ilo": agg.min(col("w")), "ihi": agg.max(col("w")),
}


def _assert_columns_equal(got: Column, want: Column, name=""):
    assert got.dtype is want.dtype, name
    assert np.array_equal(got.values, want.values, equal_nan=True), name
    got_valid = got.valid if got.valid is not None else np.ones(len(got), dtype=bool)
    want_valid = want.valid if want.valid is not None else np.ones(len(want), dtype=bool)
    assert np.array_equal(got_valid, want_valid), name


@st.composite
def _frame_case(draw, min_rows=1):
    n = draw(st.integers(min_rows, 30))
    v = draw(st.lists(_FLOATS, min_size=n, max_size=n))
    v_valid = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    w = draw(st.lists(_SMALL_INTS | _BIG_INTS.filter(lambda x: abs(x) <= BIG + 3), min_size=n, max_size=n))
    w_valid = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    return n, _column("float64", v, v_valid), _column("int64", w, w_valid)


class TestNoKeysIsOneGroup:
    @_wall
    @given(case=_frame_case())
    def test_global_is_grouping_by_a_constant(self, case):
        n, v, w = case
        aggs = {k: s for k, s in _ALL_AGGS.items() if k != "i"}  # isum wants small ints
        frame = Frame({"v": v, "w": w}, n)
        keyed = Frame({"one": Column.from_ints([7] * n), "v": v, "w": w}, n)
        global_ctx, keyed_ctx = _ctx(), _ctx()
        got = execute_aggregate(frame, [], aggs, global_ctx)
        want = execute_aggregate(keyed, ["one"], aggs, keyed_ctx)
        assert list(got.columns) == list(want.columns)[1:] and got.nrows == want.nrows == 1
        for name in got.columns:
            _assert_columns_equal(got.column(name), want.column(name), name)
        # Same work, but for the hash inserts a group-by pays per row and
        # the key column it writes.
        key_bytes = want.column("one").nbytes
        for field in WORK_FIELDS:
            a, b = getattr(global_ctx.work, field), getattr(keyed_ctx.work, field)
            expected = {"rand_accesses": b - n, "out_bytes": b - key_bytes}.get(field, b)
            assert a == expected, field
        assert global_ctx.work.rand_accesses == 0

    def test_empty_input_still_returns_one_row(self):
        frame = Frame({"v": _column("float64", [], None), "w": _column("int64", [], None)}, 0)
        out = execute_aggregate(frame, [], _ALL_AGGS, _ctx())
        assert out.nrows == 1
        assert [out.column(k).values[0] for k in ("s", "c", "n", "d", "i")] == [0.0, 0, 0, 0, 0]
        for k in ("a", "lo", "hi", "ilo", "ihi"):
            assert not out.column(k).valid[0]
        assert out.column("lo").dtype is FLOAT64 and out.column("ilo").dtype is INT64


# ----------------------------------------------------------------------
# MIN/MAX: empty by count, integers in their own dtype
# ----------------------------------------------------------------------


def _db(columns: dict, name="t") -> Database:
    db = Database("minmax")
    db.add(Table(name, columns))
    return db


def _morsel_merged(db, plan_of, workers=4):
    with pytest.MonkeyPatch.context() as patch, \
            Executor(db, workers=workers, morsel_rows=2) as parallel:
        patch.setattr(physical, "MIN_PARALLEL_ROWS", 2)
        lowered = parallel.lower(plan_of(db))
        assert "MorselSegment" in repr(lowered), "the plan must run as a morsel segment"
        return parallel.execute(plan_of(db))


class TestMinMaxEmptyIsACount:
    """A group holding only ±inf is not an empty group."""

    K = [1, 1, 2, 2, 3, 3, 3, 3]
    V = [math.inf, math.inf, 3.0, -math.inf, -math.inf, -math.inf, 5.0, math.inf]
    WANT_MIN = [(1, math.inf), (2, -math.inf), (3, -math.inf)]
    WANT_MAX = [(1, math.inf), (2, 3.0), (3, math.inf)]

    def _frame(self):
        return Frame({"k": Column.from_ints(self.K), "v": Column.from_floats(self.V)}, len(self.K))

    def test_grouped(self):
        out = execute_aggregate(
            self._frame(), ["k"], {"lo": agg.min(col("v")), "hi": agg.max(col("v"))}, _ctx()
        )
        assert list(zip(out.column("k").values.tolist(), out.column("lo").values.tolist())) == self.WANT_MIN
        assert list(zip(out.column("k").values.tolist(), out.column("hi").values.tolist())) == self.WANT_MAX

    def test_the_issue_frame(self):
        frame = Frame({"k": Column.from_ints([1, 1, 2]),
                       "v": Column.from_floats([math.inf, math.inf, 3.0])}, 3)
        grouped = execute_aggregate(frame, ["k"], {"m": agg.min(col("v"))}, _ctx())
        assert grouped.column("m").values.tolist() == [math.inf, 3.0]
        top = Frame({"v": Column.from_floats([-math.inf, -math.inf])}, 2)
        out = execute_aggregate(top, [], {"m": agg.max(col("v"))}, _ctx())
        assert out.column("m").values.tolist() == [-math.inf]

    def test_morsel_merged(self):
        db = _db({"k": Column.from_ints(self.K), "v": Column.from_floats(self.V)})
        plan_of = lambda db: Q(db).scan("t").filter(col("k") > 0).aggregate(  # noqa: E731
            ["k"], lo=agg.min(col("v")), hi=agg.max(col("v")))
        serial = Executor(db).execute(plan_of(db))
        merged = _morsel_merged(db, plan_of)
        assert merged.rows == serial.rows
        assert [(k, lo) for k, lo, _ in merged.rows] == self.WANT_MIN
        assert [(k, hi) for k, _, hi in merged.rows] == self.WANT_MAX

    def test_two_phase_partial_then_final(self):
        aggs = {"lo": agg.min(col("v")), "hi": agg.max(col("v"))}
        partial, _, _ = two_phase(aggs)
        frame = self._frame()
        parts = [execute_aggregate(frame.take(np.arange(lo, lo + 2)), ["k"], partial, _ctx())
                 for lo in range(0, 8, 2)]
        out = merge_partial_aggregates(parts, ["k"], aggs, _ctx())
        assert list(zip(out.column("k").values.tolist(), out.column("lo").values.tolist())) == self.WANT_MIN
        assert list(zip(out.column("k").values.tolist(), out.column("hi").values.tolist())) == self.WANT_MAX

    def test_an_all_null_group_is_still_null(self):
        v = Column(FLOAT64, np.asarray([math.inf, 1.0, 2.0]), valid=np.asarray([False, False, True]))
        w = Column(INT64, np.asarray([5, 6, 7]), valid=np.asarray([False, False, True]))
        frame = Frame({"k": Column.from_ints([1, 1, 2]), "v": v, "w": w}, 3)
        out = execute_aggregate(
            frame, ["k"], {"lo": agg.min(col("v")), "hi": agg.max(col("v")), "ilo": agg.min(col("w"))}, _ctx()
        )
        assert out.column("lo").valid.tolist() == out.column("hi").valid.tolist() == [False, True]
        assert out.column("lo").values[1] == out.column("hi").values[1] == 2.0
        assert out.column("ilo").valid.tolist() == [False, True]
        assert out.column("ilo").values.tolist() == [0, 7]


class TestFloatMinMaxEmptyIsNull:
    """An empty or all-NULL FLOAT64 MIN/MAX is NULL by mask, as INT64's
    is, so a morsel or partial group with no valid rows drops out of a
    merge instead of poisoning it with NaN."""

    def test_serial_equals_four_workers(self):
        db = _db({"k": Column.from_ints(range(1, 9)),
                  "v": Column.from_floats([float(i) for i in range(1, 9)])})
        plan_of = lambda db: sql(db, "SELECT MIN(v) AS m, MAX(v) AS x FROM t WHERE k >= 4")  # noqa: E731
        assert Executor(db).execute(plan_of(db)).rows == [(4.0, 8.0)]
        assert _morsel_merged(db, plan_of).rows == [(4.0, 8.0)]

    def test_a_partial_group_of_only_nulls_drops_out(self):
        v = Column(FLOAT64, np.asarray([9.0, 5.0, 6.0, 2.0, 7.0]),
                   valid=np.asarray([False, True, True, True, False]))
        frame = Frame({"k": Column.from_ints([1, 1, 1, 2, 3]), "v": v}, 5)
        aggs = {"lo": agg.min(col("v")), "hi": agg.max(col("v"))}
        partial, _, _ = two_phase(aggs)
        parts = [execute_aggregate(frame.take(np.asarray(rows)), ["k"], partial, _ctx())
                 for rows in ([0, 4], [1, 2, 3])]
        merged = merge_partial_aggregates(parts, ["k"], aggs, _ctx())
        direct = execute_aggregate(frame, ["k"], aggs, _ctx())
        for out in (merged, direct):
            rows = list(zip(*(_as_python(out.column(c)) for c in ("k", "lo", "hi"))))
            assert rows == [(1, 5.0, 6.0), (2, 2.0, 2.0), (3, None, None)]


class TestAvgOverNothingIsNull:
    """AVG with no valid row is NULL by mask, as MIN/MAX are, wherever it
    is reduced or recomposed: the kernel, the morsel merge and the
    two-phase projection."""

    QUERY = "SELECT AVG(v) AS a, MIN(v) AS m FROM t WHERE k > 100"

    @staticmethod
    def _t():
        return _db({"k": Column.from_ints(range(1, 9)),
                    "v": Column.from_floats([float(i) for i in range(1, 9)])})

    def test_serial(self):
        db = self._t()
        assert Executor(db).execute(sql(db, self.QUERY)).rows == [(None, None)]

    def test_four_workers(self):
        assert _morsel_merged(self._t(), lambda db: sql(db, self.QUERY)).rows == [(None, None)]

    def test_a_grouped_all_null_group(self):
        v = Column(FLOAT64, np.asarray([1.0, 2.0, 3.0]), valid=np.asarray([True, False, False]))
        frame = Frame({"k": Column.from_ints([1, 2, 2]), "v": v}, 3)
        out = execute_aggregate(frame, ["k"], {"a": agg.avg(col("v"))}, _ctx())
        assert _as_python(out.column("a")) == [1.0, None]

    def test_the_recomposed_two_phase_form(self):
        _, _, projections = two_phase({"a": agg.avg(col("v"))})
        merged = Frame({"a@sum": Column.from_floats([3.0, 0.0]),
                        "a@cnt": Column.from_ints([2, 0])}, 2)
        out = dict(projections)["a"].evaluate(merged, _ctx())
        assert out.dtype is FLOAT64 and _as_python(out) == [1.5, None]


class TestIntegerMinMaxStaysInteger:
    """INT64 past 2**53 must not round-trip through float64."""

    K = [1, 1, 1, 2, 2, 2]
    W = [BIG + 1, BIG + 3, BIG + 1, -BIG - 3, 4, -BIG - 1]
    WANT = [(1, BIG + 1, BIG + 3), (2, -BIG - 3, 4)]
    AGGS = {"lo": agg.min(col("w")), "hi": agg.max(col("w"))}

    def _frame(self):
        return Frame({"k": Column.from_ints(self.K), "w": Column.from_ints(self.W)}, len(self.K))

    @staticmethod
    def _rows(frame):
        assert frame.column("lo").dtype is INT64 and frame.column("hi").dtype is INT64
        return list(zip(*(frame.column(c).values.tolist() for c in frame.columns)))

    def test_grouped(self):
        assert self._rows(execute_aggregate(self._frame(), ["k"], self.AGGS, _ctx())) == self.WANT

    def test_global(self):
        frame = Frame({"w": Column.from_ints([BIG + 1, BIG + 3])}, 2)
        assert self._rows(execute_aggregate(frame, [], self.AGGS, _ctx())) == [(BIG + 1, BIG + 3)]
        below = Frame({"w": Column.from_ints([BIG - 1, BIG - 3])}, 2)  # exact on the parent too
        assert self._rows(execute_aggregate(below, [], self.AGGS, _ctx())) == [(BIG - 3, BIG - 1)]

    def test_morsel_merged(self):
        db = _db({"k": Column.from_ints(self.K), "w": Column.from_ints(self.W)})
        plan_of = lambda db: Q(db).scan("t").filter(col("k") > 0).aggregate(  # noqa: E731
            ["k"], **self.AGGS)
        assert _morsel_merged(db, plan_of).rows == Executor(db).execute(plan_of(db)).rows == self.WANT

    def test_partial_state_merge(self):
        partial, _, _ = two_phase(self.AGGS)
        parts = [execute_aggregate(self._frame().take(np.asarray(rows)), ["k"], partial, _ctx())
                 for rows in ([0, 3], [1, 4], [2, 5])]
        assert self._rows(merge_partial_aggregates(parts, ["k"], self.AGGS, _ctx())) == self.WANT


# ----------------------------------------------------------------------
# Two-phase: final ∘ partial over any split is the direct aggregate
# ----------------------------------------------------------------------


def _run_plan(db, node_aggs, group_by, source="cells"):
    """Aggregate ``source`` with ``node_aggs`` then project — through the
    serial executor, as routing and the cluster driver do."""
    inner, projections = node_aggs
    plan = Q(db).scan(source).aggregate(list(group_by), **dict(inner)).project(**dict(projections))
    return Executor(db).execute(plan)


@st.composite
def _split_case(draw):
    n, v, w = draw(_frame_case(min_rows=2))
    keys = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4)))
    order = draw(st.permutations(range(n)))
    return n, keys, v, w, cuts, list(order)


# Float sums depend on the order rows are added in, so summed inputs are
# small integers (exact in float64) carrying ``w``'s NULLs. MIN/MAX states
# carry NULL as a mask in both dtypes, so ``v`` (NaN, ±inf) and ``w`` have
# NULLs too.
_TWO_PHASE_AGGS = {
    "s": agg.sum(col("i")), "a": agg.avg(col("i")), "c": agg.count(col("w")),
    "n": agg.count_star(), "lo": agg.min(col("v")), "hi": agg.max(col("v")),
    "z": AggSpec("isum", col("i")), "ilo": agg.min(col("w")), "ihi": agg.max(col("w")),
}


class TestTwoPhase:
    def test_none_exactly_for_count_distinct(self):
        for func in FUNCS:
            spec = AggSpec(func, None if func == "count_star" else col("v"))
            split = two_phase({"x": spec, "n": agg.count_star()})
            assert (split is None) == (func == "count_distinct") == (func not in AGG_STATES), func
            assert (decompose_aggregates({"x": spec}) is None) == (split is None)

    def test_the_function_table(self):
        partial, final, projections = two_phase(_TWO_PHASE_AGGS)
        assert list(partial) == list(final) == [
            "s", "a@sum", "a@cnt", "c", "n", "lo", "hi", "z", "ilo", "ihi"]
        assert {name: spec.func for name, spec in partial.items()} == {
            "s": "sum", "a@sum": "sum", "a@cnt": "count", "c": "count", "n": "count_star",
            "lo": "min", "hi": "max", "z": "isum", "ilo": "min", "ihi": "max"}
        assert {name: spec.func for name, spec in final.items()} == {
            "s": "sum", "a@sum": "sum", "a@cnt": "isum", "c": "isum", "n": "isum",
            "lo": "min", "hi": "max", "z": "isum", "ilo": "min", "ihi": "max"}
        assert [name for name, _ in projections] == list(_TWO_PHASE_AGGS)
        assert decompose_aggregates(_TWO_PHASE_AGGS) == (partial, final)

    @_wall
    @given(case=_split_case(), grouped=st.booleans())
    def test_final_of_partials_is_the_direct_aggregate(self, case, grouped):
        n, keys, v, w, cuts, order = case
        small = Column(INT64, np.asarray([(k * 7 + i) % 23 - 11 for i, k in enumerate(keys)]),
                       valid=w.valid)
        frame = Frame({"k": Column.from_ints(keys), "v": v, "w": w, "i": small}, n).take(
            np.asarray(order))
        group_by = ["k"] if grouped else []
        want = execute_aggregate(frame, group_by, _TWO_PHASE_AGGS, _ctx())
        bounds = [0, *cuts, n]
        parts = [frame.take(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]

        # Naming 1: ``name`` / ``name@part`` — the morsel merge.
        partial, final, projections = two_phase(_TWO_PHASE_AGGS)
        partials = [execute_aggregate(p, group_by, partial, _ctx()) for p in parts]
        got = merge_partial_aggregates(partials, group_by, _TWO_PHASE_AGGS, _ctx())
        assert list(got.columns) == list(want.columns)
        for name in want.columns:
            _assert_columns_equal(got.column(name), want.column(name), name)

        # The same states through the returned projections — the cluster driver.
        stacked = concat_frames(partials)
        db = _db(dict(stacked.columns), name="cells")
        keys_out = [(g, col(g)) for g in group_by]
        driven = _run_plan(db, (final.items(), keys_out + projections), group_by).frame
        for name in want.columns:
            _assert_columns_equal(driven.column(name), want.column(name), name)

        # Naming 2: a cube's ``m{i}_{part}`` columns through its colmap — routing.
        # (A query cannot ask for isum, so routing never sees it.)
        routed_aggs = tuple((k, s) for k, s in _TWO_PHASE_AGGS.items() if s.func != "isum")
        shape = AggShape(None, "", (), tuple(group_by), routed_aggs)
        specs, colmap = storage_aggs(shape.measures())
        assert all(name.startswith("m") and "_" in name for name in specs)
        cells = [execute_aggregate(p, group_by, specs, _ctx()) for p in parts]
        cube = concat_frames(cells)
        routed = _run_plan(
            _db(dict(cube.columns), name="cells"),
            derived_rewrite(routed_aggs, tuple(group_by), colmap), group_by,
        ).frame
        assert list(routed.columns) == [c for c in want.columns if c != "z"]
        for name in routed.columns:
            _assert_columns_equal(routed.column(name), want.column(name), name)
