"""Late frames against their dense equivalents, bit for bit.

An inner or left join returns a late frame — its inputs' base columns
plus one row-id array per source — and every logical operation on it
must equal the same operation on the frame the eager join materializes
(the same join over densified inputs with late materialization off):
``column``, ``filter``, ``take``, ``slice``, ``partition``, ``renamed``,
the pass-through projection and ``dense``, values (the placeholder under
a NULL included) and validity masks alike. Inputs are random late and
dense frames joined all four ways, left outer joins with misses, and a
second join stacked on a left-outer output so ``-1`` row ids compose.
Gather debt is charged once per column gathered through non-contiguous
row ids and emptied by ``drain_gather_debt``.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Frame
from repro.engine.expr import ColRef
from repro.engine.operators.join import execute_join
from repro.engine.operators.project import execute_project
from repro.engine.profile import OperatorWork
from repro.engine.types import DATE, FLOAT64, INT64

# Tier-1 example counts; CI raises them (HYPOTHESIS_PROFILE=ci).
_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"

HOWS = ("inner", "left", "semi", "anti")


def _wall(examples: int):
    return settings(
        max_examples=examples * (5 if _CI else 1), deadline=None, derandomize=True
    )


class _Ctx:
    """Minimal execution context: the late-materialization gate and one
    work record."""

    def __init__(self, late: bool):
        self.late = late
        self.work = OperatorWork("hashjoin")


def _mask(draw, n, elements=st.booleans()):
    return np.asarray(draw(st.lists(elements, min_size=n, max_size=n)), dtype=bool)


@st.composite
def _input(draw, prefix: str):
    """One join input: five columns of four dtypes (a nullable key, a
    nullable payload, floats with NaN, strings, dates), dense or late
    over an arbitrary (unordered, repeating) or contiguous selection."""
    n = draw(st.integers(0, 12))
    keys = np.asarray(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), np.int64)
    key_valid = _mask(draw, n, st.booleans() | st.just(True))
    payload_valid = _mask(draw, n)
    floats = draw(st.lists(st.floats(allow_nan=True, width=64), min_size=n, max_size=n))
    words = draw(st.lists(st.sampled_from(["x", "yy", "zzz"]), min_size=n, max_size=n))
    columns = {
        f"{prefix}k": Column(INT64, keys, valid=None if key_valid.all() else key_valid),
        f"{prefix}i": Column(INT64, np.arange(n, dtype=np.int64) * 7, valid=payload_valid),
        f"{prefix}f": Column(FLOAT64, np.asarray(floats, dtype=np.float64)),
        f"{prefix}s": Column.from_strings(words),
        f"{prefix}d": Column(DATE, np.arange(n, dtype=np.int32) + 9000),
    }
    kind = draw(st.sampled_from(["dense", "late", "run"]))
    if kind == "dense" or n == 0:
        return Frame(columns, n)
    if kind == "run":
        lo = draw(st.integers(0, n - 1))
        return Frame(columns, selection=np.arange(lo, draw(st.integers(lo, n))))
    picks = draw(st.lists(st.integers(0, n - 1), max_size=14))
    return Frame(columns, selection=np.asarray(picks, dtype=np.int32))


@st.composite
def _joins(draw):
    """``(inputs, how, stack)``: a join of inputs ``a`` and ``b``, and
    optionally (``stack`` = the side it takes) a second join of ``c``
    with the first's output — over a left outer first join when stacked
    on the right, so its ``-1`` row ids compose with the second's."""
    inputs = (draw(_input("a")), draw(_input("b")), draw(_input("c")))
    stack = draw(st.sampled_from([None, "left", "right"]))
    how = "left" if stack == "right" else draw(st.sampled_from(HOWS))
    second = draw(st.sampled_from(HOWS))
    return inputs, how, stack, second


def _run(joins, late: bool) -> Frame:
    """The joins under the gate (``late``) or, eagerly, over densified
    inputs — the dense equivalent."""
    (a, b, c), how, stack, second = joins
    ctx = _Ctx(late)
    if not late:
        a, b, c = a.dense(), b.dense(), c.dense()
    out = execute_join(a, b, ["ak"], ["bk"], how, ctx)
    if stack == "left":
        out = execute_join(out, c, ["ak"], ["ck"], second, ctx)
    elif stack == "right":
        out = execute_join(c, out, ["ck"], ["ak"], second, ctx)
    return out


def _same_column(got: Column, want: Column, label: str) -> None:
    assert got.dtype is want.dtype, label
    assert got.values.dtype == want.values.dtype, label
    assert got.values.tobytes() == want.values.tobytes(), label
    assert (got.dictionary is None) == (want.dictionary is None), label
    if want.dictionary is not None:  # codes equal, so must their strings be
        assert got.to_list() == want.to_list(), label
    ones = np.ones(len(want), dtype=bool)
    got_valid = ones if got.valid is None else got.valid
    want_valid = ones if want.valid is None else want.valid
    assert np.array_equal(got_valid, want_valid), f"{label}: validity"


def _same(got: Frame, want: Frame, label: str) -> None:
    assert list(got.columns) == list(want.columns), label
    assert got.nrows == want.nrows, label
    assert got.nbytes == want.nbytes, label
    for name in want.columns:
        _same_column(got.column(name), want.column(name), f"{label}: {name}")


class TestLateEqualsDense:
    @_wall(150)
    @given(joins=_joins(), data=st.data())
    def test_every_logical_operation(self, joins, data):
        late, dense = _run(joins, True), _run(joins, False)
        assert not dense.is_late
        (a, b, _), how, stack, _ = joins
        if stack is None:
            # Inner and left joins emit one row-id array per input;
            # semi and anti joins keep their left input's form.
            assert late.is_late == (how in ("inner", "left") or a.is_late)
            if how in ("inner", "left"):
                assert len(late.rows) == 2
        _same(late, dense, "column")
        _same(late.dense(), dense, "dense")

        n = dense.nrows
        mask = _mask(data.draw, n)
        _same(late.filter(mask), dense.filter(mask), "filter")
        indices = np.asarray(
            data.draw(st.lists(st.integers(-1, n - 1), max_size=16)), dtype=np.int64
        )
        _same(late.take(indices), dense.take(indices), "take")
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n + 2))
        _same(late.slice(lo, hi), dense.slice(lo, hi), "slice")
        parts = data.draw(st.integers(1, 4))
        ids = np.asarray(
            data.draw(st.lists(st.integers(0, parts - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        for i, (got, want) in enumerate(
            zip(late.partition(ids, parts), dense.partition(ids, parts))
        ):
            _same(got, want, f"partition {i}")

        names = list(dense.columns)
        kept = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        mapping = {name: f"r_{name}" for name in kept}
        _same(late.renamed(mapping), dense.renamed(mapping), "renamed")
        exprs = {f"p_{name}": ColRef(name) for name in kept}
        _same(
            execute_project(late, exprs, _Ctx(True)),
            execute_project(dense, exprs, _Ctx(True)),
            "project",
        )


def _expected_debt(frame: Frame, names) -> float:
    """``nrows x width`` per column whose row ids are not one contiguous
    ascending run (those gather as zero-copy slices)."""
    debt = 0.0
    for name in set(names):
        source = 0 if frame.source_of is None else frame.source_of[name]
        ids = frame.rows[source]
        run = len(ids) == 0 or (
            ids[0] >= 0 and np.array_equal(ids, np.arange(ids[0], ids[0] + len(ids)))
        )
        if not run:
            debt += frame.nrows * frame.columns[name].dtype.width
    return debt


class TestGatherDebt:
    @_wall(100)
    @given(joins=_joins(), data=st.data())
    def test_each_column_is_charged_once(self, joins, data):
        late = _run(joins, True)
        if not late.is_late:
            assert late.drain_gather_debt() == 0
            return
        assert late.id_bytes == late.nrows * 4 * len(late.rows)
        names = data.draw(st.lists(st.sampled_from(list(late.columns)), max_size=8))
        for name in names:
            late.column(name)
        want = _expected_debt(late, names)
        assert late.drain_gather_debt() == want
        assert late.drain_gather_debt() == 0
        for name in names:  # memoized: a second read gathers nothing
            late.column(name)
        assert late.drain_gather_debt() == 0

        fresh = _run(joins, True)
        work = OperatorWork("t")
        fresh.dense(work)
        assert work.gather_bytes == _expected_debt(fresh, list(fresh.columns))
        assert fresh.drain_gather_debt() == 0
