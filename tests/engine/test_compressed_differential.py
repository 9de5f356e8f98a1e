"""Differential + property wall for compressed (encoded-domain) execution.

Two layers of defense for the "never change an answer" guarantee:

* **Differential suite.** Every TPC-H query (SF 0.01) and every ad-events
  query (x1.0) runs against a fully compressed database four ways —
  serial and 4-worker morsel-parallel, each with compressed execution
  enabled (the default) and disabled (``--no-compressed-exec``) — and
  all four must agree with each other and with the committed goldens of
  the *plain* databases. A mistranslated predicate constant, an RLE run
  boundary off by one, or a group built from the wrong run shows up as a
  row-level diff here.

* **Property wall.** Hypothesis drives every supported encoding ×
  predicate operator × dtype combination — including NULLs, empty
  columns, constants at the data min/max ± 1, constants between
  fixed-point cents, NaN, and the dtype extremes — and asserts the
  compressed-domain mask is *bit-identical* to evaluating the same
  conjunct on the decoded column. A second property does the same for
  run-level aggregation against the row-at-a-time decode path.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adevents import QUERY_NAMES as ADEVENTS_NAMES
from repro.adevents import build as adevents_build
from repro.adevents import generate as adevents_generate
from repro.engine import (
    DEFAULT_SETTINGS,
    Column,
    Executor,
    Frame,
    col,
)
from repro.engine.compression import (
    BitPackedEncoding,
    CompressedColumn,
    DeltaEncoding,
    FrameOfReferenceEncoding,
    RunLengthEncoding,
    _ScaledEncoding,
    compress_table,
)
from repro.engine.encoded import (
    compile_conjunct,
    compile_predicate,
    prepare_aggregate,
)
from repro.engine.operators.aggregate import (
    avg,
    count,
    count_star,
    execute_aggregate,
    max_,
    min_,
    sum_,
)
from repro.engine import executor as executor_module
from repro.engine.plan import LimitNode, MorselSegmentNode, SortNode
from repro.engine.profile import OperatorWork, WorkProfile
from repro.engine.table import Database, Table
from repro.engine.types import DATE, FLOAT64, INT64, STRING, date_to_days
from repro.tpch import ALL_QUERY_NUMBERS, get_query

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "tpch" / "data" / "golden_sf001_seed42.json").read_text()
)
ADEVENTS_GOLDEN = json.loads(
    (Path(__file__).parent.parent / "adevents" / "data" / "golden_x1_seed7.json").read_text()
)

WORKERS = 4
TPCH_MORSEL_ROWS = 2048  # force real multi-morsel execution at SF 0.01
ADEVENTS_MORSEL_ROWS = 4096

ENC = DEFAULT_SETTINGS  # compressed execution is the default
DEC = DEFAULT_SETTINGS.without_compressed()


# ----------------------------------------------------------------------
# Shared result-comparison helpers (same semantics as the latemat suite)
# ----------------------------------------------------------------------


class _Ctx:
    """Minimal evaluation context: a fresh profile with one operator."""

    def __init__(self):
        self.profile = WorkProfile()
        self.work = self.profile.new_operator("test")

    def scalar(self, plan):  # pragma: no cover - not used here
        raise NotImplementedError


class _ExecCtx:
    """Execution context for plan-level helpers: begin_operator only."""

    def __init__(self):
        self.profile = WorkProfile()

    def begin_operator(self, name: str):
        return self.profile.new_operator(name)


def _is_ordered(plan) -> bool:
    node = plan.node
    while isinstance(node, LimitNode):
        node = node.child
    return isinstance(node, SortNode)


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


def _assert_values_equal(expected_rows, actual_rows, label):
    assert len(expected_rows) == len(actual_rows), label
    for i, (expected, actual) in enumerate(zip(expected_rows, actual_rows)):
        assert len(expected) == len(actual)
        for a, b in zip(expected, actual):
            if isinstance(a, float) and isinstance(b, float):
                if math.isnan(a) and math.isnan(b):
                    continue
                assert b == pytest.approx(a, rel=1e-9, abs=1e-9), (
                    f"{label} row {i}: {a!r} != {b!r}"
                )
            else:
                assert a == b, f"{label} row {i}: {a!r} != {b!r}"


def _assert_same(plan, reference, candidate, label):
    assert candidate.column_names == reference.column_names
    if _is_ordered(plan):
        _assert_values_equal(reference.rows, candidate.rows, label)
    else:
        assert _canonical(candidate.rows) == _canonical(reference.rows), label


def _assert_golden(plan, result, expected):
    assert len(result) == expected["rows"]
    assert list(result.column_names) == expected["columns"]
    assert _numeric_sum(result.rows) == pytest.approx(
        expected["numeric_sum"], rel=1e-6, abs=0.02
    )
    if expected["first_row"] and _is_ordered(plan):
        # Fixed-point float columns decode to cents/100.0, which may
        # differ from the plain doubles in the last bit — compare
        # numerically, not by string.
        for actual, pinned in zip(result.rows[0], expected["first_row"]):
            try:
                pinned_value = float(pinned)
            except ValueError:
                assert str(actual) == pinned
            else:
                assert float(actual) == pytest.approx(pinned_value, rel=1e-9, abs=1e-9)


def _compress_db(db, name: str) -> Database:
    out = Database(name)
    for table in db.table_names:
        out.add(compress_table(db.table(table)))
    return out


# ----------------------------------------------------------------------
# Differential: all 22 TPC-H queries on a compressed database
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def ctpch_db(tpch_db) -> Database:
    return _compress_db(tpch_db, "ctpch")


@pytest.fixture(scope="module")
def ctpch_executors(ctpch_db):
    made = {
        "enc": Executor(
            ctpch_db, workers=WORKERS, morsel_rows=TPCH_MORSEL_ROWS,
            settings=ENC,
        ),
        "dec": Executor(
            ctpch_db, workers=WORKERS, morsel_rows=TPCH_MORSEL_ROWS,
            settings=DEC,
        ),
    }
    yield made
    for executor in made.values():
        executor.close()


class TestTpchCompressedDifferential:
    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    def test_four_way_agreement(
        self, ctpch_db, tpch_params, ctpch_executors, number
    ):
        plan = get_query(number).build(ctpch_db, tpch_params)
        serial_dec = Executor(ctpch_db, DEC).execute(plan)
        serial_enc = Executor(ctpch_db, ENC).execute(plan)
        parallel_enc = ctpch_executors["enc"].execute(plan)
        parallel_dec = ctpch_executors["dec"].execute(plan)

        _assert_same(plan, serial_dec, serial_enc, f"Q{number} serial enc-vs-dec")
        _assert_same(plan, serial_enc, parallel_enc, f"Q{number} parallel-enc")
        _assert_same(plan, serial_dec, parallel_dec, f"Q{number} parallel-dec")

    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    def test_matches_plain_golden(
        self, ctpch_db, tpch_params, ctpch_executors, number
    ):
        """Encoded execution over the compressed database must still
        reproduce the goldens pinned against the *plain* database."""
        plan = get_query(number).build(ctpch_db, tpch_params)
        result = ctpch_executors["enc"].execute(plan)
        _assert_golden(plan, result, GOLDEN[str(number)])


# ----------------------------------------------------------------------
# Differential: all 11 ad-events queries on a compressed database
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cadevents_db() -> Database:
    return _compress_db(adevents_generate(1.0, seed=7), "cadevents")


@pytest.fixture(scope="module")
def cadevents_executors(cadevents_db):
    made = {
        "enc": Executor(
            cadevents_db, workers=WORKERS, morsel_rows=ADEVENTS_MORSEL_ROWS, settings=ENC,
        ),
        "dec": Executor(
            cadevents_db, workers=WORKERS, morsel_rows=ADEVENTS_MORSEL_ROWS, settings=DEC,
        ),
    }
    yield made
    for executor in made.values():
        executor.close()


class TestAdEventsCompressedDifferential:
    @pytest.mark.parametrize("name", ADEVENTS_NAMES)
    def test_four_way_agreement(self, cadevents_db, cadevents_executors, name):
        plan = adevents_build(cadevents_db, name)
        serial_dec = Executor(cadevents_db, DEC).execute(plan)
        serial_enc = Executor(cadevents_db, ENC).execute(plan)
        parallel_enc = cadevents_executors["enc"].execute(plan)
        parallel_dec = cadevents_executors["dec"].execute(plan)

        _assert_same(plan, serial_dec, serial_enc, f"{name} serial enc-vs-dec")
        _assert_same(plan, serial_enc, parallel_enc, f"{name} parallel-enc")
        _assert_same(plan, serial_dec, parallel_dec, f"{name} parallel-dec")

    @pytest.mark.parametrize("name", ADEVENTS_NAMES)
    def test_matches_plain_golden(self, cadevents_db, cadevents_executors, name):
        plan = adevents_build(cadevents_db, name)
        result = cadevents_executors["enc"].execute(plan)
        _assert_golden(plan, result, ADEVENTS_GOLDEN[name])


# ----------------------------------------------------------------------
# Morsels on compressed tables: a scan decodes only the rows it owns
# ----------------------------------------------------------------------


class _DecodeMeter:
    """Counts the rows ``CompressedColumn.to_column`` / ``decode_range``
    materialize, and records every ``to_column()`` made while a scan over
    only part of a table is running on the calling thread."""

    def __init__(self, monkeypatch):
        self.rows = 0
        self.partial_to_column: list[str] = []
        self._lock = threading.Lock()
        scanning = threading.local()
        meter = self
        to_column, decode_range = CompressedColumn.to_column, CompressedColumn.decode_range
        scan_range = executor_module.scan_range

        def counted_to_column(col):
            with meter._lock:
                meter.rows += col.n
                if getattr(scanning, "partial", None):
                    meter.partial_to_column.append(scanning.partial)
            return to_column(col)

        def counted_decode_range(col, lo, hi):
            with meter._lock:
                meter.rows += max(0, min(hi, col.n) - lo)
            return decode_range(col, lo, hi)

        def watched_scan_range(table, node, start, stop, ctx):
            if (start, stop) != (0, table.nrows):
                scanning.partial = f"{table.name}[{start}:{stop})"
            try:
                return scan_range(table, node, start, stop, ctx)
            finally:
                scanning.partial = None

        monkeypatch.setattr(CompressedColumn, "to_column", counted_to_column)
        monkeypatch.setattr(CompressedColumn, "decode_range", counted_decode_range)
        monkeypatch.setattr(executor_module, "scan_range", watched_scan_range)

    def take(self) -> int:
        rows, self.rows = self.rows, 0
        return rows


def _pre_skipped(node) -> bool:
    """Whether lowering dropped a morsel anywhere in this physical plan."""
    if isinstance(node, MorselSegmentNode) and node.skipped is not None:
        return True
    return any(_pre_skipped(child) for child in node.children())


class TestMorselsDecodeOnlyTheirRows:
    """The suite's scan classes + Q1/Q6/Q12/Q14 on date-clustered
    compressed tables: splitting a scan into morsels must not change what
    it is charged for skipping, nor make it decode (or be charged for
    decoding) more than the serial scan does."""

    @pytest.mark.parametrize("morsel_rows", [2048, 65536])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_accounting_and_decodes_bounded_by_serial(
        self, scan_pins, clustered_ctpch_db, monkeypatch, workers, morsel_rows
    ):
        db = clustered_ctpch_db
        db.build_zone_maps()  # so no zone-stat decode lands inside a measurement
        meter = _DecodeMeter(monkeypatch)
        serial = Executor(db)
        with Executor(
            db, workers=workers, morsel_rows=morsel_rows
        ) as parallel:
            for name, text in scan_pins.QUERIES.items():
                plan = scan_pins.sql(db, text)
                want = serial.execute(plan).profile
                serial_rows = meter.take()
                got = parallel.execute(plan).profile
                parallel_rows = meter.take()

                assert got.skipped_bytes == pytest.approx(
                    want.skipped_bytes, rel=1e-9
                ), name
                assert got.decoded_bytes <= want.decoded_bytes, name
                if not _pre_skipped(parallel.lower(plan)):
                    assert got.decoded_bytes == want.decoded_bytes, name
                assert parallel_rows <= serial_rows, name
        assert meter.partial_to_column == []


# ----------------------------------------------------------------------
# Property wall: encoded predicate kernels ≡ decode-then-eval
# ----------------------------------------------------------------------

_FORCEABLE = {
    "bitpack": BitPackedEncoding(),
    "for": FrameOfReferenceEncoding(),
    "rle": RunLengthEncoding(),
}

_I64 = np.iinfo(np.int64)
_I32 = np.iinfo(np.int32)


def _force_compress(column: Column, encoding) -> CompressedColumn:
    """Compress ``column`` with exactly ``encoding``, even when the
    auto-picker would keep it plain (small test arrays never win on
    size, but the kernels must still be exact)."""
    assert column.valid is None
    values = column.values
    scale = None
    if column.dtype is FLOAT64:
        cents = np.round(values * 100).astype(np.int64)
        assert np.allclose(cents / 100.0, values, atol=1e-9)
        values = cents
        scale = 100.0
    payload = encoding.encode(values)
    nbytes = encoding.encoded_nbytes(payload)
    if scale is not None:
        payload = ("scaled", scale, payload)
    return CompressedColumn(
        dtype=column.dtype,
        encoding_name=encoding.name,
        payload=payload,
        n=len(column),
        nbytes=nbytes,
        decode_ops=float(len(column)),
        plain_nbytes=column.nbytes,
        dictionary=column.dictionary,
        _encoding=_ScaledEncoding(encoding, scale) if scale is not None else encoding,
    )


def _table_of(columns: dict) -> Table:
    table = Table.__new__(Table)
    table.name = "t"
    table.columns = columns
    table.nrows = len(next(iter(columns.values())))
    return table


def _check_encoded_mask(column: Column, expr, lo: int, hi: int):
    """For every forceable encoding: the conjunct compiles, and its mask
    over [0, n) and over the [lo, hi) subrange is bit-identical to
    evaluating the same conjunct on the decoded column."""
    n = len(column)
    for enc_name, encoding in _FORCEABLE.items():
        ccol = _force_compress(column, encoding)
        plan = compile_conjunct(expr, _table_of({"x": ccol}))
        assert plan is not None, enc_name
        decoded = Frame({"x": ccol.to_column()}, n)
        want = np.asarray(expr.evaluate(decoded, _Ctx()).values, dtype=bool)
        got = plan.mask(0, n, _Ctx().work)
        assert got.dtype == np.bool_, enc_name
        assert np.array_equal(got, want), enc_name
        sub = plan.mask(lo, hi, _Ctx().work)
        assert np.array_equal(sub, want[lo:hi]), f"{enc_name} [{lo}:{hi})"


_CMP_OPS = ["==", "!=", "<", "<=", ">", ">="]


def _cmp(op: str, constant):
    ref = col("x")
    return {
        "==": ref == constant, "!=": ref != constant,
        "<": ref < constant, "<=": ref <= constant,
        ">": ref > constant, ">=": ref >= constant,
    }[op]


@st.composite
def _runs_and_range(draw, value_st, max_runs: int = 12, max_run: int = 5):
    """Clustered values (so RLE sees real runs) plus a probe subrange."""
    n_runs = draw(st.integers(min_value=0, max_value=max_runs))
    run_values = draw(st.lists(value_st, min_size=n_runs, max_size=n_runs))
    lengths = draw(
        st.lists(st.integers(1, max_run), min_size=n_runs, max_size=n_runs)
    )
    values = [v for v, l in zip(run_values, lengths) for _ in range(l)]
    n = len(values)
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(lo, n))
    return values, lo, hi


def _boundary_pool(values: list[int], extremes: tuple[int, int]) -> list[int]:
    """Domain-boundary constants: data min/max ± 1 and the dtype extremes."""
    lo, hi = extremes
    pool = [0, lo, hi]
    if values:
        vmin, vmax = min(values), max(values)
        pool += [vmin, vmax, max(vmin - 1, lo), min(vmax + 1, hi)]
    return pool


class TestEncodedPredicatesAgree:
    @settings(max_examples=80, deadline=None)
    @given(
        data=_runs_and_range(
            st.integers(-1000, 1000)
            | st.sampled_from([0, 255, 256, -256, 10**6, -(10**6), 2**40])
        ),
        op=st.sampled_from(_CMP_OPS),
        pick=st.data(),
    )
    def test_int64_comparisons(self, data, op, pick):
        values, lo, hi = data
        pool = _boundary_pool(values, (int(_I64.min), int(_I64.max)))
        constant = pick.draw(st.sampled_from(pool) | st.integers(-1200, 1200))
        column = Column.from_ints(values)
        _check_encoded_mask(column, _cmp(op, constant), lo, hi)

    @settings(max_examples=80, deadline=None)
    @given(
        data=_runs_and_range(st.integers(-40000, 40000)),
        op=st.sampled_from(_CMP_OPS),
        pick=st.data(),
    )
    def test_float64_fixed_point_comparisons(self, data, op, pick):
        """FLOAT64 stored as cents: constants include values *between*
        representable cents (±half a cent), NaN, and the infinities —
        the bisection must reproduce float comparison semantics exactly."""
        cents, lo, hi = data
        values = [c / 100.0 for c in cents]
        cent_consts = [c / 100.0 for c in _boundary_pool(cents, (-(10**9), 10**9))]
        off_grid = [c + 0.005 for c in cent_consts] + [c - 0.005 for c in cent_consts]
        constant = pick.draw(
            st.sampled_from(cent_consts + off_grid + [math.nan, math.inf, -math.inf])
        )
        column = Column.from_floats(values)
        _check_encoded_mask(column, _cmp(op, constant), lo, hi)

    @settings(max_examples=80, deadline=None)
    @given(
        data=_runs_and_range(st.integers(7000, 11000)),  # ~1989..2000 in days
        op=st.sampled_from(_CMP_OPS),
        pick=st.data(),
    )
    def test_date_comparisons(self, data, op, pick):
        """DATE (int32 storage): int-day constants at the data boundary,
        the int32 extremes, constants past int32 (promoted comparisons),
        and ISO date-string literals translated through date_to_days."""
        days, lo, hi = data
        pool = _boundary_pool(days, (int(_I32.min), int(_I32.max)))
        constant = pick.draw(
            st.sampled_from(pool + [2**40, -(2**40)])
            | st.sampled_from(["1994-01-01", "1995-06-17", "1998-12-31"])
        )
        column = Column(DATE, np.asarray(days, dtype=np.int32))
        _check_encoded_mask(column, _cmp(op, constant), lo, hi)

    @settings(max_examples=80, deadline=None)
    @given(
        data=_runs_and_range(
            st.sampled_from(["apple", "banana", "cherry", "kiwi", ""])
        ),
        op=st.sampled_from(_CMP_OPS),
        probe=st.sampled_from(
            ["apple", "banana", "", "durian", "aaa", "zzz", "ap", "apple pie"]
        ),
    )
    def test_string_comparisons(self, data, op, probe):
        """Dictionary-mask kernels, including probes that are not
        dictionary-resident."""
        words, lo, hi = data
        column = Column.from_strings(words)
        _check_encoded_mask(column, _cmp(op, probe), lo, hi)

    @settings(max_examples=60, deadline=None)
    @given(
        data=_runs_and_range(
            st.sampled_from(["apple", "banana", "cherry", "kiwi", ""])
        ),
        wanted=st.lists(
            st.sampled_from(["apple", "cherry", "durian", "zzz", ""]),
            min_size=0, max_size=4,
        ),
    )
    def test_string_isin(self, data, wanted):
        words, lo, hi = data
        column = Column.from_strings(words)
        _check_encoded_mask(column, col("x").isin(wanted), lo, hi)

    @settings(max_examples=60, deadline=None)
    @given(
        data=_runs_and_range(
            st.sampled_from(["apple", "banana", "cherry", "kiwi", ""])
        ),
        pattern=st.sampled_from(
            ["%an%", "a%", "%y", "_pple", "%", "", "ap_le", "%a%a%", "zzz%"]
        ),
    )
    def test_string_like(self, data, pattern):
        words, lo, hi = data
        column = Column.from_strings(words)
        _check_encoded_mask(column, col("x").like(pattern), lo, hi)

    @settings(max_examples=60, deadline=None)
    @given(
        data=_runs_and_range(st.integers(-100, 100)),
        wanted=st.lists(st.integers(-110, 110), min_size=0, max_size=5),
    )
    def test_int_isin_rle_only(self, data, wanted):
        """Numeric IN compiles for RLE (one membership test per run) and
        deliberately falls back for packed encodings."""
        values, lo, hi = data
        column = Column.from_ints(values)
        expr = col("x").isin(wanted)
        for enc_name, encoding in _FORCEABLE.items():
            ccol = _force_compress(column, encoding)
            plan = compile_conjunct(expr, _table_of({"x": ccol}))
            if enc_name != "rle":
                assert plan is None, enc_name
                continue
            assert plan is not None
            decoded = Frame({"x": ccol.to_column()}, len(column))
            want = np.asarray(expr.evaluate(decoded, _Ctx()).values, dtype=bool)
            assert np.array_equal(plan.mask(0, len(column), _Ctx().work), want)
            assert np.array_equal(plan.mask(lo, hi, _Ctx().work), want[lo:hi])

    def test_empty_column_all_encodings(self):
        column = Column.from_ints([])
        for op in _CMP_OPS:
            _check_encoded_mask(column, _cmp(op, 0), 0, 0)

    def test_nullable_column_never_compiles(self):
        """Nullable columns stay plain, so every conjunct lands on the
        residual (decode) list and no encoded plans are produced."""
        column = Column(
            INT64, np.asarray([1, 2, 3], dtype=np.int64),
            valid=np.asarray([True, False, True]),
        )
        table = _table_of({"x": column})
        conjuncts = [_cmp("==", 2), _cmp("<", 3)]
        plans, residual = compile_predicate(conjuncts, table)
        assert plans == []
        assert residual == conjuncts

    def test_delta_encoding_never_compiles(self):
        """Delta prefix sums have no packed-domain comparison; the
        conjunct must fall back to decode-then-eval."""
        column = Column.from_ints(list(range(100)))
        ccol = _force_compress(column, DeltaEncoding())
        assert compile_conjunct(_cmp(">", 50), _table_of({"x": ccol})) is None


# ----------------------------------------------------------------------
# Property wall: RLE run-level aggregation ≡ decode-then-aggregate
# ----------------------------------------------------------------------


def _assert_frames_identical(want: Frame, got: Frame):
    assert list(got.columns) == list(want.columns)
    assert got.nrows == want.nrows
    for name in want.columns:
        a, b = want.column(name), got.column(name)
        assert b.dtype is a.dtype, name
        if a.dtype is STRING:
            assert b.to_list() == a.to_list(), name
        else:
            assert np.array_equal(
                np.asarray(a.values), np.asarray(b.values), equal_nan=True
            ), name
        a_valid = a.valid if a.valid is not None else np.ones(len(a), dtype=bool)
        b_valid = b.valid if b.valid is not None else np.ones(len(b), dtype=bool)
        assert np.array_equal(a_valid, b_valid), name


@st.composite
def _rle_agg_case(draw):
    n_runs = draw(st.integers(1, 10))
    key_runs = draw(st.lists(st.integers(0, 4), min_size=n_runs, max_size=n_runs))
    key_lens = draw(st.lists(st.integers(1, 6), min_size=n_runs, max_size=n_runs))
    keys = [k for k, l in zip(key_runs, key_lens) for _ in range(l)]
    n = len(keys)
    # Input column with its own, differently aligned run structure.
    vals: list[int] = []
    while len(vals) < n:
        v = draw(st.integers(-500, 500))
        vals.extend([v] * draw(st.integers(1, 4)))
    return keys, vals[:n]


class TestEncodedAggregateAgrees:
    @settings(max_examples=60, deadline=None)
    @given(case=_rle_agg_case())
    def test_grouped_int_aggregates(self, case):
        keys, vals = case
        kcol = _force_compress(Column.from_ints(keys), RunLengthEncoding())
        vcol = _force_compress(Column.from_ints(vals), RunLengthEncoding())
        table = _table_of({"k": kcol, "v": vcol})
        aggs = {
            "total": sum_(col("v")),
            "mean": avg(col("v")),
            "lo": min_(col("v")),
            "hi": max_(col("v")),
            "cnt": count_star(),
        }
        plan = prepare_aggregate(table, ["k"], aggs)
        assert plan is not None
        got = plan.execute(_ExecCtx())
        decoded = Frame(
            {"k": kcol.to_column(), "v": vcol.to_column()}, table.nrows
        )
        want = execute_aggregate(decoded, ["k"], aggs, _Ctx())
        _assert_frames_identical(want, got)

    @settings(max_examples=60, deadline=None)
    @given(case=_rle_agg_case())
    def test_grouped_float_min_max(self, case):
        """Fixed-point FLOAT64 inputs: only min/max/count compile (sums
        fall back), and the run-level extremes decode through the same
        cents/scale cast as the row-level path."""
        keys, cents = case
        kcol = _force_compress(Column.from_ints(keys), RunLengthEncoding())
        vcol = _force_compress(
            Column.from_floats([c / 100.0 for c in cents]), RunLengthEncoding()
        )
        table = _table_of({"k": kcol, "v": vcol})
        aggs = {"lo": min_(col("v")), "hi": max_(col("v")), "cnt": count_star()}
        plan = prepare_aggregate(table, ["k"], aggs)
        assert plan is not None
        got = plan.execute(_ExecCtx())
        decoded = Frame(
            {"k": kcol.to_column(), "v": vcol.to_column()}, table.nrows
        )
        want = execute_aggregate(decoded, ["k"], aggs, _Ctx())
        _assert_frames_identical(want, got)

    @settings(max_examples=60, deadline=None)
    @given(case=_rle_agg_case())
    def test_string_keys(self, case):
        key_ids, vals = case
        names = ["alpha", "beta", "gamma", "delta", "epsilon"]
        kcol = _force_compress(
            Column.from_strings([names[k] for k in key_ids]), RunLengthEncoding()
        )
        vcol = _force_compress(Column.from_ints(vals), RunLengthEncoding())
        table = _table_of({"k": kcol, "v": vcol})
        aggs = {"total": sum_(col("v")), "cnt": count_star()}
        plan = prepare_aggregate(table, ["k"], aggs)
        assert plan is not None
        got = plan.execute(_ExecCtx())
        decoded = Frame(
            {"k": kcol.to_column(), "v": vcol.to_column()}, table.nrows
        )
        want = execute_aggregate(decoded, ["k"], aggs, _Ctx())
        _assert_frames_identical(want, got)

    @settings(max_examples=60, deadline=None)
    @given(case=_rle_agg_case())
    def test_global_aggregates(self, case):
        _, vals = case
        vcol = _force_compress(Column.from_ints(vals), RunLengthEncoding())
        table = _table_of({"v": vcol})
        aggs = {
            "total": sum_(col("v")),
            "mean": avg(col("v")),
            "lo": min_(col("v")),
            "hi": max_(col("v")),
            "cnt": count_star(),
        }
        plan = prepare_aggregate(table, [], aggs)
        assert plan is not None
        got = plan.execute(_ExecCtx())
        want = execute_aggregate(
            Frame({"v": vcol.to_column()}, table.nrows), [], aggs, _Ctx()
        )
        _assert_frames_identical(want, got)

    @pytest.mark.parametrize("grouped", [True, False])
    def test_int64_extremes_past_2_53_stay_exact(self, grouped):
        """MIN/MAX over runs reduce INT64 in its own dtype, like the row
        path: neither rounds through float64."""
        big = 2**53
        kcol = _force_compress(Column.from_ints([1, 1, 1, 2, 2, 2]), RunLengthEncoding())
        vcol = _force_compress(
            Column.from_ints([big + 1, big + 1, big + 3, -big - 3, 4, 4]), RunLengthEncoding()
        )
        table = _table_of({"k": kcol, "v": vcol})
        aggs = {"lo": min_(col("v")), "hi": max_(col("v"))}
        group_by = ["k"] if grouped else []
        plan = prepare_aggregate(table, group_by, aggs)
        assert plan is not None
        got = plan.execute(_ExecCtx())
        want = [(big + 1, big + 3), (-big - 3, 4)] if grouped else [(-big - 3, big + 3)]
        assert got.column("lo").dtype is INT64 and got.column("hi").dtype is INT64
        assert list(zip(got.column("lo").values.tolist(), got.column("hi").values.tolist())) == want
        decoded = Frame({"k": kcol.to_column(), "v": vcol.to_column()}, table.nrows)
        _assert_frames_identical(execute_aggregate(decoded, group_by, aggs, _Ctx()), got)

    def test_run_level_work_is_what_it_was(self):
        """The run-level ``OperatorWork`` of a Q1-shaped, a
        ``flag_groupby``-shaped and a keyless aggregate, pinned from the
        commit before the four aggregate loops became one kernel (PR 24's
        parent): segments, runs touched and bytes are charged as before."""

        def runs(values, lengths):
            return np.repeat(np.resize(values, len(lengths)), lengths)[:6000]

        rle = RunLengthEncoding()
        table = _table_of({
            "flag": _force_compress(
                Column.from_ints(runs([2, 0, 1, 0], np.resize([7, 13, 5, 31, 2], 600))), rle),
            "qty": _force_compress(
                Column.from_ints(runs(np.arange(1, 51), np.resize([3, 1, 8], 2400))), rle),
            "tax": _force_compress(
                Column.from_ints(runs([0, 8, 4, -3], np.resize([11, 2], 1500))), rle),
            "day": _force_compress(
                Column(DATE, runs(np.arange(9000, 9100), np.resize([64, 17], 400))), rle),
            "price": _force_compress(
                Column.from_floats(runs(np.arange(100, 900, 7) / 4.0, np.resize([5, 9, 2], 1800))),
                rle),
        })
        assert table.nrows == 6000
        shapes = {
            "q1": (["flag"], {
                "sum_qty": sum_(col("qty")), "sum_tax": sum_(col("tax")),
                "avg_qty": avg(col("qty")), "avg_tax": avg(col("tax")),
                "first_day": min_(col("day")), "top_price": max_(col("price")),
                "n_qty": count(col("qty")), "n": count_star(),
            }),
            "flag_groupby": (["flag"], {"qty": sum_(col("qty")), "n": count_star()}),
            "global": ([], {
                "sum_qty": sum_(col("qty")), "avg_tax": avg(col("tax")),
                "first_day": min_(col("day")), "top_price": max_(col("price")),
                "n": count_star(),
            }),
        }
        pinned = {  # (scan seq_bytes), (aggregate seq_bytes, ops, tuples_out, out_bytes, runs_touched)
            "q1": (50592, (147280, 73643, 3, 216, 6639)),
            "flag_groupby": (24228, (38416, 4805, 3, 72, 2019)),
            "global": (44364, (59152, 18486, 1, 40, 3697)),
        }
        for name, (group_by, aggs) in shapes.items():
            plan = prepare_aggregate(table, group_by, aggs)
            assert plan is not None, name
            ctx = _ExecCtx()
            got = plan.execute(ctx)
            scan, aggregate = ctx.profile.operators
            scan_bytes, (seq, ops, groups, out_bytes, touched) = pinned[name]
            assert (scan.operator, aggregate.operator) == ("scan", "aggregate")
            assert scan == OperatorWork(
                "scan", seq_bytes=scan_bytes, tuples_in=6000, tuples_out=6000), name
            assert aggregate == OperatorWork(
                "aggregate", seq_bytes=seq, ops=ops, tuples_in=6000, tuples_out=groups,
                out_bytes=out_bytes, runs_touched=touched), name
            decoded = Frame({c: table.columns[c].to_column() for c in table.columns}, 6000)
            _assert_frames_identical(execute_aggregate(decoded, group_by, aggs, _Ctx()), got)

    def test_exactness_fallbacks(self):
        """Shapes whose bit-identity cannot be proven must not compile."""
        ints = _force_compress(Column.from_ints([1, 1, 2, 2]), RunLengthEncoding())
        floats = _force_compress(
            Column.from_floats([1.25, 1.25, 2.5, 2.5]), RunLengthEncoding()
        )
        packed = _force_compress(Column.from_ints([1, 1, 2, 2]), BitPackedEncoding())
        table = _table_of({"k": ints, "f": floats, "p": packed})

        # Float SUM: accumulation order is not provably identical.
        assert prepare_aggregate(table, ["k"], {"s": sum_(col("f"))}) is None
        # Non-RLE input: no run structure to reduce over.
        assert prepare_aggregate(table, ["k"], {"s": sum_(col("p"))}) is None
        # Multi-key grouping falls back.
        assert prepare_aggregate(
            table, ["k", "p"], {"c": count_star()}
        ) is None
        # Sums near 2**53 lose exactness in float64 partials.
        huge = _force_compress(
            Column.from_ints([2**52, 2**52, 2**52]), RunLengthEncoding()
        )
        table2 = _table_of({"k": ints.to_column(), "h": huge})
        assert prepare_aggregate(table2, [], {"s": sum_(col("h"))}) is None
        # Empty tables fall back (nothing to prove anything against).
        empty = _table_of({"v": Column.from_ints([])})
        assert prepare_aggregate(empty, [], {"c": count_star()}) is None
