"""Zone maps: statistics correctness (plain + every encoding) and block
classification soundness, including hypothesis properties asserting that
data skipping can never change a filter's output."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Column,
    Database,
    Executor,
    OptimizerSettings,
    Q,
    Table,
    col,
    lit,
)
from repro.engine.compression import (
    BitPackedEncoding,
    DeltaEncoding,
    FrameOfReferenceEncoding,
    RunLengthEncoding,
    compress_column,
)
from repro.engine.operators.scan import _merge_runs
from repro.engine.zonemap import (
    BLOCK_EVAL,
    BLOCK_SKIP,
    BLOCK_TAKE,
    ZONE_MAP_BLOCK_ROWS,
    SargableConjunct,
    build_zone_map,
    classify_blocks,
    conjoin,
    extract_sargable,
    split_conjuncts,
)


def _expected_stats(values, block_rows):
    """Naive per-block min/max reference."""
    mins, maxs = [], []
    for start in range(0, len(values), block_rows):
        chunk = values[start:start + block_rows]
        mins.append(min(chunk))
        maxs.append(max(chunk))
    return mins, maxs


class TestZoneStats:
    def test_plain_int_blocks(self):
        values = list(range(100, 0, -1))
        column = Column.from_ints(values)
        mins, maxs, nulls = column.zone_stats(16)
        exp_min, exp_max = _expected_stats(values, 16)
        assert list(mins) == exp_min
        assert list(maxs) == exp_max
        assert nulls.sum() == 0
        assert len(mins) == -(-100 // 16)  # partial last block included

    def test_plain_string_blocks(self):
        values = ["delta", "alpha", "echo", "bravo", "charlie"]
        column = Column.from_strings(values)
        mins, maxs, _ = column.zone_stats(2)
        assert list(mins) == ["alpha", "bravo", "charlie"]
        assert list(maxs) == ["delta", "echo", "charlie"]

    def test_nullable_numeric_neutral_fill(self):
        column = Column(
            Column.from_ints([5, 100, 7, 3]).dtype,
            np.asarray([5, 100, 7, 3], dtype=np.int64),
            valid=np.asarray([True, False, True, True]),
        )
        mins, maxs, nulls = column.zone_stats(2)
        # The invalid 100 must not pollute block 0's max.
        assert list(mins) == [5, 3]
        assert list(maxs) == [5, 7]
        assert list(nulls) == [1, 0]

    def test_nullable_bool_unsupported(self):
        column = Column(
            Column.from_bools([True, False]).dtype,
            np.asarray([True, False]),
            valid=np.asarray([True, False]),
        )
        assert column.zone_stats(2) is None

    def test_nullable_string_unsupported(self):
        base = Column.from_strings(["a", "b"])
        column = Column(
            base.dtype, base.values, dictionary=base.dictionary,
            valid=np.asarray([True, False]),
        )
        assert column.zone_stats(2) is None
        assert build_zone_map(column, 2) is None

    @pytest.mark.parametrize(
        "encoding",
        [BitPackedEncoding(), FrameOfReferenceEncoding(), RunLengthEncoding(),
         DeltaEncoding()],
        ids=lambda e: e.name,
    )
    def test_compressed_matches_decoded(self, encoding):
        rng = np.random.default_rng(7)
        # Clustered-ish data with runs so RLE stays applicable.
        values = np.repeat(rng.integers(0, 50, size=700), 17)[:9000]
        plain = Column.from_ints(values)
        compressed = compress_column(plain, encodings=(encoding,))
        if isinstance(compressed, Column):
            pytest.skip(f"{encoding.name} did not beat plain on this data")
        c_mins, c_maxs, c_nulls = compressed.zone_stats(ZONE_MAP_BLOCK_ROWS)
        p_mins, p_maxs, p_nulls = plain.zone_stats(ZONE_MAP_BLOCK_ROWS)
        assert list(c_mins) == list(p_mins)
        assert list(c_maxs) == list(p_maxs)
        assert list(c_nulls) == list(p_nulls)

    def test_compressed_fixed_point_float(self):
        values = np.round(np.linspace(1.0, 90.0, 9000), 2)
        plain = Column.from_floats(values)
        compressed = compress_column(plain)
        if isinstance(compressed, Column):
            pytest.skip("float column did not compress")
        c_mins, c_maxs, _ = compressed.zone_stats(ZONE_MAP_BLOCK_ROWS)
        p_mins, p_maxs, _ = plain.zone_stats(ZONE_MAP_BLOCK_ROWS)
        np.testing.assert_allclose(np.asarray(c_mins, dtype=float), p_mins)
        np.testing.assert_allclose(np.asarray(c_maxs, dtype=float), p_maxs)

    def test_rle_block_min_max_nonaligned_runs(self):
        # Runs straddling block boundaries must contribute to both blocks.
        values = [1] * 10 + [9] * 10 + [2] * 10
        plain = Column.from_ints(values)
        compressed = compress_column(plain, encodings=(RunLengthEncoding(),))
        assert not isinstance(compressed, Column)
        mins, maxs, _ = compressed.zone_stats(8)
        p_mins, p_maxs, _ = plain.zone_stats(8)
        assert list(mins) == list(p_mins)
        assert list(maxs) == list(p_maxs)

    def test_table_zone_map_cached(self):
        table = Table("t", {"k": Column.from_ints(list(range(10)))})
        first = table.zone_map("k", 4)
        assert table.zone_map("k", 4) is first
        assert first.covering_blocks(5, 9) == (1, 3)
        table.build_zone_maps(4)  # idempotent


class TestSargable:
    def test_comparison_both_orders(self):
        assert extract_sargable(col("x") < lit(5)) == SargableConjunct("x", "<", (5,))
        assert extract_sargable(lit(5) < col("x")) == SargableConjunct("x", ">", (5,))

    def test_numpy_scalars_normalized(self):
        got = extract_sargable(col("x") <= lit(np.int64(9)))
        assert got == SargableConjunct("x", "<=", (9,))
        assert type(got.values[0]) is int

    def test_in_list(self):
        got = extract_sargable(col("s").isin(["a", "b"]))
        assert got == SargableConjunct("s", "in", ("a", "b"))

    def test_non_sargable(self):
        assert extract_sargable(col("x") < col("y")) is None
        assert extract_sargable(col("x").like("a%")) is None

    def test_split_conjoin_roundtrip(self):
        expr = (col("a") > 1) & (col("b") < 2) & (col("c") == 3)
        parts = split_conjuncts(expr)
        assert len(parts) == 3
        rebuilt = conjoin(parts)
        assert split_conjuncts(rebuilt) == parts
        assert conjoin([]) is None


class TestClassifyBlocks:
    def _table(self, values, block_rows=4):
        # Use a non-default block size through explicit zone_map builds.
        table = Table("t", {"k": Column.from_ints(values)})
        table.zone_map("k", block_rows)
        return table

    def test_three_way_classification(self):
        # blocks: [0..3], [4..7], [8..11]
        table = self._table(list(range(12)))
        codes, probes = classify_blocks(
            table, [SargableConjunct("k", "<", (4,))], 0, 12, block_rows=4
        )
        assert list(codes) == [BLOCK_TAKE, BLOCK_SKIP, BLOCK_SKIP]
        assert probes == 3

    def test_eval_when_straddling(self):
        table = self._table(list(range(12)))
        codes, _ = classify_blocks(
            table, [SargableConjunct("k", "<=", (5,))], 0, 12, block_rows=4
        )
        assert list(codes) == [BLOCK_TAKE, BLOCK_EVAL, BLOCK_SKIP]

    def test_conjunction_intersects(self):
        table = self._table(list(range(12)))
        codes, _ = classify_blocks(
            table,
            [SargableConjunct("k", ">=", (4,)), SargableConjunct("k", "<", (8,))],
            0, 12, block_rows=4,
        )
        assert list(codes) == [BLOCK_SKIP, BLOCK_TAKE, BLOCK_SKIP]

    def test_date_string_coercion(self):
        table = Table("t", {"d": Column.from_dates(
            ["1994-01-01", "1994-02-01", "1995-01-01", "1995-02-01"]
        )})
        codes, _ = classify_blocks(
            table, [SargableConjunct("d", "<", ("1995-01-01",))], 0, 4, block_rows=2
        )
        assert list(codes) == [BLOCK_TAKE, BLOCK_SKIP]

    def test_in_classification(self):
        table = self._table([1, 1, 5, 6, 9, 9], block_rows=2)
        codes, _ = classify_blocks(
            table, [SargableConjunct("k", "in", (1, 9))], 0, 6, block_rows=2
        )
        assert list(codes) == [BLOCK_TAKE, BLOCK_SKIP, BLOCK_TAKE]

    def test_missing_zone_map_falls_back_to_eval(self):
        base = Column.from_strings(["a", "b"])
        table = Table("t", {"s": Column(
            base.dtype, base.values, dictionary=base.dictionary,
            valid=np.asarray([True, False]),
        )})
        codes, probes = classify_blocks(
            table, [SargableConjunct("s", "==", ("a",))], 0, 2, block_rows=2
        )
        assert list(codes) == [BLOCK_EVAL]
        assert probes == 0

    def test_all_null_block_skips(self):
        table = Table("t", {"k": Column(
            Column.from_ints([1, 2, 3, 4]).dtype,
            np.asarray([1, 2, 3, 4], dtype=np.int64),
            valid=np.asarray([False, False, True, True]),
        )})
        codes, _ = classify_blocks(
            table, [SargableConjunct("k", ">", (0,))], 0, 4, block_rows=2
        )
        # NULLs compare false: the all-null block is provably empty, and
        # nulls in a block always break take-proofs.
        assert list(codes)[0] == BLOCK_SKIP
        assert list(codes)[1] == BLOCK_TAKE

    def test_subrange_alignment(self):
        table = self._table(list(range(16)))
        codes, _ = classify_blocks(
            table, [SargableConjunct("k", "<", (4,))], 6, 14, block_rows=4
        )
        # Covers blocks 1..3 (rows 4..16); first code is block 1.
        assert list(codes) == [BLOCK_SKIP, BLOCK_SKIP, BLOCK_SKIP]


# ----------------------------------------------------------------------
# Hypothesis: skipping never changes query output
# ----------------------------------------------------------------------

_OPS = ["<", "<=", ">", ">=", "==", "!="]


@st.composite
def _column_and_predicate(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    nblocks = draw(st.integers(min_value=1, max_value=4))
    sortedness = draw(st.sampled_from(["sorted", "clustered", "random"]))
    op = draw(st.sampled_from(_OPS + ["in", "between"]))
    rng = np.random.default_rng(seed)
    n = nblocks * ZONE_MAP_BLOCK_ROWS - draw(st.integers(0, 100))
    values = rng.integers(0, 500, size=max(1, n))
    if sortedness == "sorted":
        values = np.sort(values)
    elif sortedness == "clustered":
        values = np.sort(values)
        # Shuffle within local neighbourhoods: clustered but not sorted.
        for start in range(0, len(values), 1024):
            rng.shuffle(values[start:start + 1024])
    pivot = int(draw(st.integers(min_value=-10, max_value=510)))
    return values, op, pivot


@settings(max_examples=25, deadline=None)
@given(_column_and_predicate())
def test_skipping_never_changes_filter_output(case):
    values, op, pivot = case
    db = Database("prop")
    db.add(Table("t", {
        "k": Column.from_ints(values),
        "row": Column.from_ints(np.arange(len(values))),
    }))
    k = col("k")
    if op == "in":
        predicate = k.isin([pivot, pivot + 3, pivot + 50])
    elif op == "between":
        predicate = k.between(pivot, pivot + 64)
    else:
        predicate = {"<": k < pivot, "<=": k <= pivot, ">": k > pivot,
                     ">=": k >= pivot, "==": k == pivot, "!=": k != pivot}[op]
    plan = Q(db).scan("t").filter(predicate)
    on = Executor(db).execute(plan)
    off = Executor(db, OptimizerSettings.disabled()).execute(plan)
    assert on.rows == off.rows
    # The skipping run must never stream more than the ablation run.
    assert on.profile.seq_bytes <= off.profile.seq_bytes + 1e-6


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=2, max_value=64))
def test_classification_is_sound(seed, block_rows):
    """SKIP blocks contain no matches; TAKE blocks contain only matches."""
    rng = np.random.default_rng(seed)
    values = np.sort(rng.integers(0, 100, size=int(rng.integers(1, 400))))
    pivot = int(rng.integers(-5, 105))
    table = Table("t", {"k": Column.from_ints(values)})
    conjunct = SargableConjunct("k", "<", (pivot,))
    codes, _ = classify_blocks(table, [conjunct], 0, len(values), block_rows)
    truth = values < pivot
    for i, kind in enumerate(codes):
        chunk = truth[i * block_rows:(i + 1) * block_rows]
        if kind == BLOCK_SKIP:
            assert not chunk.any()
        elif kind == BLOCK_TAKE:
            assert chunk.all()


def _merge_runs_by_block(codes, start, stop, block_rows=ZONE_MAP_BLOCK_ROWS):
    """Per-block reference for the scan's run merge."""
    runs = []
    b0 = start // block_rows
    for i, kind in enumerate(codes):
        lo = max(start, (b0 + i) * block_rows)
        hi = min(stop, (b0 + i + 1) * block_rows)
        if hi <= lo:
            continue
        if runs and runs[-1][0] == kind and runs[-1][2] == lo:
            runs[-1] = (int(kind), runs[-1][1], hi)
        else:
            runs.append((int(kind), lo, hi))
    return runs


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([BLOCK_SKIP, BLOCK_TAKE, BLOCK_EVAL]), min_size=1, max_size=12),
    st.data(),
)
def test_scan_run_merge_matches_per_block_loop(kinds, data):
    block_codes = np.array(kinds, dtype=np.int8)
    n = len(kinds) * ZONE_MAP_BLOCK_ROWS - data.draw(st.integers(0, ZONE_MAP_BLOCK_ROWS - 1))
    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    codes = block_codes[start // ZONE_MAP_BLOCK_ROWS : -(-stop // ZONE_MAP_BLOCK_ROWS)]
    assert _merge_runs(codes, start, stop) == _merge_runs_by_block(codes, start, stop)
