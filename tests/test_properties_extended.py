"""Additional property-based tests: compression losslessness, CSV
roundtrips, SQL literal handling, optimizer equivalence."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, Q, Table, col, execute
from repro.engine.compression import ALL_ENCODINGS, compress_column
from repro.engine.io import read_csv, write_csv
from repro.engine.sql import sql

int_arrays = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=200
)


class TestCompressionProperties:
    @given(int_arrays)
    @settings(max_examples=100, deadline=None)
    def test_compress_column_is_lossless(self, values):
        column = Column.from_ints(values)
        out = compress_column(column)
        if out is column:
            return  # incompressible: stayed plain
        assert np.array_equal(out.to_column().values, column.values)

    @given(int_arrays)
    @settings(max_examples=100, deadline=None)
    def test_every_encoding_roundtrips(self, values):
        arr = np.asarray(values, dtype=np.int64)
        for encoding in ALL_ENCODINGS:
            payload = encoding.encode(arr)
            decoded = encoding.decode(payload, len(arr), np.dtype(np.int64))
            assert np.array_equal(decoded, arr), encoding.name

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_compressed_size_never_reported_wrong(self, values):
        column = Column.from_ints(values)
        out = compress_column(column)
        if out is not column:
            assert out.nbytes < column.nbytes
            assert out.ratio > 1.0

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
                    min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_float_compression_only_when_exact(self, values):
        cents = [round(v, 2) for v in values]
        column = Column.from_floats(cents)
        out = compress_column(column)
        if out is not column:
            assert np.allclose(out.to_column().values, column.values, atol=1e-9)


class TestCsvProperties:
    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=30),
        st.lists(st.sampled_from(["alpha", "beta", "gamma d", "x,y", ""]),
                 min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_arbitrary_tables(self, ints, strings):
        import tempfile
        from pathlib import Path

        n = min(len(ints), len(strings))
        table = Table("t", {
            "i": Column.from_ints(ints[:n]),
            "s": Column.from_strings(strings[:n]),
        })
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            loaded = read_csv(write_csv(table, path))
        assert loaded.column("i").to_list() == table.column("i").to_list()
        assert loaded.column("s").to_list() == table.column("s").to_list()


class TestSqlProperties:
    @given(st.integers(-1000, 1000))
    @settings(max_examples=50, deadline=None)
    def test_integer_literals_roundtrip(self, value):
        db = Database()
        db.add(Table("t", {"x": Column.from_ints([value])}))
        result = execute(db, sql(db, f"SELECT x FROM t WHERE x = {value}"))
        assert result.column("x") == [value]

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_sql_filter_equals_builder_filter(self, values):
        db = Database()
        db.add(Table("t", {"x": Column.from_ints(values)}))
        via_sql = execute(db, sql(db, "SELECT x FROM t WHERE x > 25"))
        via_builder = execute(db, Q(db).scan("t").filter(col("x") > 25))
        assert via_sql.rows == via_builder.rows


class TestOptimizerEquivalence:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 100)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_pruning_never_changes_answers(self, pairs):
        from repro.engine import agg

        db = Database()
        db.add(Table("t", {
            "g": Column.from_ints([g for g, _ in pairs]),
            "v": Column.from_ints([v for _, v in pairs]),
            "unused": Column.from_ints(range(len(pairs))),
        }))
        plan = Q(db).scan("t").filter(col("v") >= 0).aggregate(
            by=["g"], s=agg.sum(col("v"))).sort("g")
        assert execute(db, plan, optimize=True).rows == execute(db, plan, optimize=False).rows

