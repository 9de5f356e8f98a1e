"""Compression tests: losslessness, ratios, engine integration, and the
§III-C2 bandwidth-for-cycles trade."""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, Q, Table, agg, col, execute
from repro.engine.compression import (
    ALL_ENCODINGS,
    BitPackedEncoding,
    CompressedColumn,
    DeltaEncoding,
    Encoding,
    FrameOfReferenceEncoding,
    RunLengthEncoding,
    compress_column,
    compress_table,
    compression_ratio,
    rank_encodings,
)
from repro.engine.types import FLOAT64, INT64


class TestEncodingsRoundtrip:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS, ids=lambda e: e.name)
    def test_lossless_on_assorted_ints(self, encoding):
        for values in (
            np.array([5, 5, 5, 5], dtype=np.int64),
            np.array([1, 2, 3, 4, 100], dtype=np.int64),
            np.array([-7, 0, 7, -7], dtype=np.int64),
            np.arange(1000, dtype=np.int64),
            np.array([2**31, 2**31 + 1], dtype=np.int64),
        ):
            payload = encoding.encode(values)
            decoded = encoding.decode(payload, len(values), np.dtype(np.int64))
            assert np.array_equal(decoded, values), encoding.name

    def test_bitpack_width_selection(self):
        enc = BitPackedEncoding()
        _, packed = enc.encode(np.array([0, 255], dtype=np.int64))
        assert packed.dtype == np.uint8
        _, packed = enc.encode(np.array([0, 256], dtype=np.int64))
        assert packed.dtype == np.uint16

    def test_rle_on_runs(self):
        enc = RunLengthEncoding()
        values = np.repeat(np.array([1, 2, 3], dtype=np.int64), 1000)
        payload = enc.encode(values)
        assert enc.encoded_nbytes(payload) < values.nbytes / 100

    def test_delta_on_sorted(self):
        enc = DeltaEncoding()
        values = np.arange(0, 100_000, 3, dtype=np.int64)
        payload = enc.encode(values)
        assert enc.encoded_nbytes(payload) < values.nbytes / 4

    def test_frame_of_reference_blocks(self):
        enc = FrameOfReferenceEncoding()
        values = np.concatenate([
            np.arange(10_000, dtype=np.int64),
            np.arange(10_000_000, 10_005_000, dtype=np.int64),
        ])
        payload = enc.encode(values)
        decoded = enc.decode(payload, len(values), np.dtype(np.int64))
        assert np.array_equal(decoded, values)
        assert enc.encoded_nbytes(payload) < values.nbytes / 2


# ----------------------------------------------------------------------
# Codec-size wall: ``size(v)`` is ``encoded_nbytes(encode(v))``, exactly
# ----------------------------------------------------------------------

_I64 = np.iinfo(np.int64)
_EXTREME_INTS = [0, 1, -1, 2**62, -(2**62), int(_I64.max), int(_I64.min)]
_LENGTHS = (1, 2, 4095, 4096, 4097, 9000)
# Value ranges straddling every pack width, and both sides of the span
# from which an encoder's int64 arithmetic can wrap.
_WIDTHS = (
    0, 1, 2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32,
    2**62 - 1, 2**62, 2**63 - 1,
)
_BASES = (0, -1000, 10**12, -(2**40), int(_I64.min))


def _size_cases():
    rng = np.random.default_rng(20)
    yield "empty", np.empty(0, dtype=np.int64)
    yield "extremes", np.asarray(_EXTREME_INTS, dtype=np.int64)
    yield "min-max", np.asarray([_I64.min, _I64.max], dtype=np.int64)
    yield "max-min", np.asarray([_I64.max, _I64.min, 0], dtype=np.int64)
    for n in _LENGTHS:
        for width in _WIDTHS:
            for base in _BASES:
                if base + width > _I64.max:
                    continue
                tag = f"n{n}-w{width:#x}-b{base}"
                values = base + rng.integers(0, width, n, dtype=np.int64, endpoint=True)
                values[0], values[-1] = base + width, base  # the whole range, descending
                yield f"random-{tag}", values
                yield f"sorted-{tag}", np.sort(values)
        yield f"constant-n{n}", np.full(n, -7, dtype=np.int64)
        yield f"runs-n{n}", np.repeat(rng.integers(-5, 5, -(-n // 100)), 100)[:n]
        yield f"one-wide-block-n{n}", np.where(np.arange(n) == n - 1, 2**40, 3)


def _outcome(fn):
    """A call's value, or the type of what it raised — an encoder that
    refuses an input must be refused by its ``size`` the same way."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"


class TestEncodedSize:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS, ids=lambda e: e.name)
    def test_closed_form_equals_the_encoded_payload(self, encoding):
        cases = 0
        for label, values in _size_cases():
            values = np.ascontiguousarray(values, dtype=np.int64)
            want = _outcome(lambda: encoding.encoded_nbytes(encoding.encode(values)))
            got = _outcome(lambda: encoding.size(values))
            assert got == want, f"{encoding.name} {label}"
            cases += 1
        assert cases > 500

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS, ids=lambda e: e.name)
    @settings(max_examples=1500 if _CI else 150, deadline=None, derandomize=True)
    @given(
        values=st.lists(
            st.integers(int(_I64.min), int(_I64.max)) | st.sampled_from(_EXTREME_INTS),
            max_size=40,
        ),
        shrink=st.sampled_from([0, 8, 40, 56]),
    )
    def test_closed_form_equals_the_encoded_payload_anywhere(
        self, encoding, values, shrink
    ):
        values = np.asarray(values, dtype=np.int64) >> shrink
        want = _outcome(lambda: encoding.encoded_nbytes(encoding.encode(values)))
        assert _outcome(lambda: encoding.size(values)) == want

    def test_default_is_the_encode(self):
        class Plain(BitPackedEncoding):
            size = Encoding.size

        values = np.arange(300, dtype=np.int64)
        assert Plain().size(values) == 300 * 2 + 8 == BitPackedEncoding().size(values)


def _exhaustive_choice(column: Column):
    """The oracle: ``compress_column``'s selection as it was before codecs
    were ranked by ``Encoding.size`` — encode with every codec, keep the
    best decode-penalized score below the plain size. Returns ``(name,
    payload, nbytes)``, or ``None`` where the column stays plain."""
    if column.valid is not None:
        return None
    values, scale = column.values, None
    if column.dtype is FLOAT64:
        cents = np.round(values * 100).astype(np.int64)
        if not np.allclose(cents / 100.0, values, atol=1e-9):
            return None
        values, scale = cents, 100.0
    best, best_score = None, float(column.nbytes)
    for encoding in ALL_ENCODINGS:
        payload = encoding.encode(values)
        size = encoding.encoded_nbytes(payload)
        score = size * (1.0 + 0.05 * encoding.decode_ops_per_value)
        if score < best_score:
            best, best_score = (encoding.name, payload, size), score
    if best is None or scale is None:
        return best
    return best[0], ("scaled", scale, best[1]), best[2]


class TestCodecChoice:
    """``compress_column`` encodes only the codec ``rank_encodings``
    puts first; the exhaustive loop it replaced stays here as the oracle."""

    @pytest.fixture(scope="class")
    def adevents_db(self):
        from repro.adevents import generate

        return generate(1.0, seed=7)

    @pytest.mark.parametrize("source", ["tpch", "adevents"])
    def test_same_codec_and_payload_as_the_exhaustive_loop(self, source, tpch_db, adevents_db):
        db = tpch_db if source == "tpch" else adevents_db
        compressed = 0
        for table_name in db.table_names:
            table = db.table(table_name)
            for name, column in table.columns.items():
                want = _exhaustive_choice(column)
                got = compress_column(column)
                if want is None:
                    assert got is column, (table_name, name)
                    continue
                assert isinstance(got, CompressedColumn), (table_name, name)
                assert (got.encoding_name, got.nbytes) == (want[0], want[2]), (table_name, name)
                assert pickle.dumps(got.payload) == pickle.dumps(want[1]), (table_name, name)
                compressed += 1
        assert compressed >= 10

    def test_what_stays_plain_stays_plain(self):
        rng = np.random.default_rng(3)
        wide = Column(INT64, rng.integers(_I64.min // 2, _I64.max // 2, 500))
        for column in (wide, Column(FLOAT64, rng.random(500))):
            assert _exhaustive_choice(column) is None and compress_column(column) is column

    def test_ranking_is_by_penalized_size_then_declaration_order(self):
        values = np.repeat(np.arange(40, dtype=np.int64), 50)
        plain = [(e.size(values), e.name) for e in ALL_ENCODINGS]
        assert [(size, e.name) for _, size, e in rank_encodings(values)] == sorted(
            plain, key=lambda pair: pair[0])  # stable: ties keep declaration order
        penalized = rank_encodings(values, decode_penalty=0.05)
        assert [score for score, _, _ in penalized] == sorted(
            size * (1 + 0.05 * e.decode_ops_per_value) for _, size, e in penalized)
        assert all(int(size) == e.size(values) for _, size, e in penalized)

    def test_narrow_ints_rank_as_int64(self):
        # DATE columns and string codes are int32: the closed forms must
        # not wrap where encode (which widens first) does not.
        info = np.iinfo(np.int32)
        values = np.asarray([info.min, info.max, info.min, 0], dtype=np.int32)
        for _, size, encoding in rank_encodings(values):
            assert size == encoding.encoded_nbytes(encoding.encode(values)), encoding.name

    def test_a_codec_that_refuses_the_input_is_not_ranked(self):
        class Refusing(BitPackedEncoding):
            name = "refusing"

            def size(self, values):
                raise ValueError("packing requires non-negative values")

        values = np.arange(300, dtype=np.int64)
        encodings = (Refusing(), *ALL_ENCODINGS)
        assert [e.name for _, _, e in rank_encodings(values, encodings)] == [
            e.name for _, _, e in rank_encodings(values)]
        got = compress_column(Column(INT64, values), encodings)
        assert got.encoding_name == compress_column(Column(INT64, values)).encoding_name


class TestCompressColumn:
    def test_ints_compress(self):
        column = Column.from_ints([1, 2, 3] * 100)
        out = compress_column(column)
        assert isinstance(out, CompressedColumn)
        assert out.nbytes < column.nbytes
        assert np.array_equal(out.to_column().values, column.values)

    def test_fixed_point_floats_compress_losslessly(self):
        column = Column.from_floats([1.25, 2.50, 3.75] * 100)
        out = compress_column(column)
        assert isinstance(out, CompressedColumn)
        assert np.allclose(out.to_column().values, column.values)

    def test_irrational_floats_stay_plain(self):
        rng = np.random.default_rng(0)
        column = Column(FLOAT64, rng.random(100))
        assert compress_column(column) is column

    def test_strings_compress_code_array(self):
        column = Column.from_strings(["x", "y"] * 500)
        out = compress_column(column)
        assert isinstance(out, CompressedColumn)
        assert out.to_column().to_list() == column.to_list()

    def test_nullable_columns_stay_plain(self):
        column = Column(INT64, np.array([1, 2]), valid=np.array([True, False]))
        assert compress_column(column) is column

    def test_decode_ops_positive(self):
        out = compress_column(Column.from_ints(range(1000)))
        assert out.decode_ops > 0


class TestEngineIntegration:
    @pytest.fixture
    def dbs(self, tpch_db):
        compressed = Database("c")
        for name in tpch_db.table_names:
            compressed.add(compress_table(tpch_db.table(name)))
        return tpch_db, compressed

    def test_lineitem_ratio_at_least_2x(self, dbs):
        _, compressed = dbs
        assert compression_ratio(compressed.table("lineitem")) > 2.0

    @pytest.mark.parametrize("number", [1, 6, 14, 19])
    def test_query_results_identical(self, dbs, tpch_params, number):
        from repro.tpch import get_query

        plain_db, compressed_db = dbs
        plain = execute(plain_db, get_query(number).build(plain_db, tpch_params))
        packed = execute(compressed_db, get_query(number).build(compressed_db, tpch_params))
        assert len(plain.rows) == len(packed.rows)
        for a, b in zip(plain.rows, packed.rows):
            for x, y in zip(a, b):
                if isinstance(x, float):
                    assert x == pytest.approx(y, rel=1e-9)
                else:
                    assert x == y

    def test_compressed_scan_streams_fewer_bytes_more_ops(self, dbs, tpch_params):
        """The §III-C2 decode trade in isolation (encoded execution off):
        compressed scans stream fewer bytes but pay decode ops."""
        from repro.engine import DEFAULT_SETTINGS
        from repro.tpch import get_query

        plain_db, compressed_db = dbs
        plain = execute(plain_db, get_query(6).build(plain_db, tpch_params))
        packed = execute(
            compressed_db, get_query(6).build(compressed_db, tpch_params),
            settings=DEFAULT_SETTINGS.without_compressed(),
        )
        assert packed.profile.seq_bytes < plain.profile.seq_bytes
        assert packed.profile.ops > plain.profile.ops

    def test_encoded_execution_cuts_ops_and_decoded_bytes(self, dbs, tpch_params):
        """Compressed execution keeps the byte saving and drops the
        decode/compare ops too: sargable conjuncts evaluate on the
        packed payloads, so predicate-only columns never decode."""
        from repro.engine import DEFAULT_SETTINGS
        from repro.tpch import get_query

        _, compressed_db = dbs
        plan = get_query(6).build(compressed_db, tpch_params)
        enc = execute(compressed_db, plan)
        dec = execute(
            compressed_db, plan, settings=DEFAULT_SETTINGS.without_compressed()
        )
        assert enc.rows == dec.rows
        assert enc.profile.encoded_eval_rows > 0
        assert enc.profile.ops < dec.profile.ops
        assert enc.profile.decoded_bytes < dec.profile.decoded_bytes

    def test_compression_helps_pi_more_than_server(self, dbs, tpch_params):
        """The paper's §III-C2 thesis: compression pays on the
        bandwidth-starved Pi, is ~neutral on the server."""
        from repro.hardware import PLATFORMS, PerformanceModel
        from repro.tpch import get_query

        plain_db, compressed_db = dbs
        model = PerformanceModel()
        plain = execute(plain_db, get_query(1).build(plain_db, tpch_params))
        packed = execute(compressed_db, get_query(1).build(compressed_db, tpch_params))
        speedup = {}
        for key in ("pi3b+", "op-e5"):
            t_plain = model.predict(plain.profile.scaled(100), PLATFORMS[key])
            t_packed = model.predict(packed.profile.scaled(100), PLATFORMS[key])
            speedup[key] = t_plain / t_packed
        assert speedup["pi3b+"] > speedup["op-e5"]
        assert speedup["pi3b+"] > 1.0
        assert speedup["op-e5"] > 0.9  # at worst neutral
