"""Column compression (the paper's §III-C2 extension).

The paper observes that WIMPI's scarce memory bandwidth, paired with the
Pi's comparatively strong CPU, "could open the door for algorithms
previously considered too costly" — i.e., heavier compression trades
cheap cycles for scarce bytes. This module implements the classic
columnar encodings and integrates them with the scan operator: a
compressed column is streamed at its *compressed* size and charged
decode ops per value, which is exactly the trade the paper describes.

Encodings:

* :class:`BitPackedEncoding` — byte-aligned width reduction for ints
  (lightweight: ~1 op/value).
* :class:`FrameOfReferenceEncoding` — subtract a reference, then pack
  (lightweight; great for dates and dense keys).
* :class:`RunLengthEncoding` — (value, run) pairs for sorted or clustered
  data (lightweight, ratio depends on run structure).
* :class:`DeltaEncoding` — successive differences, then pack
  (heavyweight: ~3 ops/value, best ratio on near-sorted data).

Use :func:`compress_column` / :func:`compress_table` to pick encodings
automatically (smallest encoded size wins).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .column import Column
from .types import DATE, FLOAT64, INT64, STRING, DataType

__all__ = [
    "CompressedColumn",
    "BitPackedEncoding",
    "FrameOfReferenceEncoding",
    "RunLengthEncoding",
    "DeltaEncoding",
    "ALL_ENCODINGS",
    "rle_overlap",
    "rank_encodings",
    "compress_column",
    "compress_table",
    "compression_ratio",
]


def _pack_width(max_value: int) -> int:
    """Smallest byte-aligned width holding values in [0, max_value]."""
    if max_value < 0:
        raise ValueError("packing requires non-negative values")
    for width in (1, 2, 4):
        if max_value < (1 << (8 * width)):
            return width
    return 8


def _pack_dtype(width: int):
    return {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}[width]


# ``max - min`` from which an encoder's int64 shift or zig-zag can wrap.
_WRAP_SPAN = 1 << 62


class Encoding:
    """Interface: encode a numpy int array, report size and decode cost."""

    name: str = "base"
    decode_ops_per_value: float = 1.0

    def encode(self, values: np.ndarray) -> object:
        raise NotImplementedError

    def decode(self, payload: object, n: int, dtype: np.dtype) -> np.ndarray:
        raise NotImplementedError

    def encoded_nbytes(self, payload: object) -> int:
        raise NotImplementedError

    def size(self, values: np.ndarray) -> int:
        """Exactly ``encoded_nbytes(encode(values))`` for an int64 array.
        The codecs override it with closed forms that skip the encode and
        defer to this default whenever ``encode``'s int64 arithmetic would
        wrap (:data:`_WRAP_SPAN`), so no caller has to guess."""
        return self.encoded_nbytes(self.encode(values))

    def block_min_max(
        self, payload: object, n: int, block_rows: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-block (mins, maxs) in the int64 value domain, derived from
        the encoding metadata without a full decode. ``None`` means the
        encoding cannot answer cheaply (caller decodes once instead)."""
        return None

    def decode_range(
        self, payload: object, n: int, dtype: np.dtype, lo: int, hi: int
    ) -> np.ndarray:
        """Decode only rows ``[lo, hi)``; must equal ``decode(...)[lo:hi]``
        elementwise. The default decodes everything and slices; encodings
        with random access override it."""
        return self.decode(payload, n, dtype)[lo:hi]


def _block_reduce_int(values: np.ndarray, n: int, block_rows: int):
    """Per-block min/max of a dense int array (padded with its last value)."""
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    v = values.astype(np.int64)
    nblocks = -(-n // block_rows)
    pad = nblocks * block_rows - n
    padded = np.concatenate([v, np.repeat(v[-1:], pad)])
    blocks = padded.reshape(nblocks, block_rows)
    return blocks.min(axis=1), blocks.max(axis=1)


class BitPackedEncoding(Encoding):
    """Shift to zero-base and store at the smallest byte-aligned width."""

    name = "bitpack"
    decode_ops_per_value = 1.0

    def encode(self, values: np.ndarray):
        lo = int(values.min()) if len(values) else 0
        shifted = values.astype(np.int64) - lo
        width = _pack_width(int(shifted.max()) if len(shifted) else 0)
        return lo, shifted.astype(_pack_dtype(width))

    def decode(self, payload, n, dtype):
        lo, packed = payload
        return (packed.astype(np.int64) + lo).astype(dtype)

    def encoded_nbytes(self, payload):
        _, packed = payload
        return packed.nbytes + 8

    def size(self, values):
        span = int(values.max()) - int(values.min()) if len(values) else 0
        if span >= _WRAP_SPAN:
            return super().size(values)
        return len(values) * _pack_width(span) + 8

    def block_min_max(self, payload, n, block_rows):
        lo, packed = payload
        mins, maxs = _block_reduce_int(packed, n, block_rows)
        return mins + lo, maxs + lo

    def decode_range(self, payload, n, dtype, lo, hi):
        base, packed = payload
        return (packed[lo:hi].astype(np.int64) + base).astype(dtype)


class FrameOfReferenceEncoding(Encoding):
    """Per-block reference subtraction, then packing (blocks of 4096)."""

    name = "for"
    decode_ops_per_value = 1.0
    block = 4096

    def encode(self, values: np.ndarray):
        refs, blocks = [], []
        v = values.astype(np.int64)
        for start in range(0, len(v), self.block):
            chunk = v[start:start + self.block]
            ref = int(chunk.min())
            shifted = chunk - ref
            width = _pack_width(int(shifted.max()) if len(shifted) else 0)
            refs.append(ref)
            blocks.append(shifted.astype(_pack_dtype(width)))
        return refs, blocks

    def decode(self, payload, n, dtype):
        refs, blocks = payload
        parts = [b.astype(np.int64) + r for r, b in zip(refs, blocks)]
        out = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        return out.astype(dtype)

    def encoded_nbytes(self, payload):
        refs, blocks = payload
        return sum(b.nbytes for b in blocks) + 8 * len(refs)

    def size(self, values):
        starts = np.arange(0, len(values), self.block)
        if not len(starts):
            return 0
        lo, hi = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
        if int(hi.max()) - int(lo.min()) >= _WRAP_SPAN:
            return super().size(values)
        lengths = np.diff(np.append(starts, len(values)))
        return sum(int(n) * _pack_width(int(s)) for n, s in zip(lengths, hi - lo)) + 8 * len(starts)

    def block_min_max(self, payload, n, block_rows):
        # Zone maps at the encoding's own block size fall straight out of
        # the per-block references; other granularities decode instead.
        if block_rows != self.block:
            return None
        refs, blocks = payload
        mins = np.asarray(
            [r + int(b.min()) for r, b in zip(refs, blocks) if len(b)], dtype=np.int64
        )
        maxs = np.asarray(
            [r + int(b.max()) for r, b in zip(refs, blocks) if len(b)], dtype=np.int64
        )
        return mins, maxs

    def decode_range(self, payload, n, dtype, lo, hi):
        refs, blocks = payload
        parts = []
        first = lo // self.block
        last = min(-(-hi // self.block), len(blocks))
        for b in range(first, last):
            chunk = blocks[b].astype(np.int64) + refs[b]
            start = max(lo - b * self.block, 0)
            stop = min(hi - b * self.block, len(chunk))
            parts.append(chunk[start:stop])
        out = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        return out.astype(dtype)


def rle_overlap(
    run_values: np.ndarray, lengths: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Runs overlapping rows ``[lo, hi)``: ``(values, clipped_lengths, i0, i1)``
    where ``[i0, i1)`` indexes the overlapping runs."""
    if hi <= lo or not len(lengths):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0, 0
    ends = np.cumsum(lengths)
    starts = ends - lengths
    i0 = int(np.searchsorted(ends, lo, side="right"))
    i1 = int(np.searchsorted(starts, hi, side="left"))
    clipped = np.minimum(ends[i0:i1], hi) - np.maximum(starts[i0:i1], lo)
    return run_values[i0:i1], clipped, i0, i1


class RunLengthEncoding(Encoding):
    """(value, run-length) pairs; shines on sorted or clustered columns."""

    name = "rle"
    decode_ops_per_value = 0.5  # amortized: one expansion per run

    def encode(self, values: np.ndarray):
        v = values.astype(np.int64)
        if not len(v):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        boundaries = np.flatnonzero(np.diff(v) != 0) + 1
        starts = np.concatenate([[0], boundaries])
        run_values = v[starts]
        lengths = np.diff(np.concatenate([starts, [len(v)]]))
        return run_values, lengths

    def decode(self, payload, n, dtype):
        run_values, lengths = payload
        return np.repeat(run_values, lengths).astype(dtype)

    def decode_range(self, payload, n, dtype, lo, hi):
        run_values, lengths = payload
        values, clipped, _, _ = rle_overlap(run_values, lengths, lo, hi)
        return np.repeat(values, clipped).astype(dtype)

    def encoded_nbytes(self, payload):
        run_values, lengths = payload
        return run_values.nbytes + min(lengths.nbytes, len(lengths) * 4)

    def size(self, values):
        return 12 * (np.count_nonzero(values[1:] != values[:-1]) + 1) if len(values) else 0

    def block_min_max(self, payload, n, block_rows):
        run_values, lengths = payload
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        nblocks = -(-n // block_rows)
        mins = np.empty(nblocks, dtype=np.int64)
        maxs = np.empty(nblocks, dtype=np.int64)
        values = run_values.astype(np.int64)
        for b in range(nblocks):
            lo_row, hi_row = b * block_rows, min((b + 1) * block_rows, n)
            i0 = int(np.searchsorted(starts, lo_row, side="right")) - 1
            i1 = int(np.searchsorted(starts, hi_row, side="left"))
            span = values[i0:i1]
            mins[b] = span.min()
            maxs[b] = span.max()
        return mins, maxs


class DeltaEncoding(Encoding):
    """Successive differences, zig-zag mapped, then packed — the
    'heavyweight' end of the spectrum (prefix-sum on decode)."""

    name = "delta"
    decode_ops_per_value = 3.0

    def encode(self, values: np.ndarray):
        v = values.astype(np.int64)
        if not len(v):
            return 0, np.empty(0, dtype=np.uint8)
        first = int(v[0])
        deltas = np.diff(v)
        zigzag = (deltas << 1) ^ (deltas >> 63)  # non-negative mapping
        width = _pack_width(int(zigzag.max()) if len(zigzag) else 0)
        return first, zigzag.astype(_pack_dtype(width))

    def decode(self, payload, n, dtype):
        first, zigzag = payload
        z = zigzag.astype(np.int64)
        deltas = (z >> 1) ^ -(z & 1)
        out = np.empty(n, dtype=np.int64)
        out[0] = first
        np.cumsum(deltas, out=out[1:]) if n > 1 else None
        out[1:] += first
        return out.astype(dtype)

    def encoded_nbytes(self, payload):
        _, zigzag = payload
        return zigzag.nbytes + 8

    def size(self, values):
        if len(values) < 2:
            return 8
        if int(values.max()) - int(values.min()) >= _WRAP_SPAN:
            return super().size(values)
        deltas = np.diff(values)
        zigzag_max = max(2 * int(deltas.max()), -2 * int(deltas.min()) - 1)
        return (len(values) - 1) * _pack_width(zigzag_max) + 8

    def block_min_max(self, payload, n, block_rows):
        # One cumsum over the un-zigzagged deltas reconstructs the int64
        # value stream straight from the metadata — no Column round-trip —
        # so delta-encoded columns participate in zone-map skipping too.
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        first, zigzag = payload
        z = zigzag.astype(np.int64)
        deltas = (z >> 1) ^ -(z & 1)
        values = np.empty(n, dtype=np.int64)
        values[0] = first
        np.cumsum(deltas, out=values[1:]) if n > 1 else None
        values[1:] += first
        return _block_reduce_int(values, n, block_rows)

    def decode_range(self, payload, n, dtype, lo, hi):
        # Prefix sums need every delta up to ``hi`` but none beyond it.
        hi = min(hi, n)
        if hi <= lo:
            return np.empty(0, dtype=dtype)
        first, zigzag = payload
        z = zigzag[: hi - 1].astype(np.int64)
        deltas = (z >> 1) ^ -(z & 1)
        out = np.empty(hi, dtype=np.int64)
        out[0] = first
        np.cumsum(deltas, out=out[1:]) if hi > 1 else None
        out[1:] += first
        return out[lo:hi].astype(dtype)


ALL_ENCODINGS: tuple[Encoding, ...] = (
    BitPackedEncoding(), FrameOfReferenceEncoding(), RunLengthEncoding(), DeltaEncoding(),
)

# Decompression runs as a tight branch-free SIMD loop, not as interpreted
# engine operator code; one decode "op" costs about an eighth of a
# counted engine op (which carries the DBMS interpretation factor).
DECODE_OP_FRACTION = 0.125


@dataclass
class CompressedColumn:
    """A column stored compressed; scans stream ``nbytes`` (compressed)
    and pay ``decode_ops`` to materialize the plain column."""

    dtype: DataType
    encoding_name: str
    payload: object
    n: int
    nbytes: int
    decode_ops: float
    plain_nbytes: int
    dictionary: np.ndarray | None = None
    _encoding: Encoding | None = None

    def __len__(self) -> int:
        return self.n

    @property
    def dict_nbytes(self) -> int:
        if self.dictionary is None:
            return 0
        return int(sum(len(s) for s in self.dictionary))

    @property
    def ratio(self) -> float:
        """plain bytes / compressed bytes (higher is better)."""
        return self.plain_nbytes / max(1, self.nbytes)

    def to_column(self) -> Column:
        values = self._encoding.decode(self.payload, self.n, self.dtype.numpy_dtype)
        return Column(self.dtype, values, dictionary=self.dictionary)

    @property
    def scale(self) -> float | None:
        """Fixed-point scale for FLOAT64 columns stored as ints, else None."""
        if isinstance(self._encoding, _ScaledEncoding):
            return self._encoding.scale
        return None

    @property
    def base_encoding(self) -> Encoding:
        """The integer encoding, unwrapping any fixed-point wrapper."""
        if isinstance(self._encoding, _ScaledEncoding):
            return self._encoding.inner
        return self._encoding

    @property
    def base_payload(self) -> object:
        """Payload of :attr:`base_encoding` (unwraps fixed-point)."""
        if isinstance(self._encoding, _ScaledEncoding):
            return self.payload[2]
        return self.payload

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        """Materialize rows ``[lo, hi)`` only; elementwise identical to
        ``to_column().values[lo:hi]``."""
        return self._encoding.decode_range(
            self.payload, self.n, self.dtype.numpy_dtype, lo, hi
        )

    def zone_stats(self, block_rows: int) -> tuple | None:
        """Per-block ``(mins, maxs, null_counts)`` — the zone-map payload.

        Derived from the encoding metadata where the encoding supports it
        (bit-packing, FoR, RLE); delta encoding decodes once (its prefix
        sums are not block-decomposable). Compressed columns are built
        from non-null data, so null counts are zero.
        """
        payload, encoding, scale = self.payload, self._encoding, None
        if isinstance(encoding, _ScaledEncoding):
            _, scale, payload = self.payload
            encoding = encoding.inner
        stats = encoding.block_min_max(payload, self.n, block_rows)
        if stats is None:
            return self.to_column().zone_stats(block_rows)
        mins, maxs = stats
        null_counts = np.zeros(len(mins), dtype=np.int64)
        if scale is not None:
            mins = mins / scale
            maxs = maxs / scale
        if self.dtype is STRING:
            d = self.dictionary
            if len(d) > 1 and not bool(np.all(d[:-1] <= d[1:])):
                # Code order only mirrors string order for sorted
                # dictionaries; otherwise decode once.
                return self.to_column().zone_stats(block_rows)
            mins = d[mins] if len(d) else mins
            maxs = d[maxs] if len(d) else maxs
        return mins, maxs, null_counts


def rank_encodings(
    values: np.ndarray,
    encodings: tuple[Encoding, ...] = ALL_ENCODINGS,
    decode_penalty: float = 0.0,
) -> list[tuple[float, int, Encoding]]:
    """``(score, size, encoding)`` for every codec that accepts the
    integer array ``values``, best first — "pick the smallest codec",
    decided from :meth:`Encoding.size` without encoding anything.

    ``size`` is the exact encoded byte count and ``score`` is ``size ×
    (1 + decode_penalty × decode ops per value)``; ties keep declaration
    order. A codec whose ``size`` raises (e.g. shift-width overflow on
    extreme int64 ranges) would refuse to encode too, and is left out.
    """
    v = np.ascontiguousarray(values).astype(np.int64, copy=False)
    ranked = []
    for index, encoding in enumerate(encodings):
        try:
            size = encoding.size(v)
        except Exception:
            continue
        score = size * (1.0 + decode_penalty * encoding.decode_ops_per_value)
        ranked.append((score, index, size, encoding))
    return [(score, size, encoding) for score, _, size, encoding in sorted(ranked)]


def compress_column(column: Column, encodings: tuple[Encoding, ...] = ALL_ENCODINGS) -> "CompressedColumn | Column":
    """Compress with the best-ratio encoding; returns the original column
    when nothing beats the plain representation (e.g. random floats).

    STRING columns compress their code arrays (the dictionary is shared);
    FLOAT64 columns whose values are integral cents compress via a x100
    integer view, otherwise they stay plain.
    """
    if column.valid is not None:
        return column  # nullable columns stay plain (rare: join outputs)

    values = column.values
    scale = None
    if column.dtype is FLOAT64:
        cents = np.round(values * 100).astype(np.int64)
        if np.allclose(cents / 100.0, values, atol=1e-9):
            values = cents
            scale = 100.0
        else:
            return column

    # Pick the smallest encoding, with a mild penalty on decode cost so
    # near-ties resolve to the cheaper scheme; only the winner is encoded.
    ranked = rank_encodings(values, encodings, decode_penalty=0.05)
    if not ranked or ranked[0][0] >= column.nbytes:
        return column
    _, best_size, best = ranked[0]
    best_payload = best.encode(values)

    dtype = column.dtype
    payload = best_payload
    if scale is not None:
        payload = ("scaled", scale, best_payload)
    return CompressedColumn(
        dtype=dtype,
        encoding_name=best.name,
        payload=payload,
        n=len(column),
        nbytes=best_size,
        decode_ops=(best.decode_ops_per_value + (1 if scale else 0))
        * len(column) * DECODE_OP_FRACTION,
        plain_nbytes=column.nbytes,
        dictionary=column.dictionary,
        _encoding=_ScaledEncoding(best, scale) if scale is not None else best,
    )


class _ScaledEncoding(Encoding):
    """Wraps an int encoding for fixed-point floats (cents)."""

    def __init__(self, inner: Encoding, scale: float):
        self.inner = inner
        self.scale = scale
        self.name = f"{inner.name}+fixedpoint"
        self.decode_ops_per_value = inner.decode_ops_per_value + 1

    def decode(self, payload, n, dtype):
        _, scale, inner_payload = payload
        ints = self.inner.decode(inner_payload, n, np.dtype(np.int64))
        return (ints / scale).astype(dtype)

    def decode_range(self, payload, n, dtype, lo, hi):
        _, scale, inner_payload = payload
        ints = self.inner.decode_range(inner_payload, n, np.dtype(np.int64), lo, hi)
        return (ints / scale).astype(dtype)


def compress_table(table, encodings: tuple[Encoding, ...] = ALL_ENCODINGS):
    """Compress every eligible column of a table in place-like fashion
    (returns a new Table whose columns may be CompressedColumn)."""
    from .table import Table

    columns = {
        name: compress_column(col, encodings) if isinstance(col, Column) else col
        for name, col in table.columns.items()
    }
    out = Table.__new__(Table)
    out.name = table.name
    out.columns = columns
    out.nrows = table.nrows
    return out


def compression_ratio(table) -> float:
    """Whole-table plain/compressed byte ratio."""
    plain = compressed = 0
    for col in table.columns.values():
        if isinstance(col, CompressedColumn):
            plain += col.plain_nbytes
            compressed += col.nbytes
        else:
            plain += col.nbytes
            compressed += col.nbytes
    return plain / max(1, compressed)
