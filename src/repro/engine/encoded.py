"""Encoded-domain execution: predicates and aggregates on compressed columns.

The paper's §III-C2 trade (cheap cycles for scarce bytes) only pays off
fully when the engine *stays* in the compressed domain. This module
compiles predicate conjuncts and whole aggregations to run directly on
the encoded payloads from :mod:`repro.engine.compression`:

* **Constant translation.** ``decode`` is monotone nondecreasing in the
  stored integer for every supported encoding (identity for INT64/DATE,
  ``k / scale`` for fixed-point floats), so the true-set of
  ``v <op> c`` is a prefix/suffix/interval of the stored domain. A
  ~64-step bisection — probing with the *exact* decode-path comparison
  on a one-element array — finds the stored-int interval, which then
  evaluates as clamped comparisons on the narrow packed dtype (bitpack),
  per-block with references (FoR), or once per *run* (RLE).
* **Dictionary masks.** String predicates (=, !=, <, …, IN, LIKE)
  evaluate once per dictionary entry — the same function
  :mod:`repro.engine.expr` calls, ``dictionary_mask``, memoized per
  dictionary — and the boolean mask is indexed by the packed codes
  without materializing an int64 code array.
* **RLE aggregation.** SUM/AVG/COUNT/MIN/MAX over run-length-encoded
  inputs reduce over ``(value, run_length)`` segments — through the row
  path's own ``reduce_groups`` kernel, one element per segment — and a
  group-by on a low-cardinality RLE key builds group ids from runs
  instead of per-row hashing. Only shapes whose float accumulation is provably
  bit-identical to the decode path are compiled (integer sums bounded
  by 2**53; monotone min/max); everything else falls back.

Every compile step is wrapped so *any* surprise — unsupported shape,
overflow raised by the probe, a missing column — lands on the ordinary
decode-then-eval path, which reproduces the legacy behavior (including
its exceptions) exactly. Hit/miss counts report into the process-wide
metrics registry under ``engine.encoded.*``.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import HitMissStats
from repro.obs.trace import note

from .column import Column
from .compression import CompressedColumn, rle_overlap
from .expr import _DATE_RE, Cmp, ColRef, Expr, InList, Like, Literal
from .frame import Frame
from .keycache import factorize
from .operators.aggregate import reduce_groups
from .types import DATE, FLOAT64, INT64, STRING, date_to_days

__all__ = [
    "compile_conjunct",
    "compile_predicate",
    "prepare_aggregate",
    "EncodedConjunct",
    "EncodedAggregatePlan",
    "predicate_stats",
    "aggregate_stats",
]

# Process-wide encoded-vs-decode dispatch outcomes, mirrored into the
# metrics registry (visible in ``repro trace``) like the cache stats.
predicate_stats = HitMissStats("engine.encoded.predicate")
aggregate_stats = HitMissStats("engine.encoded.aggregate")

# Encodings with random access / run structure the kernels understand.
# Delta stays out: its prefix sums have no packed-domain comparison.
_SUPPORTED = frozenset({"bitpack", "for", "rle"})

_UFUNCS = Cmp._OPS

# Integer sums stay exact in float64 only while every partial sum fits
# the 53-bit mantissa; beyond that accumulation order matters and the
# run-weighted sum would drift from the decode path's per-row bincount.
_EXACT_SUM_BOUND = 2 ** 53

# RLE kernels win when runs are long; past this many runs the per-run
# bookkeeping (and the exactness audit) stops being worth it.
_MAX_AGG_RUNS = 65536


def _encodable(col) -> bool:
    return isinstance(col, CompressedColumn) and col.encoding_name in _SUPPORTED


# -- Constant translation (bisection over the stored-int domain) --------


def _stored_bounds(col: CompressedColumn) -> tuple[int, int]:
    """The representable stored-integer domain for ``col``'s physical
    type: int32 for DATE (bisecting over int64 would wrap through the
    int32 cast and break monotonicity), int64 otherwise (fixed-point
    floats store int64 cents)."""
    np_dtype = np.dtype(col.dtype.numpy_dtype)
    if col.scale is None and np_dtype.kind == "i":
        info = np.iinfo(np_dtype)
    else:
        info = np.iinfo(np.int64)
    return int(info.min), int(info.max)


def _probe(col: CompressedColumn, v: int) -> np.ndarray:
    """Decode the stored int ``v`` through the exact cast chain the full
    ``decode`` applies, as a one-element array (so ufunc type promotion
    against the literal matches the decode path bit-for-bit)."""
    if col.scale is not None:
        return (np.asarray([v], dtype=np.int64) / col.scale).astype(np.float64)
    return np.asarray([v], dtype=np.int64).astype(col.dtype.numpy_dtype)


def _first_true(pred, lo: int, hi: int) -> int | None:
    """Smallest v in [lo, hi] with pred(v), for monotone False→True pred."""
    if not pred(hi):
        return None
    if pred(lo):
        return lo
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _last_true(pred, lo: int, hi: int) -> int | None:
    """Largest v in [lo, hi] with pred(v), for monotone True→False pred."""
    if not pred(lo):
        return None
    if pred(hi):
        return hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _translate_range(col: CompressedColumn, op: str, rv) -> tuple[int, int, bool]:
    """Translate ``decode(v) <op> rv`` into a stored-int interval.

    Returns ``(a, b, negate)``: stored ``v`` satisfies the comparison iff
    ``(a <= v <= b) != negate`` (``a > b`` encodes the empty interval).
    Correct because decode is monotone nondecreasing, so each
    comparison's true-set is a prefix, suffix, or interval of the stored
    domain. Probes use the same ufunc/dtypes as the decode path, so NaN
    literals, promotion quirks, and overflow errors behave identically.
    """
    ufunc = _UFUNCS[op]
    lo, hi = _stored_bounds(col)
    if op in (">", ">="):
        a = _first_true(lambda v: bool(ufunc(_probe(col, v), rv)[0]), lo, hi)
        return (1, 0, False) if a is None else (a, hi, False)
    if op in ("<", "<="):
        b = _last_true(lambda v: bool(ufunc(_probe(col, v), rv)[0]), lo, hi)
        return (1, 0, False) if b is None else (lo, b, False)
    # == / !=: the preimage of rv is the interval [first >= rv, last <= rv].
    a = _first_true(lambda v: bool(np.greater_equal(_probe(col, v), rv)[0]), lo, hi)
    b = _last_true(lambda v: bool(np.less_equal(_probe(col, v), rv)[0]), lo, hi)
    if a is None or b is None or a > b:
        a, b = 1, 0
    return (a, b, op == "!=")


# -- Compiled conjuncts -------------------------------------------------


class EncodedConjunct:
    """One predicate conjunct compiled against one encoded column.

    ``mask(lo, hi, work)`` returns the boolean row mask for rows
    ``[lo, hi)`` — elementwise identical to evaluating the original
    conjunct on the decoded slice — without materializing the int64
    value array. Subclasses provide the per-run and packed kernels.
    """

    __slots__ = ("name", "col")

    def __init__(self, name: str, col: CompressedColumn):
        self.name = name
        self.col = col

    def _runs_mask(self, run_values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _packed_mask(self, packed: np.ndarray, base: int) -> np.ndarray:
        raise NotImplementedError

    def mask(self, lo: int, hi: int, work) -> np.ndarray:
        col = self.col
        work.encoded_eval_rows += hi - lo
        kind = col.encoding_name
        if kind == "rle":
            run_values, lengths = col.base_payload
            values, clipped, i0, i1 = rle_overlap(run_values, lengths, lo, hi)
            work.runs_touched += i1 - i0
            return np.repeat(self._runs_mask(values), clipped)
        if kind == "bitpack":
            base, packed = col.base_payload
            work.runs_touched += 1
            return self._packed_mask(packed[lo:hi], base)
        # frame-of-reference: one clamped comparison per overlapped block
        refs, blocks = col.base_payload
        block = col.base_encoding.block
        first = lo // block
        last = min(-(-hi // block), len(blocks))
        parts = []
        for b in range(first, last):
            seg = blocks[b]
            s = max(lo - b * block, 0)
            e = min(hi - b * block, len(seg))
            parts.append(self._packed_mask(seg[s:e], refs[b]))
        work.runs_touched += max(0, last - first)
        if not parts:
            return np.zeros(0, dtype=bool)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _RangeConjunct(EncodedConjunct):
    """Numeric comparison as a stored-int interval test."""

    __slots__ = ("a", "b", "negate")

    def __init__(self, name, col, a: int, b: int, negate: bool):
        super().__init__(name, col)
        self.a = a
        self.b = b
        self.negate = negate

    def _runs_mask(self, run_values):
        m = (run_values >= self.a) & (run_values <= self.b)
        return ~m if self.negate else m

    def _packed_mask(self, packed, base):
        info = np.iinfo(packed.dtype)
        pa, pb = self.a - base, self.b - base
        if pb < 0 or pa > int(info.max):
            m = np.zeros(len(packed), dtype=bool)
        else:
            pa = max(pa, 0)
            pb = min(pb, int(info.max))
            if pa == 0 and pb == int(info.max):
                m = np.ones(len(packed), dtype=bool)
            elif pa == 0:
                m = packed <= packed.dtype.type(pb)
            elif pb == int(info.max):
                m = packed >= packed.dtype.type(pa)
            else:
                m = (packed >= packed.dtype.type(pa)) & (packed <= packed.dtype.type(pb))
        return ~m if self.negate else m


class _DictMaskConjunct(EncodedConjunct):
    """String predicate as a per-dictionary-entry mask indexed by codes."""

    __slots__ = ("dict_mask",)

    def __init__(self, name, col, dict_mask: np.ndarray):
        super().__init__(name, col)
        self.dict_mask = np.asarray(dict_mask, dtype=bool)

    def _runs_mask(self, run_values):
        return self.dict_mask[run_values]

    def _packed_mask(self, packed, base):
        # Codes and references are non-negative, so shifting the mask by
        # ``base`` lets the narrow packed array index it directly.
        sub = self.dict_mask[base:] if base else self.dict_mask
        return sub[packed]


class _InListRunsConjunct(EncodedConjunct):
    """Numeric IN-list, one membership test per RLE run.

    Restricted to RLE because ``np.isin`` promotes through a common
    type; mirroring that promotion per *run value* is exact, but there
    is no equivalent comparison in the packed domain.
    """

    __slots__ = ("values",)

    def __init__(self, name, col, values: np.ndarray):
        super().__init__(name, col)
        self.values = values

    def _runs_mask(self, run_values):
        col = self.col
        if col.scale is not None:
            decoded = (run_values / col.scale).astype(np.float64)
        else:
            decoded = run_values.astype(col.dtype.numpy_dtype)
        return np.isin(decoded, self.values)

    def _packed_mask(self, packed, base):  # pragma: no cover - rle only
        raise NotImplementedError("IN-list compiles for RLE columns only")


def compile_conjunct(conjunct: Expr, table) -> EncodedConjunct | None:
    """Compile one conjunct for encoded evaluation; ``None`` → decode.

    Never raises: a probe overflow, a type mismatch, or a missing
    column simply routes the conjunct to the decode path, which then
    reproduces whatever the legacy evaluation would have done.
    """
    try:
        return _compile(conjunct, table)
    except Exception:
        return None


def _compile(conjunct: Expr, table) -> EncodedConjunct | None:
    if not isinstance(conjunct, (Cmp, InList, Like)):
        return None
    is_cmp = isinstance(conjunct, Cmp)
    operand = conjunct.left if is_cmp else conjunct.operand
    if not isinstance(operand, ColRef) or (is_cmp and not isinstance(conjunct.right, Literal)):
        return None
    name = operand.name
    col = table.column(name)
    if not _encodable(col):
        return None
    if col.dtype is STRING:
        if is_cmp and not isinstance(conjunct.right.value, str):
            return None
        return _DictMaskConjunct(name, col, conjunct.dictionary_mask(col.dictionary))
    if is_cmp:
        rv = conjunct.right.value
        if col.dtype is DATE and isinstance(rv, str) and _DATE_RE.match(rv):
            rv = date_to_days(rv)
        return _RangeConjunct(name, col, *_translate_range(col, conjunct.op, rv))
    if isinstance(conjunct, Like) or col.encoding_name != "rle":
        return None
    vals = conjunct.values
    if col.dtype is DATE:
        vals = [date_to_days(v) if isinstance(v, str) else v for v in vals]
    return _InListRunsConjunct(name, col, np.asarray(vals))


def compile_predicate(
    conjuncts: list[Expr], table
) -> tuple[list[EncodedConjunct], list[Expr]]:
    """Split ``conjuncts`` into compiled encoded plans and a residual
    list for decode-then-eval. Pure — lowering calls it, EXPLAIN included;
    the scan records the dispatch outcomes (``predicate_stats``) when it
    runs."""
    plans: list[EncodedConjunct] = []
    residual: list[Expr] = []
    for conjunct in conjuncts:
        plan = compile_conjunct(conjunct, table)
        if plan is not None:
            plans.append(plan)
        else:
            residual.append(conjunct)
    return plans, residual


# -- RLE-aware aggregation ---------------------------------------------


def _run_starts(col: CompressedColumn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(run_values, run_starts, run_lengths) of an RLE column."""
    run_values, lengths = col.base_payload
    ends = np.cumsum(lengths)
    return run_values, ends - lengths, lengths


def _abs_weighted_total(values: np.ndarray, lengths: np.ndarray) -> int:
    """Exact Σ|v_i|·len_i as a Python int (the 2**53 audit)."""
    return sum(abs(int(v)) * int(l) for v, l in zip(values.tolist(), lengths.tolist()))


def _rle_input(col, funcs: set[str]) -> bool:
    """Can every aggregate in ``funcs`` run over this column's runs with
    bit-identical results?"""
    if not (isinstance(col, CompressedColumn) and col.encoding_name == "rle"):
        return False
    run_values, lengths = col.base_payload
    if len(run_values) > _MAX_AGG_RUNS:
        return False
    if funcs & {"sum", "avg"}:
        # Integer inputs only, with every partial sum exact in float64:
        # then the run-weighted bincount equals the per-row bincount.
        if col.scale is not None or col.dtype not in (INT64, DATE):
            return False
        if _abs_weighted_total(run_values, lengths) >= _EXACT_SUM_BOUND:
            return False
    if funcs & {"min", "max"}:
        if col.dtype not in (INT64, DATE, FLOAT64):
            return False
    return True


class EncodedAggregatePlan:
    """A whole predicate-free scan+aggregate compiled to run over runs."""

    def __init__(self, table, group_by, aggs, key, inputs):
        self.table = table
        self.group_by = group_by
        self.aggs = aggs
        self.key = key  # RLE CompressedColumn, or None for global
        self.inputs = inputs  # agg name -> RLE CompressedColumn | None

    # - execution ------------------------------------------------------

    def execute(self, ctx) -> Frame:
        table, aggs = self.table, self.aggs
        n = table.nrows
        scan_work = ctx.begin_operator("scan")
        streamed: set[int] = set()
        for col in [self.key, *self.inputs.values()]:
            if col is not None and id(col) not in streamed:
                streamed.add(id(col))
                scan_work.seq_bytes += col.nbytes
        scan_work.tuples_in += n
        scan_work.tuples_out += n

        work = ctx.begin_operator("aggregate")
        out_columns, segments, runs, n_groups = self._reduce()
        out = Frame(out_columns, n_groups)
        work.tuples_in += n
        work.tuples_out += n_groups
        work.ops += segments * max(1, len(aggs)) + n_groups
        work.runs_touched += runs
        work.seq_bytes += segments * 16  # one (value, length) pair each
        work.out_bytes += out.nbytes
        note(ctx, groups=n_groups, aggs=len(aggs), encoded=True)
        return out

    def _reduce(self):
        """Reduce every aggregate over homogeneous segments — constant
        group id and constant value inside each — through the row path's
        :func:`reduce_groups`. Returns ``(columns, segments, runs,
        n_groups)``; segments and runs are what the work accounting
        charges."""
        n = self.table.nrows
        out_columns: dict[str, Column] = {}
        if self.key is None:
            # No key column is the one-group case: a single key run over
            # the whole table, which nothing reads and nothing is charged.
            run_gids, kstarts = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
            klens, n_groups, key_runs = np.asarray([n]), 1, 0
        else:
            kvals, kstarts, klens = _run_starts(self.key)
            # Sorted-unique factorization — the same group order the decode
            # path gets from key_cache.factorize (the same kernel over values).
            uniq, run_gids = factorize(kvals)
            n_groups, key_runs = len(uniq), len(kvals)
            out_columns[self.group_by[0]] = Column(
                self.key.dtype, uniq, dictionary=self.key.dictionary
            )
        counts = np.zeros(n_groups, dtype=np.int64)
        np.add.at(counts, run_gids, klens)
        segments = runs = key_runs

        for name, spec in self.aggs.items():
            if spec.func in ("count_star", "count"):  # inputs proven never NULL
                out_columns[name] = reduce_groups("count_star", None, run_gids, n_groups, counts)
                continue
            ccol = self.inputs[name]
            ivals, istarts, _ = _run_starts(ccol)
            runs += len(ivals)
            # Merge key and input run boundaries into the segments.
            starts = np.union1d(kstarts, istarts)
            seg_gid = run_gids[np.searchsorted(kstarts, starts, side="right") - 1]
            seg_val = ivals[np.searchsorted(istarts, starts, side="right") - 1]
            segments += len(starts)
            if spec.func in ("sum", "avg"):
                # A segment weighs value × length: exact, integer inputs
                # bounded by ``_rle_input``'s audit.
                column = Column(INT64, seg_val * np.diff(np.append(starts, n)))
            elif ccol.scale is not None:
                column = Column(FLOAT64, seg_val / ccol.scale)
            else:
                column = Column(ccol.dtype, seg_val)
            out_columns[name] = reduce_groups(spec.func, column, seg_gid, n_groups, counts)
        return out_columns, segments, runs, n_groups


def prepare_aggregate(table, group_by: list[str], aggs: dict) -> EncodedAggregatePlan | None:
    """Compile a predicate-free scan+aggregate for run-level execution.

    Returns ``None`` whenever exactness cannot be proven — multi-key
    grouping, non-RLE or float-summed inputs, expression (non-ColRef)
    aggregates, nullable count inputs, empty tables — and the caller
    falls back to the row-at-a-time decode path.
    """
    try:
        return _prepare_aggregate(table, group_by, aggs)
    except Exception:
        return None


def _prepare_aggregate(table, group_by, aggs) -> EncodedAggregatePlan | None:
    if table.nrows == 0 or len(group_by) > 1 or not aggs:
        return None
    key = None
    if group_by:
        key = table.column(group_by[0])
        if not (isinstance(key, CompressedColumn) and key.encoding_name == "rle"):
            return None
        # FLOAT64 keys fall back: distinct stored cents may decode to
        # equal floats at large magnitudes, changing the grouping.
        if key.scale is not None or key.dtype not in (INT64, DATE, STRING):
            return None
        if len(key.base_payload[0]) > _MAX_AGG_RUNS:
            return None

    inputs: dict[str, CompressedColumn | None] = {}
    for name, spec in aggs.items():
        if spec.func == "count_star":
            inputs[name] = None
            continue
        if spec.expr is None or not isinstance(spec.expr, ColRef):
            return None
        col = table.column(spec.expr.name)
        if spec.func == "count":
            # COUNT over never-null input is the group size; compressed
            # columns are built non-null, plain ones must prove it.
            if isinstance(col, CompressedColumn) or getattr(col, "valid", True) is None:
                inputs[name] = None
                continue
            return None
        if spec.func not in ("sum", "avg", "min", "max"):
            return None
        if not _rle_input(col, {spec.func}):
            return None
        inputs[name] = col
    return EncodedAggregatePlan(table, list(group_by), dict(aggs), key, inputs)
