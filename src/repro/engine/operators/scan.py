"""Table scan: materializes the requested columns of a base table.

Handles both plain and compressed columns: a compressed column is
streamed at its compressed size and charged its decode ops — the
bandwidth-for-cycles trade the paper's §III-C2 proposes for SBCs.

With a pushed-down predicate attached, every zone-map block of the table
carries a verdict (:mod:`repro.engine.zonemap`), and the scan reads the
ones covering its row range:

* ``SKIP`` blocks are provably empty — their bytes are never streamed
  (and compressed blocks are never decoded); they cost only the
  zone-map probes, charged as ``skipped_bytes``/``zone_probes``.
* ``TAKE`` blocks provably satisfy every conjunct — they are streamed
  but the per-row predicate evaluation is elided.
* ``EVAL`` blocks are streamed and evaluated vectorized, exactly like
  the explicit filter operator the optimizer replaced.

Adjacent same-kind blocks merge into runs, so an unclustered table
degenerates to a single EVAL run — i.e. the classic scan + filter
pipeline with no extra slicing. Work accounting splits across two
operators ("scan" for streaming, "filter" for predicate evaluation) so
profiles keep the operator shape of the unpushed plan.

Everything static about a predicated scan — the block verdicts, which
conjuncts run on the encoded payloads, what is left for decoded rows,
late or eager output — was decided by
:func:`repro.engine.physical.lower` and arrives on the
:class:`~repro.engine.plan.PredicatedScanNode`; one loop over the runs
serves every combination. A scan only ever materializes rows of its own
range ``[start, stop)``: zero-copy slices of plain columns,
``decode_range`` of compressed ones, so a morsel never decodes a column
it does not own (the whole-column ``to_column()`` is the
``[0, nrows)`` case).
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import metrics
from repro.obs.trace import note

from ..column import Column
from ..compression import CompressedColumn
from ..encoded import predicate_stats
from ..frame import LATE_BREAK_SELECTIVITY, SELECTION_DTYPE, Frame
from ..plan import PredicatedScanNode, ScanNode
from ..profile import OperatorWork
from ..table import Table
from ..zonemap import BLOCK_EVAL, BLOCK_SKIP, ZONE_MAP_BLOCK_ROWS

__all__ = ["scan_range"]

# Process-wide data-skipping counters (cumulative across queries); the
# per-query numbers live in the WorkProfile / trace spans.
_ZONE_PROBES = metrics.counter("engine.zonemap.probes")
_BLOCKS_SKIPPED = metrics.counter("engine.zonemap.blocks_skipped")
_BLOCKS_SCANNED = metrics.counter("engine.zonemap.blocks_scanned")


def _merge_runs(
    codes: np.ndarray, start: int, stop: int, block_rows: int
) -> list[tuple[int, int, int]]:
    """Collapse per-block codes into ``(kind, lo, hi)`` row runs clipped
    to ``[start, stop)``, merging adjacent blocks of the same kind."""
    runs: list[tuple[int, int, int]] = []
    b0 = start // block_rows
    for i, kind in enumerate(codes):
        lo = max(start, (b0 + i) * block_rows)
        hi = min(stop, (b0 + i + 1) * block_rows)
        if hi <= lo:
            continue
        if runs and runs[-1][0] == kind and runs[-1][2] == lo:
            runs[-1] = (kind, runs[-1][1], hi)
        else:
            runs.append((int(kind), lo, hi))
    return runs


def _materialize(
    table: Table, names: list[str], lo: int, hi: int, work, live: float | None = None
) -> dict[str, Column]:
    """Rows ``[lo, hi)`` of the named columns as plain columns — the one
    place a scan turns stored rows into values. Plain columns slice
    zero-copy; compressed ones decode exactly these rows, charging
    ``work`` the bytes materialized and the column's decode ops pro
    rata: for every row decoded, or, given ``live``, for that fraction
    of the range (a range decoded around skipped blocks — a
    block-granular codec would touch only the live ones)."""
    out: dict[str, Column] = {}
    for name in names:
        col = table.column(name)
        whole = lo == 0 and hi == len(col)
        if isinstance(col, CompressedColumn):
            work.decoded_bytes += (hi - lo) * col.dtype.width
            if live is None:
                work.ops += col.decode_ops * (hi - lo) / max(1, len(col))
            else:
                work.ops += col.decode_ops * ((hi - lo) / max(1, len(col))) * live
            out[name] = col.to_column() if whole else Column(
                col.dtype, col.decode_range(lo, hi), dictionary=col.dictionary
            )
        else:
            out[name] = col if whole else col.slice(lo, hi)
    return out


def _scan_unfiltered(
    table: Table, names: list[str], start: int, stop: int, ctx
) -> Frame:
    """The predicate-free scan: stream every requested column once."""
    for name in names:
        col = table.column(name)
        if isinstance(col, CompressedColumn):
            ctx.work.seq_bytes += col.nbytes * ((stop - start) / max(1, len(col)))
        else:
            ctx.work.seq_bytes += (stop - start) * col.dtype.width
    ctx.work.tuples_in += stop - start
    ctx.work.tuples_out += stop - start
    columns = _materialize(table, names, start, stop, ctx.work, live=1.0)
    return Frame(columns, stop - start)


def _block_codes(node: PredicatedScanNode, start: int, stop: int) -> np.ndarray:
    """The node's zone-map verdicts for the blocks overlapping
    ``[start, stop)`` (first code: the block containing ``start``)."""
    block_rows = ZONE_MAP_BLOCK_ROWS
    return node.block_codes[start // block_rows : -(-stop // block_rows)]


def _charge_stream(
    work, table: Table, node: PredicatedScanNode, rows: int, survived: int,
    codes: np.ndarray,
) -> int:
    """Charge ``work`` for streaming a ``rows``-row range whose blocks
    classified as ``codes``, ``survived`` rows of it outside SKIP blocks:
    those stream (a compressed column at its compressed size), the rest
    cost only the probes. Returns the number of blocks skipped."""
    n_skip = int((codes == BLOCK_SKIP).sum())
    work.zone_probes += node.block_probes * len(codes)
    work.blocks_skipped += n_skip
    work.blocks_scanned += len(codes) - n_skip
    live = survived / max(1, rows)
    for name in node.streamed:
        col = table.column(name)
        if isinstance(col, CompressedColumn):
            share = col.nbytes * (rows / max(1, len(col)))
            work.seq_bytes += share * live
            work.skipped_bytes += share * (1.0 - live)
        else:
            work.seq_bytes += survived * col.dtype.width
            work.skipped_bytes += (rows - survived) * col.dtype.width
    work.tuples_in += survived
    work.tuples_out += survived
    return n_skip


def drop_empty_ranges(
    table: Table, node: PredicatedScanNode, ranges: list[tuple[int, int]]
) -> tuple[list[tuple[int, int]], OperatorWork | None]:
    """Split morsel ``ranges`` into the ones worth scheduling and the
    accounting of the ones the zone maps prove entirely empty — skipped
    work should not even cost a thread handoff. The second element is
    what :func:`scan_range` would have charged its scan operator for the
    dropped ranges (``None`` when none dropped). One range is always
    kept, so the segment still yields a well-formed (possibly empty)
    frame through the normal path."""
    if not (node.block_codes == BLOCK_SKIP).any():
        return ranges, None
    codes = [_block_codes(node, lo, hi) for lo, hi in ranges]
    empty = [bool((c == BLOCK_SKIP).all()) for c in codes]
    if all(empty):
        empty[0] = False
    if not any(empty):
        return ranges, None
    skipped = OperatorWork("scan")
    for (lo, hi), c, drop in zip(ranges, codes, empty):
        if drop:
            _charge_stream(skipped, table, node, hi - lo, 0, c)
    return [r for r, drop in zip(ranges, empty) if not drop], skipped


def _late_frame(
    decoded: dict[str, Column], out_names: list[str], sel_parts: list[np.ndarray],
    survived: int, filter_work, ctx,
) -> Frame:
    """The late-materialized result of a predicated scan: the base
    columns untouched plus the selection vector of surviving row ids —
    unless that vector is dense but scattered, where it breaks here."""
    sel = sel_parts[0] if len(sel_parts) == 1 else np.concatenate(sel_parts)
    out_frame = Frame({n: decoded[n] for n in out_names}, selection=sel)
    if (
        not out_frame.is_contiguous()
        and out_frame.nrows > LATE_BREAK_SELECTIVITY * max(1, survived)
    ):
        # The selection is dense but scattered: the deferred gathers
        # would touch almost every cache line, so break the vector
        # here and pay the streaming rewrite an eager filter pays.
        out_frame = out_frame.dense()
        filter_work.tuples_out += out_frame.nrows
        filter_work.out_bytes += out_frame.nbytes
        note(ctx, late=True, broke=True)
        return out_frame
    filter_work.tuples_out += out_frame.nrows
    filter_work.out_bytes += sel.nbytes
    # The compact column rewrite an eager filter would have paid.
    filter_work.saved_bytes += out_frame.nbytes
    note(ctx, late=True)
    return out_frame


def scan_range(table: Table, node: ScanNode, start: int, stop: int, ctx) -> Frame:
    """Scan rows ``[start, stop)`` of ``table`` as the lowered ``node``
    describes, applying its predicate (if any).

    ``node.columns`` are the output columns; predicate-only columns are
    streamed for evaluation but dropped from the result. The executor's
    scan branch calls this over the full table, or over one morsel's
    rows inside a parallel segment — both share this exact code path.

    Accounting: a columnar scan streams every referenced column array
    sequentially through memory once — the dominant memory-bandwidth term
    for OLAP queries (and the reason Q1 is the Pi's worst query).
    Compressed columns stream fewer bytes but cost decode ops. Blocks a
    zone map proves empty against the pushed-down predicate are charged
    ``skipped_bytes`` (and zone probes) instead of streaming. A ``late``
    node returns a selection vector (row ids relative to ``start``) over
    the range's columns instead of rewriting the survivors. EVAL runs
    take their mask from the node's encoded conjuncts (on the packed
    payloads, no decode) and its residual (on decoded rows); columns
    only compiled conjuncts read are never decoded at all.
    """
    out_names = list(node.columns) if node.columns is not None else table.column_names
    if node.predicate is None:
        return _scan_unfiltered(table, out_names, start, stop, ctx)

    codes = _block_codes(node, start, stop)
    runs = _merge_runs(codes, start, stop, ZONE_MAP_BLOCK_ROWS)
    rows = stop - start
    survived = sum(hi - lo for kind, lo, hi in runs if kind != BLOCK_SKIP)

    scan_work = ctx.work
    n_skip = _charge_stream(scan_work, table, node, rows, survived, codes)
    if node.block_probes:
        _ZONE_PROBES.inc(node.block_probes * len(codes))
    if n_skip:
        _BLOCKS_SKIPPED.inc(n_skip)
    if len(codes) - n_skip:
        _BLOCKS_SCANNED.inc(len(codes) - n_skip)
    for _ in node.encoded:
        predicate_stats.hit()
    for _ in range(node.encoded_misses):
        predicate_stats.miss()
    note(ctx, runs=len(runs))

    # What is ever decoded: the outputs plus what the residual reads.
    residual = node.residual
    residual_names = sorted(residual.references()) if residual is not None else []
    needed = out_names + [n for n in residual_names if n not in out_names]
    late = node.late and survived > 0
    # With encoded conjuncts and compact output only the surviving runs
    # are materialized, each on its own; otherwise (a selection vector
    # needs the range's columns whole; the decode-then-eval path always
    # decoded around its skipped blocks) the range is, once.
    per_run = bool(node.encoded) and not late
    origin, window = start, {}
    if survived and not per_run:
        window = _materialize(
            table, needed, start, stop, scan_work, live=survived / max(1, rows)
        )

    # Predicate evaluation is its own operator, mirroring the explicit
    # filter the optimizer pushed down — profiles keep the same shape.
    filter_work = ctx.begin_operator("filter")
    note(ctx, pushdown=True)
    if node.encoded:
        note(ctx, encoded=len(node.encoded))

    def run_frame(names: list[str], lo: int, hi: int) -> Frame:
        return Frame(
            {n: window[n].slice(lo - origin, hi - origin) for n in names}, hi - lo
        )

    sel_parts: list[np.ndarray] = []
    pieces: list[Frame] = []
    for kind, lo, hi in runs:
        if kind == BLOCK_SKIP:
            continue
        filter_work.tuples_in += hi - lo
        if per_run:
            origin = lo
            window = _materialize(
                table, needed if kind == BLOCK_EVAL else out_names, lo, hi, scan_work
            )
        mask = None  # BLOCK_TAKE: the zone map proved every row survives
        if kind == BLOCK_EVAL:
            for conjunct in node.encoded:
                m = conjunct.mask(lo, hi, filter_work)
                mask = m if mask is None else mask & m
            if residual is not None:
                m = residual.evaluate(run_frame(residual_names, lo, hi), ctx).values
                mask = m if mask is None else mask & m
            filter_work.seq_bytes += hi - lo  # the mask / candidate list
        if not late:
            piece = run_frame(out_names, lo, hi)
            pieces.append(piece if mask is None else piece.filter(mask))
        elif mask is None:
            sel_parts.append(np.arange(lo - start, hi - start, dtype=SELECTION_DTYPE))
        else:
            sel_parts.append((lo - start + np.flatnonzero(mask)).astype(SELECTION_DTYPE))
    if late:
        return _late_frame(window, out_names, sel_parts, survived, filter_work, ctx)
    if not pieces:  # nothing survived: zero rows of every output column
        pieces = [Frame(_materialize(table, out_names, start, start, scan_work), 0)]
    out_frame = pieces[0] if len(pieces) == 1 else Frame(
        {n: Column.concat([p.column(n) for p in pieces]) for n in out_names},
        sum(p.nrows for p in pieces),
    )
    filter_work.tuples_out += out_frame.nrows
    filter_work.out_bytes += out_frame.nbytes
    return out_frame
