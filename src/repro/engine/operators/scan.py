"""Table scan: materializes the requested columns of a base table.

Handles both plain and compressed columns: a compressed column is
streamed at its compressed size and charged its decode ops — the
bandwidth-for-cycles trade the paper's §III-C2 proposes for SBCs.

With a pushed-down predicate attached, the scan first classifies the
zone-map blocks covering its row range (:mod:`repro.engine.zonemap`):

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
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import metrics
from repro.obs.trace import note

from ..column import Column
from ..compression import CompressedColumn
from ..encoded import compile_predicate
from ..frame import LATE_BREAK_SELECTIVITY, SELECTION_DTYPE, Frame
from ..plan import ScanNode
from ..table import Table
from ..zonemap import (
    BLOCK_EVAL,
    BLOCK_SKIP,
    BLOCK_TAKE,
    ZONE_MAP_BLOCK_ROWS,
    classify_blocks,
    conjoin,
    extract_sargable,
    split_conjuncts,
)

__all__ = ["scan_range"]

# Process-wide data-skipping counters (cumulative across queries); the
# per-query numbers live in the WorkProfile / trace spans.
_ZONE_PROBES = metrics.counter("engine.zonemap.probes")
_BLOCKS_SKIPPED = metrics.counter("engine.zonemap.blocks_skipped")
_BLOCKS_SCANNED = metrics.counter("engine.zonemap.blocks_scanned")


def _empty_like(col) -> Column:
    """A zero-row column of the same type — built without decoding when
    the source is compressed (the all-blocks-skipped fast path)."""
    if isinstance(col, CompressedColumn):
        values = np.empty(0, dtype=col.dtype.numpy_dtype)
        return Column(col.dtype, values, dictionary=col.dictionary)
    return col.slice(0, 0)


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


def _scan_unfiltered(
    table: Table, names: list[str], start: int, stop: int, ctx,
    compressed: bool = False,
) -> Frame:
    """The predicate-free scan: stream every requested column once."""
    full = start == 0 and stop == table.nrows
    out: dict[str, Column] = {}
    for name in names:
        col = table.column(name)
        if isinstance(col, CompressedColumn):
            fraction = (stop - start) / max(1, len(col))
            ctx.work.seq_bytes += col.nbytes * fraction
            ctx.work.ops += col.decode_ops * fraction
            if compressed and not full:
                # Partial ranges (morsels) decode only their own rows —
                # without this, every morsel would re-decode the whole
                # column and parallel scans would go quadratic.
                values = col.decode_range(start, stop)
                out[name] = Column(col.dtype, values, dictionary=col.dictionary)
                ctx.work.decoded_bytes += (stop - start) * col.dtype.width
            else:
                plain = col.to_column()
                out[name] = plain if full else plain.slice(start, stop)
                ctx.work.decoded_bytes += col.plain_nbytes
        else:
            sliced = col if full else col.slice(start, stop)
            ctx.work.seq_bytes += sliced.nbytes
            out[name] = sliced
    frame = Frame(out, stop - start)
    ctx.work.tuples_in += frame.nrows
    ctx.work.tuples_out += frame.nrows
    return frame


def _late_frame(
    decoded: dict[str, Column], out_names: list[str], sel_parts: list[np.ndarray],
    survived: int, filter_work, ctx,
) -> Frame:
    """The late-materialized result of a predicated scan: the base
    columns untouched plus the selection vector of surviving row ids —
    unless that vector is dense but scattered, where it breaks here."""
    if len(sel_parts) == 1:
        sel = sel_parts[0]
    elif sel_parts:
        sel = np.concatenate(sel_parts)
    else:
        sel = np.empty(0, dtype=SELECTION_DTYPE)
    out_frame = Frame({n: decoded[n] for n in out_names}, selection=sel)
    if (
        not out_frame._selection_is_contiguous()
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


def _eager_frame(
    table: Table, out_names: list[str], pieces: list[Frame], filter_work
) -> Frame:
    """The eagerly materialized result: surviving run pieces concatenated
    into compact columns."""
    if pieces:
        n_out = sum(p.nrows for p in pieces)
        if len(pieces) == 1:
            out_cols = {n: pieces[0].column(n) for n in out_names}
        else:
            out_cols = {
                n: Column.concat([p.column(n) for p in pieces]) for n in out_names
            }
    else:
        n_out = 0
        out_cols = {n: _empty_like(table.column(n)) for n in out_names}
    out_frame = Frame(out_cols, n_out)
    filter_work.tuples_out += n_out
    filter_work.out_bytes += out_frame.nbytes
    return out_frame


def scan_range(
    table: Table,
    scan: ScanNode,
    start: int,
    stop: int,
    ctx,
    skipping: bool = True,
    late: bool = False,
    compressed: bool = False,
) -> Frame:
    """Scan rows ``[start, stop)`` of ``table`` as ``scan`` describes,
    applying its predicate (if any) with zone-map block skipping (if
    enabled).

    ``scan.columns`` are the output columns; predicate-only columns are
    streamed for evaluation but dropped from the result. The executor's
    scan branch calls this over the full table, or over one morsel's
    rows inside a parallel segment — both share this exact code path.

    Accounting: a columnar scan streams every referenced column array
    sequentially through memory once — the dominant memory-bandwidth term
    for OLAP queries (and the reason Q1 is the Pi's worst query).
    Compressed columns stream fewer bytes but cost decode ops. Blocks a
    zone map proves empty against the pushed-down predicate are charged
    ``skipped_bytes`` (and zone probes) instead of streaming. With
    ``late`` a predicated scan returns a selection vector over the base
    columns instead of rewriting the survivors. With ``compressed`` the
    scan compiles predicate conjuncts against encoded columns
    (:mod:`repro.engine.encoded`) and decodes per run instead of per
    column.
    """
    predicate = scan.predicate
    out_names = list(scan.columns) if scan.columns is not None else table.column_names
    if predicate is None:
        return _scan_unfiltered(table, out_names, start, stop, ctx, compressed)

    conjuncts = split_conjuncts(predicate)
    sargable = [s for s in (extract_sargable(c) for c in conjuncts) if s is not None]
    all_sargable = len(sargable) == len(conjuncts)

    block_rows = ZONE_MAP_BLOCK_ROWS
    if skipping and sargable:
        codes, probes = classify_blocks(table, sargable, start, stop, block_rows)
    else:
        nblocks = max(0, -(-stop // block_rows) - start // block_rows)
        codes = np.full(nblocks, BLOCK_EVAL, dtype=np.int8)
        probes = 0
    if not all_sargable:
        # TAKE only proves the sargable conjuncts; a non-sargable residue
        # still needs per-row evaluation.
        codes[codes == BLOCK_TAKE] = BLOCK_EVAL
    runs = _merge_runs(codes, start, stop, block_rows)

    stream_names = scan.streamed_columns(table)

    range_rows = stop - start
    survived = sum(hi - lo for kind, lo, hi in runs if kind != BLOCK_SKIP)
    skipped = range_rows - survived
    n_skip_blocks = int((codes == BLOCK_SKIP).sum())

    scan_work = ctx.work
    scan_work.zone_probes += probes
    scan_work.blocks_skipped += n_skip_blocks
    scan_work.blocks_scanned += len(codes) - n_skip_blocks
    if probes:
        _ZONE_PROBES.inc(probes)
    if n_skip_blocks:
        _BLOCKS_SKIPPED.inc(n_skip_blocks)
    if len(codes) - n_skip_blocks:
        _BLOCKS_SCANNED.inc(len(codes) - n_skip_blocks)
    note(ctx, runs=len(runs))

    if compressed:
        enc_plans, residual = compile_predicate(conjuncts, table)
        if enc_plans:
            return _scan_range_encoded(
                table, out_names, stream_names, runs, enc_plans, residual,
                ctx, scan_work, range_rows, survived, skipped, late,
            )

    decoded: dict[str, Column] = {}
    for name in stream_names:
        col = table.column(name)
        if isinstance(col, CompressedColumn):
            # Whole-column decode path: if any block survives we decode
            # once, but charge streaming/decode only for the surviving
            # fraction (a block-granular codec would touch exactly that
            # much); fully-skipped columns are never decoded at all.
            range_fraction = range_rows / max(1, len(col))
            live = survived / max(1, range_rows)
            scan_work.seq_bytes += col.nbytes * range_fraction * live
            scan_work.skipped_bytes += col.nbytes * range_fraction * (1.0 - live)
            if survived:
                scan_work.ops += col.decode_ops * range_fraction * live
                scan_work.decoded_bytes += col.plain_nbytes
                decoded[name] = col.to_column()
        else:
            scan_work.seq_bytes += survived * col.dtype.width
            scan_work.skipped_bytes += skipped * col.dtype.width
            decoded[name] = col
    scan_work.tuples_in += survived
    scan_work.tuples_out += survived

    # Predicate evaluation is its own operator, mirroring the explicit
    # filter the optimizer pushed down — profiles keep the same shape.
    filter_work = ctx.begin_operator("filter")
    note(ctx, pushdown=True)

    if late and all(name in decoded for name in stream_names):
        # Late materialization: emit the base columns untouched plus a
        # selection vector of surviving row ids. TAKE runs contribute a
        # contiguous range, EVAL runs the rows their mask keeps; no
        # column is rewritten here — the gather waits for a breaker.
        sel_parts: list[np.ndarray] = []
        for kind, lo, hi in runs:
            if kind == BLOCK_SKIP:
                continue
            filter_work.tuples_in += hi - lo
            if kind == BLOCK_TAKE:
                sel_parts.append(np.arange(lo, hi, dtype=SELECTION_DTYPE))
            else:
                run_frame = Frame(
                    {n: decoded[n].slice(lo, hi) for n in stream_names}, hi - lo
                )
                mask = predicate.evaluate(run_frame, ctx).values
                filter_work.seq_bytes += hi - lo  # the mask / candidate list
                sel_parts.append((lo + np.flatnonzero(mask)).astype(SELECTION_DTYPE))
        return _late_frame(decoded, out_names, sel_parts, survived, filter_work, ctx)

    pieces: list[Frame] = []
    for kind, lo, hi in runs:
        if kind == BLOCK_SKIP:
            continue
        frame = Frame({n: decoded[n].slice(lo, hi) for n in stream_names}, hi - lo)
        filter_work.tuples_in += frame.nrows
        if kind == BLOCK_EVAL:
            mask = predicate.evaluate(frame, ctx).values
            frame = frame.filter(mask)
            filter_work.seq_bytes += hi - lo  # the mask / candidate list
        pieces.append(frame)
    return _eager_frame(table, out_names, pieces, filter_work)


def _decoded_slice(table: Table, name: str, lo: int, hi: int, scan_work) -> Column:
    """Materialize rows ``[lo, hi)`` of one column, charging the decode
    (bytes + ops) to the scan operator; plain columns slice zero-copy."""
    col = table.column(name)
    if isinstance(col, CompressedColumn):
        scan_work.decoded_bytes += (hi - lo) * col.dtype.width
        scan_work.ops += col.decode_ops * (hi - lo) / max(1, len(col))
        return Column(col.dtype, col.decode_range(lo, hi), dictionary=col.dictionary)
    return col.slice(lo, hi)


def _scan_range_encoded(
    table: Table,
    out_names: list[str],
    stream_names: list[str],
    runs: list[tuple[int, int, int]],
    plans: list,
    residual: list,
    ctx,
    scan_work,
    range_rows: int,
    survived: int,
    skipped: int,
    late: bool = False,
) -> Frame:
    """Predicated scan with compiled encoded conjuncts.

    EVAL runs test the packed payloads directly (no int64
    materialization); only the output columns of surviving runs — plus
    whatever a residual (uncompiled) conjunct reads — are ever decoded.
    A skipped-then-filtered block therefore never decodes at all, and
    compiled predicate-only columns never decode anywhere. With ``late``
    the output rides a selection vector over whole-decoded base columns
    (the late pipeline needs absolute row ids), so the decode saving is
    confined to predicate-only columns — but the rewrite saving and the
    deferred gather compose exactly as on plain tables.
    """
    residual_pred = conjoin(residual)
    residual_names = (
        sorted({n for c in residual for n in c.references()}) if residual else []
    )

    for name in stream_names:
        col = table.column(name)
        if isinstance(col, CompressedColumn):
            range_fraction = range_rows / max(1, len(col))
            live = survived / max(1, range_rows)
            scan_work.seq_bytes += col.nbytes * range_fraction * live
            scan_work.skipped_bytes += col.nbytes * range_fraction * (1.0 - live)
        else:
            scan_work.seq_bytes += survived * col.dtype.width
            scan_work.skipped_bytes += skipped * col.dtype.width
    scan_work.tuples_in += survived
    scan_work.tuples_out += survived

    filter_work = ctx.begin_operator("filter")
    note(ctx, pushdown=True, encoded=True)

    if late and survived:
        # Late materialization over encoded predicates: base columns the
        # frame carries (outputs + residual inputs) whole-decode exactly
        # as on the decode path, but compiled predicate-only columns are
        # never decoded and EVAL-run masks come from the packed domain.
        decoded: dict[str, Column] = {}
        late_names = list(out_names) + [
            n for n in residual_names if n not in out_names
        ]
        for name in late_names:
            col = table.column(name)
            if isinstance(col, CompressedColumn):
                range_fraction = range_rows / max(1, len(col))
                live = survived / max(1, range_rows)
                scan_work.ops += col.decode_ops * range_fraction * live
                scan_work.decoded_bytes += col.plain_nbytes
                decoded[name] = col.to_column()
            else:
                decoded[name] = col
        sel_parts: list[np.ndarray] = []
        for kind, lo, hi in runs:
            if kind == BLOCK_SKIP:
                continue
            filter_work.tuples_in += hi - lo
            if kind == BLOCK_TAKE:
                sel_parts.append(np.arange(lo, hi, dtype=SELECTION_DTYPE))
                continue
            mask = None
            for plan in plans:
                m = plan.mask(lo, hi, filter_work)
                mask = m if mask is None else mask & m
            if residual_pred is not None:
                run_frame = Frame(
                    {n: decoded[n].slice(lo, hi) for n in residual_names},
                    hi - lo,
                )
                rmask = residual_pred.evaluate(run_frame, ctx).values
                mask = rmask if mask is None else mask & rmask
            filter_work.seq_bytes += hi - lo  # the mask / candidate list
            sel_parts.append((lo + np.flatnonzero(mask)).astype(SELECTION_DTYPE))
        return _late_frame(decoded, out_names, sel_parts, survived, filter_work, ctx)

    pieces: list[Frame] = []
    for kind, lo, hi in runs:
        if kind == BLOCK_SKIP:
            continue
        filter_work.tuples_in += hi - lo
        cache: dict[str, Column] = {}

        def run_slice(name: str, lo=lo, hi=hi, cache=cache) -> Column:
            if name not in cache:
                cache[name] = _decoded_slice(table, name, lo, hi, scan_work)
            return cache[name]

        frame = None
        if kind == BLOCK_EVAL:
            mask = None
            for plan in plans:
                m = plan.mask(lo, hi, filter_work)
                mask = m if mask is None else mask & m
            if residual_pred is not None:
                run_frame = Frame(
                    {n: run_slice(n) for n in residual_names}, hi - lo
                )
                rmask = residual_pred.evaluate(run_frame, ctx).values
                mask = rmask if mask is None else mask & rmask
            filter_work.seq_bytes += hi - lo  # the mask / candidate list
            frame = Frame({n: run_slice(n) for n in out_names}, hi - lo).filter(mask)
        else:  # BLOCK_TAKE — the zone map proved every row survives
            frame = Frame({n: run_slice(n) for n in out_names}, hi - lo)
        pieces.append(frame)
    return _eager_frame(table, out_names, pieces, filter_work)
