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
:class:`~repro.engine.plan.PredicatedScanNode`; one path serves every
combination. The scan materializes its range ``[start, stop)`` once:
plain columns as zero-copy slices, compressed ones decoded over their
surviving runs only — output columns over every non-SKIP run, columns
only the residual reads over the EVAL runs — so neither a skipped block
nor another morsel's rows is ever decoded. It then builds the selection
vector run by run and ends in the filter's one late/eager step,
:func:`~repro.engine.operators.filter.keep_rows`.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import metrics
from repro.obs.trace import note

from ..column import Column
from ..compression import CompressedColumn
from ..encoded import predicate_stats
from ..frame import SELECTION_DTYPE, Frame
from ..plan import PredicatedScanNode, ScanNode
from ..profile import OperatorWork
from ..table import Table
from ..zonemap import BLOCK_EVAL, BLOCK_SKIP, BLOCK_TAKE, ZONE_MAP_BLOCK_ROWS
from .filter import keep_rows

__all__ = ["scan_range"]

# Process-wide data-skipping counters (cumulative across queries); the
# per-query numbers live in the WorkProfile / trace spans.
_ZONE_PROBES = metrics.counter("engine.zonemap.probes")
_BLOCKS_SKIPPED = metrics.counter("engine.zonemap.blocks_skipped")
_BLOCKS_SCANNED = metrics.counter("engine.zonemap.blocks_scanned")


def _merge_runs(codes: np.ndarray, start: int, stop: int) -> list[tuple[int, int, int]]:
    """Collapse the per-block ``codes`` of the blocks overlapping
    ``[start, stop)`` into ``(kind, lo, hi)`` row runs clipped to it,
    merging adjacent blocks of the same kind."""
    b0 = start // ZONE_MAP_BLOCK_ROWS
    edges = [0, *(np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist(), len(codes)]
    runs: list[tuple[int, int, int]] = []
    for first, end in zip(edges, edges[1:]):
        lo = max(start, (b0 + first) * ZONE_MAP_BLOCK_ROWS)
        hi = min(stop, (b0 + end) * ZONE_MAP_BLOCK_ROWS)
        if hi > lo:
            runs.append((int(codes[first]), lo, hi))
    return runs


def _spans(runs: list[tuple[int, int, int]], kinds: tuple[int, ...]) -> list[tuple[int, int]]:
    """The row ranges of the ``runs`` of ``kinds``, adjacent ones joined."""
    spans: list[tuple[int, int]] = []
    for kind, lo, hi in runs:
        if kind not in kinds:
            continue
        if spans and spans[-1][1] == lo:
            spans[-1] = (spans[-1][0], hi)
        else:
            spans.append((lo, hi))
    return spans


def _materialize(
    table: Table, names: list[str], start: int, stop: int,
    spans: list[tuple[int, int]], work,
) -> dict[str, Column]:
    """Rows ``[start, stop)`` of the named columns as plain columns — the
    one place a scan turns stored rows into values. Plain columns slice
    zero-copy; a compressed one decodes only the rows of ``spans``
    (ranges inside the window), charging ``work`` their bytes and the
    column's decode ops pro rata. Its other rows hold zeros, which no
    caller ever selects."""
    out: dict[str, Column] = {}
    for name in names:
        col = table.column(name)
        if not isinstance(col, CompressedColumn):
            out[name] = col if start == 0 and stop == len(col) else col.slice(start, stop)
            continue
        if spans == [(start, stop)]:
            values = col.decode_range(start, stop)
        else:
            values = np.zeros(stop - start, dtype=col.dtype.numpy_dtype)
            for lo, hi in spans:
                values[lo - start : hi - start] = col.decode_range(lo, hi)
        for lo, hi in spans:
            work.decoded_bytes += (hi - lo) * col.dtype.width
            work.ops += col.decode_ops * (hi - lo) / max(1, len(col))
        out[name] = Column(col.dtype, values, dictionary=col.dictionary)
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
    columns = _materialize(table, names, start, stop, [(start, stop)], ctx.work)
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
    ``skipped_bytes`` (and zone probes) instead of streaming. The range's
    rows from its first surviving row to its last are materialized once;
    rows of compressed columns outside the surviving runs are never
    decoded (they hold zeros and are never selected). EVAL runs take
    their mask from the node's encoded conjuncts (on the packed
    payloads, no decode) and its residual (on decoded rows); columns
    only compiled conjuncts read are never decoded at all. A ``late``
    node returns a selection vector over those rows instead of
    rewriting the survivors.
    """
    out_names = list(node.columns) if node.columns is not None else table.column_names
    if node.predicate is None:
        return _scan_unfiltered(table, out_names, start, stop, ctx)

    codes = _block_codes(node, start, stop)
    runs = _merge_runs(codes, start, stop)
    live = _spans(runs, (BLOCK_TAKE, BLOCK_EVAL))
    rows = stop - start
    survived = sum(hi - lo for lo, hi in live)

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

    # The window runs from the first surviving row to the last. Output
    # columns decode over every surviving run, columns only the residual
    # reads over the EVAL runs it evaluates.
    first, last = (live[0][0], live[-1][1]) if live else (start, start)
    residual = node.residual
    residual_names = sorted(residual.references()) if residual is not None else []
    window = _materialize(table, out_names, first, last, live, scan_work)
    window.update(_materialize(
        table, [n for n in residual_names if n not in window], first, last,
        _spans(runs, (BLOCK_EVAL,)), scan_work,
    ))

    # Predicate evaluation is its own operator, mirroring the explicit
    # filter the optimizer pushed down — profiles keep the same shape.
    filter_work = ctx.begin_operator("filter")
    note(ctx, pushdown=True)
    if node.encoded:
        note(ctx, encoded=len(node.encoded))
    sel_parts: list[np.ndarray] = []
    for kind, lo, hi in runs:
        if kind == BLOCK_SKIP:
            continue
        mask = None  # BLOCK_TAKE: the zone map proved every row survives
        if kind == BLOCK_EVAL:
            for conjunct in node.encoded:
                m = conjunct.mask(lo, hi, filter_work)
                mask = m if mask is None else mask & m
            if residual is not None:
                run = {n: window[n].slice(lo - first, hi - first) for n in residual_names}
                m = residual.evaluate(Frame(run, hi - lo), ctx).values
                mask = m if mask is None else mask & m
            filter_work.seq_bytes += hi - lo  # the mask / candidate list
        if mask is None:
            sel_parts.append(np.arange(lo - first, hi - first, dtype=SELECTION_DTYPE))
        else:
            sel_parts.append((lo - first + np.flatnonzero(mask)).astype(SELECTION_DTYPE))
    if len(sel_parts) == 1:
        sel = sel_parts[0]  # one run survived: no copy
    else:
        sel = np.concatenate(sel_parts) if sel_parts else np.empty(0, SELECTION_DTYPE)
    survivors = Frame({n: window[n] for n in out_names}, selection=sel)
    return keep_rows(survivors, survived, node.late, ctx)
