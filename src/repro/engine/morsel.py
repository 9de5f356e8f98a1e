"""Morsel partitioning for intra-query parallelism.

A *morsel* is a fixed-size horizontal slice of a base table (Leis et al.,
"Morsel-Driven Parallelism"). A multi-worker executor runs a query's
scan → filter → project → partial-aggregate pipeline once per morsel on a
thread pool (the numpy kernels release the GIL), then merges the partial
states with :mod:`repro.engine.merge`. Each morsel gets its own
:class:`MorselContext` so operator work accounting never contends across
threads; the per-morsel profiles are coalesced afterwards.
"""

from __future__ import annotations

from .compression import CompressedColumn
from .profile import OperatorContext
from .table import Database, Table

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "MIN_PARALLEL_ROWS",
    "MorselContext",
    "morsel_ranges",
    "table_is_morselable",
]

# Default morsel size: ~64K rows keeps a handful of columns inside a
# wimpy node's LLC while leaving enough morsels per query to load-balance
# four cores at the paper's scale factors.
DEFAULT_MORSEL_ROWS = 65536

# Tables smaller than this execute serially; thread handoff would cost
# more than the scan itself.
MIN_PARALLEL_ROWS = 8192


def morsel_ranges(nrows: int, morsel_rows: int) -> list[tuple[int, int]]:
    """Split ``[0, nrows)`` into contiguous ``(start, stop)`` morsels."""
    if morsel_rows < 1:
        raise ValueError("morsel_rows must be >= 1")
    return [(start, min(start + morsel_rows, nrows))
            for start in range(0, nrows, morsel_rows)]


# Encodings with true random access: a morsel can decode (or evaluate)
# exactly its own rows. Delta stays serial — its prefix sums make every
# morsel pay for all rows before it.
_SLICEABLE_ENCODINGS = frozenset({"bitpack", "for", "rle"})


def table_is_morselable(
    table: Table, columns: list[str], allow_encoded: bool = False
) -> bool:
    """Whether every streamed column supports positional slicing.

    Plain columns always do. Compressed columns keep such scans serial
    unless ``allow_encoded`` (compressed execution is on) and the
    encoding has random access — then a morsel's scan decodes or
    encoded-evaluates exactly its own row range.
    """
    for n in columns:
        col = table.column(n)
        if not isinstance(col, CompressedColumn):
            continue
        if not allow_encoded or col.encoding_name not in _SLICEABLE_ENCODINGS:
            return False
    return True


class MorselContext(OperatorContext):
    """Execution context scoped to one morsel: rows ``[lo, hi)`` of the
    segment's base table, which is all the executor's scan branch reads
    — and all it materializes — under this context (``rows``; a late
    scan's base columns are that range and its selection row ids are
    relative to ``lo``, so each morsel gathers at its own boundary).

    Operators charge work into a private
    :class:`~repro.engine.profile.WorkProfile`; scalar
    subqueries delegate to the parent query's context (whose cache the
    executor pre-warms on the main thread, so worker-thread
    lookups never re-enter the executor).
    """

    def __init__(self, db: Database, parent, rows, tracer=None, span=None):
        # Per-morsel operator spans are marked ``fragment`` — their work
        # records are coalesced away by the profile merge, so trace
        # reconciliation counts only the coalesced (profile-resident)
        # operator spans the executor emits at merge time.
        super().__init__(tracer, span, fragment=True)
        self.db = db
        self._parent = parent
        self.rows = rows
        # Morsels inherit the query's cancel token (checked at every
        # operator dispatch, so a cancellation that lands between
        # scheduling and execution still stops the morsel before it
        # streams any bytes), its memory budget, its spill policy and
        # its late-materialization gate: every worker's partial state
        # charges one shared budget (and spills against it when over).
        self.cancel = parent.cancel
        self.budget = parent.budget
        self.spilling = parent.spilling
        self.late = parent.late

    def scalar(self, plan) -> object:
        return self._parent.scalar(plan)
