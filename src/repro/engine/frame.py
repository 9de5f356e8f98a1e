"""Intermediate result frames flowing between operators.

The engine executes MonetDB-style: each operator produces a
:class:`Frame` (a bag of equal-length columns) before the next operator
runs. Two physical representations exist behind one logical interface:

* **Dense** frames (``selection is None``) — every column array holds
  exactly the frame's logical rows, as the classic full-materialization
  executor produced them.
* **Late** frames (``selection`` set) — the columns are *base* arrays
  (typically zero-copy views of the scanned table) and ``selection`` is
  an int32 row-id array naming the logical rows, in order. Filters
  compose selections instead of rewriting every surviving column, and
  the gather is deferred to a pipeline breaker (join, aggregate, sort,
  DISTINCT, UNION ALL, or the final result) — the paper's
  memory-bandwidth argument applied to the engine's own intermediates.

The logical API (:meth:`column`, :meth:`filter`, :meth:`take`,
:meth:`slice`, :meth:`partition`, :attr:`nrows`, :attr:`nbytes`) always
behaves as if the frame were dense; operators that can exploit the
physical split use :attr:`selection` / :meth:`dense` explicitly. Gathers
through a contiguous selection degrade to zero-copy slices.
"""

from __future__ import annotations

import numpy as np

from .column import Column
from .keycache import stable_order
from .table import Table

__all__ = ["Frame"]

SELECTION_DTYPE = np.int32

# Adaptive break point for late execution: when a non-contiguous
# selection keeps more than this fraction of the scanned rows, the
# deferred point-gathers would touch nearly every cache line anyway, so
# an eager compact rewrite (pure streaming) is cheaper. Filters and
# predicated scans materialize instead of emitting a selection vector
# above this density; contiguous selections always stay late (they are
# zero-copy slices).
LATE_BREAK_SELECTIVITY = 0.75


class Frame:
    """A logical intermediate result: named columns of equal length,
    optionally represented late through a selection vector."""

    __slots__ = (
        "columns",
        "nrows",
        "selection",
        "_gathered",
        "_contiguous",
        "_gather_debt",
    )

    def __init__(
        self,
        columns: dict[str, Column],
        nrows: int | None = None,
        selection: np.ndarray | None = None,
    ):
        if selection is not None:
            selection = np.asarray(selection, dtype=SELECTION_DTYPE)
            base_lengths = {len(col) for col in columns.values()}
            if len(base_lengths) > 1:
                raise ValueError(
                    f"late frame base columns disagree on length: {base_lengths}"
                )
            nrows = len(selection)
        else:
            if nrows is None:
                if not columns:
                    raise ValueError("empty frame needs an explicit row count")
                nrows = len(next(iter(columns.values())))
            for name, col in columns.items():
                if len(col) != nrows:
                    raise ValueError(
                        f"column {name!r} has {len(col)} rows, expected {nrows}"
                    )
        self.columns = columns
        self.nrows = nrows
        self.selection = selection
        self._gathered: dict[str, Column] | None = None
        self._contiguous: bool | None = None
        self._gather_debt: float = 0.0

    @classmethod
    def from_table(cls, table: Table, column_names: list[str] | None = None) -> "Frame":
        names = column_names if column_names is not None else table.column_names
        return cls({name: table.column(name) for name in names}, table.nrows)

    # ------------------------------------------------------------------
    # Physical representation
    # ------------------------------------------------------------------

    @property
    def is_late(self) -> bool:
        return self.selection is not None

    @property
    def base_rows(self) -> int:
        """Physical rows of the backing column arrays."""
        if not self.columns:
            return self.nrows
        return len(next(iter(self.columns.values())))

    def _selection_is_contiguous(self) -> bool:
        """True when the selection is a contiguous ascending run, so every
        gather degrades to a zero-copy slice."""
        if self._contiguous is None:
            sel = self.selection
            n = len(sel)
            if n == 0:
                self._contiguous = True
            elif sel[0] < 0 or int(sel[-1]) - int(sel[0]) + 1 != n:
                self._contiguous = False
            else:
                self._contiguous = bool((np.diff(sel) == 1).all()) if n > 1 else True
        return self._contiguous

    def _gather(self, name: str) -> Column:
        """Materialize one column through the selection (memoized)."""
        if self._gathered is None:
            self._gathered = {}
        col = self._gathered.get(name)
        if col is None:
            base = self.columns[name]
            if self._selection_is_contiguous():
                if self.nrows == 0:
                    col = base.slice(0, 0)
                else:
                    lo = int(self.selection[0])
                    col = base.slice(lo, lo + self.nrows)
            else:
                col = base.take(self.selection)
                self._gather_debt += self.nrows * base.dtype.width
            self._gathered[name] = col
        return col

    def drain_gather_debt(self) -> float:
        """Bytes gathered through a non-contiguous selection since the
        last drain. Operators drain this into ``work.gather_bytes`` so
        every deferred materialization is charged exactly once."""
        debt = self._gather_debt
        self._gather_debt = 0.0
        return debt

    def dense(self, work=None) -> "Frame":
        """The dense equivalent of this frame: every column materialized
        through the selection. Dense frames return themselves.

        ``work`` (an :class:`~repro.engine.profile.OperatorWork`) is
        charged the gathered bytes as random access — the price late
        materialization pays at a pipeline breaker.
        """
        if self.selection is None:
            return self
        out = Frame({name: self._gather(name) for name in self.columns}, self.nrows)
        if work is not None:
            work.gather_bytes += self.drain_gather_debt()
        return out

    def row_ids(self, indices: np.ndarray) -> np.ndarray:
        """Map logical row indices to base row ids through the selection.
        Negative indices (outer-join NULL markers) pass through as -1."""
        indices = np.asarray(indices)
        if self.selection is None:
            return indices
        if len(indices) and indices.min() < 0:
            if len(self.selection) == 0:
                # Every index must be a NULL marker (outer join against
                # an empty side).
                return np.full(len(indices), -1, dtype=np.int64)
            safe = np.where(indices < 0, 0, indices)
            return np.where(indices < 0, -1, self.selection[safe])
        return self.selection[indices]

    # ------------------------------------------------------------------
    # Logical interface
    # ------------------------------------------------------------------

    def column(self, name: str) -> Column:
        """The logical values of one column (gathered when late)."""
        try:
            base = self.columns[name]
        except KeyError:
            raise KeyError(
                f"frame has no column {name!r}; available: {list(self.columns)}"
            ) from None
        if self.selection is None:
            return base
        return self._gather(name)

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    @property
    def nbytes(self) -> int:
        """Logical bytes of the frame's values (what a dense
        materialization would occupy)."""
        if self.selection is None:
            return sum(col.nbytes for col in self.columns.values())
        return self.nrows * sum(col.dtype.width for col in self.columns.values())

    def filter(self, mask: np.ndarray) -> "Frame":
        """Keep rows where ``mask`` is true. Late frames compose the
        selection (zero copy); dense frames rewrite compactly."""
        if self.selection is not None:
            return Frame(self.columns, selection=self.selection[mask])
        return Frame({n: c.filter(mask) for n, c in self.columns.items()}, int(mask.sum()))

    def filter_late(self, mask: np.ndarray) -> "Frame":
        """Like :meth:`filter`, but the result is always a late frame —
        a dense input becomes the base of a fresh selection instead of
        being rewritten."""
        if self.selection is not None:
            return Frame(self.columns, selection=self.selection[mask])
        return Frame(
            self.columns,
            selection=np.flatnonzero(mask).astype(SELECTION_DTYPE),
        )

    def take(self, indices: np.ndarray) -> "Frame":
        """Gather rows by logical index. Late frames compose index arrays
        instead of materializing."""
        if self.selection is not None:
            return Frame(self.columns, selection=self.row_ids(indices))
        return Frame({n: c.take(indices) for n, c in self.columns.items()}, len(indices))

    def slice(self, start: int, stop: int) -> "Frame":
        stop = min(stop, self.nrows)
        if self.selection is not None:
            return Frame(self.columns, selection=self.selection[start:stop])
        return Frame({n: c.slice(start, stop) for n, c in self.columns.items()}, stop - start)

    def partition(self, ids: np.ndarray, n: int) -> list["Frame"]:
        """Stable scatter: part ``i`` holds the rows whose ``ids`` entry is
        ``i`` (``0 <= i < n``), in their original relative order — the
        order every Grace partition and cluster shard relies on. One
        gather; the parts are zero-copy slices of it."""
        gathered = self.take(stable_order(ids))
        bounds = np.append(0, np.cumsum(np.bincount(ids, minlength=n)))
        return [gathered.slice(bounds[i], bounds[i + 1]) for i in range(n)]

    def renamed(self, mapping: dict[str, str]) -> "Frame":
        cols = {mapping.get(n, n): c for n, c in self.columns.items()}
        return Frame(cols, self.nrows, selection=self.selection)

    def with_columns(self, extra: dict[str, Column]) -> "Frame":
        if self.selection is not None:
            # Extra columns are logical-length; anchor them on a dense frame.
            return self.dense().with_columns(extra)
        cols = dict(self.columns)
        cols.update(extra)
        return Frame(cols, self.nrows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f", late[{self.nrows}/{self.base_rows}]" if self.is_late else ""
        return f"Frame(rows={self.nrows}, cols={list(self.columns)}{tag})"
