"""Intermediate result frames flowing between operators.

The engine executes MonetDB-style: each operator produces a
:class:`Frame` (a bag of equal-length columns) before the next operator
runs. Two physical representations exist behind one logical interface:

* **Dense** frames (``rows is None``) — every column array holds
  exactly the frame's logical rows, as the classic full-materialization
  executor produced them.
* **Late** frames — the columns are *base* arrays (zero-copy views of a
  scanned table, or of an upstream operator's output) and ``rows`` holds
  one int32 row-id array per *source*: the columns that came from the
  same input share one array object (``source_of`` says which; ``None``
  means every column reads ``rows[0]``). A scan or filter emits the
  one-source case — a selection vector; an inner or left join emits one
  source per source of its inputs, each composed with the match
  indices (:meth:`pair`), so nothing is gathered at the join. A ``-1``
  row id is NULL (an outer-join miss) and survives composition.

Filters, takes, slices, partitions, renames and pass-through projections
compose each distinct row-id array once instead of rewriting every
column. Each payload column is gathered once, straight from its base, by
the first operator that reads it — aggregate, sort/top-k, DISTINCT, a
computed projection, a filter predicate, UNION ALL, the next join's keys
or the final result — the paper's memory-bandwidth argument applied to
the engine's own intermediates.

The logical API (:meth:`column`, :meth:`filter`, :meth:`take`,
:meth:`slice`, :meth:`partition`, :meth:`select`, :attr:`nrows`,
:attr:`nbytes`) always behaves as if the frame were dense; operators that
can exploit the physical split use :attr:`is_late` / :meth:`dense`
explicitly. Gathers through a contiguous row-id run degrade to zero-copy
slices.
"""

from __future__ import annotations

import numpy as np

from .column import Column
from .keycache import stable_order
from .table import Table

__all__ = ["Frame"]

SELECTION_DTYPE = np.int32

_UNKNOWN = object()


def _composed(rows: tuple, indices: np.ndarray) -> tuple:
    """Each row-id array of ``rows`` looked up at ``indices``, once per
    array. A negative index (an outer-join miss) yields ``-1``, as does
    a ``-1`` row id."""
    indices = np.asarray(indices)
    if not (len(indices) and indices.min() < 0):
        return tuple(ids[indices] for ids in rows)
    miss = indices < 0
    safe = np.where(miss, 0, indices)
    out = []
    for ids in rows:
        if len(ids) == 0:
            # Every index must be a miss (outer join against an empty side).
            out.append(np.full(len(indices), -1, dtype=SELECTION_DTYPE))
        else:
            got = ids[safe]
            got[miss] = -1
            out.append(got)
    return tuple(out)


class Frame:
    """A logical intermediate result: named columns of equal length,
    optionally represented late through row-id arrays."""

    __slots__ = (
        "columns",
        "nrows",
        "rows",
        "source_of",
        "_gathered",
        "_index",
        "_gather_debt",
    )

    def __init__(
        self,
        columns: dict[str, Column],
        nrows: int | None = None,
        selection: np.ndarray | None = None,
    ):
        rows = None
        if selection is not None:
            selection = np.asarray(selection, dtype=SELECTION_DTYPE)
            base_lengths = {len(col) for col in columns.values()}
            if len(base_lengths) > 1:
                raise ValueError(
                    f"late frame base columns disagree on length: {base_lengths}"
                )
            rows = (selection,)
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
        self.rows = rows
        self.source_of = None
        self._gathered: dict[str, Column] | None = None
        self._index: list | None = None
        self._gather_debt: float = 0.0

    @classmethod
    def _late(cls, columns: dict[str, Column], rows: tuple, source_of) -> "Frame":
        """A late frame over ``rows``, unchecked — the constructor every
        composition goes through (callers keep the invariants)."""
        frame = cls.__new__(cls)
        frame.columns = columns
        frame.nrows = len(rows[0])
        frame.rows = rows
        frame.source_of = source_of
        frame._gathered = None
        frame._index = None
        frame._gather_debt = 0.0
        return frame

    @classmethod
    def _pruned(cls, columns: dict[str, Column], rows: tuple, source_of: dict) -> "Frame":
        """:meth:`_late`, keeping only the row-id arrays some column
        reads (one left: the one-source form)."""
        used = sorted(set(source_of.values()))
        if len(used) == len(rows):
            return cls._late(columns, rows, source_of if len(rows) > 1 else None)
        if len(used) <= 1:
            return cls._late(columns, (rows[used[0] if used else 0],), None)
        renumber = {old: new for new, old in enumerate(used)}
        return cls._late(
            columns,
            tuple(rows[i] for i in used),
            {name: renumber[i] for name, i in source_of.items()},
        )

    @classmethod
    def from_table(cls, table: Table, column_names: list[str] | None = None) -> "Frame":
        names = column_names if column_names is not None else table.column_names
        return cls({name: table.column(name) for name in names}, table.nrows)

    @classmethod
    def pair(
        cls,
        left: "Frame",
        left_idx: np.ndarray,
        right: "Frame",
        right_idx: np.ndarray,
        skip=(),
    ) -> "Frame":
        """The late frame of a join's match pairs: row ``i`` is ``left``
        row ``left_idx[i]`` beside ``right`` row ``right_idx[i]`` (``-1``:
        NULL). A late input's row-id arrays compose with its indices, a
        dense input's row ids *are* its indices; nothing is gathered.
        Right columns named in ``skip`` that the left also carries (an
        equal-named key) keep the left copy; any other shared name is an
        error."""
        columns: dict[str, Column] = {}
        source_of: dict[str, int] = {}
        rows: list[np.ndarray] = []
        for frame, idx, drop in ((left, left_idx, ()), (right, right_idx, skip)):
            first = len(rows)
            if frame.rows is None:
                rows.append(np.asarray(idx, dtype=SELECTION_DTYPE))
            else:
                rows.extend(_composed(frame.rows, idx))
            sources = frame.source_of
            for name, col in frame.columns.items():
                if name in columns:
                    if name in drop:
                        continue
                    raise ValueError(f"join output would duplicate column {name!r}")
                columns[name] = col
                source_of[name] = first + (0 if sources is None else sources[name])
        return cls._pruned(columns, tuple(rows), source_of)

    # ------------------------------------------------------------------
    # Physical representation
    # ------------------------------------------------------------------

    @property
    def is_late(self) -> bool:
        return self.rows is not None

    @property
    def id_bytes(self) -> int:
        """Bytes of the row-id arrays a late frame carries (0 if dense)."""
        if self.rows is None:
            return 0
        return sum(ids.nbytes for ids in self.rows)

    def _source_index(self, source: int):
        """How columns gather through row-id array ``source``: its start
        when it is one contiguous ascending run (a zero-copy slice), else
        ``None`` — or, once a column gathered through it, the ids as a
        native index array, cast once for every column that reads them
        (numpy casts an int32 index on every fancy-index call)."""
        if self._index is None:
            self._index = [_UNKNOWN] * len(self.rows)
        index = self._index[source]
        if index is _UNKNOWN:
            ids = self.rows[source]
            n = len(ids)
            if n == 0:
                index = 0
            elif ids[0] < 0 or int(ids[-1]) - int(ids[0]) + 1 != n:
                index = None
            elif n > 1 and not (np.diff(ids) == 1).all():
                index = None
            else:
                index = int(ids[0])
            self._index[source] = index
        return index

    def _gather(self, name: str) -> Column:
        """Materialize one column through its row ids (memoized)."""
        if self._gathered is None:
            self._gathered = {}
        col = self._gathered.get(name)
        if col is None:
            base = self.columns[name]
            source = 0 if self.source_of is None else self.source_of[name]
            index = self._source_index(source)
            if isinstance(index, int):
                col = base.slice(index, index + self.nrows)
            else:
                if index is None:
                    index = self._index[source] = self.rows[source].astype(np.intp)
                col = base.take(index)
                self._gather_debt += self.nrows * base.dtype.width
            self._gathered[name] = col
        return col

    def drain_gather_debt(self) -> float:
        """Bytes gathered through non-contiguous row ids since the last
        drain. Operators drain this into ``work.gather_bytes`` so every
        deferred materialization is charged exactly once."""
        debt = self._gather_debt
        self._gather_debt = 0.0
        return debt

    def dense(self, work=None) -> "Frame":
        """The dense equivalent of this frame: every column materialized
        through its row ids. Dense frames return themselves.

        ``work`` (an :class:`~repro.engine.profile.OperatorWork`) is
        charged the gathered bytes as random access — the price late
        materialization pays at a pipeline breaker.
        """
        if self.rows is None:
            return self
        out = Frame({name: self._gather(name) for name in self.columns}, self.nrows)
        if work is not None:
            work.gather_bytes += self.drain_gather_debt()
        return out

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
        if self.rows is None:
            return base
        return self._gather(name)

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    @property
    def nbytes(self) -> int:
        """Logical bytes of the frame's values (what a dense
        materialization would occupy)."""
        if self.rows is None:
            return sum(col.nbytes for col in self.columns.values())
        return self.nrows * sum(col.dtype.width for col in self.columns.values())

    def filter(self, mask: np.ndarray) -> "Frame":
        """Keep rows where ``mask`` is true. Late frames compose their
        row ids (zero copy); dense frames rewrite compactly."""
        if self.rows is not None:
            return Frame._late(
                self.columns, tuple(ids[mask] for ids in self.rows), self.source_of
            )
        return Frame({n: c.filter(mask) for n, c in self.columns.items()}, int(mask.sum()))

    def filter_late(self, mask: np.ndarray) -> "Frame":
        """Like :meth:`filter`, but the result is always a late frame —
        a dense input becomes the base of a fresh selection instead of
        being rewritten."""
        if self.rows is not None:
            return self.filter(mask)
        return Frame._late(
            self.columns, (np.flatnonzero(mask).astype(SELECTION_DTYPE),), None
        )

    def take(self, indices: np.ndarray) -> "Frame":
        """Gather rows by logical index (``-1``: a NULL row). Late frames
        compose their row ids instead of materializing."""
        if self.rows is not None:
            return Frame._late(self.columns, _composed(self.rows, indices), self.source_of)
        return Frame({n: c.take(indices) for n, c in self.columns.items()}, len(indices))

    def slice(self, start: int, stop: int) -> "Frame":
        stop = min(stop, self.nrows)
        if self.rows is not None:
            return Frame._late(
                self.columns, tuple(ids[start:stop] for ids in self.rows), self.source_of
            )
        return Frame({n: c.slice(start, stop) for n, c in self.columns.items()}, stop - start)

    def partition(self, ids: np.ndarray, n: int) -> list["Frame"]:
        """Stable scatter: part ``i`` holds the rows whose ``ids`` entry is
        ``i`` (``0 <= i < n``), in their original relative order — the
        order every Grace partition and cluster shard relies on. One
        gather; the parts are zero-copy slices of it."""
        gathered = self.take(stable_order(ids))
        bounds = np.append(0, np.cumsum(np.bincount(ids, minlength=n)))
        return [gathered.slice(bounds[i], bounds[i + 1]) for i in range(n)]

    def select(self, names: dict[str, str]) -> "Frame":
        """The columns ``names`` maps to (output name -> this frame's
        name), zero copy: a late frame stays late, keeping only the
        row-id arrays those columns read."""
        columns = {new: self.columns[old] for new, old in names.items()}
        if self.rows is None:
            return Frame(columns, self.nrows)
        if self.source_of is None:
            return Frame._late(columns, self.rows, None)
        return Frame._pruned(
            columns, self.rows, {new: self.source_of[old] for new, old in names.items()}
        )

    def renamed(self, mapping: dict[str, str]) -> "Frame":
        return self.select({mapping.get(n, n): n for n in self.columns})

    def with_columns(self, extra: dict[str, Column]) -> "Frame":
        if self.rows is not None:
            # Extra columns are logical-length; anchor them on a dense frame.
            return self.dense().with_columns(extra)
        cols = dict(self.columns)
        cols.update(extra)
        return Frame(cols, self.nrows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f", late[{len(self.rows)} sources]" if self.is_late else ""
        return f"Frame(rows={self.nrows}, cols={list(self.columns)}{tag})"
