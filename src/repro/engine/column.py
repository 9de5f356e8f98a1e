"""Columns: typed, immutable-by-convention numpy-backed vectors.

A :class:`Column` owns a value array and, for strings, a dictionary of
unique values (dictionary encoding). An optional validity mask supports
the NULLs introduced by outer joins (TPC-H base data itself is NULL-free).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .types import BOOL, DATE, FLOAT64, INT64, STRING, DataType, date_to_days, days_to_date

__all__ = ["Column"]


class Column:
    """A typed column of values.

    Attributes:
        dtype: the logical :class:`~repro.engine.types.DataType`.
        values: physical value array (codes for STRING columns).
        dictionary: unique string values for STRING columns, else ``None``.
        valid: optional boolean mask, ``True`` where the value is present.
            ``None`` means all values are valid.
    """

    __slots__ = ("dtype", "values", "dictionary", "valid")

    def __init__(
        self,
        dtype: DataType,
        values: np.ndarray,
        dictionary: np.ndarray | None = None,
        valid: np.ndarray | None = None,
    ):
        if dtype is STRING and dictionary is None:
            raise ValueError("STRING columns require a dictionary")
        if dtype is not STRING and dictionary is not None:
            raise ValueError(f"{dtype.name} columns must not carry a dictionary")
        self.dtype = dtype
        self.values = np.asarray(values, dtype=dtype.numpy_dtype)
        self.dictionary = dictionary
        self.valid = valid

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_ints(cls, values: Iterable[int]) -> "Column":
        return cls(INT64, np.asarray(list(values), dtype=np.int64))

    @classmethod
    def from_floats(cls, values: Iterable[float]) -> "Column":
        return cls(FLOAT64, np.asarray(list(values), dtype=np.float64))

    @classmethod
    def from_bools(cls, values: Iterable[bool]) -> "Column":
        return cls(BOOL, np.asarray(list(values), dtype=np.bool_))

    @classmethod
    def from_dates(cls, values: Iterable[str]) -> "Column":
        days = np.asarray([date_to_days(v) for v in values], dtype=np.int32)
        return cls(DATE, days)

    @classmethod
    def from_strings(cls, values: Sequence[str]) -> "Column":
        arr = np.asarray(values, dtype=object)
        dictionary, codes = np.unique(arr, return_inverse=True)
        return cls(STRING, codes.astype(np.int32), dictionary=dictionary)

    @classmethod
    def from_string_codes(cls, codes: np.ndarray, dictionary: np.ndarray) -> "Column":
        """Build a STRING column directly from codes and a dictionary."""
        return cls(STRING, np.asarray(codes, dtype=np.int32), dictionary=np.asarray(dictionary, dtype=object))

    @classmethod
    def from_numpy(cls, dtype: DataType, values: np.ndarray, dictionary: np.ndarray | None = None) -> "Column":
        return cls(dtype, values, dictionary=dictionary)

    @classmethod
    def concat(cls, columns: "list[Column]") -> "Column":
        """Concatenate same-typed columns (used by the distributed driver
        to stack per-node partial results). String columns are re-encoded
        over the union dictionary."""
        if not columns:
            raise ValueError("need at least one column")
        dtype = columns[0].dtype
        if any(c.dtype is not dtype for c in columns):
            raise TypeError("cannot concatenate columns of differing types")
        if dtype is STRING:
            first_dict = columns[0].dictionary
            if all(c.dictionary is first_dict for c in columns):
                # Fast path: slices of one source column share its
                # dictionary, so code arrays concatenate directly.
                codes = np.concatenate([c.values for c in columns])
                if any(c.valid is not None for c in columns):
                    valid = np.concatenate([
                        c.valid if c.valid is not None else np.ones(len(c), dtype=np.bool_)
                        for c in columns
                    ])
                else:
                    valid = None
                return cls(STRING, codes, dictionary=first_dict, valid=valid)
            decoded = np.concatenate([c.decoded() for c in columns])
            has_null = any(c.valid is not None for c in columns)
            if has_null:
                valid = np.asarray([v is not None for v in decoded])
                filled = np.where(valid, decoded, "")
                dictionary, codes = np.unique(filled.astype(object), return_inverse=True)
                return cls(STRING, codes.astype(np.int32), dictionary=dictionary, valid=valid)
            dictionary, codes = np.unique(decoded.astype(object), return_inverse=True)
            return cls(STRING, codes.astype(np.int32), dictionary=dictionary)
        values = np.concatenate([c.values for c in columns])
        if any(c.valid is not None for c in columns):
            valid = np.concatenate([
                c.valid if c.valid is not None else np.ones(len(c), dtype=np.bool_)
                for c in columns
            ])
        else:
            valid = None
        return cls(dtype, values, valid=valid)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        """Bytes occupied by the value array (dictionary excluded, as it is
        touched once per unique value, not once per row)."""
        return len(self.values) * self.dtype.width

    @property
    def dict_nbytes(self) -> int:
        if self.dictionary is None:
            return 0
        return int(sum(len(s) for s in self.dictionary))

    def has_nulls(self) -> bool:
        return self.valid is not None and not bool(self.valid.all())

    def zone_stats(self, block_rows: int) -> tuple | None:
        """Per-block ``(mins, maxs, null_counts)`` over blocks of
        ``block_rows`` rows (the zone-map payload; see
        :mod:`repro.engine.zonemap`).

        Statistics cover valid rows only. STRING columns report decoded
        string min/max (dictionaries need not be sorted); nullable
        STRING columns return ``None`` (no cheap neutral fill value).
        """
        n = len(self.values)
        if n == 0:
            empty = np.empty(0)
            return empty, empty, np.empty(0, dtype=np.int64)
        nblocks = -(-n // block_rows)
        pad = nblocks * block_rows - n

        if self.valid is None:
            null_counts = np.zeros(nblocks, dtype=np.int64)
        else:
            padded_valid = np.concatenate([self.valid, np.ones(pad, dtype=np.bool_)])
            null_counts = (~padded_valid).reshape(nblocks, block_rows).sum(axis=1)

        if self.dtype is STRING:
            if self.valid is not None and not bool(self.valid.all()):
                return None
            decoded = self.dictionary[self.values]
            padded = np.concatenate([decoded, np.repeat(decoded[-1:], pad)])
            blocks = padded.reshape(nblocks, block_rows)
            return blocks.min(axis=1), blocks.max(axis=1), null_counts

        values = self.values
        if self.valid is not None:
            if values.dtype == np.bool_:
                return None
            # Neutral fills keep invalid rows out of the min/max.
            info = (np.iinfo if np.issubdtype(values.dtype, np.integer) else np.finfo)(values.dtype)
            lo_fill = np.where(self.valid, values, info.max)
            hi_fill = np.where(self.valid, values, info.min)
        else:
            lo_fill = hi_fill = values
        lo = np.concatenate([lo_fill, np.repeat(lo_fill[-1:], pad)])
        hi = np.concatenate([hi_fill, np.repeat(hi_fill[-1:], pad)])
        mins = lo.reshape(nblocks, block_rows).min(axis=1)
        maxs = hi.reshape(nblocks, block_rows).max(axis=1)
        return mins, maxs, null_counts

    # ------------------------------------------------------------------
    # Positional operations (used by operators)
    # ------------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by index; negative index -1 marks a NULL slot (used
        by outer joins)."""
        indices = np.asarray(indices)
        if len(indices) and indices.min() < 0:
            if len(self.values) == 0:
                # Taking from an empty column: every slot must be a NULL
                # marker (outer join against an empty build side).
                values = np.zeros(len(indices), dtype=self.dtype.numpy_dtype)
                dictionary = self.dictionary
                if dictionary is not None and len(dictionary) == 0:
                    dictionary = np.asarray([""], dtype=object)
                return Column(
                    self.dtype, values, dictionary=dictionary,
                    valid=np.zeros(len(indices), dtype=np.bool_),
                )
            valid = indices >= 0
            safe = np.where(valid, indices, 0)
            values = self.values[safe]
            values[~valid] = 0  # one placeholder under every NULL, whatever the base
            if self.valid is not None:
                valid = valid & self.valid[safe]
            return Column(self.dtype, values, dictionary=self.dictionary, valid=valid)
        values = self.values[indices]
        valid = None if self.valid is None else self.valid[indices]
        return Column(self.dtype, values, dictionary=self.dictionary, valid=valid)

    def filter(self, mask: np.ndarray) -> "Column":
        values = self.values[mask]
        valid = None if self.valid is None else self.valid[mask]
        return Column(self.dtype, values, dictionary=self.dictionary, valid=valid)

    def slice(self, start: int, stop: int) -> "Column":
        valid = None if self.valid is None else self.valid[start:stop]
        return Column(self.dtype, self.values[start:stop], dictionary=self.dictionary, valid=valid)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decoded(self) -> np.ndarray:
        """Return the logical values (strings decoded through the
        dictionary, dates as int days). NULL slots decode to ``None``
        for strings; numeric NULLs are left as their physical payload
        (callers should consult :attr:`valid`)."""
        if self.dtype is STRING:
            out = self.dictionary[self.values]
            if self.valid is not None:
                out = out.copy()
                out[~self.valid] = None
            return out
        return self.values

    def to_list(self) -> list:
        """Python-native values: str, int, float, bool, datetime.date, or None."""
        if self.dtype is STRING:
            return [str(v) if v is not None else None for v in self.decoded()]
        if self.dtype is DATE:
            vals = [days_to_date(v) for v in self.values]
        elif self.dtype is BOOL:
            vals = [bool(v) for v in self.values]
        elif self.dtype is INT64:
            vals = [int(v) for v in self.values]
        else:
            vals = [float(v) for v in self.values]
        if self.valid is not None:
            vals = [v if ok else None for v, ok in zip(vals, self.valid)]
        return vals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Column({self.dtype.name}, n={len(self)})"
