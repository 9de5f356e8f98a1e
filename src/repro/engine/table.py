"""Tables, schemas, and the database catalog."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .column import Column
from .types import DataType

__all__ = ["Schema", "Table", "Database"]


@dataclass(frozen=True)
class Schema:
    """An ordered mapping of column name to :class:`DataType`."""

    fields: tuple[tuple[str, DataType], ...]

    @classmethod
    def of(cls, *fields: tuple[str, DataType]) -> "Schema":
        return cls(tuple(fields))

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.fields]

    def dtype_of(self, name: str) -> DataType:
        for field_name, dtype in self.fields:
            if field_name == name:
                return dtype
        raise KeyError(f"no column {name!r} in schema")

    def __contains__(self, name: str) -> bool:
        return any(field_name == name for field_name, _ in self.fields)

    def __len__(self) -> int:
        return len(self.fields)


class Table:
    """An immutable in-memory columnar table."""

    def __init__(self, name: str, columns: dict[str, Column]):
        if not columns:
            raise ValueError("a table needs at least one column")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"column length mismatch in table {name!r}: {lengths}")
        self.name = name
        self.columns = columns
        self.nrows = lengths.pop()

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(f"table {self.name!r} has no column {name!r}") from None

    def zone_map(self, name: str, block_rows: int | None = None):
        """The (lazily built, cached) zone map of a column — per-block
        min/max/null-count statistics the scan path uses for data
        skipping. ``None`` when the column cannot support pruning (e.g.
        nullable strings). Tables are immutable, so a built map is valid
        for the table's lifetime."""
        from .zonemap import ZONE_MAP_BLOCK_ROWS, build_zone_map

        block_rows = block_rows or ZONE_MAP_BLOCK_ROWS
        cache = getattr(self, "_zone_maps", None)
        if cache is None:
            cache = {}
            self._zone_maps = cache
        key = (name, block_rows)
        if key not in cache:
            cache[key] = build_zone_map(self.column(name), block_rows)
        return cache[key]

    def build_zone_maps(self, block_rows: int | None = None) -> None:
        """Eagerly build zone maps for every column (load-time hook, so
        first-query latency excludes the one-off statistics pass)."""
        for name in self.columns:
            self.zone_map(name, block_rows)

    @property
    def nbytes(self) -> int:
        """Bytes of all value arrays plus string dictionaries (the
        engine's in-memory footprint for this table)."""
        return sum(col.nbytes + col.dict_nbytes for col in self.columns.values())

    def head(self, n: int = 5) -> list[tuple]:
        cols = [col.to_list()[:n] for col in self.columns.values()]
        return list(zip(*cols))

    def select_rows(self, mask_or_indices: np.ndarray) -> "Table":
        """Return a new table with the given rows (boolean mask or index
        array)."""
        arr = np.asarray(mask_or_indices)
        if arr.dtype == np.bool_:
            cols = {name: col.filter(arr) for name, col in self.columns.items()}
        else:
            cols = {name: col.take(arr) for name, col in self.columns.items()}
        return Table(self.name, cols)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, rows={self.nrows}, cols={len(self.columns)})"


class Database:
    """A named collection of tables — the engine's catalog."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: dict[str, Table] = {}
        # Materialized rollup catalog (repro.rollup.RollupCatalog), set by
        # enable_rollups(). Rollup tables resolve through table()/"in" but
        # stay out of table_names/nbytes: they are derived state, not part
        # of the base catalog the partitioner/goldens iterate.
        self.rollups = None

    def add(self, table: Table) -> None:
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            if self.rollups is not None:
                rollup = self.rollups.table(name)
                if rollup is not None:
                    return rollup
            raise KeyError(f"database {self.name!r} has no table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        if name in self._tables:
            return True
        return self.rollups is not None and self.rollups.table(name) is not None

    @property
    def table_names(self) -> list[str]:
        return list(self._tables)

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self._tables.values())

    def build_zone_maps(self, block_rows: int | None = None) -> None:
        """Eagerly build zone maps for every table (load-time hook)."""
        for table in self._tables.values():
            table.build_zone_maps(block_rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Database({self.name!r}, tables={self.table_names})"
