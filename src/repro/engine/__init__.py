"""In-memory columnar OLAP engine (the study's MonetDB stand-in).

Public surface::

    from repro.engine import Database, Table, Column, Q, col, lit, agg, execute

Queries really execute and return correct rows; every operator also
records a hardware-independent :class:`~repro.engine.profile.WorkProfile`
that :mod:`repro.hardware` converts into per-platform runtimes.
"""

from .cache import ResultCache
from .cancel import CancelToken, DeadlineExceeded, QueryCancelled, QueryInterrupted
from .column import Column
from .compression import CompressedColumn, compress_column, compress_table, compression_ratio
from .executor import ExecContext, Executor, execute
from .expr import Expr, case, col, lit, scalar
from .fingerprint import plan_fingerprint
from .frame import Frame
from .optimizer import DEFAULT_SETTINGS, OptimizerSettings, optimize_plan
from .zonemap import ZONE_MAP_BLOCK_ROWS, ZoneMap, build_zone_map
from .plan import Q, agg
from .profile import OperatorWork, WorkProfile
from .result import Result
from .spill import (
    MemoryBudget,
    MemoryBudgetExceeded,
    SpillCorrupt,
    SpillDiskFull,
    SpillError,
    SpillFaultPlan,
)
from .sql import SqlSyntaxError, sql
from .table import Database, Schema, Table
from .types import BOOL, DATE, FLOAT64, INT64, STRING, DataType, date_to_days, days_to_date

# The committed benchmark suite still builds its morsel executors by this
# name; everything else says ``Executor(db, workers=n)``.
ParallelExecutor = Executor

__all__ = [
    "CancelToken", "DeadlineExceeded", "QueryCancelled", "QueryInterrupted",
    "Column", "Database", "DataType", "ExecContext", "Executor", "Expr",
    "Frame", "OperatorWork", "ParallelExecutor", "Q", "Result", "ResultCache",
    "Schema", "Table", "WorkProfile",
    "agg", "case", "col", "date_to_days", "days_to_date", "execute", "lit",
    "plan_fingerprint", "scalar", "BOOL", "DATE", "FLOAT64", "INT64", "STRING",
    "CompressedColumn", "compress_column", "compress_table", "compression_ratio",
    "MemoryBudget", "MemoryBudgetExceeded", "SpillCorrupt", "SpillDiskFull",
    "SpillError", "SpillFaultPlan",
    "SqlSyntaxError", "sql",
    "DEFAULT_SETTINGS", "OptimizerSettings", "optimize_plan",
    "ZONE_MAP_BLOCK_ROWS", "ZoneMap", "build_zone_map",
]
