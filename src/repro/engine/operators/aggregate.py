"""Hash group-by aggregation.

Supports SUM, AVG, MIN, MAX, COUNT (non-null), COUNT(*), and
COUNT(DISTINCT expr), with zero or more grouping keys. Grouping keys are
factorized per column and mixed into a single group id, after which each
aggregate reduces with ``np.bincount`` / ``ufunc.at``. Every
factorization is :func:`~repro.engine.keycache.factorize`, which indexes
a presence table by the key where the keys are dense integers and sorts
only where they are not — same codes either way, so rows, group order
and work accounting never depend on which ran; the span's ``kernel``
attr says ``"sort"`` when any factorization behind the group ids sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import metrics
from repro.obs.trace import note

from ..column import Column
from ..expr import Expr
from ..frame import Frame
from ..keycache import _INT64_LIMIT, combine_codes, dense_span, factorize, key_cache, stable_order
from ..types import FLOAT64, INT64, STRING

__all__ = ["AggSpec", "execute_aggregate", "sum_", "avg", "count", "count_star", "count_distinct", "min_", "max_"]


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: a function name and (for all but COUNT(*)) an input
    expression."""

    func: str
    expr: Expr | None = None


def sum_(expr: Expr) -> AggSpec:
    return AggSpec("sum", expr)


def avg(expr: Expr) -> AggSpec:
    return AggSpec("avg", expr)


def count(expr: Expr) -> AggSpec:
    return AggSpec("count", expr)


def count_star() -> AggSpec:
    return AggSpec("count_star")


def count_distinct(expr: Expr) -> AggSpec:
    return AggSpec("count_distinct", expr)


def min_(expr: Expr) -> AggSpec:
    return AggSpec("min", expr)


def max_(expr: Expr) -> AggSpec:
    return AggSpec("max", expr)


def _sorted(uniques: np.ndarray, codes: np.ndarray) -> bool:
    """Whether :func:`factorize` sorted to produce ``(uniques, codes)``,
    also when the pair came out of the key cache: ``dense_span`` reads
    only dtype, min and max, which ``uniques`` shares with the keys."""
    return dense_span(uniques, codes.size) is None


def _key_codes(column: Column) -> tuple[np.ndarray, int, bool]:
    """Dense factorization codes for one grouping column, with NULL as
    its own group (SQL GROUP BY semantics), their cardinality, and
    whether the values were sorted to get them.

    NULL gets the reserved code 0 and valid values shift up by one —
    never a ``values.min() - 1`` sentinel, which collides with real data
    (or wraps) when the column already holds the dtype minimum. NULLs
    keep sorting before every valid value, exactly where the old
    sentinel placed them, so group output order is unchanged.
    """
    values = column.values
    if column.valid is not None and not bool(column.valid.all()):
        uniques, ranks = factorize(values[column.valid])
        codes = np.zeros(len(values), dtype=np.int64)
        codes[column.valid] = ranks + 1
        return codes, len(uniques) + 1, _sorted(uniques, ranks)
    uniques, codes = key_cache.factorize(values)
    return codes, max(1, len(uniques)), _sorted(uniques, codes)


def _combined_codes(frame: Frame, keys: list[str]) -> tuple[np.ndarray, bool]:
    """One int64 code per row ordering rows by their key tuple (NULL
    first in every column), and whether any column was sorted for it."""
    parts = [_key_codes(frame.column(name)) for name in keys]
    combined = combine_codes([p[0] for p in parts], [p[1] for p in parts])
    return combined, any(p[2] for p in parts)


def _group_ids(frame: Frame, keys: list[str]) -> tuple[np.ndarray, int, np.ndarray, str]:
    """Factorize key columns into dense group ids.

    Returns ``(gids, n_groups, first_row_of_group, kernel)``; ``kernel``
    is ``"dense"`` when every factorization behind the ids indexed a
    presence table and ``"sort"`` when any of them sorted its rows.
    """
    combined, sorts = _combined_codes(frame, keys)
    uniques, gids = factorize(combined)
    n_groups = len(uniques)
    kernel = "sort" if sorts or _sorted(uniques, gids) else "dense"
    metrics.counter(f"engine.group.kernel.{kernel}").inc()
    first = np.full(n_groups, -1, dtype=np.int64)
    # First occurrence per group (reverse pass keeps the earliest row).
    first[gids[::-1]] = np.arange(frame.nrows - 1, -1, -1)
    return gids, n_groups, first, kernel


def _count_distinct(gids: np.ndarray, n_groups: int, column: Column) -> np.ndarray:
    """Distinct non-NULL values of ``column`` per group id. Integer keys
    sort one mixed ``gid * card + code`` per row; anything else (floats:
    every NaN is its own value) orders by value, then stably by gid."""
    key = column.decoded() if column.dtype is STRING else column.values
    if column.valid is not None:
        key, gids = key[column.valid], gids[column.valid]
    if not len(key):
        return np.zeros(n_groups, dtype=np.int64)
    if key.dtype.kind == "i":
        uniques, codes = factorize(key)
        if n_groups * len(uniques) < _INT64_LIMIT:  # exact Python ints
            pairs = np.sort(gids * len(uniques) + codes)
            new = np.ones(len(pairs), dtype=bool)
            new[1:] = pairs[1:] != pairs[:-1]
            return np.bincount(pairs[new] // len(uniques), minlength=n_groups)
    order = stable_order(key)
    order = order[stable_order(gids[order])]
    sg, sk = gids[order], key[order]
    new = np.ones(len(sg), dtype=bool)
    new[1:] = (sg[1:] != sg[:-1]) | (sk[1:] != sk[:-1])
    return np.bincount(sg[new], minlength=n_groups)


def _input(spec: AggSpec, frame: Frame, ctx) -> Column:
    assert spec.expr is not None
    return spec.expr.evaluate(frame, ctx)


def _global_aggregate(frame: Frame, aggs: dict[str, AggSpec], ctx) -> Frame:
    """Grouping-free fast path: reduce each aggregate input directly with
    ``np.sum``/``np.min``/``np.max`` instead of building group ids and
    ``bincount``-ing against them.

    This is the tail of the fused filter+aggregate pipeline for Q6-class
    queries: the input is typically a late frame, so each aggregate
    input gathers only the surviving rows of the columns it reads, and
    COUNT(*) reads nothing at all. Output rows/dtypes/NaN semantics
    match the grouped path with one group exactly; sums reduce through
    the same ``bincount`` kernel so float accumulation order (and thus
    the last ulp) is identical to the grouped path.
    """
    zeros: np.ndarray | None = None

    def _total(weights: np.ndarray) -> float:
        nonlocal zeros
        if zeros is None:
            zeros = np.zeros(frame.nrows, dtype=np.intp)
        return float(np.bincount(zeros, weights=weights, minlength=1)[0])

    out_columns: dict[str, Column] = {}
    for name, spec in aggs.items():
        if spec.func == "count_star":
            out_columns[name] = Column(INT64, np.asarray([frame.nrows], dtype=np.int64))
            continue
        column = _input(spec, frame, ctx)
        values = column.values.astype(np.float64)
        valid = column.valid
        if spec.func == "sum":
            weights = values if valid is None else np.where(valid, values, 0.0)
            out_columns[name] = Column(FLOAT64, np.asarray([_total(weights)]))
        elif spec.func == "avg":
            weights = values if valid is None else np.where(valid, values, 0.0)
            total = _total(weights)
            count = float(frame.nrows) if valid is None else float(valid.sum())
            with np.errstate(invalid="ignore", divide="ignore"):
                out_columns[name] = Column(FLOAT64, np.asarray([total]) / count if count else np.asarray([np.nan]))
        elif spec.func == "count":
            count = frame.nrows if valid is None else int(valid.sum())
            out_columns[name] = Column(INT64, np.asarray([count], dtype=np.int64))
        elif spec.func == "isum":
            weights = values if valid is None else np.where(valid, values, 0.0)
            out_columns[name] = Column(
                INT64, np.asarray([round(_total(weights))], dtype=np.int64)
            )
        elif spec.func in ("min", "max"):
            target = values if valid is None else values[valid]
            if len(target):
                extreme = float(target.min() if spec.func == "min" else target.max())
            else:
                extreme = np.nan
            out = np.asarray([extreme])
            if column.dtype is INT64:
                safe = np.where(np.isnan(out), 0, out)
                out_columns[name] = Column(
                    INT64, safe.astype(np.int64),
                    valid=~np.isnan(out) if np.isnan(out).any() else None,
                )
            else:
                out_columns[name] = Column(FLOAT64, out)
        elif spec.func == "count_distinct":
            counts = _count_distinct(np.zeros(frame.nrows, dtype=np.int64), 1, column)
            out_columns[name] = Column(INT64, counts.astype(np.int64))
        else:
            raise ValueError(f"unknown aggregate {spec.func!r}")

    out = Frame(out_columns, 1)
    ctx.work.tuples_in += frame.nrows
    ctx.work.tuples_out += 1
    ctx.work.ops += frame.nrows * max(1, len(aggs))
    ctx.work.seq_bytes += frame.nrows * 8 * max(1, len(aggs))
    ctx.work.out_bytes += out.nbytes
    ctx.work.gather_bytes += frame.drain_gather_debt()
    note(ctx, groups=1, aggs=len(aggs))
    return out


def execute_aggregate(
    frame: Frame,
    group_by: list[str],
    aggs: dict[str, AggSpec],
    ctx,
) -> Frame:
    """Group ``frame`` by ``group_by`` and compute ``aggs``.

    With no grouping keys the result has exactly one row (global
    aggregate), even over empty input (COUNT=0, SUM=0, MIN/MAX=NaN).
    """
    if not group_by:
        return _global_aggregate(frame, aggs, ctx)
    gids, n_groups, first, kernel = _group_ids(frame, group_by)

    out_columns: dict[str, Column] = {}
    for name in group_by:
        out_columns[name] = frame.column(name).take(first)

    for name, spec in aggs.items():
        if spec.func == "count_star":
            counts = np.bincount(gids, minlength=n_groups)
            out_columns[name] = Column(INT64, counts.astype(np.int64))
            continue
        column = _input(spec, frame, ctx)
        values = column.values.astype(np.float64)
        valid = column.valid
        if spec.func == "sum":
            weights = values if valid is None else np.where(valid, values, 0.0)
            out = np.bincount(gids, weights=weights, minlength=n_groups)
            out_columns[name] = Column(FLOAT64, out)
        elif spec.func == "avg":
            weights = values if valid is None else np.where(valid, values, 0.0)
            sums = np.bincount(gids, weights=weights, minlength=n_groups)
            if valid is None:
                counts = np.bincount(gids, minlength=n_groups)
            else:
                counts = np.bincount(gids, weights=valid.astype(np.float64), minlength=n_groups)
            with np.errstate(invalid="ignore", divide="ignore"):
                out_columns[name] = Column(FLOAT64, sums / counts)
        elif spec.func == "count":
            if valid is None:
                counts = np.bincount(gids, minlength=n_groups)
            else:
                counts = np.bincount(gids, weights=valid.astype(np.float64), minlength=n_groups)
            out_columns[name] = Column(INT64, counts.astype(np.int64))
        elif spec.func == "isum":
            # Exact integer sum: recombines COUNT-valued partial states
            # (rollup cells, two-phase merges). Inputs are integral and
            # far below 2**53, so the float accumulator is exact.
            weights = values if valid is None else np.where(valid, values, 0.0)
            out = np.bincount(gids, weights=weights, minlength=n_groups)
            out_columns[name] = Column(INT64, np.rint(out).astype(np.int64))
        elif spec.func in ("min", "max"):
            init = np.inf if spec.func == "min" else -np.inf
            out = np.full(n_groups, init, dtype=np.float64)
            target = values if valid is None else values[valid]
            target_gids = gids if valid is None else gids[valid]
            if spec.func == "min":
                np.minimum.at(out, target_gids, target)
            else:
                np.maximum.at(out, target_gids, target)
            out[~np.isfinite(out)] = np.nan
            if column.dtype is INT64:
                safe = np.where(np.isnan(out), 0, out)
                out_columns[name] = Column(
                    INT64, safe.astype(np.int64), valid=~np.isnan(out) if np.isnan(out).any() else None
                )
            else:
                out_columns[name] = Column(FLOAT64, out)
        elif spec.func == "count_distinct":
            counts = _count_distinct(gids, n_groups, column)
            out_columns[name] = Column(INT64, counts.astype(np.int64))
        else:
            raise ValueError(f"unknown aggregate {spec.func!r}")

    out = Frame(out_columns, n_groups)
    # Work accounting: one hash insert (random access) per input row per
    # grouped aggregate pass, plus streaming the aggregate inputs.
    ctx.work.tuples_in += frame.nrows
    ctx.work.tuples_out += n_groups
    ctx.work.ops += frame.nrows * max(1, len(aggs))
    ctx.work.rand_accesses += frame.nrows if group_by else 0
    ctx.work.seq_bytes += frame.nrows * 8 * max(1, len(aggs))
    ctx.work.out_bytes += out.nbytes
    ctx.work.gather_bytes += frame.drain_gather_debt()
    note(ctx, groups=n_groups, aggs=len(aggs), kernel=kernel)
    return out
