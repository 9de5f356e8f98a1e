"""Hash group-by aggregation.

Supports SUM, AVG, MIN, MAX, COUNT (non-null), COUNT(*), and
COUNT(DISTINCT expr), with zero or more grouping keys. Each function is
defined once, twice over: :func:`reduce_groups` is how it reduces rows
into groups (called by :func:`execute_aggregate` per row and by the
run-level ``EncodedAggregatePlan`` per segment), and :data:`AGG_STATES`
is what it keeps so that partitions merge, read through
:func:`two_phase` by the morsel merge, the cluster driver, segment
lowering and rollup routing.

A group-by takes one of three grouping kernels, chosen from the keys it
is handed and named by the span's ``kernel`` attr and the
``engine.group.kernel.*`` counters:

- ``direct``: every key is NULL-free and dense by
  :func:`~repro.engine.keycache.dense_span`, and the product of their
  spans passes the same footprint rule
  (:func:`~repro.engine.keycache.fits_direct`). A row's group id is then
  the mixed-radix offset of its key tuple, ``sum((value_i - base_i) *
  radix_i)``; the aggregates reduce over every slot, slots no row
  reached are dropped, and each output key is ``base_i + digit_i`` of a
  kept slot. Nothing is factorized.
- ``dense`` and ``sort``: every other key tuple is factorized per column
  and mixed into one code, which is factorized again. Every
  factorization is :func:`~repro.engine.keycache.factorize`: a presence
  table indexed by the key where the keys are dense integers
  (``dense``), ``np.unique`` where they are not (``sort``, when any
  factorization behind the group ids sorted).

Offsets are monotone in the key tuple, like compacted ranks, so all
three give the same groups in the same (``np.unique``) order, reduce
each group's rows in row order, and charge the same work. No keys is
the one-group case, with nothing grouped. DISTINCT keeps the
factorizing :func:`_group_ids`, because it needs each group's first row.

COUNT(DISTINCT) sorts one ``gid * card + code`` pair per valid row,
int32 where ``n_groups * card`` fits it. Only sparse integer values are
factorized for their codes: dense ones (by ``dense_span``) code as
``value - base`` and strings as their dictionary codes.

Inside one aggregate, every function of the same input is evaluated
once and every (function, input) pair is reduced once, keyed on the
input's :func:`~repro.engine.fingerprint.structural_key`; AVG is the
:func:`mean` of its input's SUM and COUNT reductions. Each use is still
charged as if it had evaluated its input itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import metrics
from repro.obs.trace import note

from ..column import Column
from ..expr import Arith, Expr, col
from ..frame import Frame
from ..keycache import (
    _INT64_LIMIT, combine_codes, dense_span, factorize, fits_direct, key_cache, sorted_pairs,
    stable_order,
)
from ..profile import OperatorWork
from ..types import FLOAT64, INT64, STRING

__all__ = [
    "AGG_STATES", "AggSpec", "execute_aggregate", "mean", "reduce_groups", "two_phase",
    "sum_", "avg", "count", "count_star", "count_distinct", "min_", "max_",
]


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


# What each decomposable function keeps per partition (a morsel, a shard,
# a cube cell) so that partitions merge with one more aggregate pass:
# ``(part, builder of the part from the input expression, function that
# merges two of it)``. Counts merge by exact integer re-summation (INT64
# end to end); AVG keeps a sum and a count and recomposes as their ratio.
# COUNT(DISTINCT) is absent on purpose: its state is the distinct set.
AGG_STATES = {
    "sum": (("sum", sum_, "sum"),),
    "avg": (("sum", sum_, "sum"), ("cnt", count, "isum")),
    "count": (("cnt", count, "isum"),),
    "count_star": (("star", lambda expr: count_star(), "isum"),),
    "isum": (("isum", lambda expr: AggSpec("isum", expr), "isum"),),
    "min": (("min", min_, "min"),),
    "max": (("max", max_, "max"),),
}


def two_phase(aggs: dict[str, AggSpec], state_column=None):
    """Split ``aggs`` into ``(partial, final, projections)``, or ``None``
    when one of them has no mergeable state.

    ``partial`` builds every state part from the input; ``final`` merges
    stacked partials, named like the aggregate — ``name@part`` where it
    has more than one part; ``projections`` recompose the original output
    columns, in order, from the merged parts. ``state_column(spec, part)``
    names the stored partial column where the default (the merged name)
    does not: a cube shares one column between every aggregate of the
    same measure.
    """
    partial: dict[str, AggSpec] = {}
    final: dict[str, AggSpec] = {}
    projections: list[tuple[str, Expr]] = []
    for name, spec in aggs.items():
        states = AGG_STATES.get(spec.func)
        if states is None:
            return None
        merged = {}
        for part, build, merge in states:
            out = name if len(states) == 1 else f"{name}@{part}"
            stored = out if state_column is None else state_column(spec, part)
            partial[stored] = build(spec.expr)
            final[out] = AggSpec(merge, col(stored))
            merged[part] = col(out)
        recomposed = _Mean("/", merged["sum"], merged["cnt"]) if spec.func == "avg" else col(name)
        projections.append((name, recomposed))
    return partial, final, projections


def mean(sums: np.ndarray, counts: np.ndarray) -> Column:
    """AVG from its SUM and COUNT: NULL where nothing was counted."""
    with np.errstate(invalid="ignore", divide="ignore"):
        values = sums / counts
    empty = counts == 0
    return Column(FLOAT64, values, valid=~empty if empty.any() else None)


class _Mean(Arith):
    """``sum / cnt`` recomposing a merged AVG, through :func:`mean`."""

    def evaluate(self, frame: Frame, ctx) -> Column:
        sums, counts = self.left.evaluate(frame, ctx), self.right.evaluate(frame, ctx)
        ctx.work.ops += frame.nrows
        return mean(sums.values, counts.values)


_INT64 = np.iinfo(np.int64)


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
    return codes, len(uniques), _sorted(uniques, codes)


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
    if len(keys) == 1:  # one key's codes are its group ids (read only: maybe cached)
        gids, n_groups, sorts = _key_codes(frame.column(keys[0]))
    else:
        combined, sorts = _combined_codes(frame, keys)
        uniques, gids = factorize(combined)
        n_groups, sorts = len(uniques), sorts or _sorted(uniques, gids)
    kernel = "sort" if sorts else "dense"
    metrics.counter(f"engine.group.kernel.{kernel}").inc()
    first = np.full(n_groups, -1, dtype=np.int64)
    # First occurrence per group (reverse pass keeps the earliest row).
    first[gids[::-1]] = np.arange(frame.nrows - 1, -1, -1)
    return gids, n_groups, first, kernel


def _direct_slots(frame: Frame, keys: list[str]):
    """``(slots, n_slots, counts, kept, key_columns)`` when the key tuples
    address their groups directly, else ``None``.

    ``slots`` holds each row's mixed-radix offset (the first key most
    significant), ``counts`` the rows per slot, ``kept`` the slots some
    row reached, in order, and ``key_columns`` each key's value per kept
    slot — same dtype, same dictionary. Applies when every key is
    NULL-free and ``dense_span`` accepts it, and the slot count (the
    product of the spans) fits the same footprint rule.
    """
    columns = [frame.column(name) for name in keys]
    spans = []
    n_slots = 1
    for column in columns:
        dense = None if column.has_nulls() else dense_span(column.values, frame.nrows)
        if dense is None:
            return None
        spans.append(dense)
        n_slots *= dense[1]
    if not fits_direct(n_slots, frame.nrows):
        return None
    slots = np.subtract(columns[0].values, spans[0][0], dtype=np.int64)
    for column, (base, span) in zip(columns[1:], spans[1:]):
        slots *= span
        slots += np.subtract(column.values, base, dtype=np.int64)  # in [0, span): no wrap
    counts = np.bincount(slots, minlength=n_slots)
    kept = np.flatnonzero(counts)
    key_columns = {}
    rest = kept
    for name, column, (base, span) in reversed(list(zip(keys, columns, spans))):
        rest, digit = np.divmod(rest, span)
        values = (digit + base).astype(column.values.dtype)
        key_columns[name] = Column(column.dtype, values, dictionary=column.dictionary)
    metrics.counter("engine.group.kernel.direct").inc()
    return slots, n_slots, counts, kept, {name: key_columns[name] for name in keys}


def _distinct_codes(key: np.ndarray, column: Column) -> tuple[np.ndarray, int] | None:
    """``(codes, card)``: one code in ``[0, card)`` per value of ``key``
    (the valid rows of ``column``), equal exactly where the values are —
    dictionary codes for strings (a dictionary holds unique values),
    ``value - base`` for integers ``dense_span`` accepts, factorization
    codes for other integers; ``None`` for anything else."""
    if column.dtype is STRING:
        return key, len(column.dictionary)
    if key.dtype.kind != "i":
        return None
    dense = dense_span(key, len(key))
    if dense is None:
        uniques, codes = factorize(key)
        return codes, len(uniques)
    base, span = dense
    return np.subtract(key, base, dtype=np.int64), span  # in [0, span): no wrap


def _count_distinct(gids: np.ndarray, n_groups: int, column: Column) -> np.ndarray:
    """Distinct non-NULL values of ``column`` per group id. Integer and
    string values sort one mixed ``gid * card + code`` per row, int32
    where the product fits it; anything else (floats: every NaN is its
    own value, or a product past int64) orders by value or code, then
    stably by gid."""
    key = column.values
    if column.valid is not None:
        key, gids = key[column.valid], gids[column.valid]
    if not len(key):
        return np.zeros(n_groups, dtype=np.int64)
    coded = _distinct_codes(key, column)
    if coded is not None and n_groups * coded[1] < _INT64_LIMIT:  # exact Python ints
        codes, card = coded
        pairs = sorted_pairs(gids, codes, n_groups, card)
        new = np.ones(len(pairs), dtype=bool)
        new[1:] = pairs[1:] != pairs[:-1]
        return np.bincount(pairs[new] // card, minlength=n_groups)
    order = stable_order(key)
    order = order[stable_order(gids[order])]
    sg, sk = gids[order], key[order]
    new = np.ones(len(sg), dtype=bool)
    new[1:] = (sg[1:] != sg[:-1]) | (sk[1:] != sk[:-1])
    return np.bincount(sg[new], minlength=n_groups)


def reduce_groups(
    func: str,
    column: Column | None,
    gids: np.ndarray,
    n_groups: int,
    counts: np.ndarray | None = None,
) -> Column:
    """Reduce ``column`` with aggregate ``func`` into one value per group
    — the only place an aggregate function is reduced.

    ``gids`` holds the group (``0 <= gid < n_groups``) of every element
    of ``column`` (``None`` for COUNT(*)). ``counts`` gives the rows per
    group when the caller already has them or when one element stands for
    several rows (run-level segments, which carry no NULLs); without it
    every element is one row. A group no valid row reaches is empty by
    that count, never by its value: COUNT 0, SUM 0.0, MIN/MAX/AVG NULL by
    a validity mask (so a partial state with no rows drops out of a merge).

    Sums always reduce through ``np.bincount``, so the accumulation order
    (and the last ulp) is the same for every caller. With one group the
    row counts are O(1) and MIN/MAX are a ``ufunc.reduce`` instead of a
    ``ufunc.at``.
    """
    one = n_groups == 1
    valid = None if column is None else column.valid

    def rows() -> np.ndarray:
        """Rows per group that ``func`` reads: all, or the non-NULL ones."""
        if valid is not None:
            if one:
                return np.asarray([np.count_nonzero(valid)], dtype=np.int64)
            return np.bincount(gids[valid], minlength=n_groups)
        if counts is not None:
            return counts
        if one:
            return np.asarray([len(gids)], dtype=np.int64)
        return np.bincount(gids, minlength=n_groups)

    def sums() -> np.ndarray:
        values = column.values.astype(np.float64, copy=False)
        weights = values if valid is None else np.where(valid, values, 0.0)
        return np.bincount(gids, weights=weights, minlength=n_groups)

    if func in ("count", "count_star"):
        return Column(INT64, rows().astype(np.int64))
    if func == "sum":
        return Column(FLOAT64, sums())
    if func == "avg":
        return mean(sums(), rows())
    if func == "isum":
        # Exact integer sum: recombines COUNT-valued partial states
        # (rollup cells, two-phase merges). Inputs are integral and
        # far below 2**53, so the float accumulator is exact.
        return Column(INT64, np.rint(sums()).astype(np.int64))
    if func == "count_distinct":
        return Column(INT64, _count_distinct(gids, n_groups, column).astype(np.int64))
    if func not in ("min", "max"):
        raise ValueError(f"unknown aggregate {func!r}")

    ufunc = np.minimum if func == "min" else np.maximum
    # INT64 reduces in its own dtype (float64 cannot hold it past 2**53);
    # every other input reduces, and comes out, as FLOAT64.
    if column.dtype is INT64:
        values = column.values
        init = _INT64.max if func == "min" else _INT64.min
    else:
        values = column.values.astype(np.float64)
        init = np.inf if func == "min" else -np.inf
    live, live_gids = (values, gids) if valid is None else (values[valid], gids[valid])
    if one:
        out = np.asarray([ufunc.reduce(live) if len(live) else init], dtype=values.dtype)
    else:
        out = np.full(n_groups, init, dtype=values.dtype)
        ufunc.at(out, live_gids, live)
    # A group still at the identity was never reached — or really holds
    # it (MIN over nothing but +inf): only there does the count decide.
    empty = out == init
    if empty.any():
        empty &= rows() == 0
    dtype = INT64 if column.dtype is INT64 else FLOAT64
    out[empty] = 0 if dtype is INT64 else np.nan
    return Column(dtype, out, valid=~empty if empty.any() else None)


def _input_keys(aggs: dict[str, AggSpec]) -> list:
    """One key per aggregate input, equal exactly where two inputs are the
    same expression (``None`` for COUNT(*), which reads none). Only inputs
    of one node type can be the same: those are keyed by
    :func:`~repro.engine.fingerprint.structural_key` (never ``Expr ==``,
    which builds an always-truthy comparison node), which hashes the
    whole tree; every other input is keyed by its identity."""
    from ..fingerprint import structural_key  # fingerprint imports AggSpec from here

    exprs = [None if spec.func == "count_star" else spec.expr for spec in aggs.values()]
    kinds = [type(expr) for expr in exprs]
    return [
        None if expr is None else structural_key(expr) if kinds.count(type(expr)) > 1 else id(expr)
        for expr in exprs
    ]


def _evaluate_once(expr: Expr, key, shared: bool, evaluated: dict, frame: Frame, ctx) -> Column:
    """``expr`` over ``frame``, evaluated once per input ``key`` when the
    input is ``shared`` by several aggregates; every call charges
    ``ctx.work`` what one evaluation charges."""
    if not shared:
        return expr.evaluate(frame, ctx)
    if key not in evaluated:
        work, ctx.work = ctx.work, OperatorWork(ctx.work.operator)
        try:
            column = expr.evaluate(frame, ctx)
        finally:
            charged, ctx.work = ctx.work, work
        evaluated[key] = column, charged
    column, charged = evaluated[key]
    ctx.work.add(charged)
    return column


def _take_kept(column: Column, kept: np.ndarray) -> Column:
    """The kept slots of one reduced column; a validity mask that only
    the dropped, empty slots needed goes with them."""
    out = column.take(kept)
    if out.valid is not None and bool(out.valid.all()):
        return Column(out.dtype, out.values, dictionary=out.dictionary)
    return out


def execute_aggregate(
    frame: Frame,
    group_by: list[str],
    aggs: dict[str, AggSpec],
    ctx,
) -> Frame:
    """Group ``frame`` by ``group_by`` and compute ``aggs``.

    With no grouping keys the result has exactly one row (global
    aggregate), even over empty input (COUNT=0, SUM=0, MIN/MAX NULL): it
    is the one-group case of the same loop, with nothing factorized.
    This is also the tail of the fused filter+aggregate pipeline for
    Q6-class queries: the input is typically a late frame, so each
    aggregate input gathers only the surviving rows of the columns it
    reads, and COUNT(*) reads nothing at all.
    """
    out_columns: dict[str, Column] = {}
    attrs = {}
    counts = kept = None
    direct = _direct_slots(frame, group_by) if group_by else None
    if direct is not None:
        gids, n_groups, counts, kept, out_columns = direct
        attrs["kernel"] = "direct"
    elif group_by:
        gids, n_groups, first, attrs["kernel"] = _group_ids(frame, group_by)
        for name in group_by:
            out_columns[name] = frame.column(name).take(first)
    else:
        gids, n_groups = np.zeros(frame.nrows, dtype=np.int64), 1

    inputs = _input_keys(aggs)
    evaluated: dict = {}  # input key -> (column, work its evaluation charged)
    reduced: dict = {}  # (function, input key) -> reduced column
    for (name, spec), key in zip(aggs.items(), inputs):
        column = None
        if key is not None:
            column = _evaluate_once(spec.expr, key, inputs.count(key) > 1, evaluated, frame, ctx)
        # Rows per group, counted once for every COUNT and AVG that reads
        # all rows (a nullable column counts its valid rows; one group is
        # O(1)); the direct kernel has them already.
        if counts is None and n_groups > 1 and spec.func in ("count", "count_star", "avg") \
                and (column is None or column.valid is None):
            counts = np.bincount(gids, minlength=n_groups)
        # AVG is the mean of its input's SUM and COUNT, each reduced once.
        for func in ("sum", "count") if spec.func == "avg" else (spec.func,):
            if (func, key) not in reduced:
                reduced[func, key] = reduce_groups(func, column, gids, n_groups, counts)
        if spec.func == "avg":
            out_columns[name] = mean(reduced["sum", key].values, reduced["count", key].values)
        else:
            out_columns[name] = reduced[spec.func, key]

    if kept is not None:  # the direct kernel: drop the slots no row reached
        if len(kept) < n_groups:
            for name in aggs:
                out_columns[name] = _take_kept(out_columns[name], kept)
        n_groups = len(kept)
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
    note(ctx, groups=n_groups, aggs=len(aggs), **attrs)
    return out
