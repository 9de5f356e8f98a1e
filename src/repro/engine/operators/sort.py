"""Order-by via numpy lexsort.

String columns sort by dictionary code, which is order-preserving because
dictionaries are built sorted (``np.unique``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs.trace import note

from ..frame import Frame
from ..types import STRING

__all__ = ["execute_sort", "execute_topk"]


def _sort_key(frame: Frame, name: str, ascending: bool) -> np.ndarray:
    column = frame.column(name)
    values = column.values
    if column.dtype is STRING:
        # Codes are only order-preserving against the column's own sorted
        # dictionary; re-rank through it to be safe after joins/substrings.
        rank = np.argsort(np.argsort(column.dictionary))
        values = rank[values]
    values = values.astype(np.float64)
    if column.valid is not None:
        # NULLs sort last regardless of direction.
        values = np.where(column.valid, values, np.inf if ascending else -np.inf)
    return values if ascending else -values


def execute_topk(frame: Frame, keys: list[tuple[str, str]], n: int, ctx) -> Frame:
    """Fused ORDER BY + LIMIT n (top-k).

    For a single sort key this selects the k smallest with a partition
    (O(N + k log k) instead of O(N log N)) — the optimization real
    engines apply to Q3/Q10/Q18-style top-k queries. Multi-key sorts
    partition on the primary key first and fall back to a full sort of
    the (rare) boundary ties.
    """
    # ``late``: the output keeps the input's form (``take`` composes row ids).
    note(ctx, k=n, late=frame.is_late)
    if n <= 0:
        return frame.slice(0, 0)
    if frame.nrows <= n or not keys:
        out = execute_sort(frame, keys, ctx)
        return out.slice(0, n)

    primary = _sort_key(frame, keys[0][0], keys[0][1] == "asc")
    # Keep everything tied with the n-th primary value so secondary keys
    # (and the stable original order) decide the final cut exactly as a
    # full stable sort would.
    partitioned = np.argpartition(primary, n - 1)
    threshold = primary[partitioned[n - 1]]
    candidate_idx = np.flatnonzero(primary <= threshold)
    candidates = frame.take(candidate_idx)
    out = execute_sort(candidates, keys, ctx)
    out = out.slice(0, n)
    # The selection pass itself: one streaming comparison per row.
    ctx.work.tuples_in += frame.nrows
    ctx.work.ops += frame.nrows
    ctx.work.seq_bytes += frame.column(keys[0][0]).nbytes
    ctx.work.gather_bytes += frame.drain_gather_debt()
    note(ctx, candidates=len(candidate_idx))
    return out


def execute_sort(frame: Frame, keys: list[tuple[str, str]], ctx) -> Frame:
    """Sort by ``keys`` — a list of ``(column, "asc"|"desc")`` pairs,
    most-significant first."""
    note(ctx, keys=len(keys), late=frame.is_late)
    if frame.nrows == 0:
        return frame
    arrays = [_sort_key(frame, name, direction == "asc") for name, direction in keys]
    order = np.lexsort(arrays[::-1])  # lexsort's last key is primary
    out = frame.take(order)
    n = frame.nrows
    ctx.work.tuples_in += n
    ctx.work.tuples_out += n
    ctx.work.ops += n * max(1, int(math.log2(n)) if n > 1 else 1)
    ctx.work.rand_accesses += n  # the reorder gather
    ctx.work.seq_bytes += sum(frame.column(k).nbytes for k, _ in keys)
    ctx.work.out_bytes += out.nbytes
    ctx.work.gather_bytes += frame.drain_gather_debt()
    return out
