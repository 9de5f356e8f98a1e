"""DISTINCT over the frame's columns (or a subset): the first row of
each group of the aggregate's own ``_group_ids``, so NULL is one value
(whatever payload sits under the mask) exactly as in GROUP BY."""

from __future__ import annotations

import numpy as np

from repro.obs.trace import note

from ..frame import Frame
from .aggregate import _group_ids

__all__ = ["execute_distinct"]


def execute_distinct(frame: Frame, columns: list[str] | None, ctx) -> Frame:
    """Keep the first row of each distinct combination of ``columns``
    (default: all columns)."""
    names = columns if columns is not None else list(frame.columns)
    _, _, first, kernel = _group_ids(frame, names)
    out = frame.take(np.sort(first))
    ctx.work.tuples_in += frame.nrows
    ctx.work.tuples_out += out.nrows
    ctx.work.rand_accesses += frame.nrows
    ctx.work.ops += frame.nrows
    ctx.work.out_bytes += out.nbytes
    ctx.work.gather_bytes += frame.drain_gather_debt()
    note(ctx, distinct=out.nrows, on=len(names), kernel=kernel, late=out.is_late)
    return out
