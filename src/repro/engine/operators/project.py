"""Projection: compute named expressions into a new frame."""

from __future__ import annotations

from repro.obs.trace import note

from ..expr import ColRef, Expr
from ..frame import Frame

__all__ = ["execute_project"]


def execute_project(frame: Frame, exprs: dict[str, Expr], ctx) -> Frame:
    """Evaluate ``exprs`` over ``frame``; the output has exactly those
    columns. Plain column references are zero-copy, and a pass-through
    projection over a late frame keeps its row ids intact (renaming base
    columns costs nothing)."""
    if frame.is_late and all(isinstance(e, ColRef) for e in exprs.values()):
        out = frame.select({name: e.name for name, e in exprs.items()})
        ctx.work.tuples_in += frame.nrows
        ctx.work.tuples_out += out.nrows
        note(ctx, exprs=len(exprs), passthrough=True)
        return out
    columns = {}
    materialized_bytes = 0
    for name, expr in exprs.items():
        column = expr.evaluate(frame, ctx)
        columns[name] = column
        if not isinstance(expr, ColRef):
            materialized_bytes += column.nbytes
    out = Frame(columns, frame.nrows)
    ctx.work.tuples_in += frame.nrows
    ctx.work.tuples_out += out.nrows
    ctx.work.out_bytes += materialized_bytes
    ctx.work.gather_bytes += frame.drain_gather_debt()
    note(ctx, exprs=len(exprs))
    return out
