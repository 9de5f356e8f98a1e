"""Selection: evaluate a boolean expression and keep matching rows."""

from __future__ import annotations

from repro.obs.trace import note

from ..expr import Expr
from ..frame import LATE_BREAK_SELECTIVITY, Frame

__all__ = ["execute_filter"]


def execute_filter(frame: Frame, predicate: Expr, ctx, late: bool = False) -> Frame:
    """Keep the rows of ``frame`` where ``predicate`` is true.

    The predicate's per-row arithmetic is charged by the expression
    evaluator; the filter itself charges the selection-vector
    materialization. Eager mode rewrites the output columns compactly
    (MonetDB's candidate-list execution); late mode emits or composes a
    selection vector over the input's base columns and defers the
    rewrite to a pipeline breaker.
    """
    mask = predicate.evaluate(frame, ctx).values
    late = late or frame.is_late
    broke = False
    if late:
        out = frame.filter_late(mask)
        if not out.is_contiguous() and out.nrows > LATE_BREAK_SELECTIVITY * frame.nrows:
            # Dense-but-scattered survivors: break the row ids and
            # rewrite compactly (streaming beats point gathers here).
            out, broke = out.dense(), True
    else:
        out = frame.filter(mask)
    ctx.work.tuples_in += frame.nrows
    ctx.work.tuples_out += out.nrows
    ctx.work.seq_bytes += frame.nrows  # the mask/candidate list itself
    ctx.work.gather_bytes += frame.drain_gather_debt()
    if out.is_late:
        ctx.work.out_bytes += out.id_bytes
        ctx.work.saved_bytes += out.nbytes  # the avoided compact rewrite
    else:
        ctx.work.out_bytes += out.nbytes
    # ``late`` is the mode the filter ran in, as EXPLAIN predicts it;
    # ``broke`` says the density rule then rewrote compactly (as a
    # predicated scan notes it).
    note(
        ctx,
        selectivity=out.nrows / frame.nrows if frame.nrows else 0.0,
        late=late,
        **({"broke": True} if broke else {}),
    )
    return out
