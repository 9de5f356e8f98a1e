"""Selection: evaluate a boolean expression and keep matching rows."""

from __future__ import annotations

from repro.obs.trace import note

from ..expr import Expr
from ..frame import Frame

__all__ = ["execute_filter", "keep_rows"]


def keep_rows(survivors: Frame, candidates: int, late: bool, ctx) -> Frame:
    """The one late/eager step every filter ends in — the filter
    operator's and a predicated scan's.

    ``survivors`` is the late frame of the rows that passed, out of
    ``candidates`` evaluated. Late mode returns it as is (MonetDB's
    candidate list, the rewrite deferred to a pipeline breaker); eager
    mode rewrites it compactly. Charges ``ctx.work`` the rows in and
    out, the bytes written and — when late — the compact rewrite it
    saved; ``late`` is noted as the mode it ran in.
    """
    out = survivors if late else survivors.dense()
    ctx.work.tuples_in += candidates
    ctx.work.tuples_out += out.nrows
    if out.is_late:
        ctx.work.out_bytes += out.id_bytes
        ctx.work.saved_bytes += out.nbytes
    else:
        ctx.work.out_bytes += out.nbytes
    note(ctx, late=late)
    return out


def execute_filter(frame: Frame, predicate: Expr, ctx, late: bool = False) -> Frame:
    """Keep the rows of ``frame`` where ``predicate`` is true.

    The predicate's per-row arithmetic is charged by the expression
    evaluator; the filter itself charges the candidate list, and
    :func:`keep_rows` the output. A late input always stays late: the
    mask composes its row ids.
    """
    mask = predicate.evaluate(frame, ctx).values
    survivors = frame.filter_late(mask)
    ctx.work.seq_bytes += frame.nrows  # the mask/candidate list itself
    ctx.work.gather_bytes += frame.drain_gather_debt()
    note(ctx, selectivity=survivors.nrows / frame.nrows if frame.nrows else 0.0)
    return keep_rows(survivors, frame.nrows, late or frame.is_late, ctx)
