"""Merging per-morsel partial states back into one result.

A multi-worker executor runs a pipeline fragment once per morsel; this
module recombines the fragments:

* :func:`concat_frames` — order-preserving concatenation (filter/project
  chains).
* :func:`merge_partial_aggregates` — the classic two-phase group-by:
  per-morsel partial aggregation, then a merge aggregation over the
  stacked partials. What each function keeps
  and how it merges is ``operators.aggregate.AGG_STATES``, read through
  ``two_phase``; nothing here names a function but AVG's final ratio.
* :func:`merge_topk` — local top-k per morsel, then top-k over the
  survivors; ties resolve exactly as a global stable sort would.
* :func:`merge_profiles` — coalesce per-morsel work profiles back into
  one operator sequence so profiles stay comparable with serial runs.

Everything here is deliberately deterministic: for any morsel split, the
merged output is bit-identical (modulo float summation order) to the
serial operator, which the differential and property suites assert.
"""

from __future__ import annotations

from .column import Column
from .frame import Frame
from .operators.aggregate import AggSpec, mean, two_phase
from .operators.sort import execute_topk
from .profile import OperatorWork, WorkProfile
from .spill import maybe_spill_aggregate

__all__ = [
    "concat_frames",
    "merge_partial_aggregates",
    "merge_profiles",
    "merge_topk",
]


def concat_frames(frames: list[Frame]) -> Frame:
    """Stack frames vertically, preserving frame (morsel) order."""
    if not frames:
        raise ValueError("need at least one frame")
    # Concatenation reads physical columns; late frames gather first.
    frames = [f.dense() for f in frames]
    if len(frames) == 1:
        return frames[0]
    names = list(frames[0].columns)
    for frame in frames[1:]:
        if list(frame.columns) != names:
            raise ValueError("frames have mismatched columns")
    columns = {
        name: Column.concat([f.columns[name] for f in frames]) for name in names
    }
    return Frame(columns, sum(f.nrows for f in frames))


# ----------------------------------------------------------------------
# Two-phase aggregation
# ----------------------------------------------------------------------

def merge_partial_aggregates(
    frames: list[Frame],
    group_by: list[str],
    aggs: dict[str, AggSpec],
    ctx,
) -> Frame:
    """Merge per-morsel partial aggregate frames into the final result.

    Output matches the serial ``execute_aggregate`` exactly: same group
    rows (group order follows sorted key factorization in both paths),
    same column order, same dtypes (counts merge as INT64, AVG becomes
    the merged SUM/COUNT ratio).
    """
    split = two_phase(aggs)
    if split is None:
        raise ValueError("aggregates are not decomposable for parallel merge")
    final = split[1]
    combined = concat_frames(frames)
    # The merge aggregation over stacked partials is itself budget-aware:
    # under a tight MemoryBudget it Grace-partitions to disk rather than
    # building one oversized hash table on the coordinating thread.
    merged = maybe_spill_aggregate(combined, list(group_by), final, ctx)

    out: dict[str, Column] = {name: merged.column(name) for name in group_by}
    for name, spec in aggs.items():
        if spec.func == "avg":
            sums, counts = (merged.column(f"{name}@{part}").values for part in ("sum", "cnt"))
            out[name] = mean(sums, counts)
        else:
            out[name] = merged.column(name)
    frame = Frame(out, merged.nrows)
    ctx.work.out_bytes += frame.nbytes - merged.nbytes
    return frame


# ----------------------------------------------------------------------
# Order-based merges
# ----------------------------------------------------------------------

def merge_topk(
    frames: list[Frame], keys: list[tuple[str, str]], n: int, ctx
) -> Frame:
    """Top-k over per-morsel local top-k results.

    Any row of the global top-k is in its morsel's local top-k (local
    selection uses the same total order: sort keys, ties by original row
    order), so a top-k over the stacked survivors is exact.
    """
    return execute_topk(concat_frames(frames), keys, n, ctx)


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------

def merge_profiles(profiles: list[WorkProfile]) -> WorkProfile:
    """Coalesce per-morsel profiles into one operator sequence.

    Morsel fragments of one pipeline all record the same operator
    sequence; summing them position-wise yields a profile shaped exactly
    like the serial run's (so the hardware model sees one scan, one
    filter, ... — not hundreds of slivers). Misaligned profiles fall back
    to plain concatenation.
    """
    profiles = [p for p in profiles if p.operators]
    if not profiles:
        return WorkProfile()
    signature = [op.operator for op in profiles[0].operators]
    if all([op.operator for op in p.operators] == signature for p in profiles):
        coalesced = []
        for position, name in enumerate(signature):
            total = OperatorWork(name)
            for p in profiles:
                total.add(p.operators[position])
            coalesced.append(total)
        return WorkProfile(coalesced)
    out = WorkProfile()
    for p in profiles:
        out.operators.extend(p.operators)
    return out
