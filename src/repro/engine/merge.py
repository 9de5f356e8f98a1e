"""Merging per-morsel partial states back into one result.

The parallel executor runs a pipeline fragment once per morsel; this
module recombines the fragments:

* :func:`concat_frames` — order-preserving concatenation (filter/project
  chains).
* :func:`decompose_aggregates` / :func:`merge_partial_aggregates` — the
  classic two-phase group-by: per-morsel partial aggregation, then a
  merge aggregation over the stacked partials. What each function keeps
  and how it merges is ``operators.aggregate.AGG_STATES``, read through
  ``two_phase``; nothing here names a function but AVG's final ratio.
* :func:`merge_topk` — local top-k per morsel, then top-k over the
  survivors; ties resolve exactly as a global stable sort would.
* :func:`merge_sorted_runs` — stable k-way merge of per-morsel sorted
  runs (binary-merge via ``searchsorted`` on a single key; stable lexsort
  fallback for compound keys).
* :func:`merge_profiles` — coalesce per-morsel work profiles back into
  one operator sequence so profiles stay comparable with serial runs.

Everything here is deliberately deterministic: for any morsel split, the
merged output is bit-identical (modulo float summation order) to the
serial operator, which the differential and property suites assert.
"""

from __future__ import annotations

import numpy as np

from .column import Column
from .frame import Frame
from .operators.aggregate import AggSpec, mean, two_phase
from .operators.sort import _sort_key, execute_topk
from .profile import OperatorWork, WorkProfile
from .spill import maybe_spill_aggregate

__all__ = [
    "concat_frames",
    "decompose_aggregates",
    "merge_partial_aggregates",
    "merge_profiles",
    "merge_sorted_runs",
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

def decompose_aggregates(
    aggs: dict[str, AggSpec],
) -> tuple[dict[str, AggSpec], dict[str, AggSpec]] | None:
    """Split aggregates into (per-morsel partial, merge-phase final) specs
    — the first two thirds of :func:`two_phase`.

    Returns ``None`` when any aggregate is not decomposable (COUNT(DISTINCT):
    such plans fall back to a serial aggregate over the concatenated, still
    parallel-scanned, input). AVG expands to two partial columns
    (``name@sum``, ``name@cnt``) that :func:`merge_partial_aggregates`
    recombines.
    """
    split = two_phase(aggs)
    return None if split is None else split[:2]


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


def merge_sorted_runs(frames: list[Frame], keys: list[tuple[str, str]]) -> Frame:
    """Stable merge of per-morsel sorted runs into one sorted frame.

    Equal keys keep run order (run i before run j for i < j), matching a
    stable sort of the concatenated input. Single-key merges use true
    ``searchsorted`` binary merging; compound keys fall back to a stable
    lexsort over the concatenation.
    """
    frames = [f for f in frames if f.nrows]
    if not frames:
        raise ValueError("need at least one non-empty frame")
    if len(frames) == 1:
        return frames[0]
    if len(keys) == 1:
        name, direction = keys[0]
        merged = frames[0]
        merged_key = _sort_key(merged, name, direction == "asc")
        for nxt in frames[1:]:
            nxt_key = _sort_key(nxt, name, direction == "asc")
            merged, merged_key = _merge_two(merged, merged_key, nxt, nxt_key)
        return merged
    combined = concat_frames(frames)
    arrays = [_sort_key(combined, k, d == "asc") for k, d in keys]
    return combined.take(np.lexsort(arrays[::-1]))


def _merge_two(
    fa: Frame, ka: np.ndarray, fb: Frame, kb: np.ndarray
) -> tuple[Frame, np.ndarray]:
    """Stably merge two sorted (frame, key) runs; ``fa`` rows win ties."""
    pos_a = np.arange(len(ka)) + np.searchsorted(kb, ka, side="left")
    pos_b = np.arange(len(kb)) + np.searchsorted(ka, kb, side="right")
    order = np.empty(len(ka) + len(kb), dtype=np.int64)
    order[pos_a] = np.arange(len(ka))
    order[pos_b] = np.arange(len(kb)) + len(ka)
    combined = concat_frames([fa, fb]).take(order)
    return combined, np.concatenate([ka, kb])[order]


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
