"""Hash joins: inner, left outer, semi, and anti.

The *work profile* recorded is that of a classic hash join (build
inserts + random probes), because that is what MonetDB executes and what
the hardware model should price. The physical algorithm is one of two
stand-ins with identical output, chosen per join from the keys it is
handed (:func:`_match`): a direct-address table when same-dtype integer
keys are dense (:func:`~repro.engine.keycache.dense_span` — PK/FK keys,
dictionary codes), else sort-and-binary-search over the build side's
encoded keys. Semi/anti joins stop at the per-row match counts.

String keys join on dictionary codes whenever possible: sides sharing a
dictionary object compare int32 codes directly, and differing
dictionaries are remapped through their union — O(|dictionaries|) work —
instead of decoding every row to Python strings. Key factorizations and
build-side sort orders are memoized in the process-wide
:mod:`~repro.engine.keycache`, so repeated executions against the same
(immutable) base arrays skip the ``np.unique``/``argsort``.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import metrics
from repro.obs.trace import note

from ..column import Column
from ..frame import Frame
from ..keycache import combine_codes, dense_span, key_cache
from ..types import STRING

__all__ = ["execute_join"]


def _encode_key(column: Column) -> np.ndarray:
    """Return an array that equality-matches the column's values
    across frames (strings are decoded so differing dictionaries agree).
    Prefer :func:`_encode_key_pair` when both sides are at hand — it
    stays on dictionary codes."""
    if column.dtype is STRING:
        return column.decoded()
    return column.values


def _union_dictionary_codes(
    left_col: Column, right_col: Column
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Remap two dictionary-encoded columns onto their union dictionary.

    Returns ``(union_dict, left_codes, right_codes)``. Cost is
    O(|left dict| + |right dict|) plus one O(rows) int gather per side —
    never a per-row string decode.
    """
    union = np.unique(np.concatenate([left_col.dictionary, right_col.dictionary]))
    lmap = np.searchsorted(union, left_col.dictionary)
    rmap = np.searchsorted(union, right_col.dictionary)
    return union, lmap[left_col.values], rmap[right_col.values]


def _encode_key_pair(
    left_col: Column, right_col: Column, ctx
) -> tuple[np.ndarray, np.ndarray]:
    """Encode one key-column pair into equality-comparable arrays.

    String sides sharing a dictionary object match on raw codes;
    differing dictionaries remap through the union dictionary. Either
    way the per-row work is integer, not string.
    """
    if left_col.dtype is STRING and right_col.dtype is STRING:
        if left_col.dictionary is right_col.dictionary:
            return left_col.values, right_col.values
        _, left_codes, right_codes = _union_dictionary_codes(left_col, right_col)
        # The remap touches each dictionary entry once.
        ctx.work.ops += len(left_col.dictionary) + len(right_col.dictionary)
        return left_codes, right_codes
    return _encode_key(left_col), _encode_key(right_col)


def _combine_keys(columns: list[Column]) -> np.ndarray:
    """Combine one or more key columns into a single comparable array.

    Each column is factorized to dense codes (dictionary codes already
    are dense for strings) and the codes are mixed via
    :func:`~repro.engine.keycache.combine_codes`, which detects int64
    overflow of the cardinality product and falls back to lexicographic
    factorization instead of silently wrapping.
    """
    if len(columns) == 1 and columns[0].dtype is not STRING:
        return columns[0].values
    code_arrays: list[np.ndarray] = []
    cards: list[int] = []
    for column in columns:
        if column.dtype is STRING:
            # Dictionary codes are already a dense factorization.
            code_arrays.append(column.values.astype(np.int64, copy=False))
            cards.append(max(1, len(column.dictionary)))
        else:
            uniques, codes = key_cache.factorize(column.values)
            code_arrays.append(codes)
            cards.append(max(1, len(uniques)))
    return combine_codes(code_arrays, cards)


def _null_mask(columns: list[Column]) -> np.ndarray | None:
    mask = None
    for column in columns:
        if column.valid is not None:
            mask = column.valid if mask is None else (mask & column.valid)
    return mask


def _probe_sort(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort kernel: binary-search every left key into the sorted build
    keys. Returns ``(counts, lo, order)``: matches per left row, and where
    each row's run of matches starts in the build-side sort ``order``."""
    order = key_cache.sort_order(right_keys)
    sorted_keys = right_keys[order]
    lo = np.searchsorted(sorted_keys, left_keys, side="left")
    hi = np.searchsorted(sorted_keys, left_keys, side="right")
    return hi - lo, lo, order


def _probe_dense(
    left_keys: np.ndarray, right_keys: np.ndarray, base: int, span: int, pairs: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Direct-address kernel for build keys within ``[base, base + span)``:
    one table slot per key value, nothing sorted or searched to count.
    Same ``(counts, lo, order)`` as :func:`_probe_sort`, the last two
    ``None`` unless ``pairs`` are wanted. Unique build keys need no sort:
    the table holds each key's row, ``lo`` is read off it, ``order`` is ``None``."""
    slot = np.subtract(right_keys, base, dtype=np.intp)
    per_key = np.bincount(slot, minlength=span + 1)
    # Left keys outside the build range go to the always-empty slot
    # ``span`` through a bounds mask, never through a wrapped
    # ``left - base`` (both bounds are build keys, so they fit the dtype).
    inside = (left_keys >= base) & (left_keys <= base + span - 1)
    probe = np.full(len(left_keys), span, dtype=np.intp)
    np.subtract(left_keys, base, out=probe, where=inside, dtype=np.intp)
    counts = per_key[probe]
    if not pairs:
        return counts, None, None
    if per_key.max() <= 1:
        rows = np.full(span + 1, -1, dtype=np.intp)
        rows[slot] = np.arange(len(right_keys))
        return counts, rows[probe], None
    return counts, (np.cumsum(per_key) - per_key)[probe], key_cache.sort_order(right_keys)


def _expand(
    counts: np.ndarray, lo: np.ndarray, order: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """List each (left, right) match pair of a probe: left rows
    ascending, right rows ascending within a key. Without an ``order``
    a row matches at most once and ``lo`` is its build row."""
    if order is None:
        left_idx = np.flatnonzero(counts)
        return left_idx, lo[left_idx]
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(counts)), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right_idx = order[starts + offsets] if total else np.empty(0, dtype=np.int64)
    return left_idx, right_idx


def _match(
    left_keys: np.ndarray, right_keys: np.ndarray, pairs: bool
) -> tuple[str, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """For every left row, find matching right rows.

    Returns ``(kernel, counts, lo, order)``: the probe result
    :func:`_expand` turns into match pairs (``lo``/``order`` may be
    ``None`` unless ``pairs``; ``order`` is also ``None`` when a dense
    build side's keys are unique), and the name of the kernel that ran —
    ``"dense"`` when both sides share an integer dtype and the build keys
    pass :func:`~repro.engine.keycache.dense_span`, ``"sort"`` otherwise.
    """
    dense = None
    if left_keys.dtype == right_keys.dtype:
        dense = dense_span(right_keys, len(left_keys) + len(right_keys))
    kernel = "sort" if dense is None else "dense"
    metrics.counter(f"engine.join.kernel.{kernel}").inc()
    if dense is None:
        return (kernel, *_probe_sort(left_keys, right_keys))
    return (kernel, *_probe_dense(left_keys, right_keys, *dense, pairs))


def execute_join(
    left: Frame,
    right: Frame,
    left_on: list[str],
    right_on: list[str],
    how: str,
    ctx,
    build: str = "right",
) -> Frame:
    """Join ``left`` with ``right`` on equality of the key column lists.

    ``how`` is one of ``inner``, ``left`` (left outer), ``semi``
    (left semi), ``anti`` (left anti). Semi/anti keep only left columns.
    Rows whose key is NULL never match. ``build`` names the input whose
    hash table the work profile charges (:mod:`~repro.engine.spill` picks
    the one that fits a budget); rows and their order do not depend on it.

    Late inputs gather only their key columns here. Under late
    materialization (``ctx.late``) an inner or left join returns a late
    frame (:meth:`Frame.pair`): each input's row ids composed with the
    match indices, every payload column left for its first reader to
    gather once, straight from its base. Semi/anti joins filter their
    left input, late or not.
    """
    left_cols = [left.column(n) for n in left_on]
    right_cols = [right.column(n) for n in right_on]
    if len(left_cols) == 1:
        left_keys, right_keys = _encode_key_pair(left_cols[0], right_cols[0], ctx)
    else:
        # Multi-key combination must factorize over the union so codes agree.
        both = _combine_keys(
            [_stack(lc, rc, ctx) for lc, rc in zip(left_cols, right_cols)]
        )
        left_keys, right_keys = both[: left.nrows], both[left.nrows :]

    left_null = _null_mask(left_cols)
    right_null = _null_mask(right_cols)
    if right_null is not None:
        keep = right_null
        right_keys = right_keys[keep]
        right_map = np.flatnonzero(keep)
    else:
        right_map = None

    pairs = how not in ("semi", "anti")  # those decide on ``counts`` alone
    kernel, counts, lo, order = _match(left_keys, right_keys, pairs)
    if left_null is not None:
        counts = counts * left_null  # NULL left keys match nothing
    if pairs:
        left_idx, right_idx = _expand(counts, lo, order)
        if right_map is not None and len(right_idx):
            right_idx = right_map[right_idx]

    # Work accounting: hash build over the ``build`` side (by convention
    # right), a random probe per row of the other, plus per-match output.
    matches = int(counts.sum())
    probed, built = (left.nrows, right.nrows) if build == "right" else (right.nrows, left.nrows)
    ctx.work.tuples_in += left.nrows + right.nrows
    ctx.work.seq_bytes += sum(c.nbytes for c in left_cols) + sum(c.nbytes for c in right_cols)
    ctx.work.ops += probed + 2 * built  # probe + build/hash
    if build == "left":
        ctx.work.ops += matches  # pairs found right-major go back to left-major
    ctx.work.rand_accesses += probed + matches
    # The build-side hash structure (key + bucket pointer per row) is
    # part of the operator's resident working set.
    ctx.work.out_bytes += built * 16

    if how == "left":
        miss = np.flatnonzero(counts == 0)
        if len(miss):
            left_idx = np.concatenate([left_idx, miss])
            right_idx = np.concatenate([right_idx, np.full(len(miss), -1, dtype=np.int64)])
    if how in ("inner", "left"):
        out = Frame.pair(left, left_idx, right, right_idx, skip=right_on)
        if not getattr(ctx, "late", False):
            out = out.dense()
    elif how == "semi":
        out = left.filter(counts > 0)
    elif how == "anti":
        out = left.filter(counts == 0)
    else:
        raise ValueError(f"unknown join type {how!r}")

    # Key-column gathers on late inputs are the join's materialization
    # price; charge them as random access.
    ctx.work.gather_bytes += left.drain_gather_debt() + right.drain_gather_debt()
    ctx.work.tuples_out += out.nrows
    if pairs and out.is_late:
        # The row ids are what the join writes; the payload copy it no
        # longer makes is saved (its gather is charged to the reader) —
        # nothing, when the payload is no wider than its row ids.
        ctx.work.out_bytes += out.id_bytes
        ctx.work.saved_bytes += max(out.nbytes - out.id_bytes, 0)
    else:
        ctx.work.out_bytes += out.nbytes
    note(
        ctx, how=how, left_rows=left.nrows, right_rows=right.nrows,
        matches=out.nrows, kernel=kernel, build=build, late=out.is_late,
    )
    return out


def _stack(left_col: Column, right_col: Column, ctx) -> Column:
    """Concatenate two key columns (for shared factorization) without
    decoding strings: same-dictionary sides concatenate codes, differing
    dictionaries remap through the union dictionary first."""
    if left_col.dtype is STRING:
        if left_col.dictionary is right_col.dictionary:
            codes = np.concatenate([left_col.values, right_col.values])
            return Column(STRING, codes, dictionary=left_col.dictionary)
        union, left_codes, right_codes = _union_dictionary_codes(left_col, right_col)
        ctx.work.ops += len(left_col.dictionary) + len(right_col.dictionary)
        return Column.from_string_codes(
            np.concatenate([left_codes, right_codes]).astype(np.int32), union
        )
    values = np.concatenate([left_col.values, right_col.values])
    return Column(left_col.dtype, values)
