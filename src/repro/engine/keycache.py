"""Process-wide identity memo of pure array kernels, and key-combination helpers.

Joins and group-bys repeatedly factorize the same key arrays: every
execution of Q3 re-runs ``np.unique`` over ``orders.o_orderkey``, every
probe of a build side whose keys repeat re-sorts them; string
predicates re-derive the same per-entry mask of the same dictionary.
Each is a pure function of an immutable array (the engine's
:class:`~repro.engine.table.Table` is immutable, unfiltered scans return
the table-owned arrays zero-copy, and dictionaries are shared by every
frame over a column), so ``(table id, column set, version)`` collapses to
"the same ndarray object" — which :class:`KeyCache` keys on directly.
It holds no strong reference: a weakref finalizer drops an array's
results when the array dies, so a recycled ``id()`` never finds a stale
entry and a transient per-query array pins nothing past its query.

The memo is process-wide and thread-safe (morsel workers share it and
compute different results side by side); each array keeps a constant
number of results, and stored arrays are read-only.
:meth:`KeyCache.factorize` and :meth:`KeyCache.sort_order` serve joins
and group-bys; the dictionary kernels of
:mod:`repro.engine.expr` go through :meth:`KeyCache.memo` itself.

Also hosted here (shared by join, aggregate, and distinct):
:func:`combine_codes`, the overflow-safe mixed-radix code combiner. The
naive ``combined * card + codes`` scheme silently wraps int64 once the
product of key cardinalities reaches 2**63; this version detects that in
exact Python integers and falls back to lexicographic factorization,
which orders groups identically (mixed-radix mixing of per-column ranks
*is* the lexicographic order) at the cost of one ``lexsort``;
:func:`sorted_pairs`, the narrow ``major * card + minor`` sort behind
COUNT(DISTINCT) and the left-table join's left-major order. And the
kernels dense integer keys unlock: :func:`dense_span`, the one test of
"dense" (the join picks its probe with it; a dense build side with
unique keys is its own slot table and sorts nothing), :func:`stable_order`,
the radix build order behind :meth:`KeyCache.sort_order` misses, and
:func:`factorize`, the presence-table ``np.unique`` behind every
group-by, DISTINCT, run-level and Grace factorization and behind
:meth:`KeyCache.factorize` misses — so what a cache hit saves on dense
keys is an O(n) pass, no longer a sort.
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import Future

import numpy as np

from repro.obs.metrics import HitMissStats

__all__ = [
    "KeyCache", "combine_codes", "dense_span", "factorize", "fits_direct", "key_cache",
    "sorted_pairs", "stable_order",
]

_INT32_LIMIT = 2**31
_INT64_LIMIT = 2**63
# Integer keys are dense when they span at most this many values per
# row. Set by footprint, not tuned: a direct-address table of <= 2x rows
# is no larger than the order + sorted-keys + lo + hi arrays the
# sort-based join kernel allocates for the same rows.
_DENSE_FACTOR = 2
_PER_ARRAY = 8  # results a KeyCache keeps per array, oldest dropped first


def combine_codes(code_arrays: "list[np.ndarray]", cards: "list[int]") -> np.ndarray:
    """Mix per-column factorization codes into one int64 key per row.

    ``code_arrays[i]`` holds dense codes in ``[0, cards[i])`` for column
    ``i``. The combined key preserves lexicographic order of the code
    tuples (most-significant column first), so ``np.unique`` over it
    yields groups in the same order either path produces.
    """
    if not code_arrays:
        raise ValueError("need at least one code array")
    if len(code_arrays) == 1:
        return np.asarray(code_arrays[0], dtype=np.int64)
    product = 1
    for card in cards:
        product *= max(1, int(card))
    if product < _INT64_LIMIT:
        combined = np.zeros(len(code_arrays[0]), dtype=np.int64)
        for codes, card in zip(code_arrays, cards):
            combined = combined * np.int64(max(1, int(card))) + codes
        return combined
    return _lexicographic_codes(code_arrays)


def dense_span(keys: np.ndarray, rows: int) -> "tuple[int, int] | None":
    """``(base, span)`` when signed-integer ``keys`` all lie within the
    ``span`` consecutive values from ``base`` and ``span`` is at most
    ``_DENSE_FACTOR * rows`` (the rows a direct-address table over that
    range would serve); ``None`` otherwise. Computed in exact Python
    ints, so a range wider than the dtype cannot wrap into looking dense."""
    if keys.dtype.kind != "i" or len(keys) == 0:
        return None
    base = int(keys.min())
    span = int(keys.max()) - base + 1
    return (base, span) if fits_direct(span, rows) else None


def fits_direct(span: int, rows: int) -> bool:
    """Whether a direct-address table of ``span`` slots is small enough to
    serve ``rows`` rows: the footprint rule behind :func:`dense_span`, and
    behind a group-by whose key tuples address their slots directly."""
    return span <= _DENSE_FACTOR * rows


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, computed as least-significant-
    first 16-bit digit passes when integer keys are dense in their own
    length: numpy's stable sort of <= 16-bit keys is an O(n) radix sort,
    of wider keys an O(n log n) merge sort. Everything else is the numpy
    call itself — floats, strings, sparse or empty keys, and presorted
    keys, whose merge sort is one O(n) scan the digit passes cannot beat."""
    dense = dense_span(keys, len(keys))
    if dense is None or bool((keys[1:] >= keys[:-1]).all()):
        return np.argsort(keys, kind="stable")
    base, span = dense
    digits = np.subtract(keys, base, dtype=np.int64)  # in [0, span): no wrap
    order = np.argsort((digits & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while span >> shift:
        digit = (digits[order] >> shift) & 0xFFFF
        order = order[np.argsort(digit.astype(np.uint16), kind="stable")]
        shift += 16
    return order


def sorted_pairs(major: np.ndarray, minor: np.ndarray, n_major: int, card: int) -> np.ndarray:
    """``major * card + minor`` per row, sorted: one code per ``(major,
    minor)`` pair with ``0 <= major < n_major`` and ``0 <= minor < card``,
    in pair order, major first. Built and sorted in place, int32 when
    ``n_major * card`` fits it and int64 otherwise; the caller keeps that
    product below ``_INT64_LIMIT``. Sorting the narrow codes once beats a
    stable sort by ``major`` (whose radix passes double past 2**16 values)
    and a gather of ``minor`` through its order."""
    pairs = major.astype(np.int32 if n_major * card < _INT32_LIMIT else np.int64)
    pairs *= card
    pairs += minor
    pairs.sort()
    return pairs


def factorize(keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``np.unique(keys, return_inverse=True)`` with int64 codes, computed
    without sorting when integer keys are dense in their own length: mark
    a presence table over ``[base, base + span)``, prefix-sum it into the
    value -> rank remap, and read both results off it. Everything else
    is the numpy call itself — floats, strings, sparse, unsigned or empty
    keys."""
    dense = dense_span(keys, len(keys))
    if dense is None:
        uniques, codes = np.unique(keys, return_inverse=True)
        return uniques, codes.astype(np.int64, copy=False).reshape(keys.shape)
    base, span = dense
    offsets = np.subtract(keys, base, dtype=np.int64)  # in [0, span): no wrap
    present = np.zeros(span, dtype=bool)
    present[offsets] = True
    remap = np.cumsum(present) - 1  # rank of each value among those present
    return (base + np.flatnonzero(present)).astype(keys.dtype), remap[offsets]


def _lexicographic_codes(code_arrays: "list[np.ndarray]") -> np.ndarray:
    """Dense per-row codes ranking rows by their code tuple
    (lexicographic, first array most significant). Overflow-proof: ranks
    are bounded by the row count, not the cardinality product."""
    n = len(code_arrays[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort(code_arrays[::-1])  # lexsort's last key is primary
    new_group = np.zeros(n, dtype=bool)
    new_group[0] = True
    for codes in code_arrays:
        in_order = codes[order]
        new_group[1:] |= in_order[1:] != in_order[:-1]
    ranks = np.cumsum(new_group) - 1
    combined = np.empty(n, dtype=np.int64)
    combined[order] = ranks
    return combined


class KeyCache:
    """Thread-safe memo of pure kernels over immutable arrays, keyed by
    array identity and dropped with the array (see module docstring)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[int, dict] = {}  # id(array) -> {key: result}
        self._pending: dict[tuple, Future] = {}  # (id(array), key) -> in-flight result
        self._stats = HitMissStats("engine.key_cache")

    @property
    def hits(self) -> int:
        return self._stats.hits

    @property
    def misses(self) -> int:
        return self._stats.misses

    def memo(self, array: np.ndarray, key, compute):
        """``compute(array)``, run once per array object and ``key``. A
        weakref finalizer drops the array's entries when it dies and no
        strong reference is held, so a recycled ``id`` cannot alias one.
        Each array keeps its ``_PER_ARRAY`` newest results; stored arrays
        are read-only. Racing callers of one ``(array, key)`` wait for the
        first one's result; callers of other pairs never wait on it."""
        ident = id(array)
        with self._lock:
            entries = self._entries.get(ident)
            if entries is None:
                entries = self._entries[ident] = {}
                weakref.finalize(array, self._entries.pop, ident, None)
            if key in entries:
                self._stats.hit()
                return entries[key]
            pending = self._pending.get((ident, key))
            computes = pending is None
            if computes:
                self._stats.miss()
                pending = self._pending[ident, key] = Future()
            else:
                self._stats.hit()
        if not computes:
            return pending.result()
        try:  # outside the lock: workers computing other pairs go on
            value = compute(array)
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            with self._lock:
                if len(entries) >= _PER_ARRAY:
                    del entries[next(iter(entries))]
                entries[key] = value
            pending.set_result(value)
            return value
        except BaseException as exc:
            pending.set_exception(exc)
            raise
        finally:
            with self._lock:
                del self._pending[ident, key]

    def factorize(self, array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`factorize` of ``array``, memoized."""
        return self.memo(array, "factorize", factorize)

    def sort_order(self, array: np.ndarray) -> np.ndarray:
        """:func:`stable_order` of ``array``, memoized (the build-side
        ordering a repeated hash-join probe reuses)."""
        return self.memo(array, "sort_order", stable_order)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._stats.reset_local()

    def stats(self) -> dict:
        """Deterministic (key-sorted) memo statistics."""
        with self._lock:
            return {
                "entries": sum(map(len, self._entries.values())),
                "hits": self._stats.hits,
                "misses": self._stats.misses,
            }


# The process-wide instance every executor shares.
key_cache = KeyCache()
