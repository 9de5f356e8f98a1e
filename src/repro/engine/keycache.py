"""Process-wide join-key factorization cache and key-combination helpers.

Joins and group-bys repeatedly factorize the same key arrays: every
execution of Q3 re-runs ``np.unique`` over ``orders.o_orderkey``, every
probe of a build side whose keys repeat re-sorts them. For
immutable tables (the engine's :class:`~repro.engine.table.Table` is
immutable, and unfiltered scans return the table-owned arrays zero-copy)
the factorization is a pure function of the backing array's identity, so
``(table id, column set, version)`` collapses to "the same ndarray
object" — which this cache keys on directly. Holding a strong reference
to the keyed array guarantees its ``id()`` cannot be recycled while the
entry lives, making identity checks sound.

The cache is process-wide and thread-safe (morsel workers share it), and
bounded both by entry count and by total cached bytes so transient
per-query arrays cannot pin unbounded memory. Eviction is FIFO — the
stable table-owned arrays that benefit re-enter on the next execution.

Also hosted here (shared by join, aggregate, and distinct):
:func:`combine_codes`, the overflow-safe mixed-radix code combiner. The
naive ``combined * card + codes`` scheme silently wraps int64 once the
product of key cardinalities reaches 2**63; this version detects that in
exact Python integers and falls back to lexicographic factorization,
which orders groups identically (mixed-radix mixing of per-column ranks
*is* the lexicographic order) at the cost of one ``lexsort``. And the
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

import numpy as np

from repro.obs.metrics import HitMissStats

__all__ = ["KeyCache", "combine_codes", "dense_span", "factorize", "key_cache", "stable_order"]

_INT64_LIMIT = 2**63
# Integer keys are dense when they span at most this many values per
# row. Set by footprint, not tuned: a direct-address table of <= 2x rows
# is no larger than the order + sorted-keys + lo + hi arrays the
# sort-based join kernel allocates for the same rows.
_DENSE_FACTOR = 2


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
    return (base, span) if span <= _DENSE_FACTOR * rows else None


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
    """Bounded, thread-safe cache of per-array factorizations and sort
    orders, keyed by array identity (see module docstring)."""

    def __init__(self, max_entries: int = 32, max_bytes: int = 256 * 1024 * 1024):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # key -> (source_array, cached_value); insertion order = FIFO age.
        self._entries: dict[tuple[str, int], tuple[np.ndarray, object]] = {}
        self._bytes = 0
        self._stats = HitMissStats("engine.key_cache")

    @property
    def hits(self) -> int:
        return self._stats.hits

    @property
    def misses(self) -> int:
        return self._stats.misses

    # -- internals -----------------------------------------------------

    @staticmethod
    def _payload_bytes(source: np.ndarray, value) -> int:
        total = source.nbytes
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, np.ndarray):
                total += part.nbytes
        return total

    def _lookup(self, kind: str, array: np.ndarray):
        key = (kind, id(array))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is array:
                self._stats.hit()
                return entry[1]
            self._stats.miss()
            return None

    def _store(self, kind: str, array: np.ndarray, value) -> None:
        size = self._payload_bytes(array, value)
        if size > self.max_bytes:
            return
        key = (kind, id(array))
        with self._lock:
            if key in self._entries:
                return
            while self._entries and (
                len(self._entries) >= self.max_entries
                or self._bytes + size > self.max_bytes
            ):
                old_key = next(iter(self._entries))
                old_source, old_value = self._entries.pop(old_key)
                self._bytes -= self._payload_bytes(old_source, old_value)
            self._entries[key] = (array, value)
            self._bytes += size

    # -- cached computations -------------------------------------------

    def factorize(self, array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`factorize` of ``array``, cached by array identity."""
        cached = self._lookup("factorize", array)
        if cached is not None:
            return cached
        value = factorize(array)
        self._store("factorize", array, value)
        return value

    def sort_order(self, array: np.ndarray) -> np.ndarray:
        """Stable argsort of ``array``, cached by array identity (the
        build-side ordering a repeated hash-join probe reuses)."""
        cached = self._lookup("sort_order", array)
        if cached is not None:
            return cached
        order = stable_order(array)
        self._store("sort_order", array, order)
        return order

    # -- management ----------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._stats.reset_local()

    def stats(self) -> dict:
        """Deterministic (key-sorted) cache statistics."""
        with self._lock:
            return {
                "bytes": self._bytes,
                "entries": len(self._entries),
                "hits": self._stats.hits,
                "misses": self._stats.misses,
            }


# The process-wide instance every executor shares.
key_cache = KeyCache()
