"""Out-of-core execution: memory budgets and Grace spill-to-disk.

The paper's wimpy nodes live on the edge of a memory-capacity cliff:
Table III *models* SF10+ but the engine could not *execute* it, because
every hash join and grouped aggregation assumed its build state fits in
RAM. This module removes that assumption with the classic Grace
recipe — hash-partition both inputs to disk, then solve each partition
independently — pinned to a :class:`MemoryBudget` that all operators of
one query (including morsel workers and the parallel merge phase) share.

Dispatch is a three-way split per operator on the state it would hold —
for a join the hash table of its *build side*: the right input (the
planner's convention) if it fits, else the smaller (:func:`choose_build_side`;
the charge and the work profile follow that choice, the rows never do):

* estimate fits the budget → run the ordinary in-memory operator under
  :meth:`MemoryBudget.charge` (the state really is resident);
* estimate exceeds the budget and spilling is enabled → Grace: partition
  the inputs by a depth-salted hash of the join/group keys into spill
  files (integer payloads re-use the column codecs; floats and validity
  masks stay raw because the fixed-point codec is only almost-exact),
  then recurse into any partition that still exceeds the budget;
* spilling disabled → raise :class:`MemoryBudgetExceeded`, the modeled
  "wimpy node OOM" the serve layer used to have to shed.

Joins and grouped aggregates share that dispatch (``_out_of_core``) and
one recursion (``_grace``) over a tuple of inputs — ``(left, right)`` or
``(frame,)``. Each operator supplies only what differs: its state
estimate and the choice it implies (the build side, or none), the input
that must shrink, its partition keys, its in-memory kernel and refusal
message, and its order restoration. Every scatter is
:meth:`Frame.partition`, the stable one the cluster's shards use too.

Recursion terminates unconditionally: a partition re-partitions only
while it (of a join pair, the build input) is strictly smaller than its
parent (adversarial single-key skew makes no progress and executes in
memory — always correct, merely over budget), never beyond :data:`MAX_SPILL_DEPTH`.

Bit-identity with the in-memory operators is engineered, not hoped for:

* join outputs carry a transient left row-id column and are restored to
  the exact serial emission order ((left row, right row) ascending, outer
  misses last, semi/anti by left row) before it is dropped. One stable
  sort on it suffices: a left row lives in exactly one partition, whose
  output already has that order (left outer joins also carry a right
  row-id, whose NULLs mark the misses to move last);
* all rows of one group land in one partition in their original
  relative order (stable partition sort), so ``np.bincount`` float
  accumulation order — and therefore the last ulp of every SUM/AVG —
  matches the serial kernel exactly;
* spilled string columns re-attach the *same* dictionary object on read
  (:class:`SpillSet` keeps an identity registry), so dictionary-code
  collation and ``Column.concat``'s shared-dictionary fast path behave
  as if the frame had never left memory;
* integer codecs are verified round-trip at write time and fall back to
  raw storage on any mismatch.

Temp files live in a per-operator :class:`SpillSet` directory removed in
a ``finally`` — fault injection (:class:`SpillFaultPlan`, following the
``cluster/faults.py`` idiom) and cooperative cancellation both leave no
orphans behind.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import metrics
from repro.obs.trace import note

from .column import Column
from .compression import ALL_ENCODINGS, rank_encodings
from .frame import Frame
from .keycache import stable_order
from .operators.aggregate import _combined_codes, execute_aggregate
from .operators.join import _combine_keys, _encode_key_pair, _stack, execute_join
from .types import BOOL, DATE, FLOAT64, INT64, STRING

__all__ = [
    "MAX_SPILL_DEPTH",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "SpillCorrupt",
    "SpillDiskFull",
    "SpillError",
    "SpillFaultPlan",
    "SpillFile",
    "SpillSet",
    "aggregate_estimate",
    "choose_build_side",
    "choose_partitions",
    "join_build_estimate",
    "maybe_spill_aggregate",
    "maybe_spill_join",
]

# Deepest recursive re-partition level. Level 0 is the first partition
# pass; a partition at level MAX_SPILL_DEPTH - 1 that still exceeds the
# budget executes in memory instead of splitting again.
MAX_SPILL_DEPTH = 4

# Fan-out bounds: wide at the first level (one pass should usually be
# enough), narrow when recursing (each level multiplies the file count).
MAX_FANOUT = 64
MAX_RECURSIVE_FANOUT = 4

# No point cutting partitions below this many rows — the per-file
# constant costs would dominate the memory saved.
MIN_PARTITION_ROWS = 4096

# Bytes of hash-table state (key + bucket pointer) per build-side row,
# matching the join operator's resident working-set charge.
HASH_ENTRY_BYTES = 16

_MAGIC = b"RSPL"
_HEADER = struct.Struct("<Q")

_LROW = "__spill_lrow__"
_RROW = "__spill_rrow__"

_DTYPES = {t.name: t for t in (INT64, FLOAT64, DATE, STRING, BOOL)}
_ENCODINGS_BY_NAME = {e.name: e for e in ALL_ENCODINGS}

_partitions_counter = metrics.counter("spill.partitions")
_bytes_written_counter = metrics.counter("spill.bytes_written")
_bytes_read_counter = metrics.counter("spill.bytes_read")
_respills_counter = metrics.counter("spill.respills")
_operators_counter = metrics.counter("spill.operators")
_errors_counter = metrics.counter("spill.errors")
_cleanups_counter = metrics.counter("spill.cleanups")


class SpillError(RuntimeError):
    """Base for spill I/O failures. Spill reads and writes either succeed
    or raise one of these — never a silent wrong answer."""


class SpillDiskFull(SpillError):
    """The spill device ran out of space (or refused the write)."""


class SpillCorrupt(SpillError):
    """A spill partition file is truncated or fails to decode."""


class MemoryBudgetExceeded(RuntimeError):
    """An operator's state would exceed the memory budget and spilling is
    disabled — the modeled wimpy-node OOM."""


@dataclass(frozen=True)
class SpillFaultPlan:
    """Deterministic fault injection for spill I/O, following the
    ``cluster/faults.py`` idiom: a frozen value object the writer
    consults, never wall-clock or randomness at injection time.

    Attributes:
        disk_full_after_bytes: writes that would push the budget's total
            spilled bytes past this raise :class:`SpillDiskFull` (the
            SD card filled up).
        truncate_file: the Nth spill file written through the budget
            (0-based) is written with half its payload missing, so the
            reader must detect the truncation and raise
            :class:`SpillCorrupt`.
    """

    disk_full_after_bytes: int | None = None
    truncate_file: int | None = None

    def __post_init__(self):
        if self.disk_full_after_bytes is not None and self.disk_full_after_bytes < 0:
            raise ValueError("disk_full_after_bytes must be non-negative")
        if self.truncate_file is not None and self.truncate_file < 0:
            raise ValueError("truncate_file must be non-negative")


class MemoryBudget:
    """Thread-safe tracker of one query's operator-state memory.

    ``limit_bytes=None`` means unlimited (every operator runs in memory
    and nothing here costs more than a lock). With a limit, in-memory
    operators :meth:`charge` their estimated state while they run and the
    Grace paths consult :meth:`available` to size partition fan-out.

    Admission is optimistic: reservations serialize through the lock,
    but concurrent ``available()`` checks may overlap, so morsel workers
    can transiently overcommit by at most one morsel's state each — the
    budget is a modeled constraint, not an allocator.

    Attributes:
        limit_bytes: the budget, or ``None`` for unlimited.
        spill_dir: base directory for spill files (``None`` = system tmp).
        faults: optional :class:`SpillFaultPlan` injected into writes.
    """

    def __init__(
        self,
        limit_bytes: int | None = None,
        spill_dir: str | None = None,
        faults: SpillFaultPlan | None = None,
    ):
        if limit_bytes is not None and limit_bytes < 0:
            raise ValueError("limit_bytes must be non-negative")
        self.limit_bytes = None if limit_bytes is None else int(limit_bytes)
        self.spill_dir = spill_dir
        self.faults = faults
        self._lock = threading.Lock()
        self._used = 0.0
        self._peak = 0.0
        self._spilled = 0
        self._file_counter = 0

    @property
    def used_bytes(self) -> float:
        with self._lock:
            return self._used

    @property
    def peak_bytes(self) -> float:
        with self._lock:
            return self._peak

    @property
    def spilled_bytes(self) -> int:
        with self._lock:
            return self._spilled

    def available(self) -> float:
        """Bytes still unreserved (``inf`` when unlimited; can go
        negative under transient overcommit)."""
        if self.limit_bytes is None:
            return float("inf")
        with self._lock:
            return self.limit_bytes - self._used

    def reserve(self, nbytes: float) -> None:
        with self._lock:
            self._used += nbytes
            if self._used > self._peak:
                self._peak = self._used

    def release(self, nbytes: float) -> None:
        with self._lock:
            self._used = max(0.0, self._used - nbytes)

    @contextmanager
    def charge(self, nbytes: float):
        """Reserve ``nbytes`` for the duration of the block."""
        self.reserve(nbytes)
        try:
            yield
        finally:
            self.release(nbytes)

    def next_file_index(self) -> int:
        """Query-global spill-file ordinal (fault plans index by it)."""
        with self._lock:
            index = self._file_counter
            self._file_counter += 1
            return index

    def record_spill(self, nbytes: int) -> None:
        with self._lock:
            self._spilled += int(nbytes)


# ----------------------------------------------------------------------
# Spill files
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpillFile:
    """Handle to one written partition."""

    path: str
    nrows: int
    nbytes: int


def _encode_values(values: np.ndarray):
    """Pick the smallest column codec for an integer-kind value array,
    *verified* to round-trip bit-identically; everything else (floats,
    bools) stays raw — the fixed-point float codec is only
    ``allclose``-exact, which is not good enough for spill files."""
    if values.dtype.kind != "i":
        return ("raw", values)
    v = np.ascontiguousarray(values).astype(np.int64, copy=False)
    for _, size, encoding in rank_encodings(v, ALL_ENCODINGS):  # smallest first
        if size >= v.nbytes:
            break
        try:
            payload = encoding.encode(v)
            if encoding.encoded_nbytes(payload) == size and np.array_equal(
                encoding.decode(payload, len(v), np.dtype(np.int64)), v
            ):
                return ("codec", encoding.name, payload, len(v))
        except Exception:
            continue
    return ("raw", values)


def _decode_values(payload) -> np.ndarray:
    kind = payload[0]
    if kind == "raw":
        return payload[1]
    if kind == "codec":
        _, name, encoded, n = payload
        return _ENCODINGS_BY_NAME[name].decode(encoded, n, np.dtype(np.int64))
    raise ValueError(f"unknown spill value payload kind {kind!r}")


class SpillSet:
    """One operator's spill files: a private temp directory, a
    dictionary-identity registry (so read-back string columns reattach
    the *same* dictionary object they were written with), and a
    ``cleanup()`` the owner calls in ``finally``."""

    def __init__(self, budget: MemoryBudget | None = None):
        base = budget.spill_dir if budget is not None else None
        self.directory = tempfile.mkdtemp(prefix="repro-spill-", dir=base)
        self._budget = budget
        self._dictionaries: dict[int, np.ndarray] = {}
        self._counter = 0
        self._closed = False

    def write_frame(self, frame: Frame, ctx=None) -> SpillFile:
        """Serialize one frame to a new spill file.

        Raises :class:`SpillDiskFull` on write failure (real or
        injected); charges ``spilled_bytes``/``spill_partitions`` to the
        operator's work profile.
        """
        work = getattr(ctx, "work", None)
        frame = frame.dense(work)
        specs = []
        for name, column in frame.columns.items():
            dict_key = None
            if column.dictionary is not None:
                dict_key = id(column.dictionary)
                self._dictionaries[dict_key] = column.dictionary
            valid = None
            if column.valid is not None:
                valid = np.asarray(column.valid, dtype=np.bool_)
            specs.append(
                (name, column.dtype.name, _encode_values(column.values), dict_key, valid)
            )
        blob = pickle.dumps(
            {"nrows": frame.nrows, "columns": specs},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        budget = self._budget
        index = 0 if budget is None else budget.next_file_index()
        faults = budget.faults if budget is not None else None
        if (
            faults is not None
            and faults.disk_full_after_bytes is not None
            and budget.spilled_bytes + len(blob) > faults.disk_full_after_bytes
        ):
            _errors_counter.inc()
            raise SpillDiskFull(
                f"spill device full: partition {index} needs {len(blob)} bytes "
                f"past the {faults.disk_full_after_bytes}-byte capacity"
            )
        payload = blob
        if faults is not None and faults.truncate_file == index:
            payload = blob[: len(blob) // 2]
        path = os.path.join(
            self.directory, f"part-{index:06d}-{self._counter:06d}.spill"
        )
        self._counter += 1
        try:
            with open(path, "wb") as f:
                f.write(_MAGIC + _HEADER.pack(len(blob)) + payload)
        except OSError as exc:
            _errors_counter.inc()
            raise SpillDiskFull(f"spill write to {path!r} failed: {exc}") from exc
        if budget is not None:
            budget.record_spill(len(blob))
        if work is not None:
            work.spilled_bytes += len(blob)
            work.spill_partitions += 1
        _partitions_counter.inc()
        _bytes_written_counter.inc(len(blob))
        return SpillFile(path, frame.nrows, len(blob))

    def read_frame(self, ref: SpillFile, ctx=None) -> Frame:
        """Read one partition back, bit-identical to what was written.

        Any failure — unreadable file, truncation, undecodable payload,
        length mismatch — raises a typed :class:`SpillError`; a corrupt
        partition can never become a silent wrong answer.
        """
        try:
            with open(ref.path, "rb") as f:
                raw = f.read()
        except OSError as exc:
            _errors_counter.inc()
            raise SpillError(
                f"cannot read spill partition {ref.path!r}: {exc}"
            ) from exc
        if len(raw) < 4 + _HEADER.size or raw[:4] != _MAGIC:
            _errors_counter.inc()
            raise SpillCorrupt(f"spill partition {ref.path!r} is missing its header")
        (expected,) = _HEADER.unpack(raw[4 : 4 + _HEADER.size])
        body = raw[4 + _HEADER.size :]
        if len(body) != expected:
            _errors_counter.inc()
            raise SpillCorrupt(
                f"spill partition {ref.path!r} is truncated "
                f"({len(body)} of {expected} payload bytes)"
            )
        try:
            doc = pickle.loads(body)
            nrows = doc["nrows"]
            columns: dict[str, Column] = {}
            for name, dtype_name, payload, dict_key, valid in doc["columns"]:
                dtype = _DTYPES[dtype_name]
                values = _decode_values(payload).astype(dtype.numpy_dtype, copy=False)
                dictionary = None
                if dict_key is not None:
                    dictionary = self._dictionaries[dict_key]
                if len(values) != nrows or (valid is not None and len(valid) != nrows):
                    raise ValueError(f"column {name!r} length mismatch")
                columns[name] = Column(dtype, values, dictionary=dictionary, valid=valid)
            frame = Frame(columns, nrows)
        except Exception as exc:
            _errors_counter.inc()
            raise SpillCorrupt(
                f"spill partition {ref.path!r} failed to decode: {exc}"
            ) from exc
        _bytes_read_counter.inc(ref.nbytes)
        return frame

    def cleanup(self) -> None:
        """Remove every spill file and the directory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        shutil.rmtree(self.directory, ignore_errors=True)
        _cleanups_counter.inc()


# ----------------------------------------------------------------------
# Hash partitioning
# ----------------------------------------------------------------------

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = 0x9E3779B97F4A7C15


def _to_uint64(values: np.ndarray) -> np.ndarray:
    """View key values as uint64 hash input. Floats normalize -0.0 to
    +0.0 and canonicalize every NaN payload to one bit pattern first,
    because the in-memory join's ``searchsorted`` matching treats all
    NaNs (and both zeros) as equal — partitioning must agree."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        v = values.astype(np.float64, copy=True)
        v[v == 0.0] = 0.0
        nan = np.isnan(v)
        if nan.any():
            v[nan] = np.nan
        return v.view(np.uint64)
    if values.dtype.kind == "b":
        return values.astype(np.uint64)
    return np.ascontiguousarray(values.astype(np.int64, copy=False)).view(np.uint64)


def _partition_ids(keys: np.ndarray, n_partitions: int, depth: int) -> np.ndarray:
    """splitmix64-style finalizer over depth-salted keys; the salt makes
    every recursion level an independent hash function, so a partition
    that was 1/P of its parent splits again instead of collapsing into
    one child."""
    seed = np.uint64(((2 * depth + 1) * _GOLDEN) & 0xFFFFFFFFFFFFFFFF)
    z = keys + seed
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(32)) % np.uint64(n_partitions)).astype(np.int64)


def _pow2_ceil(n: int) -> int:
    p = 2
    while p < n:
        p *= 2
    return p


def choose_partitions(
    estimate: float, available: float, nrows: int, depth: int
) -> int:
    """Partition fan-out: enough that each child *should* fit the
    available budget, capped by level and by useful partition size."""
    cap = MAX_FANOUT if depth == 0 else MAX_RECURSIVE_FANOUT
    cap = min(cap, _pow2_ceil(max(2, -(-nrows // MIN_PARTITION_ROWS))))
    want = _pow2_ceil(max(2, int(np.ceil(estimate / max(1.0, float(available))))))
    return int(max(2, min(want, cap)))


# ----------------------------------------------------------------------
# State estimates
# ----------------------------------------------------------------------


def hash_build_bytes(nbytes, nrows):
    """Resident state of a hash table over ``nrows`` rows holding
    ``nbytes`` of values: the values plus a hash entry per row."""
    return nbytes + nrows * HASH_ENTRY_BYTES


def group_state_bytes(nrows, n_keys, n_aggs):
    """Upper bound on grouped-aggregation state over ``nrows`` rows:
    worst case every row is its own group, each holding its keys and
    accumulators."""
    return nrows * (8 * (n_keys + max(1, n_aggs)) + HASH_ENTRY_BYTES)


def join_build_estimate(right: Frame) -> int:
    """Resident state of an in-memory hash join built over ``right``."""
    return int(hash_build_bytes(right.nbytes, right.nrows))


def choose_build_side(left_estimate, right_estimate, limit) -> tuple[str, float]:
    """``(side, estimate)`` of the input a budgeted hash join builds over:
    the right one (the planner's convention) whenever it fits ``limit``,
    else whichever is smaller (ties stay right). The one rule dispatch,
    Grace recursion and EXPLAIN's dry run share."""
    if right_estimate <= limit or right_estimate <= left_estimate:
        return "right", right_estimate
    return "left", left_estimate


def _build_side(left: Frame, right: Frame, available: float) -> tuple[str, float]:
    return choose_build_side(
        join_build_estimate(left), join_build_estimate(right), available
    )


def aggregate_estimate(frame: Frame, group_by, aggs) -> int:
    """Grouped-aggregation state bound of ``frame`` (:func:`group_state_bytes`)."""
    return int(group_state_bytes(frame.nrows, len(group_by), len(aggs)))


def _check_cancel(ctx) -> None:
    cancel = getattr(ctx, "cancel", None)
    if cancel is not None:
        cancel.check()


# ----------------------------------------------------------------------
# The two operators, as the Grace recursion sees them
# ----------------------------------------------------------------------


class _HashJoin:
    """Inputs ``(left, right)``; the choice is the build side, which is
    also the input that must shrink; transient row-ids restore the
    serial emission order."""

    name = "join"

    def __init__(self, left_on, right_on, how):
        self.left_on, self.right_on, self.how = list(left_on), list(right_on), how

    def plan(self, inputs, available) -> tuple[str, float]:
        return _build_side(*inputs, available)

    def pivot(self, side) -> int:
        return 0 if side == "left" else 1

    def keys(self, inputs, ctx):
        """Hashable key arrays for both sides, encoded *jointly* (the same
        shared-dictionary / union-remap paths the join itself uses), so
        equal keys land in the same partition by construction."""
        left, right = inputs
        left_cols = [left.column(n) for n in self.left_on]
        right_cols = [right.column(n) for n in self.right_on]
        if len(left_cols) == 1:
            lk, rk = _encode_key_pair(left_cols[0], right_cols[0], ctx)
        else:
            both = _combine_keys(
                [_stack(lc, rc, ctx) for lc, rc in zip(left_cols, right_cols)]
            )
            lk, rk = both[: left.nrows], both[left.nrows :]
        return _to_uint64(lk), _to_uint64(rk)

    def run(self, inputs, ctx, side="right") -> Frame:
        return execute_join(*inputs, self.left_on, self.right_on, self.how, ctx, build=side)

    def refusal(self, inputs, side, estimate) -> str:
        left, right = (join_build_estimate(frame) for frame in inputs)
        return (f"hash join build side needs ~{estimate:,} bytes (the {side} input; "
                f"left ~{left:,}, right ~{right:,})")

    def tag(self, inputs):
        def row_ids(frame, name):
            ids = np.arange(frame.nrows, dtype=np.int64)
            return frame.with_columns({name: Column(INT64, ids)})

        left, right = inputs
        if self.how == "left":  # its validity mask is what marks the outer misses
            right = row_ids(right, _RROW)
        return row_ids(left, _LROW), right

    def restore(self, out: Frame, ctx) -> Frame:
        """Reorder the concatenated partition outputs into the serial
        join's emission order — match pairs ascending in (left row, right
        row), outer misses last by left row, semi/anti by left row — and
        drop the transient row-id columns."""
        order = stable_order(out.column(_LROW).values)  # see the module docstring
        if self.how == "left" and out.column(_RROW).valid is not None:  # misses last
            matched = out.column(_RROW).valid[order]
            order = np.concatenate([order[matched], order[~matched]])
        out = out.take(order)
        ctx.work.ops += out.nrows  # the restoration sort
        kept = {n: c for n, c in out.columns.items() if n not in (_LROW, _RROW)}
        return Frame(kept, out.nrows)


def _group_partition_keys(frame: Frame, group_by) -> np.ndarray:
    """Combined per-row group codes for partitioning. Uses the aggregate
    operator's own ``_combined_codes`` (NULL is its own group, code 0), so a
    group can never straddle partitions — not ``_combine_keys``, which
    ignores validity masks."""
    return _to_uint64(_combined_codes(frame, group_by)[0])


class _GroupedAggregate:
    """Input ``(frame,)``; no choice to make; re-sorting by the group keys
    restores the serial group order."""

    name = "aggregate"

    def __init__(self, group_by, aggs):
        self.group_by, self.aggs = list(group_by), dict(aggs)

    def plan(self, inputs, available) -> tuple[None, int]:
        return None, aggregate_estimate(inputs[0], self.group_by, self.aggs)

    def pivot(self, choice) -> int:
        return 0

    def keys(self, inputs, ctx):
        return (_group_partition_keys(inputs[0], self.group_by),)

    def run(self, inputs, ctx, choice=None) -> Frame:
        return execute_aggregate(inputs[0], self.group_by, self.aggs, ctx)

    def refusal(self, inputs, choice, estimate) -> str:
        return f"grouped aggregation needs ~{estimate:,} bytes"

    def tag(self, inputs):
        return inputs

    def restore(self, out: Frame, ctx) -> Frame:
        if out.nrows > 1:
            # Every group appears exactly once, so re-ranking the output
            # keys (same per-column NULL-first collation as the serial
            # factorization) and sorting reproduces `np.unique`'s
            # ascending combined-code order.
            order = np.argsort(_combined_codes(out, self.group_by)[0], kind="stable")
            out = out.take(order)
            ctx.work.ops += out.nrows
        return out


# ----------------------------------------------------------------------
# Dispatch and the Grace recursion
# ----------------------------------------------------------------------


def maybe_spill_join(left, right, left_on, right_on, how, ctx) -> Frame:
    """Budget-aware join dispatch (see module docstring for the
    three-way split). Without a budget this is exactly ``execute_join``."""
    return _out_of_core(_HashJoin(left_on, right_on, how), (left, right), ctx)


def maybe_spill_aggregate(frame, group_by, aggs, ctx) -> Frame:
    """Budget-aware aggregation dispatch. Global aggregates (no group
    keys) carry O(1) state and never spill."""
    op = _GroupedAggregate(group_by, aggs)
    return _out_of_core(op, (frame,), ctx) if op.group_by else op.run((frame,), ctx)


def _out_of_core(op, inputs, ctx) -> Frame:
    """The module docstring's three-way split for either operator; the
    Grace branch densifies and tags the inputs, runs :func:`_grace` in
    one :class:`SpillSet`, and restores the serial order."""
    budget = getattr(ctx, "budget", None)
    if budget is None or budget.limit_bytes is None:
        return op.run(inputs, ctx)
    available = budget.available()
    choice, estimate = op.plan(inputs, available)
    if estimate <= available:
        with budget.charge(estimate):
            return op.run(inputs, ctx, choice)
    if not getattr(ctx, "spilling", True):
        raise MemoryBudgetExceeded(
            f"{op.refusal(inputs, choice, estimate)} but only "
            f"{max(0, int(available)):,} of the {budget.limit_bytes:,}-byte "
            f"memory budget are free, and spilling is disabled"
        )
    work = ctx.work
    bytes0, depth0 = work.spilled_bytes, work.respill_depth
    inputs = op.tag([frame.dense(work) for frame in inputs])
    _operators_counter.inc()
    plan = op.plan(inputs, budget.available())
    spills = SpillSet(budget)
    try:
        out = _grace(op, inputs, plan, ctx, spills, 0)
    finally:
        spills.cleanup()
    out = op.restore(out, ctx)
    build = {} if plan[0] is None else {"build": plan[0]}
    note(ctx, spill=f"grace-{op.name}", **build, spilled_bytes=work.spilled_bytes - bytes0,
         respills=work.respill_depth - depth0)
    return out


def _grace(op, inputs, plan, ctx, spills, depth) -> Frame:
    """One partition pass: scatter every input by a depth-salted hash of
    its keys, write the parts, then solve each loaded tuple of parts —
    in memory under :meth:`MemoryBudget.charge`, or by another pass while
    its pivot input still shrinks. ``plan`` is the caller's ``(choice,
    estimate)`` for ``inputs``; every loaded tuple decides again."""
    from .merge import concat_frames  # local: merge imports this module

    budget = ctx.budget
    n_parts = choose_partitions(
        plan[1], budget.available(), max(frame.nrows for frame in inputs), depth
    )
    pids = [_partition_ids(keys, n_parts, depth) for keys in op.keys(inputs, ctx)]
    ctx.work.ops += sum(frame.nrows for frame in inputs)  # hash + scatter
    ctx.work.seq_bytes += sum(frame.nbytes for frame in inputs)  # one streaming pass
    parents = [frame.nrows for frame in inputs]
    refs = []
    for parts in zip(*[frame.partition(p, n_parts) for frame, p in zip(inputs, pids)]):
        _check_cancel(ctx)
        refs.append([spills.write_frame(p, ctx) if p.nrows else p for p in parts])
    del inputs  # partitions now live on disk

    outputs = []
    for group in refs:
        _check_cancel(ctx)
        parts = [
            spills.read_frame(ref, ctx) if isinstance(ref, SpillFile) else ref
            for ref in group
        ]
        child = choice, estimate = op.plan(parts, budget.available())
        pivot = op.pivot(choice)
        if (
            estimate > budget.available()
            and depth + 1 < MAX_SPILL_DEPTH
            and 0 < parts[pivot].nrows < parents[pivot]
        ):
            ctx.work.respill_depth += 1
            _respills_counter.inc()
            outputs.append(_grace(op, parts, child, ctx, spills, depth + 1))
        else:
            with budget.charge(estimate):
                # Dense inside the charge: a loaded partition must not
                # outlive it, and the gather is charged here.
                outputs.append(op.run(parts, ctx, choice).dense(ctx.work))
    return concat_frames(outputs)
