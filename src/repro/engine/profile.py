"""Hardware-independent work accounting.

Every operator records the work it performed in a :class:`WorkProfile`.
Profiles are deliberately hardware-free: they count bytes streamed
sequentially through memory, random (cache-unfriendly) accesses, scalar
arithmetic/comparison operations, and tuples processed. The
:mod:`repro.hardware` performance model later converts a profile into a
predicted runtime for a concrete platform, which is how this reproduction
substitutes for running on real Raspberry Pi / Xeon silicon.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import ClassVar

from repro.obs.trace import NULL_TRACER, OperatorSpanScope

__all__ = ["OperatorContext", "OperatorWork", "WORK_FIELDS", "WorkProfile"]


@dataclass
class OperatorWork:
    """Work performed by a single operator instance.

    Attributes:
        operator: operator class name, e.g. ``"hashjoin"``.
        seq_bytes: bytes streamed sequentially (scans, materializations).
        rand_accesses: random accesses (hash probes, gathers, dict lookups
            outside the streaming pattern).
        ops: scalar arithmetic / comparison / hash operations.
        tuples_in: input tuples consumed.
        tuples_out: output tuples produced.
        out_bytes: bytes materialized as output.
        skipped_bytes: bytes a zone-map-pruned scan proved it never had
            to stream (they cost zone-map probes instead of bandwidth).
        zone_probes: zone-map block probes performed.
        blocks_skipped: zone-map blocks proven empty and not streamed.
        blocks_scanned: zone-map blocks actually streamed.
        gather_bytes: bytes materialized through non-contiguous row ids
            by the operator that first reads them (priced as random
            access by the performance model).
        saved_bytes: bytes a late-materialized operator did NOT rewrite
            because it passed row ids downstream instead of a compact
            column copy.
        decoded_bytes: plain-domain bytes a compressed column actually
            materialized (whole-column or per-run decode); the bandwidth
            compressed execution exists to avoid.
        encoded_eval_rows: rows whose predicate evaluation ran directly
            on the encoded payload (packed dtype / dictionary mask)
            instead of on decoded int64/float64 arrays.
        runs_touched: encoded segments visited by encoded-domain kernels
            (RLE runs, FoR blocks, one per bit-packed array).
        spilled_bytes: bytes written to spill partition files by an
            out-of-core (Grace) join or aggregation; the performance
            model prices each spilled byte as one storage write plus one
            storage read (every partition written is read back once).
        spill_partitions: spill partition files written.
        respill_depth: recursive re-partition events (a partition that
            still exceeded the budget and was split again).
    """

    operator: str
    seq_bytes: float = 0.0
    rand_accesses: float = 0.0
    ops: float = 0.0
    tuples_in: float = 0.0
    tuples_out: float = 0.0
    out_bytes: float = 0.0
    skipped_bytes: float = 0.0
    zone_probes: float = 0.0
    blocks_skipped: float = 0.0
    blocks_scanned: float = 0.0
    gather_bytes: float = 0.0
    saved_bytes: float = 0.0
    decoded_bytes: float = 0.0
    encoded_eval_rows: float = 0.0
    runs_touched: float = 0.0
    spilled_bytes: float = 0.0
    spill_partitions: float = 0.0
    respill_depth: float = 0.0

    def scaled(self, factor: float) -> "OperatorWork":
        counters = {name: getattr(self, name) * factor for name in WORK_FIELDS}
        return OperatorWork(self.operator, **counters)

    def add(self, other: "OperatorWork") -> None:
        """Accumulate another instance's counts (morsel-fragment merge)."""
        mine, theirs = vars(self), vars(other)
        for name in WORK_FIELDS:
            mine[name] += theirs[name]

    def counters(self) -> dict[str, float]:
        """The counters that are not zero (what an operator span shows)."""
        return {name: getattr(self, name) for name in WORK_FIELDS if getattr(self, name)}


# Every OperatorWork counter, in field order: the one list behind
# ``scaled``, ``add``, span snapshots and WorkProfile's totals.
WORK_FIELDS = tuple(f.name for f in fields(OperatorWork) if f.name != "operator")


@dataclass
class WorkProfile:
    """Aggregate work profile of a query (or query fragment).

    The per-operator breakdown is kept so the performance model can apply
    operator-class-specific parallel efficiencies and cache residency.
    """

    operators: list[OperatorWork] = field(default_factory=list)

    # Guards concurrent operator-list mutation when morsel workers and the
    # main thread touch the same profile. A single class-level lock keeps
    # instances picklable/JSON-able; critical sections are two appends.
    _mutate_lock: ClassVar[threading.Lock] = threading.Lock()

    def new_operator(self, name: str) -> OperatorWork:
        work = OperatorWork(name)
        with WorkProfile._mutate_lock:
            self.operators.append(work)
        return work

    def absorb(self, other: "WorkProfile") -> None:
        """Thread-safely append another profile's operators to this one."""
        with WorkProfile._mutate_lock:
            self.operators.extend(other.operators)

    # Aggregate views ---------------------------------------------------

    def __getattr__(self, name: str) -> float:
        """Every OperatorWork counter, totalled over the operators."""
        if name in WORK_FIELDS:
            return sum(getattr(op, name) for op in self.operators)
        raise AttributeError(name)

    @property
    def tuples(self) -> float:
        return self.tuples_in

    @property
    def result_bytes(self) -> float:
        """Bytes of the final operator's output (what a distributed driver
        would ship over the network)."""
        if not self.operators:
            return 0.0
        return self.operators[-1].out_bytes

    def scaled(self, factor: float) -> "WorkProfile":
        """Scale all work counts by ``factor``.

        Used to extrapolate a profile measured at a small scale factor to
        the paper's nominal SF 1 / SF 10 (all TPC-H query work is linear
        in SF to first order — see DESIGN.md §5).
        """
        return WorkProfile([op.scaled(factor) for op in self.operators])

    def merged(self, other: "WorkProfile") -> "WorkProfile":
        return WorkProfile(list(self.operators) + list(other.operators))

    def summary(self) -> dict:
        return {
            "seq_bytes": self.seq_bytes,
            "rand_accesses": self.rand_accesses,
            "ops": self.ops,
            "tuples": self.tuples,
            "out_bytes": self.out_bytes,
            "n_operators": len(self.operators),
        }


class OperatorContext:
    """What the executor hands every operator: the profile it charges
    into, the operator currently charging, and (when tracing) that
    operator's span. A query's ``ExecContext`` and a morsel's
    ``MorselContext`` extend it, so one interpreter serves both."""

    rows = None  # scans cover the whole table unless a morsel bounds them

    def __init__(self, tracer, span, **span_attrs):
        self.profile = WorkProfile()
        self.work: OperatorWork | None = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Span bookkeeping exists only when tracing: the disabled hot
        # path pays a single ``is not None`` check per operator.
        self._ops = (
            OperatorSpanScope(self.tracer, span, **span_attrs)
            if self.tracer.enabled
            else None
        )

    def begin_operator(self, name: str) -> OperatorWork:
        """Open a new operator: append its work record to the profile
        and (when tracing) start its span, closing the previous one."""
        work = self.profile.new_operator(name)
        self.work = work
        if self._ops is not None:
            self._ops.begin(name, work)
        return work

    @property
    def op_span(self):
        """The currently open operator span (None when not tracing)."""
        return self._ops.open_span if self._ops is not None else None

    def close_op_span(self) -> None:
        if self._ops is not None:
            self._ops.close()
