"""Roofline performance model: WorkProfile × PlatformSpec → seconds.

This is the reproduction's substitute for running MonetDB on real
hardware (the paper's repro gate). Per operator, the model takes the
maximum of three resource times (they overlap on an out-of-order core):

* compute — counted scalar ops × an interpretation factor, divided by the
  platform's parallel integer throughput for the operator class;
* sequential memory — bytes streamed divided by the platform's bandwidth
  at the thread count (bandwidth saturates; SMT does not help it);
* random access — probes/gathers × DRAM latency, discounted when the
  working structure fits in LLC, divided by the achievable memory-level
  parallelism.

A per-operator dispatch overhead (MonetDB's interpreter) runs at
single-core speed. Global constants live in
:mod:`repro.hardware.calibration` and were fitted against the paper's
published Table II.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import OperatorWork, WorkProfile

from .calibration import (
    CalibrationConstants,
    DEFAULT_CONSTANTS,
    DEFAULT_PLATFORM_FACTORS,
)
from .platforms import PlatformSpec

__all__ = [
    "PerformanceModel",
    "RuntimeBreakdown",
    "measure_parallel_scaling",
]

# Parallel efficiency by operator class: scans split perfectly, hash
# builds and sorts serialize on shared structures.
_OPERATOR_PARALLEL_EFF = {
    "scan": 1.0,
    "filter": 0.95,
    "project": 0.95,
    "hashjoin": 0.75,
    "aggregate": 0.70,
    "sort": 0.55,
    "topk": 0.90,
    "distinct": 0.70,
    "unionall": 1.0,
    "limit": 1.0,
}


@dataclass
class RuntimeBreakdown:
    """Predicted runtime with its resource decomposition (seconds)."""

    total: float
    compute: float
    memory: float
    random: float
    dispatch: float
    # Storage I/O of out-of-core (Grace) operators: spilled bytes priced
    # at the platform-independent wimpy-storage bandwidths (one write +
    # one read-back per byte) plus per-partition-file overhead. Disk does
    # not overlap the roofline max — an SD card is nobody's fast path.
    spill: float = 0.0


def measure_parallel_scaling(
    db,
    plans,
    worker_counts=(1, 2, 4),
    repeats: int = 3,
    morsel_rows: int | None = None,
) -> list[tuple[int, float]]:
    """Measure the engine's real multi-worker speedup curve.

    Runs each plan through :class:`~repro.engine.Executor` at each
    worker count (result cache off, best-of-``repeats`` wall clock) and
    returns ``(workers, speedup)`` points: the geometric-mean speedup
    relative to the lowest count. A one-worker point is the serial
    engine itself (no morsel segments), so the curve measures what the
    morsel machinery buys over not using it. It measures this host's
    threads; the performance model prices a platform's cores
    analytically and never reads it.
    """
    import math

    from repro.engine import Executor
    from repro.engine.morsel import DEFAULT_MORSEL_ROWS

    worker_counts = sorted(set(int(w) for w in worker_counts))
    if not worker_counts or worker_counts[0] < 1:
        raise ValueError("worker counts must be positive")
    rows = morsel_rows or DEFAULT_MORSEL_ROWS
    best: dict[int, list[float]] = {w: [] for w in worker_counts}
    for plan in plans:
        for w in worker_counts:
            with Executor(db, workers=w, morsel_rows=rows) as ex:
                wall = min(ex.execute(plan).wall_seconds for _ in range(max(1, repeats)))
            best[w].append(max(wall, 1e-9))
    baseline = best[worker_counts[0]]
    points = []
    for w in worker_counts:
        ratios = [b / t for b, t in zip(baseline, best[w])]
        geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        points.append((w, geo))
    return points


class PerformanceModel:
    """Converts work profiles into predicted runtimes per platform."""

    def __init__(
        self,
        constants: CalibrationConstants | None = None,
        platform_factors: dict[str, float] | None = None,
    ):
        self.constants = constants or DEFAULT_CONSTANTS
        self.platform_factors = (
            platform_factors if platform_factors is not None else DEFAULT_PLATFORM_FACTORS
        )

    # ------------------------------------------------------------------

    def operator_time(
        self, op: OperatorWork, platform: PlatformSpec, threads: int
    ) -> tuple[float, float, float]:
        """(compute, sequential-memory, random-access) times for one
        operator at ``threads`` threads."""
        c = self.constants
        eff = _OPERATOR_PARALLEL_EFF.get(op.operator, 0.8)
        threads = min(threads, platform.db_parallel_cap)
        cores_used = min(threads, platform.total_cores)
        boost = c.smt_boost if (platform.smt > 1 and threads > platform.total_cores) else 1.0
        # Amdahl-limited compute scaling: one query does not keep 40
        # threads busy end to end.
        n_eff = max(1.0, cores_used * boost * eff * c.parallel_efficiency)
        f = c.serial_fraction
        speedup = 1.0 / (f + (1.0 - f) / n_eff)
        rate = platform.core_rate("int") * speedup
        # Zone-map probes are the compute price of data skipping: bytes a
        # scan proved skippable (op.skipped_bytes) never enter the memory
        # term, but each block consulted costs a few proxy ops here.
        # Encoded-domain evaluation trades decode bandwidth for narrow
        # compares: rows touched in the packed domain cost a fraction of
        # a counted op, plus a per-segment (run/block) dispatch charge.
        compute = (
            op.ops
            + op.zone_probes * c.zone_probe_ops
            + op.encoded_eval_rows * c.encoded_eval_op_fraction
            + op.runs_touched * c.run_eval_ops
        ) * c.cycles_per_op / rate

        # Memory bandwidth: hardware saturation curve, further limited by
        # the query's own streaming parallelism.
        fm = c.mem_serial_fraction
        mem_speedup = 1.0 / (fm + (1.0 - fm) / max(1.0, cores_used))
        bandwidth = min(
            platform.mem_bandwidth(threads),
            platform.mem_bw_1core_gbs * 1e9 * mem_speedup,
        )
        # Decoded buffers are produced and consumed cache-warm, so they
        # are discounted relative to cold streamed bytes; encoded-eval
        # paths that skip the decode simply never charge them.
        seq = (
            op.seq_bytes + op.out_bytes + op.decoded_bytes * c.decoded_byte_fraction
        ) * c.bytes_factor / bandwidth

        resident = op.out_bytes * c.working_set_factor <= platform.total_llc_bytes
        latency = platform.dram_latency_ns * 1e-9 * c.rand_latency_factor
        if resident:
            latency *= c.llc_resident_discount
        mlp = min(threads, platform.total_cores) * c.mlp_per_core
        # Deferred gathers (late materialization) are random by nature:
        # price each cache line of gathered payload as one access. The
        # bytes the selection vector *saved* (op.saved_bytes) never enter
        # the sequential term at all — that is the optimization.
        gather_accesses = op.gather_bytes / c.gather_line_bytes
        random = (op.rand_accesses + gather_accesses) * latency / max(1.0, mlp)
        return compute, seq, random

    def breakdown(
        self, profile: WorkProfile, platform: PlatformSpec, threads: int | None = None
    ) -> RuntimeBreakdown:
        """Predict a query runtime with its resource decomposition."""
        c = self.constants
        if threads is None:
            threads = platform.total_cores * platform.smt
        total = compute_sum = seq_sum = rand_sum = spill_sum = 0.0
        for op in profile.operators:
            compute, seq, random = self.operator_time(op, platform, threads)
            # Spill I/O is additive, not part of the roofline max: the
            # storage device is orders slower than DRAM, so writes and
            # read-backs serialize behind the in-memory work.
            spill = (
                op.spilled_bytes / (c.spill_write_gbs * 1e9)
                + op.spilled_bytes / (c.spill_read_gbs * 1e9)
                + op.spill_partitions * c.spill_partition_ops
                / platform.core_rate("int")
            )
            total += max(compute, seq, random) + spill
            compute_sum += compute
            seq_sum += seq
            rand_sum += random
            spill_sum += spill
        dispatch = len(profile.operators) * c.dispatch_ops / platform.core_rate("int")
        factor = self.platform_factors.get(platform.key, 1.0)
        return RuntimeBreakdown(
            total=(total + dispatch) * factor,
            compute=compute_sum * factor,
            memory=seq_sum * factor,
            random=rand_sum * factor,
            dispatch=dispatch * factor,
            spill=spill_sum * factor,
        )

    def predict(
        self, profile: WorkProfile, platform: PlatformSpec, threads: int | None = None
    ) -> float:
        """Predicted runtime in seconds for ``profile`` on ``platform``."""
        return self.breakdown(profile, platform, threads).total
