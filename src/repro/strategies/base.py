"""Query execution strategies (Fig. 4).

The paper hand-codes the 8 chokepoint queries in C under three execution
paradigms from Crotty et al.'s "Getting Swole" (ICDE 2020):

* **data-centric** — HyPer-style fused tuple-at-a-time pipelines: no
  intermediate materialization, but per-tuple control flow and
  data-dependent access patterns;
* **hybrid** — relaxed operator fusion (Menon et al.): vectors staged at
  pipeline breakers;
* **access-aware** — predicate pullup: extra memory accesses traded for
  consistent, prefetch/SIMD-friendly access patterns.

All three compute identical results; they differ in how the same logical
work maps onto hardware. We model each strategy as a transformation of
the engine's work profile (scalar-op, sequential-byte, and random-access
multipliers per the paradigm's access behaviour) evaluated single-threaded
with compiled-code constants (no DBMS dispatch), matching the paper's
single-threaded hand-coded C setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import OperatorWork, WorkProfile
from repro.hardware import CalibrationConstants
from repro.tpch import CHOKEPOINTS

__all__ = ["Strategy", "COMPILED_CONSTANTS", "STRATEGY_QUERIES"]

# The 8 queries of Fig. 4 (same chokepoint subset as SF 10).
STRATEGY_QUERIES = CHOKEPOINTS

# Hand-written compiled C: a few cycles per logical op, no interpreter
# dispatch, and no DBMS system overhead ("the median performance gap is
# now significantly reduced, due to the elimination of system-level
# overheads").
COMPILED_CONSTANTS = CalibrationConstants(
    cycles_per_op=6.0,
    bytes_factor=1.2,
    rand_latency_factor=0.3,
    dispatch_ops=2e4,
    serial_fraction=0.0,
    mem_serial_fraction=0.0,
)


@dataclass(frozen=True)
class Strategy:
    """One execution paradigm as a work-profile transformation.

    Attributes:
        name: paradigm name.
        ops_factor: scalar-op multiplier (per-tuple control flow and
            branch misprediction overhead).
        seq_factor: sequential-traffic multiplier (materialization vs.
            fusion; access-aware re-reads columns in extra passes).
        rand_factor: random-access multiplier (access-pattern
            consistency; the paradigm's defining knob).
    """

    name: str
    ops_factor: float
    seq_factor: float
    rand_factor: float
    description: str = ""

    def transform(self, profile: WorkProfile) -> WorkProfile:
        """Map an engine work profile onto this paradigm's hardware
        demand."""
        out = []
        for op in profile.operators:
            out.append(
                OperatorWork(
                    operator=op.operator,
                    seq_bytes=op.seq_bytes * self.seq_factor,
                    rand_accesses=op.rand_accesses * self.rand_factor,
                    ops=op.ops * self.ops_factor,
                    tuples_in=op.tuples_in,
                    tuples_out=op.tuples_out,
                    out_bytes=op.out_bytes * self.seq_factor,
                )
            )
        return WorkProfile(out)
