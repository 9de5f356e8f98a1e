"""Per-node memory accounting for WIMPI nodes.

A Raspberry Pi 3B+ has 1 GB of memory, part of which the OS keeps. The
paper reports that exceeding it caused virtual-memory thrashing (until
swap was disabled), visible as the enormous 4-node runtimes in Table III.
This module estimates a query's per-node working set: the referenced base
columns (string columns cost their heap bytes, as in MonetDB) plus the
largest materialized intermediate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import Database, WorkProfile
from repro.engine.plan import PlanNode, ScanNode
from repro.engine.types import STRING
from repro.hardware import PLATFORMS, PI4_KEY, PI_KEY, PlatformSpec

__all__ = [
    "NodeSpec", "MemoryModel", "PI4_NODE", "collect_scan_columns", "SPEC_STRING_BYTES",
]

# Average per-row string-heap bytes for columns that are unique (or
# near-unique) per row in real TPC-H data. Our dbgen pools these for
# generation speed, which would make them look free in a footprint
# estimate; a real engine stores each row's text. Values are the spec's
# average lengths. Low-cardinality strings (flags, modes, segments) are
# hash-consed by MonetDB and our dictionary columns alike, so they are
# costed from the measured shared dictionary instead.
SPEC_STRING_BYTES: dict[tuple[str, str], float] = {
    ("orders", "o_comment"): 49.0,
    ("orders", "o_clerk"): 15.0,
    ("lineitem", "l_comment"): 27.0,
    ("customer", "c_comment"): 73.0,
    ("customer", "c_name"): 18.0,
    ("customer", "c_address"): 25.0,
    ("customer", "c_phone"): 15.0,
    ("supplier", "s_comment"): 63.0,
    ("supplier", "s_name"): 18.0,
    ("supplier", "s_address"): 25.0,
    ("supplier", "s_phone"): 15.0,
    ("part", "p_comment"): 14.0,
    ("part", "p_name"): 33.0,
    ("partsupp", "ps_comment"): 124.0,
}


@dataclass(frozen=True)
class NodeSpec:
    """One WIMPI node: a Raspberry Pi 3B+ with 1 GB of memory."""

    platform: PlatformSpec = PLATFORMS[PI_KEY]
    memory_bytes: float = 1e9
    os_reserve_bytes: float = 150e6

    @property
    def available_bytes(self) -> float:
        return self.memory_bytes - self.os_reserve_bytes


# An 8 GB Raspberry Pi 4B worker (§III-C1's tailored node mix).
PI4_NODE = NodeSpec(platform=PLATFORMS[PI4_KEY], memory_bytes=8e9,
                    os_reserve_bytes=250e6)


def collect_scan_columns(node: PlanNode) -> dict[str, set[str]]:
    """Table -> referenced columns for every scan in a plan."""
    out: dict[str, set[str]] = {}
    for current in node.walk():
        if isinstance(current, ScanNode):
            cols = out.setdefault(current.table, set())
            if current.columns is not None:
                cols.update(current.columns)
            else:
                cols.add("*")
    return out


class MemoryModel:
    """Estimates per-node working sets and memory pressure."""

    def __init__(self, spec: NodeSpec | None = None):
        self.spec = spec or NodeSpec()

    def column_bytes_per_row(self, db: Database, table: str, column: str) -> float:
        """In-memory bytes per row of one column including its string
        heap: spec average length for per-row-unique text, shared
        dictionary bytes for hash-consed low-cardinality strings."""
        col = db.table(table).column(column)
        n = max(1, len(col))
        per_row = col.nbytes / n
        if col.dtype is STRING:
            spec_len = SPEC_STRING_BYTES.get((table, column))
            if spec_len is not None:
                per_row += spec_len
            else:
                per_row += col.dict_nbytes / n
        return per_row

    def base_column_footprint(
        self, db: Database, plan: PlanNode, scale: float
    ) -> float:
        """Bytes of base-table columns the plan touches, extrapolated to
        the target scale factor (``scale`` = target_sf / base_sf; the
        fixed-size nation/region tables are not scaled)."""
        total = 0.0
        for table, columns in collect_scan_columns(plan).items():
            tab = db.table(table)
            names = tab.column_names if "*" in columns else sorted(columns)
            table_scale = 1.0 if table in ("nation", "region") else scale
            for name in names:
                total += self.column_bytes_per_row(db, table, name) * tab.nrows * table_scale
        return total

    def peak_intermediate_bytes(self, profile: WorkProfile) -> float:
        """Materialized intermediates resident during a (scaled) profile.

        Full column-at-a-time materialization keeps each operator's
        output (and join hash structures) alive until its consumer
        finishes, so the resident set is close to the *sum* of
        materializations, not the largest one. The cluster study models
        MonetDB's eager pipeline, so intermediates our engine avoided
        rewriting via selection vectors (``saved_bytes``) still count
        toward the modeled resident set.
        """
        return sum(op.out_bytes + op.saved_bytes for op in profile.operators)

    def rollup_footprint(self, db: Database, scale: float) -> float:
        """Resident bytes of the node's materialized rollup catalog,
        extrapolated to the target scale. Cube cardinality is bounded by
        the cross product of its (scale-invariant) dimension domains, so
        cube growth saturates well below linear; the square-root law is
        a deliberately conservative stand-in for that saturation."""
        catalog = getattr(db, "rollups", None)
        if catalog is None:
            return 0.0
        return float(catalog.nbytes) * max(1.0, scale) ** 0.5

    def pressure_ratio(
        self, db: Database, plan: PlanNode, profile: WorkProfile, scale: float
    ) -> float:
        """Working set / available memory; > 1 means the node pages.

        Rollup cubes are charged unconditionally: they stay resident to
        serve routed queries whether or not *this* plan touches them —
        that is the memory tax the routing speedups are paid for with.
        """
        footprint = self.base_column_footprint(db, plan, scale)
        footprint += self.peak_intermediate_bytes(profile)
        footprint += self.rollup_footprint(db, scale)
        return footprint / self.spec.available_bytes
