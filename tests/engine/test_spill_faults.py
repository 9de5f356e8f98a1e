"""Fault injection for spill I/O: failures are loud and leak-free.

The out-of-core path touches a storage device, which on a wimpy node is
an SD card that *will* eventually fill up or corrupt a file. The
contract under test: every spill fault surfaces as a typed
:class:`SpillError` subclass — never a silent wrong answer — and the
query's temporary spill directory is removed on failure and on
cancellation, not just on success.

Faults are injected through :class:`SpillFaultPlan`, a deterministic
value object consulted by the spill writer (no monkeypatching of the
I/O layer, so the production read/write code paths run unmodified).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    Column,
    Executor,
    Frame,
    MemoryBudget,
    QueryCancelled,
    SpillCorrupt,
    SpillDiskFull,
    SpillError,
    SpillFaultPlan,
)
from repro.engine.profile import WorkProfile
from repro.engine.spill import SpillSet
from repro.tpch import get_query


def _spill_dirs(base: Path) -> list[Path]:
    return sorted(base.glob("repro-spill-*"))


def _frame(n: int = 5000) -> Frame:
    return Frame(
        {
            "k": Column.from_ints(np.arange(n, dtype=np.int64)),
            "v": Column.from_floats(np.linspace(0.0, 1.0, n)),
        },
        n,
    )


class _CountingCancel:
    """Cancel token that trips after a fixed number of checks — lets a
    query get partway through writing spill partitions before dying."""

    def __init__(self, after: int):
        self.after = after
        self.calls = 0

    def check(self) -> None:
        self.calls += 1
        if self.calls > self.after:
            raise QueryCancelled("injected mid-spill cancellation")


# ----------------------------------------------------------------------
# Unit level: SpillSet honors the fault plan
# ----------------------------------------------------------------------


class TestSpillSetFaults:
    def test_disk_full_raises_typed_error(self, tmp_path):
        budget = MemoryBudget(
            limit_bytes=1,
            spill_dir=str(tmp_path),
            faults=SpillFaultPlan(disk_full_after_bytes=0),
        )
        spills = SpillSet(budget)
        try:
            with pytest.raises(SpillDiskFull):
                spills.write_frame(_frame())
        finally:
            spills.cleanup()
        assert _spill_dirs(tmp_path) == []

    def test_disk_full_threshold_allows_earlier_writes(self, tmp_path):
        budget = MemoryBudget(
            limit_bytes=1,
            spill_dir=str(tmp_path),
            faults=SpillFaultPlan(disk_full_after_bytes=1 << 30),
        )
        spills = SpillSet(budget)
        try:
            ref = spills.write_frame(_frame())
            assert ref.nbytes > 0
        finally:
            spills.cleanup()

    def test_truncated_file_raises_corrupt_on_read(self, tmp_path):
        budget = MemoryBudget(
            limit_bytes=1,
            spill_dir=str(tmp_path),
            faults=SpillFaultPlan(truncate_file=0),
        )
        spills = SpillSet(budget)
        try:
            ref = spills.write_frame(_frame())
            with pytest.raises(SpillCorrupt):
                spills.read_frame(ref)
        finally:
            spills.cleanup()
        assert _spill_dirs(tmp_path) == []

    def test_garbage_file_raises_corrupt_not_garbage_rows(self, tmp_path):
        budget = MemoryBudget(limit_bytes=1, spill_dir=str(tmp_path))
        spills = SpillSet(budget)
        try:
            ref = spills.write_frame(_frame())
            Path(ref.path).write_bytes(b"not a spill file at all")
            with pytest.raises(SpillCorrupt):
                spills.read_frame(ref)
        finally:
            spills.cleanup()


# ----------------------------------------------------------------------
# Query level: faults mid-query fail loudly and clean up
# ----------------------------------------------------------------------


class TestQueryLevelFaults:
    def test_disk_full_mid_query_is_typed_and_leak_free(
        self, tmp_path, tpch_db, tpch_params
    ):
        budget = MemoryBudget(
            limit_bytes=1,
            spill_dir=str(tmp_path),
            faults=SpillFaultPlan(disk_full_after_bytes=64 * 1024),
        )
        plan = get_query(3).build(tpch_db, tpch_params)
        with pytest.raises(SpillDiskFull):
            Executor(tpch_db, memory_budget=budget).execute(plan)
        assert _spill_dirs(tmp_path) == []

    def test_truncated_partition_mid_query_is_typed_and_leak_free(
        self, tmp_path, tpch_db, tpch_params
    ):
        budget = MemoryBudget(
            limit_bytes=1,
            spill_dir=str(tmp_path),
            faults=SpillFaultPlan(truncate_file=2),
        )
        plan = get_query(3).build(tpch_db, tpch_params)
        with pytest.raises(SpillCorrupt):
            Executor(tpch_db, memory_budget=budget).execute(plan)
        assert _spill_dirs(tmp_path) == []

    def test_faults_are_spill_errors(self):
        # Callers that want "any spill failure" can catch the base type.
        assert issubclass(SpillDiskFull, SpillError)
        assert issubclass(SpillCorrupt, SpillError)

    def test_parallel_disk_full_is_typed_and_leak_free(
        self, tmp_path, tpch_db, tpch_params
    ):
        budget = MemoryBudget(
            limit_bytes=1,
            spill_dir=str(tmp_path),
            faults=SpillFaultPlan(disk_full_after_bytes=64 * 1024),
        )
        plan = get_query(3).build(tpch_db, tpch_params)
        with Executor(
            tpch_db, workers=2, morsel_rows=2048, memory_budget=budget
        ) as executor:
            with pytest.raises(SpillDiskFull):
                executor.execute(plan)
        assert _spill_dirs(tmp_path) == []


# ----------------------------------------------------------------------
# Cancellation mid-spill leaves no orphaned temp files
# ----------------------------------------------------------------------


class TestCancelMidSpill:
    def test_cancel_between_partition_writes_cleans_up(
        self, tmp_path, tpch_db, tpch_params
    ):
        budget = MemoryBudget(limit_bytes=1, spill_dir=str(tmp_path))
        plan = get_query(3).build(tpch_db, tpch_params)
        # Let a handful of spill-side cancel checks pass so partition
        # files actually hit disk before the token trips.
        cancel = _CountingCancel(after=3)
        with pytest.raises(QueryCancelled):
            Executor(tpch_db, memory_budget=budget).execute(plan, cancel=cancel)
        assert cancel.calls > 3  # the spill loop really consulted it
        assert _spill_dirs(tmp_path) == []

    def test_uncancelled_query_also_cleans_up(self, tmp_path, tpch_db, tpch_params):
        budget = MemoryBudget(limit_bytes=1, spill_dir=str(tmp_path))
        plan = get_query(3).build(tpch_db, tpch_params)
        result = Executor(tpch_db, memory_budget=budget).execute(plan)
        assert result.profile.spilled_bytes > 0
        assert _spill_dirs(tmp_path) == []
