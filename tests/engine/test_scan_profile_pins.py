"""Work profiles of the scan path, pinned field by field.

``tests/engine/data/scan_profile_pins.json`` holds the per-operator
``OperatorWork`` counts of the benchmark suite's scan classes plus
Q1/Q6/Q12/Q14 under every ``zone_map_skipping`` x ``late_materialization``
x ``compressed_execution`` combination, on plain and on date-clustered
compressed tables, serial and with 3 morsel workers — written by
``tools/gen_scan_profile_pins.py``. Re-collecting them must reproduce
the file exactly, every field with ``==``: a scan-path refactor proves
"same work" against a committed file, and a change that means to move a
``WorkProfile`` regenerates the file and names each moved field.

The same collection also pins that the engine's shape does not change
the scan's work: how many workers run a scan and whether it emits a
selection vector decide neither what it decodes nor what it skips.
"""

from __future__ import annotations

import json

import pytest


@pytest.fixture(scope="module")
def collected(scan_pins, tpch_db, clustered_ctpch_db):
    return scan_pins.collect({"plain": tpch_db, "compressed": clustered_ctpch_db})


def test_pinned_profiles_reproduce(scan_pins, collected):
    pinned = json.loads(scan_pins.PINS.read_text())
    assert set(collected) == set(pinned)
    for key, want in pinned.items():
        got = collected[key]
        assert [op["operator"] for op in got] == [op["operator"] for op in want], key
        for got_op, want_op in zip(got, want):
            for field in set(got_op) | set(want_op):
                new, old = got_op.get(field, 0), want_op.get(field, 0)
                assert new == old, f"{key} {got_op['operator']}.{field}: {old} -> {new}"


def test_scan_work_is_the_same_on_every_engine(scan_pins, collected):
    """Per query, storage and (skipping, compressed-execution) gates, the
    scans decode exactly the same bytes and skip the same bytes on 1 and
    3 workers, late and eager. (Skipped bytes are summed from per-morsel
    shares, so they agree to the last bit or so, not exactly.)"""
    groups: dict[tuple, dict[tuple, list]] = {}
    for key, ops in collected.items():
        gates, storage, mode, query = key.split("|")
        skipping, late, compressed = (g.split("=")[1] for g in gates.split(","))
        scans = [op for op in ops if op["operator"] == "scan"]
        groups.setdefault((query, storage, skipping, compressed), {})[(mode, late)] = scans
    assert len(groups) == len(scan_pins.QUERIES) * 2 * 4
    for group, engines in groups.items():
        assert len(engines) == 4, group
        (first, *rest) = engines.values()
        for scans in rest:
            assert [op.get("decoded_bytes", 0) for op in scans] == [
                op.get("decoded_bytes", 0) for op in first
            ], group
            assert [op.get("skipped_bytes", 0) for op in scans] == pytest.approx(
                [op.get("skipped_bytes", 0) for op in first], rel=1e-12
            ), group
