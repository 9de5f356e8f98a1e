"""Work profiles of the scan path, pinned field by field.

``tests/engine/data/scan_profile_pins.json`` holds the per-operator
``OperatorWork`` counts of the benchmark suite's scan classes plus
Q1/Q6/Q12/Q14 under every ``zone_map_skipping`` x ``late_materialization``
x ``compressed_execution`` combination, on plain and on date-clustered
compressed tables, serial and with 3 morsel workers — written by
``tools/gen_scan_profile_pins.py`` *before* the five scan loops became
one. Re-collecting them must reproduce the file exactly, except for the
two scan fields that refactor corrected under morsels on compressed
tables: ``decoded_bytes`` (every morsel used to be charged — and to
perform — a whole-column decode) and ``skipped_bytes`` (a pre-skipped
compressed morsel used to be priced at plain width). Those may only have
fallen.
"""

from __future__ import annotations

import json

import pytest

CORRECTED = {"decoded_bytes", "skipped_bytes"}


@pytest.fixture(scope="module")
def collected(scan_pins, tpch_db, clustered_ctpch_db):
    return scan_pins.collect({"plain": tpch_db, "compressed": clustered_ctpch_db})


def test_pinned_profiles_reproduce(scan_pins, collected):
    pinned = json.loads(scan_pins.PINS.read_text())
    assert set(collected) == set(pinned)
    corrected = 0
    for key, want in pinned.items():
        got = collected[key]
        assert [op["operator"] for op in got] == [op["operator"] for op in want], key
        morsels_on_compressed = "|compressed|w" in key
        for got_op, want_op in zip(got, want):
            for field in set(got_op) | set(want_op):
                new, old = got_op.get(field, 0), want_op.get(field, 0)
                if (
                    morsels_on_compressed
                    and got_op["operator"] == "scan"
                    and field in CORRECTED
                    and new != old
                ):
                    assert new < old, f"{key} scan.{field}: {old} -> {new}"
                    corrected += 1
                else:
                    assert new == old, f"{key} {got_op['operator']}.{field}: {old} -> {new}"
    # The parent's over-charges really are in the file (so the tolerance
    # above is exercised, not vacuous).
    assert corrected > 0
