"""Shared fixtures: a small deterministic TPC-H database and helpers."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.profiler import TPCHProfiler
from repro.engine import Column, Database, Table
from repro.tpch import generate

TEST_SF = 0.01


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    """One TPC-H database at SF 0.01 shared across the whole run."""
    return generate(TEST_SF, seed=42)


@pytest.fixture(scope="session")
def profiler() -> TPCHProfiler:
    """A profiler bound to the shared scale factor."""
    return TPCHProfiler(base_sf=TEST_SF, seed=42)


@pytest.fixture(scope="session")
def tpch_params() -> dict:
    return {"sf": TEST_SF}


@pytest.fixture(scope="session")
def scan_pins():
    """``tools/gen_scan_profile_pins.py`` as a module: the pinned scan
    query set (``QUERIES``), its gate lattice and executors, and the
    collector the committed pin file was written with."""
    path = Path(__file__).parent.parent / "tools" / "gen_scan_profile_pins.py"
    spec = importlib.util.spec_from_file_location("gen_scan_profile_pins", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def clustered_ctpch_db(scan_pins, tpch_db) -> Database:
    """The shared TPC-H database date-clustered and compressed (the
    benchmark suite's ``scan_encoded`` set-up at test scale)."""
    return scan_pins.clustered_compressed(tpch_db)


@pytest.fixture
def toy_db() -> Database:
    """A tiny hand-written database for operator-level tests."""
    db = Database("toy")
    db.add(Table("t", {
        "k": Column.from_ints([1, 2, 3, 4, 5, 6]),
        "v": Column.from_floats([10.0, 20.0, 30.0, 40.0, 50.0, 60.0]),
        "s": Column.from_strings(["a", "b", "a", "c", "b", "a"]),
        "d": Column.from_dates([
            "1994-01-01", "1994-06-01", "1995-01-01",
            "1993-01-01", "1996-05-05", "1994-12-31",
        ]),
    }))
    db.add(Table("u", {
        "k2": Column.from_ints([1, 2, 2, 7]),
        "w": Column.from_floats([100.0, 200.0, 201.0, 700.0]),
        "name": Column.from_strings(["one", "two", "two-b", "seven"]),
    }))
    return db
