"""Differential + property wall for out-of-core (spill) execution.

Two layers of defense for the "never change an answer" guarantee:

* **Differential suite.** Every TPC-H query (SF 0.01) and every
  ad-events query (x1.0) runs under three memory budgets — unlimited,
  tight (256 KB), and pathological (1 byte, which forces Grace
  partitioning and recursive re-partitioning at every depth) — serially
  and 4-worker morsel-parallel. Each budgeted run must be *bit-identical*
  to the same execution mode without a budget (same values, dtypes,
  validity masks — not approximately equal), and must still reproduce
  the committed goldens. Unlimited budgets must spill zero bytes; the
  pathological budget must spill on every plan that contains a join or a
  grouped aggregate.

* **Property wall.** Hypothesis drives the spill primitives directly:
  hash partitioning is an exact order-preserving permutation of its
  input for every key dtype (including NaN and signed-zero floats);
  spill-file write→read round-trips are bit-identical for every dtype
  including NULL masks, NaN payloads, dictionary identity, and empty
  frames; and recursive re-partitioning terminates on adversarial
  single-key skew (no progress → execute in memory, never loop).

* **Build-side wall.** A budgeted join builds over whichever input fits
  (:func:`~repro.engine.spill.choose_build_side`): rows are bit-identical
  whichever side is built and whether or not the join goes Grace, the
  work profile charges the classic hash join by role, the order restored
  from the left row-ids alone is the serial (left row, right row) order,
  and ``_encode_values`` picks what the exhaustive loop it replaced
  picked (kept here as the oracle), byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adevents import QUERY_NAMES as ADEVENTS_NAMES
from repro.adevents import build as adevents_build
from repro.adevents import generate as adevents_generate
from repro.engine import (
    DEFAULT_SETTINGS,
    Column,
    Executor,
    Frame,
    MemoryBudget,
    MemoryBudgetExceeded,
    ParallelExecutor,
    col,
    optimize_plan,
)
from repro.engine import spill
from repro.engine.compression import ALL_ENCODINGS, BitPackedEncoding
from repro.engine.explain import explain, explain_profile
from repro.engine.operators.aggregate import count_star, execute_aggregate, sum_
from repro.engine.operators.join import execute_join
from repro.engine.plan import AggregateNode, JoinNode, LimitNode, SortNode
from repro.engine.profile import OperatorWork, WorkProfile
from repro.engine.spill import (
    MAX_SPILL_DEPTH,
    SpillSet,
    _build_side,
    _encode_values,
    _partition_ids,
    _to_uint64,
    choose_build_side,
    choose_partitions,
    join_build_estimate,
    maybe_spill_aggregate,
    maybe_spill_join,
)
from repro.engine.types import BOOL, DATE, FLOAT64, INT64, STRING
from repro.tpch import ALL_QUERY_NUMBERS, get_query

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "tpch" / "data" / "golden_sf001_seed42.json").read_text()
)
ADEVENTS_GOLDEN = json.loads(
    (Path(__file__).parent.parent / "adevents" / "data" / "golden_x1_seed7.json").read_text()
)

# The build-side, codec-choice and restore-order walls are derandomized;
# these are their tier-1 example counts, CI (HYPOTHESIS_PROFILE=ci) runs 5x.
_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"


def _wall(examples: int):
    return settings(
        max_examples=examples * (5 if _CI else 1), deadline=None, derandomize=True
    )


WORKERS = 4
TPCH_MORSEL_ROWS = 2048
ADEVENTS_MORSEL_ROWS = 4096

BUDGETS = {
    "unlimited": None,
    "tight": 256 * 1024,
    "pathological": 1,
}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


class _SpillCtx:
    """Minimal execution context for driving spill dispatch directly."""

    def __init__(self, budget=None, spilling=True, cancel=None, late=True):
        self.budget = budget
        self.spilling = spilling
        self.cancel = cancel
        self.late = late
        self.profile = WorkProfile()
        self.work = self.profile.new_operator("test")


def _is_ordered(plan) -> bool:
    node = plan.node
    while isinstance(node, LimitNode):
        node = node.child
    return isinstance(node, SortNode)


def _numeric_sum(rows) -> float:
    total = 0.0
    for row in rows:
        for value in row:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if isinstance(value, float) and math.isnan(value):
                    continue
                total += float(value)
    return total


def _assert_golden(plan, result, expected):
    assert len(result) == expected["rows"]
    assert list(result.column_names) == expected["columns"]
    assert _numeric_sum(result.rows) == pytest.approx(
        expected["numeric_sum"], rel=1e-6, abs=0.02
    )
    if expected["first_row"] and _is_ordered(plan):
        for actual, pinned in zip(result.rows[0], expected["first_row"]):
            try:
                pinned_value = float(pinned)
            except ValueError:
                assert str(actual) == pinned
            else:
                assert float(actual) == pytest.approx(pinned_value, rel=1e-9, abs=1e-9)


def _assert_frames_bitwise(want: Frame, got: Frame, label: str):
    """Bit-identical frame equality: same column names, dtypes, raw
    values (NaN == NaN, last ulp included), and validity masks."""
    assert list(got.columns) == list(want.columns), label
    assert got.nrows == want.nrows, label
    for name in want.columns:
        a, b = want.column(name), got.column(name)
        assert b.dtype is a.dtype, f"{label}: {name} dtype"
        if a.dtype is STRING:
            assert b.to_list() == a.to_list(), f"{label}: {name}"
        else:
            av, bv = np.asarray(a.values), np.asarray(b.values)
            equal_nan = av.dtype.kind == "f"
            assert np.array_equal(av, bv, equal_nan=equal_nan), f"{label}: {name}"
        a_valid = a.valid if a.valid is not None else np.ones(len(a), dtype=bool)
        b_valid = b.valid if b.valid is not None else np.ones(len(b), dtype=bool)
        assert np.array_equal(a_valid, b_valid), f"{label}: {name} valid"


def _has_spillable_operator(node) -> bool:
    if isinstance(node, JoinNode):
        return True
    if isinstance(node, AggregateNode) and node.group_by:
        return True
    return any(_has_spillable_operator(child) for child in node.children())


# ----------------------------------------------------------------------
# Differential: all 22 TPC-H queries under every budget, serial + parallel
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_baselines(tpch_db, tpch_params):
    """Unbudgeted reference results, computed once per (query, mode)."""
    cache: dict[tuple[int, str], object] = {}
    parallel = ParallelExecutor(
        tpch_db, workers=WORKERS, morsel_rows=TPCH_MORSEL_ROWS, cache_size=0
    )

    def get(number: int, mode: str):
        key = (number, mode)
        if key not in cache:
            plan = get_query(number).build(tpch_db, tpch_params)
            if mode == "serial":
                cache[key] = Executor(tpch_db).execute(plan)
            else:
                cache[key] = parallel.execute(plan)
        return cache[key]

    yield get
    parallel.close()


class TestTpchSpillDifferential:
    @pytest.mark.parametrize("budget_name", list(BUDGETS))
    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    def test_budgeted_matches_unbudgeted(
        self, tpch_db, tpch_params, tpch_baselines, number, budget_name
    ):
        limit = BUDGETS[budget_name]
        plan = get_query(number).build(tpch_db, tpch_params)
        spillable = _has_spillable_operator(
            optimize_plan(plan.node, tpch_db, DEFAULT_SETTINGS)
        )

        serial = Executor(tpch_db, memory_budget=limit).execute(plan)
        _assert_frames_bitwise(
            tpch_baselines(number, "serial").frame, serial.frame,
            f"Q{number} serial {budget_name}",
        )
        with ParallelExecutor(
            tpch_db, workers=WORKERS, morsel_rows=TPCH_MORSEL_ROWS,
            cache_size=0, memory_budget=limit,
        ) as executor:
            parallel = executor.execute(plan)
        _assert_frames_bitwise(
            tpch_baselines(number, "parallel").frame, parallel.frame,
            f"Q{number} parallel {budget_name}",
        )

        for result in (serial, parallel):
            _assert_golden(plan, result, GOLDEN[str(number)])
        if limit is None:
            assert serial.profile.spilled_bytes == 0
            assert parallel.profile.spilled_bytes == 0
        elif budget_name == "pathological" and spillable:
            # One byte of budget: every join and grouped aggregate in the
            # plan must have gone out-of-core.
            assert serial.profile.spilled_bytes > 0, f"Q{number}"
            assert serial.profile.spill_partitions > 0, f"Q{number}"
            assert parallel.profile.spilled_bytes > 0, f"Q{number}"


@pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
def test_late_join_charge_splits_the_dense_charge(tpch_db, tpch_params, number):
    """A late pair join charges its row ids as output and the payload copy
    it no longer makes as saved: per hashjoin, ``out_bytes + saved_bytes``
    is its dense output's ``nbytes`` plus ``built x 16`` — what the same
    join charges as ``out_bytes`` with late materialization off."""
    plan = get_query(number).build(tpch_db, tpch_params)
    late, eager = (
        [op for op in Executor(tpch_db, settings).execute(plan).profile.operators
         if op.operator == "hashjoin"]
        for settings in (DEFAULT_SETTINGS, DEFAULT_SETTINGS.without_latemat())
    )
    assert len(late) == len(eager), f"Q{number}"
    for got, want in zip(late, eager):
        assert want.saved_bytes == 0, f"Q{number}"
        assert got.out_bytes + got.saved_bytes == want.out_bytes, f"Q{number}"


def test_pathological_budget_reaches_recursive_repartition(tpch_db, tpch_params):
    """The headline wall requires at least one recursive re-partition:
    Q9 (the deepest join tree at this scale) must re-split partitions
    that still exceed a 1-byte budget — and stay bit-identical."""
    plan = get_query(9).build(tpch_db, tpch_params)
    budgeted = Executor(tpch_db, memory_budget=1).execute(plan)
    baseline = Executor(tpch_db).execute(plan)
    _assert_frames_bitwise(baseline.frame, budgeted.frame, "Q9 recursive")
    assert budgeted.profile.respill_depth >= 1
    assert budgeted.profile.spilled_bytes > 0


# ----------------------------------------------------------------------
# Differential: all 11 ad-events queries under every budget
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def adevents_db():
    return adevents_generate(1.0, seed=7)


@pytest.fixture(scope="module")
def adevents_baselines(adevents_db):
    cache: dict[tuple[str, str], object] = {}
    parallel = ParallelExecutor(
        adevents_db, workers=WORKERS, morsel_rows=ADEVENTS_MORSEL_ROWS, cache_size=0
    )

    def get(name: str, mode: str):
        key = (name, mode)
        if key not in cache:
            plan = adevents_build(adevents_db, name)
            if mode == "serial":
                cache[key] = Executor(adevents_db).execute(plan)
            else:
                cache[key] = parallel.execute(plan)
        return cache[key]

    yield get
    parallel.close()


class TestAdEventsSpillDifferential:
    @pytest.mark.parametrize("budget_name", list(BUDGETS))
    @pytest.mark.parametrize("name", ADEVENTS_NAMES)
    def test_budgeted_matches_unbudgeted(
        self, adevents_db, adevents_baselines, name, budget_name
    ):
        limit = BUDGETS[budget_name]
        plan = adevents_build(adevents_db, name)
        spillable = _has_spillable_operator(
            optimize_plan(plan.node, adevents_db, DEFAULT_SETTINGS)
        )

        serial = Executor(adevents_db, memory_budget=limit).execute(plan)
        _assert_frames_bitwise(
            adevents_baselines(name, "serial").frame, serial.frame,
            f"{name} serial {budget_name}",
        )
        with ParallelExecutor(
            adevents_db, workers=WORKERS, morsel_rows=ADEVENTS_MORSEL_ROWS,
            cache_size=0, memory_budget=limit,
        ) as executor:
            parallel = executor.execute(plan)
        _assert_frames_bitwise(
            adevents_baselines(name, "parallel").frame, parallel.frame,
            f"{name} parallel {budget_name}",
        )

        for result in (serial, parallel):
            _assert_golden(plan, result, ADEVENTS_GOLDEN[name])
        if limit is None:
            assert serial.profile.spilled_bytes == 0
            assert parallel.profile.spilled_bytes == 0
        elif budget_name == "pathological" and spillable:
            assert serial.profile.spilled_bytes > 0, name
            assert parallel.profile.spilled_bytes > 0, name


# ----------------------------------------------------------------------
# Dispatch semantics
# ----------------------------------------------------------------------


class TestBudgetDispatch:
    def test_no_spill_raises_typed_error(self, tpch_db, tpch_params):
        plan = get_query(3).build(tpch_db, tpch_params)
        executor = Executor(
            tpch_db, DEFAULT_SETTINGS.without_spilling(), memory_budget=1
        )
        with pytest.raises(MemoryBudgetExceeded):
            executor.execute(plan)

    def test_global_aggregates_never_spill(self, tpch_db, tpch_params):
        # Q6 is scan + filter + global aggregate: O(1) state, no spilling
        # even under a 1-byte budget.
        plan = get_query(6).build(tpch_db, tpch_params)
        result = Executor(tpch_db, memory_budget=1).execute(plan)
        assert result.profile.spilled_bytes == 0

    def test_explain_tags_over_budget_operators(self, tpch_db, tpch_params):
        plan = get_query(3).build(tpch_db, tpch_params)
        text = explain(plan, tpch_db, memory_budget=256 * 1024)
        assert "[spill: join" in text
        assert "[spill: agg" in text
        # Without a budget (or with spilling disabled) no tags appear.
        assert "[spill" not in explain(plan, tpch_db)
        assert "[spill" not in explain(
            plan, tpch_db,
            settings=DEFAULT_SETTINGS.without_spilling(),
            memory_budget=256 * 1024,
        )

    def test_explain_profile_reports_spilling(self, tpch_db, tpch_params):
        plan = get_query(3).build(tpch_db, tpch_params)
        result = Executor(tpch_db, memory_budget=1).execute(plan)
        assert "spilling:" in explain_profile(result)
        clean = Executor(tpch_db).execute(plan)
        assert "spilling:" not in explain_profile(clean)

    def test_budget_tracks_peak_and_spilled(self, tpch_db, tpch_params):
        # 64 KiB: neither input of Q3's second join fits (its left one,
        # ~78 KB, is what a 256 KiB budget now builds over in memory).
        budget = MemoryBudget(limit_bytes=64 * 1024)
        plan = get_query(3).build(tpch_db, tpch_params)
        Executor(tpch_db, memory_budget=budget).execute(plan)
        assert budget.spilled_bytes > 0
        assert budget.peak_bytes > 0
        assert budget.used_bytes == 0  # all charges released


# ----------------------------------------------------------------------
# Property wall: partitioning is an order-preserving permutation
# ----------------------------------------------------------------------


_EXTREME_INTS = [
    0, 1, -1, 2**62, -(2**62),
    int(np.iinfo(np.int64).max), int(np.iinfo(np.int64).min),
]


class TestPartitioningProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.integers(-(2**63), 2**63 - 1) | st.sampled_from(_EXTREME_INTS),
            max_size=200,
        ),
        n_partitions=st.sampled_from([2, 4, 8, 16]),
        depth=st.integers(0, MAX_SPILL_DEPTH - 1),
    )
    def test_int_partitioning_is_a_stable_permutation(
        self, values, n_partitions, depth
    ):
        n = len(values)
        frame = Frame(
            {
                "k": Column(INT64, np.asarray(values, dtype=np.int64)),
                "rowid": Column(INT64, np.arange(n, dtype=np.int64)),
            },
            n,
        )
        pids = _partition_ids(
            _to_uint64(frame.column("k").values), n_partitions, depth
        )
        parts = frame.partition(pids, n_partitions)
        assert len(parts) == n_partitions
        assert sum(p.nrows for p in parts) == n
        seen = []
        for index, part in enumerate(parts):
            rowids = np.asarray(part.column("rowid").values)
            # Original relative order is preserved inside each partition
            # (this is what makes float re-accumulation bit-identical).
            assert np.all(np.diff(rowids) > 0) or len(rowids) <= 1
            assert np.all(pids[rowids] == index)
            seen.append(rowids)
        # The union of partitions is exactly the input — a permutation.
        assert np.array_equal(np.sort(np.concatenate(seen) if seen else []),
                              np.arange(n))

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64)
            | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
            max_size=100,
        ),
        n_partitions=st.sampled_from([2, 4, 8]),
        depth=st.integers(0, MAX_SPILL_DEPTH - 1),
    )
    def test_float_equal_keys_land_together(self, values, n_partitions, depth):
        """The join treats NaN == NaN and -0.0 == +0.0; partitioning must
        agree or equal keys would straddle partitions and lose matches."""
        arr = np.asarray(values, dtype=np.float64)
        pids = _partition_ids(_to_uint64(arr), n_partitions, depth)
        nan_pids = pids[np.isnan(arr)]
        assert len(set(nan_pids.tolist())) <= 1
        zero_pids = pids[arr == 0.0]
        assert len(set(zero_pids.tolist())) <= 1

    @settings(max_examples=40, deadline=None)
    @given(
        estimate=st.floats(min_value=1.0, max_value=1e15),
        available=st.floats(min_value=1.0, max_value=1e12),
        nrows=st.integers(1, 10**8),
        depth=st.integers(0, MAX_SPILL_DEPTH - 1),
    )
    def test_choose_partitions_is_bounded(self, estimate, available, nrows, depth):
        p = choose_partitions(estimate, available, nrows, depth)
        assert 2 <= p <= 64
        assert p & (p - 1) == 0  # power of two
        if depth > 0:
            assert p <= 4


# ----------------------------------------------------------------------
# Property wall: spill files round-trip bit-identically
# ----------------------------------------------------------------------


@st.composite
def _spill_frame(draw) -> Frame:
    n = draw(st.integers(0, 60))
    columns: dict[str, Column] = {}

    ints = draw(st.lists(
        st.integers(-(2**63), 2**63 - 1) | st.sampled_from(_EXTREME_INTS),
        min_size=n, max_size=n,
    ))
    if draw(st.booleans()):
        valid = np.asarray(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        )
        columns["i"] = Column(INT64, np.asarray(ints, dtype=np.int64), valid=valid)
    else:
        columns["i"] = Column(INT64, np.asarray(ints, dtype=np.int64))

    floats = draw(st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64)
        | st.sampled_from([0.0, -0.0, math.nan]),
        min_size=n, max_size=n,
    ))
    fvalid = None
    if draw(st.booleans()):
        fvalid = np.asarray(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        )
    columns["f"] = Column(
        FLOAT64, np.asarray(floats, dtype=np.float64), valid=fvalid
    )

    days = draw(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=n, max_size=n))
    columns["d"] = Column(DATE, np.asarray(days, dtype=np.int32))

    words = draw(st.lists(
        st.sampled_from(["alpha", "beta", "gamma", ""]), min_size=n, max_size=n
    ))
    scol = Column.from_strings(words)
    if draw(st.booleans()):
        svalid = np.asarray(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        )
        scol = Column(STRING, scol.values, dictionary=scol.dictionary, valid=svalid)
    columns["s"] = scol

    bools = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    columns["b"] = Column(BOOL, np.asarray(bools, dtype=bool))

    return Frame(columns, n)


class TestSpillRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(frame=_spill_frame())
    def test_write_read_is_bit_identical(self, frame):
        spills = SpillSet()
        try:
            ref = spills.write_frame(frame)
            back = spills.read_frame(ref)
        finally:
            spills.cleanup()
        _assert_frames_bitwise(frame, back, "round-trip")
        # Dictionary *identity*, not just equality: Column.concat's
        # shared-dictionary fast path (and therefore post-spill string
        # collation) depends on the object being the same.
        assert back.column("s").dictionary is frame.column("s").dictionary

    def test_cleanup_removes_directory_and_is_idempotent(self):
        spills = SpillSet()
        frame = Frame({"x": Column.from_ints([1, 2, 3])}, 3)
        ref = spills.write_frame(frame)
        assert Path(ref.path).exists()
        spills.cleanup()
        assert not Path(spills.directory).exists()
        spills.cleanup()  # second call is a no-op


# ----------------------------------------------------------------------
# Codec choice: ranked by exact size == the exhaustive loop it replaced
# ----------------------------------------------------------------------


def _exhaustive_encode_values(values: np.ndarray):
    """The oracle: ``_encode_values`` as it was before codecs were ranked
    by ``Encoding.size`` — encode with every codec, decode every one that
    improves, keep the smallest verified."""
    if values.dtype.kind != "i":
        return ("raw", values)
    v = np.ascontiguousarray(values).astype(np.int64, copy=False)
    best = None
    best_size = v.nbytes
    for encoding in ALL_ENCODINGS:
        try:
            payload = encoding.encode(v)
            size = encoding.encoded_nbytes(payload)
            if size < best_size and np.array_equal(
                encoding.decode(payload, len(v), np.dtype(np.int64)), v
            ):
                best, best_size = (encoding.name, payload), size
        except Exception:
            continue
    if best is None:
        return ("raw", values)
    return ("codec", best[0], best[1], len(v))


def _shaped_ints(base, width, n, run, sort, seed) -> np.ndarray:
    """``n`` values in ``[base, base + width]`` in runs of ``run``."""
    rng = np.random.default_rng(seed)
    values = base + np.repeat(rng.integers(0, width + 1, -(-n // run)), run)[:n]
    return np.sort(values) if sort else values


_int_arrays = st.one_of(
    # Anything, extremes included (the wrapped-arithmetic fallbacks).
    st.lists(
        st.integers(-(2**63), 2**63 - 1) | st.sampled_from(_EXTREME_INTS),
        max_size=60,
    ).map(lambda xs: np.asarray(xs, dtype=np.int64)),
    # Codec-friendly shapes: a base, a width straddling a pack boundary,
    # runs, optionally sorted — where the four sizes are close together.
    st.builds(
        _shaped_ints,
        base=st.sampled_from([0, -1000, 10**12, -(2**40)]),
        width=st.sampled_from(
            [0, 1, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**45]
        ),
        n=st.sampled_from([1, 2, 17, 4095, 4096, 4097, 9000]),
        run=st.sampled_from([1, 3, 500]),
        sort=st.booleans(),
        seed=st.integers(0, 2**16),
    ),
)


class _LyingCodec(BitPackedEncoding):
    """Claims to encode anything into one byte."""

    name = "liar"

    def size(self, values):
        return 1


class _LossyCodec(BitPackedEncoding):
    """Honest about its size, wrong about the values it returns."""

    name = "lossy"

    def size(self, values):
        return 9

    def encode(self, values):
        return 0, np.zeros(1, dtype=np.uint8)

    def decode(self, payload, n, dtype):
        return np.zeros(n, dtype=dtype)


class TestCodecChoice:
    @_wall(150)
    @given(values=_int_arrays)
    def test_same_codec_and_bytes_as_the_exhaustive_loop(self, values):
        want = _exhaustive_encode_values(values)
        got = _encode_values(values)
        assert got[0] == want[0] and (got[0] == "raw" or got[1] == want[1])
        assert pickle.dumps(got, protocol=pickle.HIGHEST_PROTOCOL) == pickle.dumps(
            want, protocol=pickle.HIGHEST_PROTOCOL
        )

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_narrow_ints_and_views_choose_alike(self, dtype):
        # DATE columns are int32 and partitions are slices of one gather.
        values = np.arange(20_000, dtype=dtype)[5:9005]
        want, got = _exhaustive_encode_values(values), _encode_values(values)
        assert got[:2] == want[:2] == ("codec", "delta")
        assert pickle.dumps(got) == pickle.dumps(want)

    @pytest.mark.parametrize("codec", [_LyingCodec(), _LossyCodec()])
    def test_a_wrong_size_or_a_failed_round_trip_skips_the_candidate(self, codec):
        """A size that does not match the encoded payload drops that
        codec; it never waives the round-trip check, and a codec that
        fails the check is dropped however small it is."""
        values = np.arange(1000, 1300, dtype=np.int64) * 7
        with mock.patch.object(spill, "ALL_ENCODINGS", (codec, *ALL_ENCODINGS)):
            got = _encode_values(values)
        assert got[:2] == _exhaustive_encode_values(values)[:2]
        assert np.array_equal(spill._decode_values(got), values)


# ----------------------------------------------------------------------
# Property wall: adversarial skew terminates
# ----------------------------------------------------------------------


class TestSkewTermination:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 3000),
        key=st.sampled_from([0, 7, -1, 2**40]),
    )
    def test_single_key_aggregate_skew_terminates(self, n, key, tmp_path_factory):
        """Every row shares one group key: no partition pass can make
        progress, so the Grace path must fall through to the in-memory
        kernel (over budget but correct) instead of recursing forever."""
        base = str(tmp_path_factory.mktemp("skew"))
        frame = Frame(
            {
                "k": Column(INT64, np.full(n, key, dtype=np.int64)),
                "v": Column(FLOAT64, np.arange(n, dtype=np.float64)),
            },
            n,
        )
        aggs = {"total": sum_(col("v")), "cnt": count_star()}
        ctx = _SpillCtx(budget=MemoryBudget(limit_bytes=1, spill_dir=base))
        got = maybe_spill_aggregate(frame, ["k"], aggs, ctx)
        want = execute_aggregate(frame, ["k"], dict(aggs), _SpillCtx())
        _assert_frames_bitwise(want, got, "skew aggregate")
        # Bounded recursion: strictly fewer re-partitions than the hard
        # depth cap times the fan-out could ever produce.
        assert ctx.work.respill_depth <= MAX_SPILL_DEPTH * 64

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 120))
    def test_single_key_join_skew_terminates(self, n, tmp_path_factory):
        base = str(tmp_path_factory.mktemp("skewj"))
        left = Frame(
            {
                "k": Column(INT64, np.zeros(n, dtype=np.int64)),
                "a": Column(INT64, np.arange(n, dtype=np.int64)),
            },
            n,
        )
        right = Frame(
            {
                "k": Column(INT64, np.zeros(n, dtype=np.int64)),
                "b": Column(INT64, np.arange(n, dtype=np.int64)),
            },
            n,
        )
        ctx = _SpillCtx(budget=MemoryBudget(limit_bytes=1, spill_dir=base))
        got = maybe_spill_join(left, right, ["k"], ["k"], "inner", ctx)
        want = execute_join(left, right, ["k"], ["k"], "inner", _SpillCtx())
        _assert_frames_bitwise(want, got, "skew join")
        assert got.nrows == n * n


    @_wall(20)
    @given(n=st.integers(2, 60), copies=st.integers(2, 40))
    def test_single_key_skew_terminates_when_the_left_input_is_built(
        self, n, copies, tmp_path_factory
    ):
        """The smaller input is the left one, so progress is measured on
        it: one key on both sides never splits it, and the pair executes
        in memory instead of recursing to the depth cap."""
        base = str(tmp_path_factory.mktemp("skewl"))
        left = Frame(
            {
                "k": Column(INT64, np.zeros(n, dtype=np.int64)),
                "a": Column(INT64, np.arange(n, dtype=np.int64)),
            },
            n,
        )
        m = n * copies
        right = Frame(
            {
                "k": Column(INT64, np.zeros(m, dtype=np.int64)),
                "b": Column(INT64, np.arange(m, dtype=np.int64)),
            },
            m,
        )
        ctx = _SpillCtx(budget=MemoryBudget(limit_bytes=1, spill_dir=base))
        assert _build_side(left, right, 1)[0] == "left"
        got = maybe_spill_join(left, right, ["k"], ["k"], "inner", ctx)
        want = execute_join(left, right, ["k"], ["k"], "inner", _SpillCtx())
        _assert_frames_bitwise(want, got, "skew join, left built")
        assert ctx.work.respill_depth == 0  # no progress at level 0: stop
        assert ctx.work.spill_partitions == 2  # one file per side, one level


# ----------------------------------------------------------------------
# Build-side wall: which input is built, what it is charged, same rows
# ----------------------------------------------------------------------

HOWS = ("inner", "left", "semi", "anti")


@st.composite
def _small_left_join(draw):
    """Many-to-many join inputs with duplicates and NULL keys on both
    sides, the *smaller* input on the left."""
    n_left = draw(st.integers(1, 25))
    n_right = draw(st.integers(n_left + 1, 120))
    domain = draw(st.integers(1, 12))
    sides = []
    for n, payload in ((n_left, "a"), (n_right, "b")):
        keys = draw(st.lists(st.integers(0, domain), min_size=n, max_size=n))
        valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        key = Column(
            INT64, np.asarray(keys, dtype=np.int64),
            valid=None if all(valid) else np.asarray(valid, dtype=bool),
        )
        sides.append(
            Frame(
                {
                    "k" if payload == "a" else "k2": key,
                    payload: Column(INT64, np.arange(n, dtype=np.int64)),
                    payload + "f": Column(FLOAT64, np.arange(n) / 7.0),
                },
                n,
            )
        )
    return sides[0], sides[1]


def _assert_rows_bitwise(want: Frame, got: Frame, label: str):
    """:func:`_assert_frames_bitwise` on what a reader can see: the
    placeholder under an outer join's NULLs is whichever build row sat
    last in the frame the gather ran on, so it is zeroed on both sides."""

    def visible(frame):
        return Frame(
            {
                name: c if c.valid is None else Column(
                    c.dtype, np.where(c.valid, c.values, 0).astype(c.values.dtype),
                    dictionary=c.dictionary, valid=c.valid,
                )
                for name, c in frame.dense().columns.items()
            },
            frame.nrows,
        )

    _assert_frames_bitwise(visible(want), visible(got), label)


def _classic_charges(left, right, out, matches, build, late=True) -> OperatorWork:
    """The classic hash join's work by role, written out independently of
    ``execute_join``: with ``build="right"`` and ``late=False`` this is
    the accounting the operator has always had, line for line. Under
    late materialization a pair join over these (dense) inputs writes two
    int32 row ids per output row instead of its payload, and the payload
    it does not copy is saved."""
    probed, built = (left, right) if build == "right" else (right, left)
    row_ids = out.nrows * 2 * 4 if late and out.is_late else 0
    work = OperatorWork("test")
    work.tuples_in = left.nrows + right.nrows
    work.seq_bytes = left.column("k").nbytes + right.column("k2").nbytes
    work.ops = probed.nrows + 2 * built.nrows
    if build == "left":
        work.ops += matches  # pairs go back to left-major order
    work.rand_accesses = probed.nrows + matches
    work.out_bytes = built.nrows * 16 + (row_ids if row_ids else out.nbytes)
    work.saved_bytes = max(out.nbytes - row_ids, 0) if row_ids else 0.0
    work.tuples_out = out.nrows
    return work


class TestBuildSide:
    @_wall(200)
    @given(
        left=st.integers(0, 10**9),
        right=st.integers(0, 10**9),
        limit=st.integers(0, 10**9) | st.just(float("inf")),
    )
    def test_rule_right_if_it_fits_else_the_smaller_ties_right(
        self, left, right, limit
    ):
        side, estimate = choose_build_side(left, right, limit)
        assert estimate == (right if side == "right" else left)
        if right <= limit:
            assert side == "right"  # the planner's convention holds
        elif left == right:
            assert side == "right"
        else:
            assert estimate == min(left, right)

    @_wall(40)
    @given(inputs=_small_left_join(), available=st.integers(0, 20_000))
    def test_frames_go_through_the_same_rule(self, inputs, available):
        left, right = inputs
        assert _build_side(left, right, available) == choose_build_side(
            join_build_estimate(left), join_build_estimate(right), available
        )
        # Unlimited budgets keep the planner's side.
        assert _build_side(left, right, float("inf"))[0] == "right"

    @_wall(60)
    @given(inputs=_small_left_join(), how=st.sampled_from(HOWS))
    def test_rows_do_not_depend_on_the_side_or_the_path(
        self, inputs, how, tmp_path_factory
    ):
        """Unbudgeted, a budget only the left input fits (built in
        memory, nothing spilled) and a budget neither fits (Grace): the
        same rows in the same order, bit for bit."""
        left, right = inputs
        base = str(tmp_path_factory.mktemp("side"))
        want = execute_join(left, right, ["k"], ["k2"], how, _SpillCtx())

        fits_left = join_build_estimate(left)
        assert fits_left < join_build_estimate(right)
        ctx = _SpillCtx(budget=MemoryBudget(limit_bytes=fits_left, spill_dir=base))
        got = maybe_spill_join(left, right, ["k"], ["k2"], how, ctx)
        _assert_frames_bitwise(want, got, f"{how}, left fits")  # same gather
        assert ctx.work.spilled_bytes == 0
        assert ctx.budget.peak_bytes == fits_left and ctx.budget.used_bytes == 0

        ctx = _SpillCtx(budget=MemoryBudget(limit_bytes=1, spill_dir=base))
        got = maybe_spill_join(left, right, ["k"], ["k2"], how, ctx)
        _assert_rows_bitwise(want, got, f"{how}, neither fits")
        assert ctx.work.spilled_bytes > 0
        assert ctx.budget.used_bytes == 0

        refusing = _SpillCtx(budget=MemoryBudget(limit_bytes=1), spilling=False)
        with pytest.raises(MemoryBudgetExceeded) as refusal:
            maybe_spill_join(left, right, ["k"], ["k2"], how, refusing)
        message = str(refusal.value)
        assert "the left input" in message
        assert f"left ~{fits_left:,}" in message
        assert f"right ~{join_build_estimate(right):,}" in message

    @_wall(60)
    @given(inputs=_small_left_join(), how=st.sampled_from(HOWS))
    def test_work_is_charged_by_role(self, inputs, how):
        left, right = inputs
        default = _SpillCtx()
        out = execute_join(left, right, ["k"], ["k2"], how, default)
        pairs = execute_join(left, right, ["k"], ["k2"], "inner", _SpillCtx())
        matches = pairs.nrows
        assert default.work == _classic_charges(left, right, out, matches, "right")
        named = _SpillCtx()
        execute_join(left, right, ["k"], ["k2"], how, named, build="right")
        assert named.work == default.work
        swapped = _SpillCtx()
        got = execute_join(left, right, ["k"], ["k2"], how, swapped, build="left")
        _assert_frames_bitwise(out, got, f"{how} build=left")
        assert swapped.work == _classic_charges(left, right, out, matches, "left")
        assert out.is_late == (how in ("inner", "left"))

    @_wall(60)
    @given(inputs=_small_left_join(), how=st.sampled_from(HOWS))
    def test_eager_work_is_the_classic_charge(self, inputs, how):
        """With late materialization off the join returns dense frames
        and charges exactly what it always has, on either build side."""
        left, right = inputs
        matches = execute_join(left, right, ["k"], ["k2"], "inner", _SpillCtx()).nrows
        for build in ("right", "left"):
            eager = _SpillCtx(late=False)
            out = execute_join(left, right, ["k"], ["k2"], how, eager, build=build)
            assert not out.is_late
            assert eager.work == _classic_charges(
                left, right, out, matches, build, late=False
            )

    def test_payload_narrower_than_row_ids_stays_late_and_saves_nothing(self):
        """A 4-byte key beside a 1-byte flag under two int32 row ids: the
        pair join still returns late, with the rows the eager join
        returns, and charges its row ids with nothing saved."""
        left = Frame({"k": Column(DATE, np.array([1, 2, 2, 5], dtype=np.int32))}, 4)
        right = Frame(
            {
                "k": Column(DATE, np.array([2, 1, 3], dtype=np.int32)),
                "flag": Column(BOOL, np.array([True, False, True])),
            },
            3,
        )
        for how in ("inner", "left"):
            late, eager = _SpillCtx(), _SpillCtx(late=False)
            out = execute_join(left, right, ["k"], ["k"], how, late)
            want = execute_join(left, right, ["k"], ["k"], how, eager)
            assert out.is_late and len(out.rows) == 2
            assert out.nbytes < out.id_bytes == out.nrows * 2 * 4
            _assert_rows_bitwise(want, out, how)
            assert late.work.out_bytes == right.nrows * 16 + out.id_bytes
            assert late.work.saved_bytes == 0
            assert eager.work.out_bytes == right.nrows * 16 + want.nbytes

    def test_dispatch_passes_the_side_it_chose(self):
        """Under a budget the left input fits, the operator's recorded
        work is the left-built charge; without one, the default."""
        left = Frame({"k": Column.from_ints(list(range(10)))}, 10)
        right = Frame({"k2": Column.from_ints(list(range(10)) * 30)}, 300)
        unbudgeted, budgeted = _SpillCtx(), _SpillCtx(
            budget=MemoryBudget(limit_bytes=join_build_estimate(left))
        )
        out = maybe_spill_join(left, right, ["k"], ["k2"], "inner", unbudgeted)
        maybe_spill_join(left, right, ["k"], ["k2"], "inner", budgeted)
        assert unbudgeted.work == _classic_charges(left, right, out, 300, "right")
        assert budgeted.work == _classic_charges(left, right, out, 300, "left")


# ----------------------------------------------------------------------
# Restore order: the left row-ids alone give the serial emission order
# ----------------------------------------------------------------------


class TestRestoreOrder:
    @_wall(40)
    @given(
        n_left=st.integers(40, 160),
        n_right=st.integers(40, 160),
        domain=st.integers(8, 40),
        fanout=st.sampled_from([2, 4, 8, 16]),
        how=st.sampled_from(HOWS),
        seed=st.integers(0, 2**16),
    )
    def test_lrow_order_is_the_lexsort_order(
        self, n_left, n_right, domain, fanout, how, seed, tmp_path_factory
    ):
        """Many-to-many joins through the Grace path at ``fanout``
        partitions, re-partitioned at least once: the output — ordered by
        one stable sort of the left row-ids — is in ``np.lexsort((right
        row, left row))`` order, left-outer misses last by left row."""
        rng = np.random.default_rng(seed)
        # Left keys reach past the right domain, so outer joins have misses.
        left = Frame(
            {
                "k": Column(INT64, rng.integers(0, domain + 4, n_left)),
                "lrow": Column(INT64, np.arange(n_left, dtype=np.int64)),
            },
            n_left,
        )
        right = Frame(
            {
                "k2": Column(INT64, rng.integers(0, domain, n_right)),
                "rrow": Column(INT64, np.arange(n_right, dtype=np.int64)),
            },
            n_right,
        )
        base = str(tmp_path_factory.mktemp("restore"))
        ctx = _SpillCtx(budget=MemoryBudget(limit_bytes=1, spill_dir=base))
        with mock.patch.object(
            spill, "choose_partitions",
            lambda estimate, available, nrows, depth: fanout if depth == 0 else 2,
        ):
            got = maybe_spill_join(left, right, ["k"], ["k2"], how, ctx)
        assert ctx.work.respill_depth >= 1  # depth >= 2 was reached
        assert ctx.work.spill_partitions > 2 * 2
        assert spill._LROW not in got.columns and spill._RROW not in got.columns

        lrow = np.asarray(got.column("lrow").values)
        if how in ("semi", "anti"):
            assert np.all(np.diff(lrow) > 0)
        else:
            rrow = got.column("rrow")
            matched = (
                rrow.valid if rrow.valid is not None else np.ones(got.nrows, bool)
            )
            n_matched = int(matched.sum())
            assert matched[:n_matched].all()  # matched pairs first
            assert np.array_equal(
                np.lexsort((rrow.values[:n_matched], lrow[:n_matched])),
                np.arange(n_matched),
            )
            assert np.all(np.diff(lrow[n_matched:]) > 0)  # then the misses
            assert how == "left" or n_matched == got.nrows
        want = execute_join(left, right, ["k"], ["k2"], how, _SpillCtx())
        _assert_rows_bitwise(want, got, f"{how} x{fanout}")
