"""Differential suite: late materialization on vs off across all 22 queries.

Every TPC-H query at SF 0.01 runs four ways — serial and 4-worker
morsel-parallel, each with selection-vector (late) execution enabled
(the default) and disabled (the ``--no-latemat`` ablation) — and all
four must agree with each other and with the committed goldens. A
selection vector that drops or duplicates a row id, a gather that reads
through the wrong base column, or a morsel boundary that forgets to
densify shows up as a row-level diff here.

Also hosted here, because they guard the same machinery:

* a Hypothesis property that the dictionary-code predicate kernels
  (equality, range, IN, LIKE over int codes) agree with naive decoded
  evaluation on random string columns — including NULLs and probe
  values that are not dictionary-resident;
* the ``combine_codes`` overflow regression (mixed-radix key mixing
  falls back to lexicographic factorization instead of wrapping int64);
* the NULL-sentinel boundary test (grouping columns holding the int64
  extremes must keep NULL as its own group);
* unit tests for the process-wide join-key factorization cache.
"""

from __future__ import annotations

import gc
import json
import math
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Executor, Frame, OptimizerSettings, col
from repro.engine.keycache import KeyCache, combine_codes, key_cache
from repro.engine.operators.aggregate import count_star, execute_aggregate, sum_
from repro.engine.plan import LimitNode, SortNode
from repro.engine.profile import WorkProfile
from repro.engine.table import Database, Table
from repro.tpch import ALL_QUERY_NUMBERS, get_query

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "tpch" / "data" / "golden_sf001_seed42.json").read_text()
)

MORSEL_ROWS = 2048  # force real multi-morsel execution at SF 0.01
WORKERS = 4

LATE = OptimizerSettings()
EAGER = LATE.without_latemat()


class _Ctx:
    """Minimal evaluation context: a fresh profile with one operator."""

    def __init__(self):
        self.profile = WorkProfile()
        self.work = self.profile.new_operator("test")

    def scalar(self, plan):  # pragma: no cover - not used here
        raise NotImplementedError


def _is_ordered(plan) -> bool:
    node = plan.node
    while isinstance(node, LimitNode):
        node = node.child
    return isinstance(node, SortNode)


def _assert_values_equal(expected_rows, actual_rows, label):
    assert len(expected_rows) == len(actual_rows), label
    for i, (expected, actual) in enumerate(zip(expected_rows, actual_rows)):
        assert len(expected) == len(actual)
        for a, b in zip(expected, actual):
            if isinstance(a, float) and isinstance(b, float):
                if math.isnan(a) and math.isnan(b):
                    continue
                assert b == pytest.approx(a, rel=1e-9, abs=1e-9), (
                    f"{label} row {i}: {a!r} != {b!r}"
                )
            else:
                assert a == b, f"{label} row {i}: {a!r} != {b!r}"


def _canonical(rows):
    def norm(v):
        if isinstance(v, float):
            return "nan" if math.isnan(v) else round(v, 7)
        return v

    return sorted(tuple(norm(v) for v in row) for row in rows)


def _numeric_sum(rows) -> float:
    total = 0.0
    for row in rows:
        for value in row:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if isinstance(value, float) and math.isnan(value):
                    continue
                total += float(value)
    return total


def _assert_same(plan, reference, candidate, label):
    assert candidate.column_names == reference.column_names
    if _is_ordered(plan):
        _assert_values_equal(reference.rows, candidate.rows, label)
    else:
        assert _canonical(candidate.rows) == _canonical(reference.rows), label


@pytest.fixture(scope="module")
def latemat_executors(tpch_db):
    made = {
        "late": Executor(
            tpch_db, workers=WORKERS, morsel_rows=MORSEL_ROWS,
            settings=LATE,
        ),
        "eager": Executor(
            tpch_db, workers=WORKERS, morsel_rows=MORSEL_ROWS,
            settings=EAGER,
        ),
    }
    yield made
    for executor in made.values():
        executor.close()


class TestLatematDifferential:
    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    def test_four_way_agreement(
        self, tpch_db, tpch_params, latemat_executors, number
    ):
        plan = get_query(number).build(tpch_db, tpch_params)
        serial_eager = Executor(tpch_db, EAGER).execute(plan)
        serial_late = Executor(tpch_db, LATE).execute(plan)
        parallel_late = latemat_executors["late"].execute(plan)
        parallel_eager = latemat_executors["eager"].execute(plan)

        _assert_same(plan, serial_eager, serial_late, f"Q{number} serial late-vs-eager")
        _assert_same(plan, serial_late, parallel_late, f"Q{number} parallel-late")
        _assert_same(plan, serial_eager, parallel_eager, f"Q{number} parallel-eager")

    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    def test_latemat_with_and_without_skipping(self, tpch_db, tpch_params, number):
        """The latemat axis composes with the skipping axis: disabling
        pushdown/skipping under late execution still matches eager."""
        plan = get_query(number).build(tpch_db, tpch_params)
        reference = Executor(tpch_db, EAGER).execute(plan)
        no_skip_late = Executor(tpch_db, OptimizerSettings.disabled()).execute(plan)
        _assert_same(plan, reference, no_skip_late, f"Q{number} no-skip late")

    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    def test_latemat_matches_golden(
        self, tpch_db, tpch_params, latemat_executors, number
    ):
        expected = GOLDEN[str(number)]
        plan = get_query(number).build(tpch_db, tpch_params)
        result = latemat_executors["late"].execute(plan)
        assert len(result) == expected["rows"]
        assert result.column_names == expected["columns"]
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
                    assert float(actual) == pytest.approx(
                        pinned_value, rel=1e-9, abs=1e-9
                    )

    def test_late_run_reports_savings(self, tpch_db, tpch_params):
        """A selective scan under late execution must record avoided
        rewrite bytes; the eager run must record none."""
        plan = get_query(6).build(tpch_db, tpch_params)
        late = Executor(tpch_db, LATE).execute(plan)
        eager = Executor(tpch_db, EAGER).execute(plan)
        assert late.profile.saved_bytes > 0
        assert eager.profile.saved_bytes == 0
        assert eager.profile.gather_bytes == 0


# ----------------------------------------------------------------------
# Dictionary-code predicate kernels vs decoded evaluation
# ----------------------------------------------------------------------

_WORDS = ["apple", "banana", "cherry", "kiwi", "mango", "plum", ""]
# Probe values beyond the generated vocabulary: never dictionary-resident.
_PROBES = _WORDS + ["durian", "aaa", "zzz", "ap", "apple pie"]


def _string_column(words: list[str], null_mask: list[bool]) -> Column:
    base = Column.from_strings(words)
    valid = np.asarray([not n for n in null_mask], dtype=np.bool_)
    if valid.all():
        return base
    return Column(base.dtype, base.values, dictionary=base.dictionary, valid=valid)


def _decoded_list(column: Column) -> list:
    out = column.decoded().tolist()
    if column.valid is not None:
        return [v if ok else None for v, ok in zip(out, column.valid.tolist())]
    return out


@st.composite
def _column_and_probe(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    words = draw(st.lists(st.sampled_from(_WORDS), min_size=n, max_size=n))
    nulls = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    probe = draw(st.sampled_from(_PROBES))
    return words, nulls, probe


class TestDictionaryKernelsAgree:
    """The code-mapped kernels must agree with per-row decoded semantics,
    with NULL comparing false everywhere."""

    @settings(max_examples=120, deadline=None)
    @given(data=_column_and_probe(), op=st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
    def test_comparisons(self, data, op):
        words, nulls, probe = data
        column = _string_column(words, nulls)
        frame = Frame({"s": column}, len(words))
        expr = {
            "==": col("s") == probe, "!=": col("s") != probe,
            "<": col("s") < probe, "<=": col("s") <= probe,
            ">": col("s") > probe, ">=": col("s") >= probe,
        }[op]
        got = expr.evaluate(frame, _Ctx()).values.tolist()
        py_op = {
            "==": lambda v: v == probe, "!=": lambda v: v != probe,
            "<": lambda v: v < probe, "<=": lambda v: v <= probe,
            ">": lambda v: v > probe, ">=": lambda v: v >= probe,
        }[op]
        want = [v is not None and py_op(v) for v in _decoded_list(column)]
        assert got == want

    @settings(max_examples=120, deadline=None)
    @given(
        data=_column_and_probe(),
        extra=st.lists(st.sampled_from(_PROBES), min_size=0, max_size=4),
    )
    def test_isin(self, data, extra):
        words, nulls, probe = data
        column = _string_column(words, nulls)
        frame = Frame({"s": column}, len(words))
        wanted = [probe] + extra
        got = col("s").isin(wanted).evaluate(frame, _Ctx()).values.tolist()
        want = [v is not None and v in set(wanted) for v in _decoded_list(column)]
        assert got == want

    @settings(max_examples=120, deadline=None)
    @given(
        data=_column_and_probe(),
        pattern=st.sampled_from(
            ["%an%", "a%", "%y", "_pple", "%", "", "ap_le", "%a%a%", "zzz%"]
        ),
    )
    def test_like(self, data, pattern):
        words, nulls, _ = data
        column = _string_column(words, nulls)
        frame = Frame({"s": column}, len(words))
        got = col("s").like(pattern).evaluate(frame, _Ctx()).values.tolist()

        def like(value: str) -> bool:
            import re

            regex = "^" + "".join(
                ".*" if c == "%" else "." if c == "_" else re.escape(c) for c in pattern
            ) + "$"
            return re.match(regex, value, re.DOTALL) is not None

        want = [v is not None and like(v) for v in _decoded_list(column)]
        assert got == want

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=30),
        data=st.data(),
    )
    def test_shared_dictionary_column_equality(self, n, data):
        left = data.draw(st.lists(st.sampled_from(_WORDS), min_size=n, max_size=n))
        base = Column.from_strings(left + _WORDS)  # one dictionary for both
        lcol = base.slice(0, n)
        # Right side: a shuffled view over the same dictionary object.
        perm = data.draw(st.permutations(list(range(n))))
        rcol = lcol.take(np.asarray(perm, dtype=np.int64)) if n else lcol
        assert lcol.dictionary is rcol.dictionary
        frame = Frame({"a": lcol, "b": rcol}, n)
        got_eq = (col("a") == col("b")).evaluate(frame, _Ctx()).values.tolist()
        got_ne = (col("a") != col("b")).evaluate(frame, _Ctx()).values.tolist()
        la, lb = lcol.decoded().tolist(), rcol.decoded().tolist()
        assert got_eq == [a == b for a, b in zip(la, lb)]
        assert got_ne == [a != b for a, b in zip(la, lb)]


# ----------------------------------------------------------------------
# combine_codes overflow regression (satellite: _combine_keys wrapping)
# ----------------------------------------------------------------------

class TestCombineCodesOverflow:
    def test_small_cardinalities_use_mixed_radix(self):
        a = np.asarray([0, 1, 1, 0], dtype=np.int64)
        b = np.asarray([2, 0, 2, 2], dtype=np.int64)
        combined = combine_codes([a, b], [2, 3])
        assert combined.tolist() == [2, 3, 5, 2]

    def test_huge_cardinality_product_does_not_wrap(self):
        """cards whose product exceeds 2**63 must not silently wrap; the
        lexicographic fallback keeps distinct tuples distinct and
        preserves tuple order."""
        rng = np.random.default_rng(7)
        n = 500
        a = rng.integers(0, 2**32, size=n).astype(np.int64)
        b = rng.integers(0, 2**32, size=n).astype(np.int64)
        cards = [2**32, 2**32]  # product = 2**64 >= 2**63
        combined = combine_codes([a, b], cards)
        tuples = list(zip(a.tolist(), b.tolist()))
        # Same tuple <-> same code; distinct tuple <-> distinct code.
        seen: dict[tuple, int] = {}
        for t, c in zip(tuples, combined.tolist()):
            assert seen.setdefault(t, c) == c
        assert len(set(seen.values())) == len(seen)
        # Codes rank tuples lexicographically, like mixed-radix would.
        by_code = sorted(zip(combined.tolist(), tuples))
        assert [t for _, t in by_code] == sorted(tuples)

    def test_wrapping_collision_scenario(self):
        """The exact naive failure: two different tuples whose naive
        mixed-radix keys collide mod 2**64."""
        card = 2**62
        a = np.asarray([0, 4], dtype=np.int64)
        b = np.asarray([0, 0], dtype=np.int64)
        # naive: 0*card+0 = 0 and 4*card+0 = 2**64 ≡ 0 (wrapped) — collision.
        naive = (a * np.int64(card) + b).tolist() if card < 2**62 else None
        combined = combine_codes([a, b], [card, card])
        assert combined[0] != combined[1]

    def test_group_by_across_overflow_boundary_matches_reference(self):
        """End-to-end: an 8-column GROUP BY whose per-column cardinalities
        multiply past 2**63 still aggregates correctly."""
        rng = np.random.default_rng(11)
        n = 400
        names = [f"k{i}" for i in range(8)]
        cols = {}
        arrays = {}
        for name in names:
            # ~256 distinct values per column: 256**8 = 2**64 >= 2**63.
            values = rng.integers(0, 256, size=n).astype(np.int64)
            # Force full cardinality so the product genuinely overflows.
            values[:256] = np.arange(256)
            arrays[name] = values
            cols[name] = Column.from_ints(values.tolist())
        weights = rng.random(n)
        cols["w"] = Column.from_floats(weights.tolist())
        frame = Frame(cols, n)
        ctx = _Ctx()
        out = execute_aggregate(
            frame, names, {"total": sum_(col("w")), "cnt": count_star()}, ctx
        )
        reference: dict[tuple, list] = {}
        for i in range(n):
            key = tuple(int(arrays[name][i]) for name in names)
            entry = reference.setdefault(key, [0.0, 0])
            entry[0] += float(weights[i])
            entry[1] += 1
        assert out.nrows == len(reference)
        got = {}
        key_cols = [out.column(name).values for name in names]
        totals = out.column("total").values
        counts = out.column("cnt").values
        for i in range(out.nrows):
            key = tuple(int(k[i]) for k in key_cols)
            got[key] = (totals[i], int(counts[i]))
        for key, (total, cnt) in reference.items():
            assert got[key][1] == cnt
            assert got[key][0] == pytest.approx(total, rel=1e-9)


# ----------------------------------------------------------------------
# NULL group sentinel at the int64 boundary (satellite: _group_ids)
# ----------------------------------------------------------------------

class TestNullSentinelBoundary:
    _MIN = np.iinfo(np.int64).min
    _MAX = np.iinfo(np.int64).max

    def _frame(self, values, valid):
        column = Column(
            Column.from_ints([0]).dtype,
            np.asarray(values, dtype=np.int64),
            valid=np.asarray(valid, dtype=np.bool_),
        )
        return Frame({"k": column, "v": Column.from_floats([1.0] * len(values))},
                     len(values))

    def test_null_group_survives_dtype_minimum(self):
        """A grouping column holding int64 min: the old ``min() - 1``
        sentinel wraps to int64 max and merges NULLs into the wrong
        group. NULL must stay its own group."""
        frame = self._frame(
            [self._MIN, self._MAX, self._MAX, self._MIN],
            [True, True, False, True],
        )
        out = execute_aggregate(
            frame, ["k"], {"cnt": count_star(), "s": sum_(col("v"))}, _Ctx()
        )
        # Groups: NULL (1 row), MIN (2 rows), MAX (1 row).
        assert out.nrows == 3
        counts = dict(zip(out.column("k").to_list(), out.column("cnt").to_list()))
        assert counts[self._MIN] == 2
        assert counts[self._MAX] == 1

    def test_nulls_sort_before_valid_values(self):
        """NULL keeps the position the old sentinel gave it: first in the
        factorized group order."""
        frame = self._frame([5, self._MIN, 7], [True, True, False])
        out = execute_aggregate(frame, ["k"], {"cnt": count_star()}, _Ctx())
        keys = out.column("k").values.tolist()
        valid = out.column("k").valid
        # Row 0 is the NULL group, then MIN, then 5.
        assert out.nrows == 3
        assert keys[1:] == [self._MIN, 5]
        if valid is not None:
            assert not bool(valid[0])

    def test_all_null_column_single_group(self):
        frame = self._frame([1, 2, 3], [False, False, False])
        out = execute_aggregate(frame, ["k"], {"cnt": count_star()}, _Ctx())
        assert out.nrows == 1
        assert out.column("cnt").to_list() == [3]


# ----------------------------------------------------------------------
# Join-key factorization cache
# ----------------------------------------------------------------------

class TestKeyCache:
    def test_factorize_identity_hit(self):
        cache = KeyCache()
        arr = np.asarray([3, 1, 3, 2], dtype=np.int64)
        u1, c1 = cache.factorize(arr)
        u2, c2 = cache.factorize(arr)
        assert u1 is u2 and c1 is c2
        assert u1.tolist() == [1, 2, 3]
        assert c1.tolist() == [2, 0, 2, 1]
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_equal_but_distinct_arrays_miss(self):
        cache = KeyCache()
        a = np.asarray([1, 2], dtype=np.int64)
        b = a.copy()
        cache.factorize(a)
        cache.factorize(b)
        assert cache.stats()["misses"] == 2

    def test_sort_order_cached_and_stable(self):
        cache = KeyCache()
        arr = np.asarray([2, 1, 2, 0], dtype=np.int64)
        o1 = cache.sort_order(arr)
        o2 = cache.sort_order(arr)
        assert o1 is o2
        assert o1.tolist() == [3, 1, 0, 2]

    def test_the_memo_pins_nothing(self):
        """A transient key array dies with its last user; the memo's
        finalizer drops its entry."""
        arr = np.arange(1_000, dtype=np.int64)
        ident, ref = id(arr), weakref.ref(arr)
        key_cache.factorize(arr)
        assert ident in key_cache._entries
        del arr
        gc.collect()
        assert ref() is None
        assert ident not in key_cache._entries

    def test_thread_safety_smoke(self):
        cache = KeyCache()
        arrays = [np.arange(64, dtype=np.int64) + i for i in range(8)]
        errors = []

        def worker():
            try:
                for _ in range(50):
                    for arr in arrays:
                        uniques, codes = cache.factorize(arr)
                        assert len(uniques) == 64 and len(codes) == 64
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_process_wide_cache_hits_on_repeated_join(self):
        """Two executions of the same join against immutable tables hit
        the build-order cache the second time — where build keys repeat;
        a unique build side is its own slot table and never asks."""
        db = Database("kc")
        n = 10_000
        rng = np.random.default_rng(3)
        db.add(Table("l", {
            "k": Column.from_ints(rng.integers(0, 500, size=n).tolist()),
            "x": Column.from_floats(rng.random(n).tolist()),
        }))
        db.add(Table("r", {
            "k2": Column.from_ints(list(range(500)) * 2),
            "y": Column.from_floats([float(i) for i in range(1000)]),
        }))
        db.add(Table("u", {
            "k3": Column.from_ints(list(range(500))),
            "z": Column.from_floats([float(i) for i in range(500)]),
        }))
        from repro.engine.plan import Q

        plan = Q(db).scan("l").join(Q(db).scan("r"), on=[("k", "k2")])
        executor = Executor(db)
        executor.execute(plan)
        before = key_cache.stats()["hits"]
        executor.execute(plan)
        assert key_cache.stats()["hits"] > before

        unique = Q(db).scan("l").join(Q(db).scan("u"), on=[("k", "k3")])
        before = key_cache.stats()
        executor.execute(unique)
        assert key_cache.stats() == before
