"""Dictionary kernels run once per dictionary: string comparisons, IN,
LIKE, SUBSTRING and UPPER/LOWER derive their per-entry result through the
engine's one identity memo (``repro.engine.keycache.key_cache``), which
the encoded predicate compiler shares.
Each result is computed once per (dictionary, expression), dies with its
dictionary, is read-only, and stays right past the per-dictionary limit
and under concurrent evaluation."""

import gc
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.engine import Column, Database, Executor, Frame, Q, Table, col
from repro.engine import expr as expr_module
from repro.engine import keycache
from repro.engine.compression import compress_table
from repro.engine.encoded import compile_conjunct
from repro.engine.expr import Like
from repro.engine.profile import OperatorContext

_WORDS = ["anchor", "band", "canal", "delta", "ember", "fan", "gamma", "hand", "iris"]


def _ctx():
    ctx = OperatorContext(None, None)
    ctx.begin_operator("filter")
    return ctx


def _frame(values):
    return Frame({"s": Column.from_strings(values)}, len(values))


@pytest.fixture
def spy(monkeypatch):
    """Counts every run of a per-dictionary kernel by (dictionary, key)."""
    runs = Counter()
    memoized = expr_module._per_dictionary

    def counting(dictionary, key, compute):
        def run(d):
            runs[id(dictionary), key] += 1
            return compute(d)

        return memoized(dictionary, key, run)

    monkeypatch.setattr(expr_module, "_per_dictionary", counting)
    return runs


def _db():
    rng = np.random.default_rng(5)
    n = 60
    names = [f"{_WORDS[i % len(_WORDS)]}{i}" for i in range(n)]
    kinds = ["gold", "tin", "lead", "iron"]
    db = Database("dk")
    db.add(Table("p", {
        "pid": Column.from_ints(range(n)),
        "name": Column.from_strings(names),
        "kind": Column.from_strings([kinds[i % 4] for i in range(n)]),
    }))
    db.add(Table("o", {
        "opid": Column.from_ints(rng.integers(0, n, size=400).tolist()),
        "qty": Column.from_ints(rng.integers(1, 50, size=400).tolist()),
    }))
    return db, names, kinds


class TestOncePerDictionary:
    def test_each_kernel_runs_once_across_executions_and_a_late_gather(self, spy):
        db, names, kinds = _db()
        # The projection reads the right side of a late join: every
        # string column it evaluates is gathered through row ids.
        late = (
            Q(db).scan("o").join("p", on=[("opid", "pid")])
            .project(
                pid="pid",
                up=col("name").upper(),
                sub=col("name").substring(1, 3),
                like=col("name").like("%an%"),
                eq=col("kind") == "gold",
                isin=col("kind").isin(["gold", "tin"]),
            )
        )
        # A pushed-down scan filter over the same dictionaries.
        scan = Q(db).scan("p").filter(col("name").like("%an%") & (col("kind") == "gold"))
        with Executor(db) as executor:
            first = executor.execute(late).rows
            assert executor.execute(late).rows == first
            executor.execute(scan)
            executor.execute(scan)

        assert spy and all(count == 1 for count in spy.values())
        kinds_seen = Counter(key[0] if isinstance(key, tuple) else key for _, key in spy)
        assert kinds_seen == Counter(
            {"upper": 1, "substring": 1, "like": 1, "avg_len": 1, "cmp": 1, "in": 1}
        )
        for pid, up, sub, like, eq, isin in first:
            name, kind = names[pid], kinds[pid % 4]
            assert (up, sub, like) == (name.upper(), name[:3], "an" in name)
            assert (eq, isin) == (kind == "gold", kind in ("gold", "tin"))

    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_row_path_and_compiled_conjunct_give_one_mask(self, order):
        values = [f"{_WORDS[i % len(_WORDS)]}{i % 13}" for i in range(3000)]
        if order == "sorted":
            values.sort()  # long runs: RLE codes
        table = compress_table(Table("t", {"s": Column.from_strings(values)}))
        ccol = table.column("s")
        decoded = Frame({"s": ccol.to_column()}, len(values))
        for conjunct in (
            col("s") == "gamma6", col("s") < "delta", col("s") != "fan5",
            col("s").isin(["band1", "iris8", "nothing"]), col("s").like("%an%"),
        ):
            plan = compile_conjunct(conjunct, table)
            assert plan is not None, conjunct
            want = conjunct.evaluate(decoded, _ctx()).values
            assert np.array_equal(plan.mask(0, len(values), _ctx().work), want)
            # The compiled conjunct holds the row path's own stored mask.
            assert plan.dict_mask is conjunct.dictionary_mask(ccol.dictionary)


class TestMemoLifetime:
    def test_an_entry_dies_with_its_dictionary(self):
        frame = _frame(["ab", "b", "ab", "ca"])
        Like(col("s"), "a%").evaluate(frame, _ctx())
        dictionary = frame.column("s").dictionary
        ident, ref = id(dictionary), weakref.ref(dictionary)
        assert ident in keycache.key_cache._entries
        del frame, dictionary
        gc.collect()
        assert ref() is None
        assert ident not in keycache.key_cache._entries

    def test_past_the_limit_the_oldest_entry_goes_and_answers_stay_right(self, spy):
        values = [f"{w}{i}" for i, w in enumerate(_WORDS * 3)]
        frame = _frame(values)
        dictionary = frame.column("s").dictionary
        letters = "abcdefghijklmnop"[: keycache._PER_ARRAY + 1]
        patterns = [f"%{c}%" for c in letters]
        for pattern in patterns:
            Like(col("s"), pattern).dictionary_mask(dictionary)
        entries = keycache.key_cache._entries[id(dictionary)]
        assert len(entries) == keycache._PER_ARRAY
        assert ("like", patterns[0]) not in entries
        assert ("like", patterns[-1]) in entries
        for pattern, letter in zip(patterns, letters):
            got = Like(col("s"), pattern).evaluate(frame, _ctx()).values
            assert got.tolist() == [letter in v for v in values]
        assert spy[id(dictionary), ("like", patterns[0])] == 2  # recomputed once

    def test_stored_values_are_read_only(self):
        frame = _frame(["Ab", "b", "Ab", "cd"])
        ctx = _ctx()
        for expression in (
            col("s") == "b", col("s").isin(["b"]), col("s").like("A%"),
            col("s").substring(1, 1), col("s").upper(),
        ):
            expression.evaluate(frame, ctx)
        stored = list(keycache.key_cache._entries[id(frame.column("s").dictionary)].values())
        arrays = [
            part for value in stored
            for part in (value if isinstance(value, tuple) else (value,))
            if isinstance(part, np.ndarray)
        ]
        assert len(arrays) == 7  # three masks, two (dictionary, remap) pairs
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]


def test_four_threads_evaluating_one_like_get_identical_masks(spy):
    values = [f"{w}{i % 97}" for i, w in enumerate(_WORDS * 400)]
    frame = _frame(values)
    like = Like(col("s"), "%an%")
    barrier = threading.Barrier(4)
    masks, errors = [None] * 4, []

    def worker(slot):
        try:
            barrier.wait(timeout=10)
            masks[slot] = like.evaluate(frame, _ctx()).values
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    want = [("an" in v) for v in values]
    assert all(mask.tolist() == want for mask in masks)
    assert spy[id(frame.column("s").dictionary), ("like", "%an%")] == 1
