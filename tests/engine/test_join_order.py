"""Joins in estimated order: the estimator's rules, the plans the SQL
planner builds from them, and the semi/anti placements it may not make.

Rows are checked against stdlib ``sqlite3`` (``tests/tpch/sqlite_oracle``),
which shares no code with the planner.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.engine import Column, Database, Table, col, execute
from repro.engine.estimate import SAMPLE_ROWS, UNPRICED, Estimator, sample_indices
from repro.engine.fingerprint import plan_fingerprint
from repro.engine.plan import JoinNode, Q, ScanNode, agg
import repro
from repro.engine.sql import SqlError, sql
from repro.engine.sql import ast as A
from repro.engine.sql.parser import parse_statement
from repro.engine.sql.planner import plan_statement
from repro.tpch.sqltext import SQL_QUERY_NUMBERS, sql_text

from ..tpch import sqlite_oracle


def _db(n_fact: int = 1000, n_dim: int = 100) -> Database:
    rng = np.random.default_rng(3)
    db = Database("estimate")
    db.add(Table("dim", {
        "d_key": Column.from_ints(range(n_dim)),
        "d_tag": Column.from_strings([f"tag{i % 7}" for i in range(n_dim)]),
    }))
    db.add(Table("fact", {
        "f_key": Column.from_ints(rng.integers(0, n_dim, n_fact).tolist()),
        "f_x": Column.from_ints(range(n_fact)),
        "f_y": Column.from_ints(rng.integers(0, n_fact, n_fact).tolist()),
    }))
    return db


def _scan(db, table):
    return Q(db).scan(table).node


class TestEstimator:
    def test_the_sample_is_fixed_and_strided(self):
        idx = sample_indices(10_000)
        assert len(idx) <= SAMPLE_ROWS and idx[0] == 0
        assert len(set(np.diff(idx))) == 1
        assert np.array_equal(idx, sample_indices(10_000))
        db = _db(n_fact=50_000)
        pred = [col("f_y") < 20_000]
        first = Estimator(db).filtered_rows(_scan(db, "fact"), pred)
        assert Estimator(db).filtered_rows(_scan(db, "fact"), pred) == first

    @pytest.mark.parametrize("conjuncts, expected", [
        ([col("f_x") < 37], 37),
        ([col("f_x").isin([1, 5, 900, 5000])], 3),
        ([col("f_x") >= 10, col("f_x") < 20], 10),
        ([col("f_y") > col("f_x")], None),
    ])
    def test_selectivity_is_exact_below_the_sample_size(self, conjuncts, expected):
        db = _db(n_fact=1000)
        fact = db.table("fact")
        if expected is None:
            expected = int((fact.column("f_y").values > fact.column("f_x").values).sum())
        assert Estimator(db).filtered_rows(_scan(db, "fact"), conjuncts) == expected

    def test_like_and_string_equality_are_sampled(self):
        db = _db()
        est = Estimator(db)
        assert est.filtered_rows(_scan(db, "dim"), [col("d_tag") == "tag3"]) == 14
        assert est.filtered_rows(_scan(db, "dim"), [col("d_tag").like("tag%")]) == 100

    def test_unique_build_key_prices_probe_times_filtered_share(self):
        db = _db()
        est = Estimator(db)
        assert est.ndv(_scan(db, "dim"), ["d_key"]) == 100  # unique: its row count
        dim = Q(db).scan("dim").filter(col("d_key") < 25)
        plan = Q(db).scan("fact").join(dim, on=[("f_key", "d_key")])
        assert est.rows(plan.node) == pytest.approx(1000 * 25 / 100)

    def test_non_unique_keys_divide_by_the_larger_ndv(self):
        db = _db()
        est = Estimator(db)
        plan = Q(db).scan("fact").join(Q(db).scan("fact").project(k=col("f_key")),
                                       on=[("f_key", "k")])
        ndv = est.ndv(_scan(db, "fact"), ["f_key"])
        assert ndv < 1000
        assert est.rows(plan.node) == pytest.approx(1000 * 1000 / ndv)

    def test_having_keeps_the_unpriced_share_of_the_groups(self):
        db = _db()
        est = Estimator(db)
        grouped = Q(db).scan("fact").aggregate(by=["f_key"], n=agg.count_star())
        groups = est.ndv(_scan(db, "fact"), ["f_key"])
        assert est.rows(grouped.node) == groups
        having = grouped.filter(col("n") > 12)
        assert est.rows(having.node) == pytest.approx(groups * UNPRICED)


# -- plans -----------------------------------------------------------------


def _joins(node):
    return [n for n in node.walk() if isinstance(n, JoinNode)]


def _tables(node):
    return {n.table for n in node.walk() if isinstance(n, ScanNode)}


def _select_blocks(stmt) -> int:
    """How many SELECT blocks a syntax tree holds."""
    blocks, stack = 0, [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, A.Node):
            blocks += isinstance(node, A.SelectStmt)
            stack.extend(vars(node).values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
    return blocks


def _first_join(node) -> JoinNode:
    """The inner join that runs first: neither input holds another."""
    joins = [n for n in node.walk() if isinstance(n, JoinNode) and n.how == "inner"]
    return next(j for j in joins if not any(
        isinstance(n, JoinNode) and n.how == "inner"
        for side in (j.left, j.right) for n in side.walk()))


class TestPlanShape:
    def test_q18_semi_join_sits_over_the_orders_scan(self, tpch_db, tpch_params):
        plan = sql(tpch_db, sql_text(18, tpch_params))
        (semi,) = [j for j in _joins(plan.node) if j.how == "semi"]
        assert isinstance(semi.left, ScanNode) and semi.left.table == "orders"

    @pytest.mark.parametrize("number, dimension", [(5, "region"), (21, "nation")])
    def test_filtered_dimension_is_joined_first(self, tpch_db, tpch_params,
                                                number, dimension):
        plan = sql(tpch_db, sql_text(number, tpch_params))
        assert dimension in _tables(_first_join(plan.node))
        assert "lineitem" not in _tables(_first_join(plan.node))

    def test_anti_join_that_keeps_almost_everything_stays_on_top(self, tpch_db,
                                                                 tpch_params):
        """Q16's NOT IN keeps ~99.5 % of partsupp: sinking it under the
        part join costs more than it saves."""
        plan = sql(tpch_db, sql_text(16, tpch_params))
        (anti,) = [j for j in _joins(plan.node) if j.how == "anti"]
        assert isinstance(anti.left, JoinNode)

    def test_same_text_same_plan(self, tpch_db, tpch_params):
        for number in (2, 5, 7, 8, 9, 18, 21):
            text = sql_text(number, tpch_params)
            assert plan_fingerprint(sql(tpch_db, text)) == \
                plan_fingerprint(sql(tpch_db, text))

    @pytest.mark.parametrize("number", [5, 21])
    def test_join_clause_permutations_plan_alike(self, tpch_db, tpch_params, number):
        stmt = parse_statement(sql_text(number, tpch_params))
        prints, valid = set(), 0
        for joins in itertools.permutations(stmt.joins):
            try:
                plan = plan_statement(tpch_db, dataclasses.replace(stmt, joins=joins))
            except SqlError:
                continue  # an ON naming a table not joined yet
            prints.add(plan_fingerprint(plan))
            valid += 1
        assert valid > 1 and len(prints) == 1

    def test_plans_do_not_depend_on_the_hash_seed(self):
        """Two interpreters with different string hashes plan the 22
        texts alike (a set's iteration order must not reach a plan)."""
        script = (
            "from repro.engine.fingerprint import plan_fingerprint\n"
            "from repro.engine.sql import sql\n"
            "from repro.tpch import generate\n"
            "from repro.tpch.sqltext import SQL_QUERY_NUMBERS, sql_text\n"
            "db = generate(0.01, seed=42)\n"
            "for n in SQL_QUERY_NUMBERS:\n"
            "    print(n, plan_fingerprint(sql(db, sql_text(n, {'sf': 0.01}))))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        prints = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=300, check=True)
            prints.append(run.stdout.splitlines())
        assert len(prints[0]) == len(SQL_QUERY_NUMBERS)
        assert prints[0] == prints[1]

    def test_each_select_block_is_lowered_once(self, tpch_db, tpch_params, monkeypatch):
        """Planning the 22 texts lowers each SELECT block's FROM+WHERE
        once: an uncorrelated subquery finishes the lowering it tried to
        correlate instead of planning the block again."""
        planner = importlib.import_module("repro.engine.sql.planner")
        from_where, calls = planner._SelectLowering._from_where, []

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return from_where(self, *args, **kwargs)

        monkeypatch.setattr(planner._SelectLowering, "_from_where", counted)
        blocks = 0
        for number in SQL_QUERY_NUMBERS:
            stmt = parse_statement(sql_text(number, tpch_params))
            blocks += _select_blocks(stmt)
            plan_statement(tpch_db, stmt)
        assert len(calls) == blocks == 46
        assert len({id(block) for block in calls}) == blocks

    def test_select_star_keeps_text_column_order(self, tpch_db):
        text = ("SELECT * FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
                "JOIN customer ON o_custkey = c_custkey "
                "JOIN nation ON c_nationkey = n_nationkey "
                "WHERE n_name = 'BRAZIL' AND l_quantity < 2")
        plan = sql(tpch_db, text)
        assert "lineitem" not in _tables(_first_join(plan.node))  # reordered
        names = [name for table in ("lineitem", "orders", "customer", "nation")
                 for name in tpch_db.table(table).column_names]
        assert list(execute(tpch_db, plan).column_names) == names


# -- semi/anti placement against the oracle -----------------------------------


@pytest.fixture(scope="module")
def sqlite_db(tpch_db):
    conn = sqlite_oracle.load(tpch_db)
    yield conn
    conn.close()


def _inside(node, target) -> bool:
    return any(n is target for n in node.walk())


class TestSemiAntiLegality:
    def test_semi_join_keyed_by_two_relations(self, tpch_db, sqlite_db):
        text = """
            SELECT c_nationkey, COUNT(*) AS n
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            WHERE c_acctbal > 0
              AND EXISTS (SELECT * FROM lineitem
                          JOIN supplier ON l_suppkey = s_suppkey
                          WHERE l_orderkey = o_orderkey
                            AND s_nationkey = c_nationkey
                            AND l_quantity > 45
                            AND l_discount > 0.08)
            GROUP BY c_nationkey
            ORDER BY c_nationkey
        """
        plan = sql(tpch_db, text)
        (semi,) = [j for j in _joins(plan.node) if j.how == "semi"]
        assert {"orders", "customer"} <= _tables(semi.left)
        ours = execute(tpch_db, plan).rows
        sqlite_oracle.assert_rows_equal(ours, sqlite_oracle.run(sqlite_db, text), "semi2")
        assert ours  # the check compares rows, not two empty sets

    def test_not_in_on_the_null_supplying_side_stays_above_the_left_join(
            self, tpch_db, sqlite_db):
        """Sinking the anti join onto ``orders`` would turn a customer
        whose every order is excluded into a NULL-extended row."""
        query = """
            SELECT c_custkey, COUNT(o_orderkey) AS orders, COUNT(*) AS n
            FROM customer
            LEFT JOIN orders ON c_custkey = o_custkey
            JOIN nation ON c_nationkey = n_nationkey
            WHERE n_name = 'BRAZIL'
              AND {anti}
            GROUP BY c_custkey
            ORDER BY c_custkey
        """
        excluded = "(SELECT l_orderkey FROM lineitem WHERE l_quantity > 8)"
        plan = sql(tpch_db, query.format(anti=f"o_orderkey NOT IN {excluded}"))
        (anti,) = [j for j in _joins(plan.node) if j.how == "anti"]
        (left,) = [j for j in _joins(plan.node) if j.how == "left"]
        assert _inside(anti.left, left)
        # The engine's anti join keeps NULL keys (NULL matches nothing);
        # sqlite's NOT IN drops them, so the oracle's text spells that out.
        oracle = query.format(
            anti=f"(o_orderkey IS NULL OR o_orderkey NOT IN {excluded})")
        ours = execute(tpch_db, plan).rows
        sqlite_oracle.assert_rows_equal(ours, sqlite_oracle.run(sqlite_db, oracle),
                                        "anti-left")
        assert any(row[1] == 0 for row in ours)  # NULL-extended customers are there

    def test_anti_join_that_must_not_sink(self, tpch_db, sqlite_db, tpch_params):
        text = sql_text(16, tpch_params)
        ours = execute(tpch_db, sql(tpch_db, text)).rows
        sqlite_oracle.assert_rows_equal(ours, sqlite_oracle.run(sqlite_db, text), 16)


# -- remembered decisions -----------------------------------------------------


_SEMI_TEXT = ("SELECT f_x, d_tag FROM fact JOIN dim ON f_key = d_key "
              "WHERE d_tag = 'tag3' AND f_y IN (SELECT f_x FROM fact WHERE f_x < 40)")


@pytest.fixture
def counted_estimators(monkeypatch):
    """How many estimators the planner made."""
    planner = importlib.import_module("repro.engine.sql.planner")
    made = []

    class Counted(Estimator):
        def __init__(self, db):
            made.append(db)
            super().__init__(db)

    monkeypatch.setattr(planner, "Estimator", Counted)
    return made


def _planned(db, text):
    orders = []
    plan = plan_statement(db, parse_statement(text), orders=orders)
    return plan_fingerprint(plan), orders


class TestRememberedDecisions:
    def test_a_statement_planned_again_replays_its_decisions(self, counted_estimators):
        db = _db()
        first = _planned(db, _SEMI_TEXT)
        assert first[1]
        assert _planned(db, _SEMI_TEXT) == first  # plan, orders
        assert len(counted_estimators) == 1

    def test_another_literal_is_another_statement(self, counted_estimators):
        db = _db()
        _planned(db, _SEMI_TEXT)
        _planned(db, _SEMI_TEXT.replace("'tag3'", "'tag4'"))
        assert len(counted_estimators) == 2

    def test_a_replaced_table_is_estimated_again(self, counted_estimators):
        db = _db()
        _planned(db, _SEMI_TEXT)
        db.add(Table("dim", {name: db.table("dim").column(name)
                             for name in db.table("dim").column_names}))
        _planned(db, _SEMI_TEXT)
        assert len(counted_estimators) == 2

    def test_threads_planning_one_catalog_get_fresh_plans(self, monkeypatch):
        """More planners than cores share one catalog's memo while it
        evicts; every plan equals the one a fresh catalog builds."""
        monkeypatch.setattr(importlib.import_module("repro.engine.sql.planner"),
                            "REMEMBERED_STATEMENTS", 2)
        texts = [_SEMI_TEXT.replace("'tag3'", f"'tag{i}'") for i in range(4)]
        fresh = {text: _planned(_db(), text) for text in texts}
        db, wrong = _db(), []

        def plan_all():
            for _ in range(15):
                for text in texts:
                    if _planned(db, text) != fresh[text]:
                        wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=plan_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
