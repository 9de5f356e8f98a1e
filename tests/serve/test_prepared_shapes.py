"""The prepared-shape wall: a re-bound request equals a fresh trip.

``QueryServer`` takes the frontend trip (parse, plan, optimize, mine,
route, price) once per request *shape* and re-binds fresh slot literals
into the prepared routed plan after that. Every property below compares
a server whose map holds the shape (``hot``) with one whose map is
emptied before each request (``cold``, the fresh trip):

* (a) equal ``plan_fingerprint``, equal rows and an equal price, for
  random literals in the ``serve_closed`` dashboard shapes, the 22 TPC-H
  texts re-dated and re-numbered, and ``test_sql_roundtrip``'s grammar;
* (b) an invalid DATE in a slot raises the fresh trip's ``SqlError``,
  also while a valid request of the same shape races it;
* (c) cubes built after traffic route the next request of a cached
  shape as a fresh trip would;
* (d) two bindings of one shape never share a key;
* a 900-conjunct chain answers like the serial engine, first trip and
  bound trip alike;
* a cached decision still counts: router counters and the miner end up
  as if every request had taken the trip.

Derandomized; ``HYPOTHESIS_PROFILE=ci`` raises the example counts.
"""

from __future__ import annotations

import datetime as dt
import os
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, Executor, Table
from repro.engine.fingerprint import plan_fingerprint
from repro.engine.sql import SqlError, sql, tokenize
from repro.rollup import ROUTER_STATS, enable_rollups, routed_tables
from repro.serve import QueryServer
from repro.serve.server import _Request
from repro.tpch.sqltext import SQL_QUERY_NUMBERS, sql_text

from ..engine.test_sql_roundtrip import DB as GRAMMAR_DB
from ..engine.test_sql_roundtrip import _random_grouped_select, _random_select

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"
_WALL = settings(max_examples=300 if _CI else 30, derandomize=True, deadline=None)

PRICING = (
    "SELECT l_returnflag, l_linestatus, "
    "SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base, "
    "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc, "
    "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
    "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
    "AVG(l_discount) AS avg_disc, COUNT(*) AS n "
    "FROM lineitem WHERE l_shipdate <= DATE '{d}' "
    "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
)
DAILY = (
    "SELECT l_shipdate, SUM(l_extendedprice) AS revenue, COUNT(*) AS n "
    "FROM lineitem WHERE l_shipdate >= DATE '{d}' "
    "GROUP BY l_shipdate ORDER BY l_shipdate"
)
FLAG = (
    "SELECT l_returnflag, SUM(l_quantity) AS qty, COUNT(*) AS n "
    "FROM lineitem WHERE l_shipdate <= DATE '{d}' "
    "GROUP BY l_returnflag ORDER BY l_returnflag"
)
PRIO = (
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders "
    "WHERE o_orderdate >= DATE '{d}' GROUP BY o_orderpriority ORDER BY o_orderpriority"
)
Q6 = (
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_shipdate >= DATE '{d}' AND l_shipdate < DATE '{e}' "
    "AND l_discount BETWEEN {lo} AND {hi} AND l_quantity < {q}"
)
DASHBOARDS = (PRICING, DAILY, FLAG)
SHAPES = DASHBOARDS + (PRIO, Q6)


def _date(rng: random.Random) -> str:
    return str(dt.date(1992, 1, 1) + dt.timedelta(days=rng.randint(0, 2555)))


def _fill(template: str, rng: random.Random) -> str:
    return template.format(
        d=_date(rng), e=_date(rng), lo=f"{rng.randint(0, 10) / 100:.2f}",
        hi=rng.choice([f"{rng.randint(0, 10) / 100:.2f}", str(rng.randint(0, 1))]),
        q=rng.randint(1, 50),
    )


def _relit(text: str, rng: random.Random) -> str:
    """``text`` with every NUMBER and every DATE string re-drawn."""
    out, last, prev = [], 0, None
    for token in tokenize(text):
        if token.kind == "NUMBER":
            new = str(rng.randint(0, 50)) if "." not in token.value \
                else f"{rng.uniform(0, 50):.2f}"
            width = len(token.value)
        elif token.kind == "STRING" and prev == "DATE":
            new, width = f"'{_date(rng)}'", len(token.value) + 2
        else:
            prev = token.kind
            continue
        prev = token.kind
        out += [text[last:token.position], new]
        last = token.position + width
    return "".join(out + [text[last:]])


def _prepare(server: QueryServer, text: str) -> tuple[_Request, float]:
    """Run ``submit``'s frontend step alone on one request."""
    req = _Request(0, 0, text, None, None, None, 0.0)
    return req, server._prepare(req)


def _rows(db, plan) -> str:
    return repr(Executor(db).execute(plan, optimize=False).rows)


def _assert_like_fresh(hot, cold, text, db, rows=True) -> _Request:
    got, got_cost = _prepare(hot, text)
    cold._prepared.clear()
    want, want_cost = _prepare(cold, text)
    assert want.prepared == "miss"
    if want.error is not None:
        assert (type(got.error), str(got.error)) == (type(want.error), str(want.error))
        return got
    assert got.error is None, got.error
    assert plan_fingerprint(got.plan) == plan_fingerprint(want.plan), text
    assert got_cost == want_cost
    if rows:
        assert _rows(db, got.plan) == _rows(db, want.plan)
    return got


def _copy(db) -> Database:
    out = Database("prepared")
    for name in db.table_names:
        out.add(db.table(name))
    return out


@pytest.fixture(scope="module")
def dash_db(tpch_db):
    db = _copy(tpch_db)
    enable_rollups(db, plans=[sql(db, t.format(d="1998-09-02")) for t in DASHBOARDS])
    return db


@pytest.fixture(scope="module")
def dash(dash_db):
    with QueryServer(dash_db, workers=1) as hot, QueryServer(dash_db, workers=1) as cold:
        yield hot, cold


@pytest.fixture(scope="module")
def tpch_servers(tpch_db):
    db = _copy(tpch_db)
    enable_rollups(db)  # the 22-template cube catalog
    with QueryServer(db, workers=1) as hot, QueryServer(db, workers=1) as cold:
        yield db, hot, cold


@pytest.fixture(scope="module")
def grammar_servers():
    with QueryServer(GRAMMAR_DB, workers=1) as hot, \
            QueryServer(GRAMMAR_DB, workers=1) as cold:
        yield hot, cold


# -- (a) a hit equals a fresh trip -------------------------------------


@given(st.sampled_from(SHAPES), st.integers(0, 2**32))
@_WALL
def test_dashboard_bindings_equal_a_fresh_trip(dash, dash_db, template, seed):
    hot, cold = dash
    rng = random.Random(seed)
    _prepare(hot, _fill(template, rng))
    got = _assert_like_fresh(hot, cold, _fill(template, rng), dash_db)
    assert got.prepared == "hit"  # every dashboard literal is a slot


@given(st.sampled_from(SQL_QUERY_NUMBERS), st.integers(0, 2**32))
@_WALL
def test_tpch_rebindings_equal_a_fresh_trip(tpch_servers, number, seed):
    db, hot, cold = tpch_servers
    text = sql_text(number, {"sf": 0.01})
    _prepare(hot, text)
    _assert_like_fresh(hot, cold, _relit(text, random.Random(seed)), db)


def test_tpch_comparison_literals_are_slots(tpch_servers):
    """A WHERE comparison literal is a slot: Q3 re-dated, Q6 re-numbered,
    Q7 with other nations (a residual no estimate samples; the planner
    re-runs and keeps its orders) and Q19 re-ranged are hits. Q1's DATE - INTERVAL folds into a fixed
    literal, so a new cutoff takes a trip of its own."""
    db, hot, cold = tpch_servers
    edits = {
        1: [("1998-12-01", "1998-11-01")],
        3: [("1995-03-15", "1995-03-20"), ("'BUILDING'", "'MACHINERY'")],
        6: [("0.049", "0.05"), ("< 24", "< 25")],
        7: [("'FRANCE'", "'CHINA'")],
        19: [("BETWEEN 1 AND 11", "BETWEEN 2 AND 11")],
    }
    outcomes = {}
    for number, pairs in edits.items():
        text = variant = sql_text(number, {"sf": 0.01})
        for old, new in pairs:
            variant = variant.replace(old, new)
        _prepare(hot, text)
        outcomes[number] = _assert_like_fresh(hot, cold, variant, db).prepared
        assert _prepare(hot, variant)[0].prepared == "hit"  # an exact repeat
    assert outcomes == {1: "miss", 3: "hit", 6: "hit", 7: "hit", 19: "hit"}


def test_a_value_that_reorders_joins_takes_a_trip(tpch_servers):
    """Q3's dates price its join order, so a new date re-plans the
    request: re-dated above, the order holds and the shape re-binds. A
    ship date that leaves almost no lineitem rows starts the order from
    lineitem instead, so that request takes a trip of its own."""
    db, hot, cold = tpch_servers
    text = sql_text(3, {"sf": 0.01})
    variant = text.replace("l_shipdate > DATE '1995-03-15'",
                           "l_shipdate > DATE '1998-11-20'")
    assert hot._join_orders(variant) != hot._join_orders(text)
    _prepare(hot, text)
    assert _assert_like_fresh(hot, cold, variant, db).prepared == "miss"
    assert _prepare(hot, variant)[0].prepared == "hit"  # its own shape entry now


@given(st.one_of(_random_select(), _random_grouped_select()), st.integers(0, 2**32))
@_WALL
def test_generated_query_bindings_equal_a_fresh_trip(grammar_servers, text, seed):
    hot, cold = grammar_servers
    _prepare(hot, text)
    _assert_like_fresh(hot, cold, _relit(text, random.Random(seed)), GRAMMAR_DB)


# -- (b) an invalid DATE in a slot -------------------------------------


@pytest.mark.parametrize("bad", ["not-a-date", "1995-02-30", "19950101x"])
def test_invalid_slot_date_raises_the_fresh_trips_error(dash, dash_db, bad):
    hot, cold = dash
    _prepare(hot, DAILY.format(d="1995-01-01"))
    got = _assert_like_fresh(hot, cold, DAILY.format(d=bad), dash_db)
    assert isinstance(got.error, SqlError) and "invalid DATE literal" in str(got.error)


def test_a_failed_trip_answers_no_later_request(dash_db):
    with QueryServer(dash_db, workers=1) as server:
        with pytest.raises(SqlError, match="invalid DATE"):
            server.query(FLAG.format(d="1995-13-01"))
        assert server.stats()["prepared"] == {"entries": 0, "hits": 0, "misses": 1}
        assert server.query(FLAG.format(d="1995-12-01")).rows
        assert server.stats()["prepared"] == {"entries": 1, "hits": 0, "misses": 2}


def test_invalid_date_racing_a_valid_request_of_the_same_shape(dash_db):
    rng = random.Random(7)
    valid = [PRIO.format(d=_date(rng)) for _ in range(25)]
    want = {text: Executor(dash_db).execute(sql(dash_db, text)).rows for text in valid}
    errors: list = []
    with QueryServer(dash_db, workers=2) as server:
        def good():
            for text in valid:
                if sorted(server.query(text).rows) != sorted(want[text]):
                    errors.append(text)

        def bad():
            for i in range(25):
                try:
                    server.query(PRIO.format(d=f"1995-02-{30 + i % 2}"))
                    errors.append("no error")
                except SqlError as err:
                    if "invalid DATE literal" not in str(err):
                        errors.append(str(err))

        threads = [threading.Thread(target=good), threading.Thread(target=bad)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert errors == []


# -- (c) cubes added after traffic --------------------------------------


def test_cubes_built_after_traffic_route_the_next_request(tpch_db):
    db = _copy(tpch_db)
    with QueryServer(db, workers=1) as hot, QueryServer(db, workers=1) as cold:
        for d in ("1994-01-01", "1995-01-01", "1996-01-01"):
            req, _ = _prepare(hot, DAILY.format(d=d))
            assert routed_tables(req.plan) == []
        hot.build_rollups(min_count=1)
        got = _assert_like_fresh(hot, cold, DAILY.format(d="1997-01-01"), db)
        assert got.prepared == "miss" and routed_tables(got.plan) != []
        assert _prepare(hot, DAILY.format(d="1997-02-01"))[0].prepared == "hit"

        enable_rollups(db, plans=[sql(db, FLAG.format(d="1998-09-02"))])
        got = _assert_like_fresh(hot, cold, DAILY.format(d="1997-03-01"), db)
        assert got.prepared == "miss" and routed_tables(got.plan) == []
        got = _assert_like_fresh(hot, cold, FLAG.format(d="1997-03-01"), db)
        assert routed_tables(got.plan) != []


# -- (d) two bindings never share a key ---------------------------------


def test_two_bindings_of_one_shape_never_share_a_key(dash, dash_db):
    hot, cold = dash
    first = _assert_like_fresh(hot, cold, Q6.format(
        d="1994-01-01", e="1995-01-01", lo="0.05", hi="0.07", q=24), dash_db)
    second = _assert_like_fresh(hot, cold, Q6.format(
        d="1994-01-01", e="1995-01-01", lo="0.05", hi="0.07", q=25), dash_db)
    third = _assert_like_fresh(hot, cold, Q6.format(
        d="1994-01-01", e="1995-01-01", lo="0.05", hi="0.07", q=24), dash_db)
    assert second.prepared == third.prepared == "hit"
    assert plan_fingerprint(first.plan) != plan_fingerprint(second.plan)
    assert plan_fingerprint(first.plan) == plan_fingerprint(third.plan)


# -- what the serial engine runs, the server serves ----------------------


def _chain_db() -> Database:
    db = Database("chain")
    db.add(Table("t", {"k": Column.from_ints([1, 2, 3]),
                       "v": Column.from_floats([1.0, 2.0, 3.0])}))
    return db


def test_900_conjunct_chain_runs_everywhere_the_serial_engine_does():
    db = _chain_db()

    def chain(offset):
        return "SELECT k, v FROM t WHERE " + " AND ".join(
            f"k <> {i + offset}" for i in range(900))

    serial = Executor(db).execute(sql(db, chain(10))).rows
    assert sorted(serial) == [(1, 1.0), (2, 2.0), (3, 3.0)]
    with Executor(db, workers=2, cache_size=64) as engine:
        assert engine.execute(sql(db, chain(10))).rows == serial
    with QueryServer(db, workers=2) as server:
        assert server.query(chain(10)).rows == serial
        assert server.query(chain(2)).rows == [(1, 1.0)]
        assert server.stats()["prepared"]["hits"] == 1


# -- a cached decision still counts ------------------------------------


def _mined(miner) -> list:
    return [
        (spec.source_key, spec.dims, sorted((k, sorted(p)) for k, (_, p) in spec.measures.items()),
         spec.observations)
        for spec in miner.mine()
    ]


def test_hits_leave_the_router_and_miner_as_trips_would(dash_db):
    rng = random.Random(3)
    sequence = [_fill(rng.choice(SHAPES), rng) for _ in range(30)]
    counters, mined = [], []
    for cleared in (False, True):
        with QueryServer(dash_db, workers=1) as server:
            hits, misses = ROUTER_STATS.hits, ROUTER_STATS.misses
            for text in sequence:
                if cleared:
                    server._prepared.clear()
                server.query(text)
            counters.append((ROUTER_STATS.hits - hits, ROUTER_STATS.misses - misses))
            mined.append(_mined(server.miner))
            prepared = server.stats()["prepared"]
            assert prepared["hits"] == (0 if cleared else len(sequence) - len(SHAPES))
    assert counters[0] == counters[1] and counters[0][0] > 0
    assert mined[0] == mined[1] and mined[0]


def test_request_spans_say_hit_or_miss(dash_db):
    from repro.obs import Tracer

    tracer = Tracer()
    with QueryServer(dash_db, workers=1, tracer=tracer) as server:
        for d in ("1995-01-01", "1996-01-01"):
            server.query(FLAG.format(d=d))
        server.query(sql(dash_db, FLAG.format(d="1997-01-01")))
    assert [root.attrs.get("prepared") for root in tracer.roots] == ["miss", "hit", None]
