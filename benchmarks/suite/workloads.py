"""The four workloads: inputs from a seed, one pass, one traced pass.

A workload object is stateless; ``setup`` returns the state one
repetition of set-up built (database, executor or server) and every
other method takes it. Requests are ``(class, sql_text, literal)``
tuples: the engine only ever sees ``sql_text``.

Sizes are chosen for the driver's cap of ~37 s per run *including*
three set-up repetitions: scale factors are lower than a stand-alone
benchmark would pick, and passes are ~0.7-1.7 s so that ten or more fit
in ``--seconds``.
"""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine import Database, Executor, ParallelExecutor, optimize_plan
from repro.engine.compression import compress_table
from repro.engine.keycache import key_cache
from repro.engine.sql import parse_statement, plan_statement, tokenize
from repro.engine.sql import sql as parse_sql
from repro.engine.types import date_to_days, days_to_date
from repro.obs import Tracer
from repro.rollup import enable_rollups
from repro.serve import QueryServer
from repro.tpch import SQL_QUERY_NUMBERS, generate
from repro.tpch.sqltext import sql_text

import layers
from oracle import DashboardOracle, engine_rows, rows_match

SMOKE_SF = 0.01
ENGINE_WORKERS = 2  # nproc here; never more engine workers or clients


@dataclass
class PassResult:
    """One pass: wall seconds, ``(class, latency_s)`` of every request
    that returned rows matching the oracle, and ``"class: why"`` of
    every one that did not."""

    wall_s: float
    samples: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    profiles: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.samples) + len(self.failures)


@dataclass
class State:
    db: object
    engine: object  # Executor, ParallelExecutor or QueryServer
    requests: list = field(default_factory=list)  # batch workloads only


def _timed(stages: dict, key: str, fn):
    start = time.perf_counter()
    value = fn()
    stages[key] = stages.get(key, 0.0) + time.perf_counter() - start
    return value


def _frontend_ms(db, settings, text: str) -> tuple[dict, object]:
    """One trip through the SQL frontend with a span around each public
    call; returns the stage times and the optimized plan node."""
    t0 = time.perf_counter()
    tokenize(text)
    t1 = time.perf_counter()
    stmt = parse_statement(text)  # lexes again: parse_ms includes its lex
    t2 = time.perf_counter()
    plan = plan_statement(db, stmt)
    t3 = time.perf_counter()
    node = optimize_plan(plan.node, db, settings)
    t4 = time.perf_counter()
    return {
        "sql.lex_ms": (t1 - t0) * 1e3,
        "sql.parse_ms": (t2 - t1) * 1e3,
        "sql.plan_ms": (t3 - t2) * 1e3,
        "optimizer.optimize_ms": (t4 - t3) * 1e3,
    }, node


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


# ----------------------------------------------------------------------
# Batch workloads: one client, one executor, a fixed request list
# ----------------------------------------------------------------------


class BatchWorkload:
    """Closed loop, one client: each pass runs every request once, from
    SQL text, and checks its rows the moment its timer stops."""

    name = ""
    sf = 0.1
    exact = False  # compare rows bit-for-bit instead of rel_tol=1e-6
    pooled_p95 = False

    def __init__(self, smoke: bool = False):
        if smoke:
            self.sf = SMOKE_SF
        self.expected: dict = {}

    # -- what subclasses define ----------------------------------------

    def requests(self) -> list[tuple]:
        raise NotImplementedError

    def prepare(self, db, stages: dict):
        return db

    def executor(self, db, tracer=None):
        return Executor(db, tracer=tracer)

    # -- oracle (child process) ----------------------------------------

    def oracle(self, seed: int):
        db = generate(self.sf, seed=seed)
        return engine_rows(db, [text for _, text, _ in self.requests()])

    def check(self, request, rows) -> bool:
        return rows_match(request[1], self.expected[request[1]], rows, self.exact)

    # -- set-up ---------------------------------------------------------

    def setup(self, seed: int, stages: dict) -> State:
        db = _timed(stages, "setup.dbgen_s", lambda: generate(self.sf, seed=seed))
        db = self.prepare(db, stages)
        engine = _timed(stages, "setup.start_s", lambda: self.executor(db))
        state = State(db, engine, self.requests())
        _timed(stages, "setup.warmup_s", lambda: self.run_pass(state, -1))
        return state

    def teardown(self, state: State) -> None:
        close = getattr(state.engine, "close", None)
        if close is not None:
            close()

    def resident_mb(self, state: State) -> float:
        return state.db.nbytes / 1e6

    # -- passes ---------------------------------------------------------

    def run_pass(self, state: State, index: int) -> PassResult:
        out = PassResult(0.0)
        db, engine = state.db, state.engine
        for request in state.requests:
            start = time.perf_counter()
            result = engine.execute(parse_sql(db, request[1]))
            rows = result.rows
            elapsed = time.perf_counter() - start
            out.wall_s += elapsed
            out.profiles.append(result.profile)
            if self.check(request, rows):
                out.samples.append((request[0], elapsed))
            else:
                out.failures.append(f"{request[0]}: rows differ from the oracle")
        return out

    def modeled_profiles(self, state: State, first_pass: PassResult) -> list:
        return first_pass.profiles

    def traced_state(self, state: State) -> State:
        """A second engine instance carrying a tracer (engines take it
        at construction), over the same database."""
        return State(state.db, self.executor(state.db, Tracer()), state.requests)

    def traced_pass(self, state: State, index: int) -> tuple[float, dict]:
        """One pass with a span around every public call. Returns the
        pass wall (comparable to an untraced pass) and raw layer sums."""
        db, engine, tracer = state.db, state.engine, state.engine.tracer
        tracer.reset()
        sums: dict = {}
        profiles = []
        before = layers.registry_snapshot()
        for request in state.requests:
            stage_ms, node = _frontend_ms(db, engine.settings, request[1])
            t0 = time.perf_counter()
            result = engine.execute(node, optimize=False, label=request[0])
            t1 = time.perf_counter()
            rows = result.rows
            t2 = time.perf_counter()
            if not self.check(request, rows):
                raise RuntimeError(f"traced {request[0]} returned wrong rows")
            _add(sums, stage_ms)
            _add(sums, {"exec.execute_ms": (t1 - t0) * 1e3,
                        "result.rows_ms": (t2 - t1) * 1e3})
            profiles.append(result.profile)
        _add(sums, layers.registry_layers(before, layers.registry_snapshot()))
        _add(sums, layers.span_layers(tracer.roots))
        _add(sums, layers.profile_layers(profiles))
        _add(sums, layers.modeled_layers(profiles))
        # The extra tokenize() is the tracing harness's own; the pass an
        # untraced client would have paid for excludes it.
        wall_ms = (sums["sql.parse_ms"] + sums["sql.plan_ms"]
                   + sums["optimizer.optimize_ms"] + sums["exec.execute_ms"]
                   + sums["result.rows_ms"])
        return wall_ms / 1e3, sums

    def extra_layers(self, state: State) -> dict:
        return {}


class TpchPower(BatchWorkload):
    name = "tpch_power"
    sf = 0.1

    def requests(self):
        return [
            (f"q{n}", sql_text(n, {"sf": self.sf}), None) for n in SQL_QUERY_NUMBERS
        ]


_CLUSTER_KEYS = {"lineitem": "l_shipdate", "orders": "o_orderdate"}

_SCAN_CLASSES = (
    ("win_count",
     "SELECT COUNT(*) AS n FROM lineitem "
     "WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'"),
    ("day_groupby",
     "SELECT l_shipdate, COUNT(*) AS n FROM lineitem GROUP BY l_shipdate"),
    ("flag_groupby",
     "SELECT l_returnflag, SUM(l_quantity) AS qty, COUNT(*) AS n "
     "FROM lineitem GROUP BY l_returnflag"),
    ("disc_in",
     "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS total FROM lineitem "
     "WHERE l_discount IN (0.02, 0.05, 0.08)"),
    ("mode_like",
     "SELECT l_shipmode, COUNT(*) AS n FROM lineitem "
     "WHERE l_shipinstruct LIKE 'DELIVER%' GROUP BY l_shipmode"),
    ("orders_prio",
     "SELECT o_orderpriority, COUNT(*) AS n FROM orders "
     "WHERE o_orderdate >= DATE '1995-01-01' "
     "GROUP BY o_orderpriority ORDER BY o_orderpriority"),
    ("topk_price",
     "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
     "WHERE l_shipdate >= DATE '1997-01-01' "
     "ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 10"),
)


class ScanEncoded(BatchWorkload):
    name = "scan_encoded"
    sf = 0.15

    def requests(self):
        tpch = [(f"q{n}", sql_text(n, {"sf": self.sf}), None) for n in (1, 6, 12, 14, 15)]
        return [(cls, text, None) for cls, text in _SCAN_CLASSES] + tpch

    def prepare(self, db, stages):
        """Date-cluster the fact tables (what a time-partitioned load
        produces, and what gives the date columns their runs), compress
        every table, build zone maps."""

        def compress():
            out = Database(db.name)
            for name in db.table_names:
                table = db.table(name)
                key = _CLUSTER_KEYS.get(name)
                if key is not None:
                    order = np.argsort(table.column(key).values, kind="stable")
                    table = table.select_rows(order)
                out.add(compress_table(table))
            return out

        compressed = _timed(stages, "setup.compress_s", compress)
        _timed(stages, "setup.zonemap_s", compressed.build_zone_maps)
        return compressed

    def executor(self, db, tracer=None):
        return ParallelExecutor(db, workers=ENGINE_WORKERS, cache_size=0, tracer=tracer)

    def extra_layers(self, state):
        plain = packed = 0
        for name in state.db.table_names:
            for column in state.db.table(name).columns.values():
                plain += getattr(column, "plain_nbytes", column.nbytes)
                packed += column.nbytes
        return {"compression.ratio": plain / max(1, packed)}


class SpillBudget(BatchWorkload):
    name = "spill_budget"
    sf = 0.1
    exact = True
    queries = (3, 5, 9, 10, 13, 18)

    @property
    def budget_bytes(self) -> int:
        # 1 MiB at SF 0.1; scaled with the data so --smoke still spills,
        # floored so it does not re-partition to depth 50.
        return max(256 << 10, int((1 << 20) * self.sf / 0.1))

    def requests(self):
        return [(f"q{n}", sql_text(n, {"sf": self.sf}), None) for n in self.queries]

    def executor(self, db, tracer=None):
        return Executor(db, memory_budget=self.budget_bytes, tracer=tracer)

    def oracle(self, seed):
        """Spilled rows must equal the *unbudgeted* default run exactly
        (the engine's bit-identity claim); that run is itself checked
        against the gates-off oracle here."""
        db = generate(self.sf, seed=seed)
        texts = [text for _, text, _ in self.requests()]
        unbudgeted = engine_rows(db, texts, settings=None)
        reference = engine_rows(db, texts)
        for text in texts:
            if not rows_match(text, reference[text], unbudgeted[text]):
                raise RuntimeError("unbudgeted run disagrees with the oracle")
        return unbudgeted

    def extra_layers(self, state):
        """Budgeted over unbudgeted execute time of the same pass."""
        plain, spilling = Executor(state.db), self.executor(state.db)
        seconds = {plain: 0.0, spilling: 0.0}
        for request in state.requests:
            node = optimize_plan(parse_sql(state.db, request[1]).node, state.db,
                                 plain.settings)
            for engine in seconds:
                start = time.perf_counter()
                engine.execute(node, optimize=False)
                seconds[engine] += time.perf_counter() - start
        return {"spill.exec_ms_ratio": seconds[spilling] / seconds[plain]}


# ----------------------------------------------------------------------
# serve_closed: two closed-loop clients against a QueryServer
# ----------------------------------------------------------------------


def _pricing(cutoff: str) -> str:
    return (
        "SELECT l_returnflag, l_linestatus, "
        "SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base, "
        "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc, "
        "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
        "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
        "AVG(l_discount) AS avg_disc, COUNT(*) AS n "
        f"FROM lineitem WHERE l_shipdate <= DATE '{cutoff}' "
        "GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus"
    )


def _daily_rev(since: str) -> str:
    return (
        "SELECT l_shipdate, SUM(l_extendedprice) AS revenue, COUNT(*) AS n "
        f"FROM lineitem WHERE l_shipdate >= DATE '{since}' "
        "GROUP BY l_shipdate ORDER BY l_shipdate"
    )


def _flag(cutoff: str) -> str:
    return (
        "SELECT l_returnflag, SUM(l_quantity) AS qty, COUNT(*) AS n "
        f"FROM lineitem WHERE l_shipdate <= DATE '{cutoff}' "
        "GROUP BY l_returnflag ORDER BY l_returnflag"
    )


def _prio_fresh(since: str) -> str:
    return (
        "SELECT o_orderpriority, COUNT(*) AS n FROM orders "
        f"WHERE o_orderdate >= DATE '{since}' "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority"
    )


def _q6_fresh(since: str) -> str:
    return (
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        f"WHERE l_shipdate >= DATE '{since}' AND l_shipdate < DATE '1999-01-01' "
        "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
    )


# Rollup-shaped dashboards: the router answers them from a cube whatever
# the literal. The other two families reach the base tables.
_DASHBOARDS = (("pricing", _pricing), ("daily_rev", _daily_rev), ("flag", _flag))
_FRESH = {"prio_fresh": _prio_fresh, "q6_fresh": _q6_fresh, **dict(_DASHBOARDS)}

# Exact repeats (the result cache's working set: 5 texts vs 64 entries).
_REPEATS = (
    ("count_window",
     "SELECT COUNT(*) AS n FROM lineitem "
     "WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'"),
    ("q6_revenue",
     "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
     "WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' "
     "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"),
    ("flag_groupby",
     "SELECT l_returnflag, SUM(l_quantity) AS qty, COUNT(*) AS n "
     "FROM lineitem GROUP BY l_returnflag"),
    ("priority_mix",
     "SELECT o_orderpriority, COUNT(*) AS n FROM orders "
     "WHERE o_orderdate >= DATE '1995-01-01' "
     "GROUP BY o_orderpriority ORDER BY o_orderpriority"),
    ("nation_join",
     "SELECT n_name, COUNT(*) AS suppliers FROM supplier "
     "JOIN nation ON s_nationkey = n_nationkey "
     "GROUP BY n_name ORDER BY suppliers DESC, n_name LIMIT 5"),
)

# Fresh literals stay inside what this dbgen populates (orders end
# 1998-03-04, shipments 1998-07-03), so no request degenerates to an
# empty result.
_DATE_LO = date_to_days("1993-01-01")
_DATE_HI = date_to_days("1998-03-01")


class ServeClosed:
    """Closed loop: each of two client threads sends its next request
    only after the previous reply, as dashboard callers do."""

    name = "serve_closed"
    sf = 0.1
    clients = ENGINE_WORKERS
    blocks_per_client = 5
    pooled_p95 = True

    def __init__(self, smoke: bool = False):
        if smoke:
            self.sf = SMOKE_SF
            self.blocks_per_client = 1
        self.seed = 0
        self.expected: tuple = ()  # (rows of the repeats by text, DashboardOracle)

    # -- inputs ----------------------------------------------------------

    def schedule(self, index: int, client: int) -> list[tuple]:
        """The seeded request list of one client in one pass."""
        rng = random.Random(f"{self.seed}/{index}/{client}")

        def fresh(cls):
            literal = str(days_to_date(rng.randint(_DATE_LO, _DATE_HI)))
            return (cls, _FRESH[cls](literal), literal)

        out = []
        for _ in range(self.blocks_per_client):
            block = [fresh(_DASHBOARDS[i % 3][0]) for i in range(20)]
            block += [(*_REPEATS[i % 5], None) for i in range(16)]
            block += [fresh("prio_fresh") for _ in range(3)] + [fresh("q6_fresh")]
            rng.shuffle(block)
            out += block
        return out

    # -- oracle ----------------------------------------------------------

    def oracle(self, seed: int):
        db = generate(self.sf, seed=seed)
        return engine_rows(db, [text for _, text in _REPEATS]), DashboardOracle(db)

    def check(self, request, rows) -> bool:
        cls, text, literal = request
        fixed, dashboards = self.expected
        want = fixed[text] if literal is None else getattr(dashboards, cls)(literal)
        return rows_match(text, want, rows)

    # -- set-up ----------------------------------------------------------

    def _server(self, db, tracer=None):
        return QueryServer(db, workers=ENGINE_WORKERS, cache_size=64, tracer=tracer)

    def setup(self, seed: int, stages: dict) -> State:
        self.seed = seed
        db = _timed(stages, "setup.dbgen_s", lambda: generate(self.sf, seed=seed))
        # Cubes are mined from the dashboard shapes this server is about
        # to see (one literal each; shapes are literal-free), not from
        # the 22-template default, whose build alone is ~6 s at SF 0.1.
        plans = [parse_sql(db, build("1998-09-02")) for _, build in _DASHBOARDS]
        _timed(stages, "setup.rollup_build_s", lambda: enable_rollups(db, plans=plans))
        server = _timed(stages, "setup.start_s", lambda: self._server(db))
        state = State(db, server)
        _timed(stages, "setup.warmup_s", lambda: self.run_pass(state, -1))
        return state

    def teardown(self, state: State) -> None:
        state.engine.close()

    def resident_mb(self, state: State) -> float:
        return (state.db.nbytes + state.db.rollups.nbytes) / 1e6

    # -- passes ----------------------------------------------------------

    def _drive(self, server, index: int):
        """Run one pass; returns wall seconds (barrier release to last
        client joined) and per-client ``(request, latency, submit_s,
        ticket, result|error)`` records."""
        schedules = [self.schedule(index, c) for c in range(self.clients)]
        records = [[] for _ in schedules]
        barrier = threading.Barrier(self.clients + 1)

        def client(i: int):
            barrier.wait()
            for request in schedules[i]:
                start = time.perf_counter()
                try:
                    ticket = server.submit(request[1], label=request[0])
                    submitted = time.perf_counter()
                    rows = ticket.result().rows
                except Exception as exc:  # shed / failed: counted, not raised
                    records[i].append((request, 0.0, 0.0, None, exc))
                    continue
                end = time.perf_counter()
                records[i].append((request, end - start, submitted - start, ticket, rows))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.clients)]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        return wall, [record for per_client in records for record in per_client]

    def run_pass(self, state: State, index: int) -> PassResult:
        wall, records = self._drive(state.engine, index)
        out = PassResult(wall)
        # Rows are checked after the pass so the check never holds the
        # interpreter lock against the other client's timed request.
        for request, latency, _, ticket, rows in records:
            if ticket is not None and self.check(request, rows):
                out.samples.append((request[0], latency))
            else:
                why = "rows differ from the oracle" if ticket is not None else repr(rows)
                out.failures.append(f"{request[0]} {request[2]}: {why}")
        return out

    def _replay_profiles(self, db, index: int) -> list:
        """Work profiles of pass ``index``: each distinct request executed
        once with the server's engine configuration, result caches off."""
        texts = dict.fromkeys(
            text for client in range(self.clients)
            for _, text, _ in self.schedule(index, client)
        )
        with ParallelExecutor(db, workers=ENGINE_WORKERS, cache_size=0) as engine:
            return [engine.execute(parse_sql(db, text)).profile for text in texts]

    def modeled_profiles(self, state: State, first_pass: PassResult) -> list:
        return self._replay_profiles(state.db, 0)

    def traced_state(self, state: State) -> State:
        traced = State(state.db, self._server(state.db, Tracer()))
        self._drive(traced.engine, -1)  # refill the caches the first server held
        return traced

    def traced_pass(self, state: State, index: int) -> tuple[float, dict]:
        server, tracer = state.engine, state.engine.tracer
        tracer.reset()
        before = layers.registry_snapshot()
        wall, records = self._drive(server, index)
        sums = layers.registry_layers(before, layers.registry_snapshot())
        spans = {span.attrs["request_id"]: span for span in tracer.roots}
        queued, service, handoff = [], [], []
        for request, latency, submit_s, ticket, rows in records:
            if ticket is None or not self.check(request, rows):
                raise RuntimeError(f"traced {request[0]} failed or returned wrong rows")
            attrs = spans[ticket.request_id].attrs
            queued.append(attrs["queued_s"] * 1e3)
            service.append(attrs["service_s"] * 1e3)
            handoff.append((latency - attrs["queued_s"] - attrs["service_s"]) * 1e3)
            _add(sums, {"serve.submit_ms": submit_s * 1e3})
        queries = [child for span in tracer.roots for child in span.children
                   if child.kind == "query"]
        _add(sums, layers.span_layers(queries))
        sums["exec.execute_ms"] = sums["_query_ms"]
        for name, values in (("serve.queue_wait_ms", queued), ("serve.service_ms", service)):
            sums[name + "_p50"] = statistics.median(values)
            sums[name + "_p95"] = layers.nearest_rank(values, 0.95)
        sums["serve.handoff_ms_p50"] = statistics.median(handoff)
        # The server runs its frontend inside submit() and again inside
        # the worker; neither is reachable from outside, so one trip per
        # request is replayed here, single-threaded, after the pass, and
        # the work counts come from replaying its distinct requests.
        gc.collect()
        for request, *_ in records:
            stage_ms, _ = _frontend_ms(state.db, server.executor.settings, request[1])
            _add(sums, stage_ms)
        profiles = self._replay_profiles(state.db, index)
        _add(sums, layers.profile_layers(profiles))
        _add(sums, layers.modeled_layers(profiles))
        return wall, sums

    def extra_layers(self, state):
        return {}


WORKLOADS = {
    cls.name: cls for cls in (TpchPower, ScanEncoded, ServeClosed, SpillBudget)
}


def reset_engine_caches() -> None:
    """Drop process-wide engine state between set-up repetitions so each
    one starts as cold as the first."""
    key_cache.clear()
    gc.collect()
