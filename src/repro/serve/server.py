"""The query server: a robust front door over the parallel engine.

:class:`QueryServer` multiplexes many concurrent requests — SQL text or
built plans, each with a priority and an optional deadline — over one
shared :class:`~repro.engine.executor.Executor` (one morsel pool, one
single-flight result cache). Robustness is structural, not
aspirational:

* **Never crash.** Whatever a request contains, the caller sees rows or
  one of the typed errors in :mod:`repro.serve.errors` /
  :class:`~repro.engine.sql.SqlError` /
  :class:`~repro.engine.cancel.QueryInterrupted`. Worker threads cannot
  die: every outcome path is caught and resolved onto the ticket.
* **Never block unboundedly.** Admission control sheds before queues
  grow past what the latency bound can drain
  (:mod:`repro.serve.admission`).
* **Never waste a worker on a dead request.** Deadlines and client
  cancels flip a :class:`~repro.engine.cancel.CancelToken` checked at
  morsel boundaries, so an abandoned query frees its engine workers
  within one in-flight morsel and its server slot immediately after.
* **Never serve a wrong answer.** Results come from the same executor
  the differential walls pin; cancelled or failed executions are
  evicted from the single-flight cache before any waiter can observe
  them, so a retry always recomputes.

The frontend trip — parse, plan, optimize, mine, route — runs
once per request *shape*, not per request: a SQL text whose tokens match
a prepared one, literal values aside, re-binds its fresh WHERE literals
into the prepared routed plan (see :meth:`QueryServer._prepare`).

Transient executor failures retry with capped backoff; repeated
unexpected failures trip a circuit breaker that sheds fast instead of
queueing doomed work (:mod:`repro.serve.policy`). Every request gets a
``request`` trace span (child ``query`` span from the executor) and the
process-wide metrics registry counts admitted / shed / cancelled /
deadline-missed / completed / failed outcomes.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import queue
import threading
import time
from collections import OrderedDict

from repro.engine import Executor
from repro.engine.cancel import (
    CancelToken,
    DeadlineExceeded,
    QueryCancelled,
    QueryInterrupted,
)
from repro.engine.expr import Expr, Literal
from repro.engine.morsel import DEFAULT_MORSEL_ROWS
from repro.engine.operators.aggregate import AggSpec
from repro.engine.optimizer import optimize_plan, route_rollups
from repro.engine.plan import FilterNode, PlanNode, Q, ScanNode
from repro.engine.sql import SqlError, sql as parse_sql, tokenize
from repro.engine.sql.planner import lower_literal
from repro.obs.metrics import HitMissStats, metrics
from repro.obs.trace import NULL_TRACER
from repro.rollup.router import ROUTER_STATS

from .admission import AdmissionController, AdmissionPolicy
from .errors import QueryFailed, ServerClosed
from .policy import CircuitBreaker, RetryPolicy, TransientServeError

__all__ = ["PREPARED_SHAPES", "QueryServer", "Ticket"]

# Request shapes whose prepared plan a server keeps, least recently used
# out first.
PREPARED_SHAPES = 256

_LITERAL_KINDS = ("NUMBER", "STRING")


class Ticket:
    """Client-side handle for one submitted request.

    ``result()`` blocks until the request resolves and either returns
    the engine :class:`~repro.engine.result.Result` or raises the typed
    error the request ended with. ``cancel()`` flips the request's
    cancel token — effective whether the request is still queued or
    already mid-execution.
    """

    __slots__ = (
        "request_id", "priority", "label",
        "_event", "_result", "_error", "_token", "outcome",
    )

    def __init__(self, request_id: int, priority: int, label: str, token: CancelToken):
        self.request_id = request_id
        self.priority = priority
        self.label = label
        self.outcome: str | None = None  # "ok"|"sql-error"|"cancelled"|"timeout"|"failed"|"closed"
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None
        self._token = token

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def cancel(self, reason: str = "cancelled by client") -> None:
        self._token.cancel(reason)

    def result(self, timeout: float | None = None):
        """Block for the outcome; raise the request's typed error."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not resolved within {timeout}s "
                "(still queued or executing; use cancel() to abandon it)"
            )
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def error(self) -> BaseException | None:
        """The resolved error, if any (non-blocking peek)."""
        return self._error if self._event.is_set() else None

    # Resolution (server-side) -----------------------------------------

    def _resolve(self, outcome: str, result=None, error=None) -> None:
        if self._event.is_set():  # first resolution wins
            return
        self.outcome = outcome
        self._result = result
        self._error = error
        self._event.set()


class _Request:
    """Internal carrier: what the dispatch queue holds."""

    __slots__ = ("seq", "priority", "payload", "ticket", "token", "span",
                 "enqueued_at", "plan", "error", "prepared")

    def __init__(self, seq, priority, payload, ticket, token, span, enqueued_at):
        self.seq = seq
        self.priority = priority
        self.payload = payload  # str (SQL) | PlanNode | Q
        self.ticket = ticket
        self.token = token
        self.span = span
        self.enqueued_at = enqueued_at
        # Filled by QueryServer._prepare at submit: the optimized, routed
        # plan the worker executes, or the error it resolves the ticket with.
        self.plan: PlanNode | None = None
        self.error: Exception | None = None
        self.prepared: str | None = None  # "hit" | "miss" for SQL text


@dataclasses.dataclass(frozen=True)
class _Prepared:
    """One request shape's frontend trip, kept to answer the next request
    of that shape: its routed plan, mined shapes and routing
    decisions, the catalog state it was planned under (the executor's
    settings never change, so they need no check), the literal
    tokens a hit must repeat (``fixed``), and the ones it re-binds
    (``slots``: token index, syntax class, planned Literal) with the
    plan links from the root down to them (``program``, children first).
    ``orders`` is the planner's join-order record of the trip, and
    ``checked`` the slot Literals a join-order estimate read: a new value
    of one of those re-binds only while the planner, re-run on the
    request, still records the same orders.
    """

    catalog: object
    cubes: int
    fixed: tuple
    slots: tuple
    checked: frozenset
    orders: tuple
    program: tuple
    plan: PlanNode
    shapes: tuple
    routed: tuple

    def bind(self, tokens, catalog, cubes, orders) -> PlanNode | None:
        """The plan for a same-shape request, or ``None`` when it needs
        a trip of its own (another catalog, another fixed literal, a
        join order the new values change). ``orders()`` plans the
        request and returns its join-order record; it runs only when a
        checked slot changed. Raises what lowering a fresh slot literal
        raises."""
        if self.catalog is not catalog or self.cubes != cubes:
            return None
        if any(tokens[index].value != value for index, value in self.fixed):
            return None
        fresh = {}
        for index, syntax, old in self.slots:
            new = lower_literal(syntax(tokens[index].value))
            if type(new.value) is not type(old.value) or new.value != old.value:
                fresh[id(old)] = new
        if not fresh:
            return self.plan
        if not self.checked.isdisjoint(fresh) and orders() != self.orders:
            return None
        for node, links in self.program:
            changes = {name: fresh[id(child)] for name, child in links if id(child) in fresh}
            if changes:
                fresh[id(node)] = _rebuilt(node, changes)
        return fresh[id(self.plan)]


def _rebuilt(node, changes: dict):
    """A new node with some fields replaced; it carries no cached key."""
    if isinstance(node, PlanNode):
        return dataclasses.replace(node, **changes)
    copy = object.__new__(type(node))
    copy.__dict__.update(vars(node), **changes)
    return copy


def _is_link(node, name: str, value) -> bool:
    """Whether a re-bind may rebuild ``node`` around this field: a plan
    input, a scan or filter predicate, or an expression operand inside
    one. Subquery plans, lists, projections and aggregates are not."""
    if isinstance(node, PlanNode):
        return isinstance(value, PlanNode) or (
            name == "predicate" and isinstance(value, Expr)
            and isinstance(node, (ScanNode, FilterNode))
        )
    return isinstance(value, Expr) and name[0] != "_"


def _literal_sites(plan: PlanNode, shapes) -> tuple[set, set, list]:
    """Where a routed plan holds its Literals: ids reached through links
    only (``free``), ids reached any other way or held by a mined shape's
    source (``bound``: routing and mining key on those), and every linked
    node with its links in post-order."""
    free, bound, seen, marked, order = set(), set(), set(), set(), []
    pending = [shape.source for shape in shapes]
    stack: list = [(plan, None)]
    while stack:
        node, links = stack.pop()
        if links is not None:
            order.append((node, links))
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Literal):
            free.add(id(node))
            continue
        links = []
        for name, value in vars(node).items():
            if _is_link(node, name, value):
                links.append((name, value))
            else:
                pending.append(value)
        stack.append((node, tuple(links)))
        stack.extend((child, None) for _, child in links)
    while pending:
        value = pending.pop()
        if isinstance(value, (Expr, PlanNode)):
            if id(value) in marked:
                continue
            marked.add(id(value))
            if isinstance(value, Literal):
                bound.add(id(value))
            else:
                pending.extend(vars(value).values())
        elif isinstance(value, Q):
            pending.append(value.node)
        elif isinstance(value, AggSpec):
            pending.append(value.expr)
        elif isinstance(value, (tuple, list)):
            pending.extend(value)
        elif isinstance(value, dict):
            pending.extend(value.values())
    return free, bound, order


def _prepared(tokens, literals, orders, plan, shapes, decisions, state) -> _Prepared:
    """Analyze one successful trip of a SQL request (``literals``: the
    planner's ``(syntax node, Literal, read)`` record, ``orders`` its
    join-order record) into its entry.

    A literal token is a slot when some Literal planned from it reaches
    the routed plan and every one that does is free: then no optimizer,
    router or miner decision read its value — they read a predicate
    only through ``references()`` — and re-lowering it is all a new
    value needs, as long as the join orders the planner's estimates
    chose from it (``read``) stay the same. Every other literal token
    is fixed.
    """
    free, bound, order = _literal_sites(plan, shapes)
    index = {t.position: i for i, t in enumerate(tokens) if t.kind in _LITERAL_KINDS}
    planned = [(index.get(node.position), type(node), literal, read)
               for node, literal, read in literals]
    fixed_at = {i for i, _, literal, _ in planned if id(literal) in bound}
    slots = tuple(
        (i, syntax, literal) for i, syntax, literal, _ in planned
        if i is not None and i not in fixed_at and id(literal) in free
    )
    slot_ids = {id(literal) for _, _, literal in slots}
    checked = frozenset(id(literal) for _, _, literal, read in planned
                        if read and id(literal) in slot_ids)
    hot = {id(literal) for _, _, literal in slots}
    program = []
    for node, links in order:
        used = tuple((name, child) for name, child in links if id(child) in hot)
        if used:
            hot.add(id(node))
            program.append((node, used))
    slotted = {i for i, _, _ in slots}
    fixed = tuple(
        (i, t.value) for i, t in enumerate(tokens)
        if t.kind in _LITERAL_KINDS and i not in slotted
    )
    return _Prepared(*state, fixed, slots, checked, tuple(orders), tuple(program),
                     plan, tuple(shapes), tuple(decisions))


# Queue items sort by (-priority, seq): higher priority first, FIFO
# within a priority. Shutdown sentinels carry +inf priority rank so
# close() drains admitted work before workers exit.


class QueryServer:
    """Concurrent query serving over one shared parallel executor.

    Args:
        db: the database catalog to serve.
        workers: engine morsel-pool threads (default: host cores).
        settings: optimizer settings for every request.
        admission: admission policy; unset limits derive from
            ``workers`` (see :class:`~repro.serve.admission.AdmissionPolicy`).
        retry: backoff policy for :class:`TransientServeError`.
        breaker: circuit breaker over unexpected failures; ``None``
            disables breaking (the default breaker trips after 5
            consecutive failures).
        cache_size: single-flight result-cache capacity (0 disables).
        morsel_rows: engine morsel size (tests shrink it to force many
            morsel boundaries).
        tracer: optional tracer; each request contributes one
            ``request`` root span.
        memory_budget: byte cap on operator working memory (a
            :class:`~repro.engine.spill.MemoryBudget` or an int). With a
            budget, a query whose hash state exceeds RAM is *admitted*
            and completes out-of-core (Grace spill) instead of being
            shed or OOMing the node.
    """

    def __init__(
        self,
        db,
        workers: int | None = None,
        settings=None,
        admission: AdmissionPolicy | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        cache_size: int = 64,
        morsel_rows: int | None = None,
        tracer=None,
        memory_budget=None,
    ):
        self.db = db
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.executor = Executor(
            db, settings,
            workers=workers if workers is not None else (os.cpu_count() or 1),
            morsel_rows=morsel_rows if morsel_rows is not None else DEFAULT_MORSEL_ROWS,
            cache_size=cache_size, memory_budget=memory_budget, tracer=self.tracer,
        )
        self.memory_budget = self.executor.memory_budget
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        policy = (admission or AdmissionPolicy()).resolve(self.executor.workers)
        self.admission = AdmissionController(policy, breaker=self.breaker)

        self._queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._seq = itertools.count()
        self._closed = False
        self._lock = threading.Lock()
        self._completed = metrics.counter("serve.completed")
        self._failed = metrics.counter("serve.failed")
        self._cancelled = metrics.counter("serve.cancelled")
        self._deadline_missed = metrics.counter("serve.deadline_missed")
        self._sql_errors = metrics.counter("serve.sql_errors")
        self._retries = metrics.counter("serve.retries")
        self._service_hist = metrics.histogram("serve.service_s")
        # Live workload history: every successfully planned request feeds
        # the miner (once, at submit), so build_rollups() can materialize
        # cubes for the shapes this server actually sees (not just
        # load-time templates).
        from repro.rollup import WorkloadMiner

        self.miner = WorkloadMiner(db)
        # Prepared request shapes: literal-lifted token key -> _Prepared.
        self._prepared: "OrderedDict[tuple, _Prepared]" = OrderedDict()
        self._prepared_lock = threading.Lock()
        self._prepared_stats = HitMissStats("serve.prepared")
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-{i}", daemon=True
            )
            for i in range(policy.max_concurrent)
        ]
        for thread in self._threads:
            thread.start()

    # -- public API -----------------------------------------------------

    def submit(
        self,
        request: "str | PlanNode | Q",
        priority: int = 0,
        timeout_s: float | None = None,
        label: str | None = None,
    ) -> Ticket:
        """Admit one request or raise a typed shed error immediately.

        Returns a :class:`Ticket`; never blocks on execution. Raises
        :class:`~repro.serve.errors.Overloaded` (or its
        ``CircuitOpen`` / ``ServerClosed`` refinements) when shedding.
        """
        if self._closed:
            raise ServerClosed()
        self.admission.admit()
        # Past this point the request owns an admission slot; every
        # path below must end in a worker-side finish/release.
        seq = next(self._seq)
        name = label or f"req-{seq}"
        token = CancelToken.from_timeout(timeout_s)
        ticket = Ticket(seq, priority, name, token)
        span = None
        if self.tracer.enabled:
            span = self.tracer.start("request", name)
            span.annotate(priority=priority, request_id=seq)
            if timeout_s is not None:
                span.annotate(timeout_s=timeout_s)
        req = _Request(seq, priority, request, ticket, token, span, time.monotonic())
        self._prepare(req)
        if span is not None and req.prepared is not None:
            span.annotate(prepared=req.prepared)
        self._queue.put((-priority, seq, req))
        return ticket

    def query(
        self,
        request: "str | PlanNode | Q",
        priority: int = 0,
        timeout_s: float | None = None,
        label: str | None = None,
    ):
        """Blocking convenience: submit and wait for rows or the error."""
        return self.submit(
            request, priority=priority, timeout_s=timeout_s, label=label
        ).result()

    def stats(self) -> dict:
        """Deterministic server-state snapshot (admission, breaker and
        the prepared request shapes)."""
        snap = self.admission.snapshot()
        snap["breaker"] = self.breaker.state
        snap["closed"] = self._closed
        with self._prepared_lock:
            snap["prepared"] = {
                "entries": len(self._prepared),
                "hits": self._prepared_stats.hits,
                "misses": self._prepared_stats.misses,
            }
        return dict(sorted(snap.items()))

    def close(self, drain: bool = True) -> None:
        """Stop accepting work and shut down (idempotent).

        ``drain=True`` serves already-admitted requests first;
        ``drain=False`` cancels them (their tickets resolve with
        :class:`~repro.engine.cancel.QueryCancelled`).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            # Flip every queued request's token; workers resolve them
            # as cancelled without executing.
            with self._queue.mutex:
                queued = [item[-1] for item in self._queue.queue]
            for req in queued:
                if req is not None:
                    req.token.cancel("server shutdown")
        for _ in self._threads:
            self._queue.put((float("inf"), next(self._seq), None))
        for thread in self._threads:
            thread.join()
        # A submit that raced the close can strand a request behind the
        # sentinels; resolve it as closed rather than leaving a waiter.
        while True:
            try:
                *_, req = self._queue.get_nowait()
            except queue.Empty:
                break
            if req is not None:
                req.ticket._resolve("closed", error=ServerClosed())
                self.admission.release_unstarted()
        self.executor.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch -------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            *_, req = self._queue.get()
            if req is None:
                return
            try:
                self._serve(req)
            except BaseException as exc:  # pragma: no cover - last resort
                # The serving paths below resolve every anticipated
                # outcome; this guard keeps an unanticipated one from
                # killing the worker thread.
                req.ticket._resolve("failed", error=QueryFailed(repr(exc)))
                self.admission.finish(-1.0)

    def _serve(self, req: _Request) -> None:
        queued_s = time.monotonic() - req.enqueued_at
        self.admission.start(queued_s)
        if req.span is not None:
            req.span.annotate(queued_s=queued_s)
        started = time.monotonic()
        try:
            result = self._run_with_retries(req)
        except SqlError as exc:
            self._sql_errors.inc()
            self._finish(req, started, "sql-error", error=exc)
        except DeadlineExceeded as exc:
            self._deadline_missed.inc()
            self._finish(req, started, "timeout", error=exc)
        except QueryInterrupted as exc:
            self._cancelled.inc()
            self._finish(req, started, "cancelled", error=exc)
        except Exception as exc:
            self.breaker.record_failure()
            self._failed.inc()
            failure = QueryFailed(
                f"query execution failed: {type(exc).__name__}: {exc}"
            )
            failure.__cause__ = exc
            self._finish(req, started, "failed", error=failure)
        else:
            self.breaker.record_success()
            self._completed.inc()
            self._finish(req, started, "ok", result=result)

    def _finish(self, req: _Request, started: float, outcome: str,
                result=None, error=None) -> None:
        service_s = time.monotonic() - started
        # Shed/cancelled requests must not drag the EWMA toward zero —
        # only real service times feed the delay projection.
        self.admission.finish(service_s if outcome == "ok" else -1.0)
        if outcome == "ok":
            self._service_hist.observe(service_s)
        if req.span is not None:
            req.span.annotate(outcome=outcome, service_s=service_s)
            if error is not None:
                req.span.annotate(error=type(error).__name__)
            self.tracer.finish(req.span)
            self.tracer.finalize(req.span)
        req.ticket._resolve(outcome, result=result, error=error)

    # -- execution ------------------------------------------------------

    def _run_with_retries(self, req: _Request):
        attempt = 0
        while True:
            req.token.check()
            try:
                return self._execute(req)
            except TransientServeError:
                if attempt >= self.retry.max_retries:
                    raise
                self._retries.inc()
                wait = self.retry.backoff_s(attempt)
                if req.span is not None:
                    req.span.event("retry", attempt=attempt, backoff_s=wait)
                remaining = req.token.remaining_s()
                if remaining is not None and remaining <= wait:
                    raise DeadlineExceeded(
                        "deadline would expire during retry backoff"
                    )
                time.sleep(wait)
                attempt += 1

    def _prepare(self, req: _Request) -> None:
        """The request's frontend trip, at submit: parse, optimize
        unrouted, feed the miner, route.

        SQL text takes the trip once per shape. Its key is its token
        stream with every NUMBER/STRING value lifted out; a request whose
        shape was prepared under the same catalog, and whose fixed
        literals repeat, re-lowers only its slot literals and rebuilds
        the plan from them to the root (:meth:`_Prepared.bind`). A slot
        whose value priced a join order also re-runs the planner, and
        re-binds only when the orders it picks are the shape's. It then
        re-records the shape's mined shapes and routing decisions.
        Anything else — a new shape, a catalog that gained cubes, a slot
        literal that does not lower, a value that re-orders a join —
        takes the trip, which alone decides what the request answers or
        raises.

        Never raises: a payload that does not parse or plan keeps its
        error on the request — the worker resolves the ticket with it
        (``sql-error`` / ``failed``).
        """
        try:
            payload = req.payload
            if isinstance(payload, str):
                self._prepare_sql(req, payload)
            elif isinstance(payload, (PlanNode, Q)):
                req.plan, _ = self._trip(payload.node if isinstance(payload, Q) else payload)
            else:
                raise SqlError(
                    f"unsupported request payload type {type(payload).__name__}; "
                    "expected SQL text or a plan"
                )
        except Exception as exc:
            req.error = exc

    def _prepare_sql(self, req: _Request, text: str) -> None:
        tokens = tokenize(text)
        key = tuple(t.kind if t.kind in _LITERAL_KINDS else (t.kind, t.value) for t in tokens)
        catalog = getattr(self.db, "rollups", None)
        state = (catalog, len(catalog) if catalog is not None else 0)
        with self._prepared_lock:
            entry = self._prepared.get(key)
        try:  # outside the lock: a checked slot re-plans the request
            plan = None if entry is None else entry.bind(
                tokens, *state, lambda: self._join_orders(text))
        except Exception:
            plan = None  # the trip below raises it as a fresh request would
        with self._prepared_lock:
            if plan is None:
                self._prepared_stats.miss()
            else:
                self._prepared_stats.hit()
                if key in self._prepared:
                    self._prepared.move_to_end(key)
        if plan is not None:
            req.prepared, req.plan = "hit", plan
            self.miner.absorb(entry.shapes)
            for routed in entry.routed:
                ROUTER_STATS.hit() if routed else ROUTER_STATS.miss()
            return
        req.prepared = "miss"
        literals, orders, decisions = [], [], []
        node = parse_sql(self.db, text, literals, orders).node
        req.plan, shapes = self._trip(node, decisions)
        entry = _prepared(tokens, literals, orders, req.plan, shapes, decisions, state)
        with self._prepared_lock:
            self._prepared[key] = entry
            self._prepared.move_to_end(key)
            if len(self._prepared) > PREPARED_SHAPES:
                self._prepared.popitem(last=False)

    def _join_orders(self, text: str) -> tuple:
        """The planner's join-order record for ``text``."""
        orders: list = []
        parse_sql(self.db, text, None, orders)
        return tuple(orders)

    def _trip(self, node, decisions: list | None = None):
        """Optimize unrouted, mine and route one plan; returns the routed
        plan and its mined shapes."""
        if node is None:
            raise ValueError("cannot execute an empty plan")
        settings = self.executor.settings
        node = optimize_plan(node, self.db, settings.without_rollups())
        # Mined once per request, whatever its retries — and from the
        # unrouted tree, so a routed query keeps voting for its cube.
        shapes = self.miner.shapes_of(node)
        self.miner.absorb(shapes)
        plan = route_rollups(node, self.db, settings, decisions)
        return plan, shapes

    def _execute(self, req: _Request):
        """One execution attempt of the prepared plan. Split out so tests
        can inject transient faults by overriding/patching this method."""
        if req.error is not None:
            raise req.error
        return self.executor.execute(
            req.plan, optimize=False, label=req.ticket.label,
            parent_span=req.span, cancel=req.token,
        )

    def build_rollups(self, min_count: int = 2, **kwargs):
        """Materialize cubes for the aggregate shapes observed in live
        traffic (seen at least ``min_count`` times) and attach them to
        the served database, extending its catalog when it has one (specs
        an existing cube already subsumes are skipped); subsequent
        requests route automatically. Returns the active catalog."""
        from repro.rollup import build_rollups

        self.db.rollups = build_rollups(
            self.db, self.miner.mine(min_count=min_count),
            settings=self.executor.settings,
            catalog=getattr(self.db, "rollups", None), **kwargs,
        )
        return self.db.rollups
