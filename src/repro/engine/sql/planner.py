"""Lower SQL syntax trees onto engine plans.

The planner maps every construct onto the operators the engine already
optimizes, so predicate pushdown, zone-map skipping, late
materialization, and tracing apply to SQL-originated plans unchanged:

* ``[NOT] IN (SELECT ...)`` and ``[NOT] EXISTS`` become semi/anti joins
  (uncorrelated ``EXISTS`` becomes a ``COUNT(*)`` scalar-subquery
  comparison instead, since there is no key to join on);
* correlated subqueries are decorrelated: the correlation's equality
  conjuncts (``inner_col = outer_col``) become join keys, and a
  correlated scalar aggregate becomes GROUP BY over the correlation
  keys followed by an inner join back to the outer query — the classic
  magic-set rewrite that TPC-H Q2/Q17/Q20 need;
* ``CASE``/``BETWEEN``/string functions lower to the vectorized
  expression kernels in :mod:`repro.engine.expr`.

Joins run in estimated order, not text order. Each SELECT block is a
join graph: its FROM/JOIN items (and decorrelated scalar aggregates)
are the relations, their ON pairs the edges, and each relation is priced
with the WHERE conjuncts that touch it alone
(:mod:`repro.engine.estimate`). One cost — the estimated rows entering
every join, probe and build side — decides both the left-deep order of
the inner joins and where each ``IN``/``EXISTS`` semi or anti join
goes: on the one relation that supplies its keys, or at the point of
the order above their lowest supplier that costs least (:class:`_JoinOrder`).
A LEFT or explicit SEMI/ANTI JOIN keeps its text position and nothing
sinks below it into its null-supplying side; ``SELECT *`` keeps the
text's column order. Blocks with nothing to choose — one relation, or
two and no subquery join — keep the text order, and the plan is a
deterministic function of the text and the catalog. A catalog remembers
the decisions of the statements it planned last, so planning one again
replays them instead of estimating (:class:`_Shared`).

Correlation is supported against the *immediately* enclosing query
block, expressed as equality conjuncts in the subquery's WHERE clause.
Anything else that references outer columns raises :class:`SqlError`.

Every failure path — unknown tables, out-of-scope columns, misplaced
aggregates, non-scalar subqueries — raises :class:`SqlError`; the
top-level :func:`parse` additionally wraps unexpected exceptions in an
``internal=True`` :class:`SqlError` as a last-resort guard so callers
only ever see one exception type.
"""

from __future__ import annotations

import datetime as _dt
import threading
from collections import OrderedDict
from functools import reduce
from typing import NamedTuple

from ..estimate import UNPRICED, Estimator
from ..expr import Cmp, Expr, Literal, case, col, concat, lit, scalar
from ..optimizer import output_columns
from ..plan import Q, agg
from ..table import Database
from ..zonemap import split_conjuncts
from . import ast as A
from .errors import SqlError
from .parser import parse_statement

__all__ = ["lower_literal", "parse", "sql", "plan_statement"]

_CMP_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_AGG_BUILDERS = {"SUM": agg.sum, "AVG": agg.avg, "MIN": agg.min,
                 "MAX": agg.max, "COUNT": agg.count}


def _conjuncts(node: A.Node | None) -> list[A.Node]:
    """Flatten a WHERE tree into top-level AND conjuncts (iteratively, so
    kilometer-long AND chains cannot exhaust the stack)."""
    if node is None:
        return []
    out: list[A.Node] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, A.Binary) and n.op == "AND":
            stack.append(n.right)
            stack.append(n.left)
        else:
            out.append(n)
    return out


def _corr_pair(c: A.Node, inner_scope: set, outer_scope: set) -> tuple[str, str] | None:
    """Recognize ``inner_col = outer_col`` correlation conjuncts.
    Returns ``(inner, outer)`` or None."""
    if not (isinstance(c, A.Binary) and c.op == "="
            and isinstance(c.left, A.Col) and isinstance(c.right, A.Col)):
        return None
    l, r = c.left.name, c.right.name
    l_in, r_in = l in inner_scope, r in inner_scope
    if l_in and not r_in and r in outer_scope:
        return (l, r)
    if r_in and not l_in and l in outer_scope:
        return (r, l)
    return None


def _apply_binop(op: str, left: Expr, right: Expr) -> Expr:
    if op == "AND":
        return left & right
    if op == "OR":
        return left | right
    if op in _CMP_OPS:
        return Cmp(_CMP_OPS[op], left, right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    raise SqlError(f"unsupported operator {op!r}")


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    return (_dt.date(year, month + 1, 1) - _dt.timedelta(days=1)).day


def lower_literal(node: A.Number | A.String | A.DateLit) -> Literal:
    """The engine literal of one literal syntax node; a DATE must be a
    valid calendar date."""
    if isinstance(node, A.Number):
        return lit(float(node.text) if "." in node.text else int(node.text))
    if isinstance(node, A.DateLit):
        try:
            _dt.date.fromisoformat(node.value)
        except ValueError:
            raise SqlError(f"invalid DATE literal {node.value!r}") from None
    return lit(node.value)


# How many planned statements' join-order decisions a catalog remembers.
REMEMBERED_STATEMENTS = 256
_REMEMBERED_LOCK = threading.Lock()


class _Remembered(NamedTuple):
    """One planned statement's join-order decisions (see :class:`_Shared`)."""

    catalog: tuple  # the catalog's tables and rollups when it was planned
    decisions: tuple  # each estimated block's decision, in planning order
    read: frozenset  # indexes into its lowered literals that an estimate read


def _catalog(db: Database) -> tuple:
    """What a plan over ``db`` may read: its tables and its rollups."""
    return (*(db.table(name) for name in db.table_names), db.rollups)


def _same_catalog(entry: _Remembered, db: Database) -> bool:
    now = _catalog(db)
    return len(now) == len(entry.catalog) and all(
        a is b for a, b in zip(now, entry.catalog))


class _Shared:
    """Per-statement planning state: the catalog, a counter that keeps
    decorrelated-subquery column names (``__subqN``) globally unique and
    deterministic in syntax-tree order, every ``(syntax node, Literal)``
    pair in lowering order, and (when given) the list that records each
    estimated block's join-order decision (:class:`_JoinOrder`).

    A decision is a function of the statement and the tables it reads,
    and tables are immutable, so the catalog remembers the decisions of
    the statements it planned last (:data:`REMEMBERED_STATEMENTS`, keyed
    by syntax tree): planning one of them again replays its decisions,
    in order, instead of estimating. Estimates are most of a repeated
    statement's planning time."""

    def __init__(self, db: Database, stmt: A.Node, orders: list | None = None):
        self.db = db
        self.stmt = stmt
        self.literals: list = []
        self.orders = orders
        self.decisions: list = []
        self._subq = 0
        self._estimator: Estimator | None = None
        self._replay = None  # the remembered decisions, once looked up

    def estimator(self) -> Estimator:
        """The statement's cardinality estimator, made on first use."""
        if self._estimator is None:
            self._estimator = Estimator(self.db)
        return self._estimator

    def next_subq(self) -> int:
        n = self._subq
        self._subq += 1
        return n

    def _memo(self):
        return self.db.__dict__.setdefault("_join_orders", OrderedDict())

    def decide(self, choose):
        """The next estimated block's decision: the remembered one when
        this statement was planned over this catalog before, else
        ``choose()``."""
        if self._replay is None:
            with _REMEMBERED_LOCK:
                entry = self._memo().get(self.stmt)
            self._replay = entry if entry is not None and \
                _same_catalog(entry, self.db) else False
        if self._replay:
            decision = self._replay.decisions[len(self.decisions)]
        else:
            decision = choose()
        self.decisions.append(decision)
        return decision

    def remember(self) -> set[int]:
        """Remember the statement's decisions when they were estimated;
        returns the ids of the lowered Literals whose value an estimate
        read."""
        if self._replay:
            return {id(self.literals[i][1]) for i in self._replay.read}
        read = self._estimator.read_literals() if self._estimator is not None else set()
        if self.decisions:
            entry = _Remembered(
                _catalog(self.db), tuple(self.decisions),
                frozenset(i for i, (_, literal) in enumerate(self.literals)
                          if id(literal) in read))
            with _REMEMBERED_LOCK:
                memo = self._memo()
                memo[self.stmt] = entry
                if len(memo) > REMEMBERED_STATEMENTS:
                    memo.popitem(last=False)
        return read


class _Relation:
    """One FROM/JOIN item of a SELECT block: ``how`` it joins (the FROM
    item counts as inner), its lowered plan and output columns, and the ON
    pairs oriented (earlier items' column, this item's column)."""

    def __init__(self, how: str, plan: Q, pairs: tuple):
        self.how = how
        self.plan = plan
        self.pairs = pairs
        self.columns = list(output_columns(plan.node, plan.db))


class _JoinOrder:
    """The join order of one SELECT block, from estimated cardinalities.

    The relations are the block's FROM/JOIN items (plus decorrelated
    scalar aggregates, inner-joined); the edges are their ON pairs.
    An inner join and a semi/anti join are priced by one cost: the
    estimated rows entering it, probe and build side. (Probe rows alone
    cannot tell a semi join over ``orders`` from one over ``customer ⋈
    orders``: an FK join keeps its probe side's row count.) The joined
    prefix is always the probe (left) side. Building on the smaller input
    instead lowers the modeled price but ran slower (Q9 at SF 0.1: 17 ms
    to 35 ms, a gathered prefix key sorted per run where a base table's
    sort order is memoized). A LEFT or explicit SEMI/ANTI JOIN keeps its
    position, so inner joins after it start from everything before it.

    Each relation of the first run starts a greedy left-deep order that
    adds, among the relations connected to the joined ones, the one with
    the smallest estimated intermediate (started from the smallest
    relation alone, Q9 would start at ``nation`` and join all of
    lineitem before part's filter). The semi/anti joins then go, most
    selective first, to the position the cost prefers: after any join at
    or above their keys' lowest supplier, or on that supplier itself,
    before it is joined, when it alone supplies them and is inner-joined
    (never onto a LEFT join's null-supplying side). The cheapest order
    wins; ties keep the earlier start and position (text order).
    :meth:`plan` is None when there is nothing to choose.
    """

    def __init__(self, shared: "_Shared", rels: list, semis: list, filters: list):
        self.shared, self.rels, self.semis = shared, rels, semis
        self.filters = filters

    def plan(self) -> Q | None:
        rels = self.rels
        if len(rels) < 2 or (len(rels) == 2 and not self.semis):
            return None
        self.owner: dict[str, int] = {}
        for i, rel in enumerate(rels):
            for name in rel.columns:
                if self.owner.setdefault(name, i) != i:
                    return None  # a name two items share: keep the text's reading
        # Edges: the ON pairs between two relations, oriented (i's, j's)
        # under (i, j).
        self.edges: dict[tuple[int, int], list[tuple[str, str]]] = {}
        for i, rel in enumerate(rels):
            if rel.how == "inner":
                for a, b in rel.pairs:
                    self.edges.setdefault((self.owner[a], i), []).append((a, b))
                    self.edges.setdefault((i, self.owner[a]), []).append((b, a))
        decision = self.shared.decide(self._choose)
        if decision is None:
            return None
        if self.shared.orders is not None:
            self.shared.orders.append(decision)
        return self._build(*decision)

    def _choose(self) -> tuple | None:
        """The cheapest order and its semi/anti placements, ``(order,
        ((k, at), ...))`` with the placements in the order they apply;
        None when the relations are not connected."""
        rels, owner = self.rels, self.owner
        est = self.shared.estimator()
        # Runs of inner joins, split where a position-keeping join stands.
        self.runs: list[tuple[int | None, list[int]]] = [(None, [0])]
        for i, rel in enumerate(rels[1:], 1):
            if rel.how == "inner":
                self.runs[-1][1].append(i)
            else:
                self.runs.append((i, []))
        conjuncts: list[list[Expr]] = [[] for _ in rels]
        self.residuals: list[frozenset] = []
        for f in self.filters:
            for c in split_conjuncts(f):
                held = frozenset(owner[r] for r in c.references() if r in owner)
                if len(held) == 1:
                    conjuncts[next(iter(held))].append(c)
                elif held:
                    self.residuals.append(held)
        self.rows = [est.filtered_rows(rel.plan.node, conjuncts[i])
                     for i, rel in enumerate(rels)]
        # The one selectivity of joining two relations an edge links.
        self.adj: list[list[tuple[int, float]]] = [[] for _ in rels]
        for (i, j), pairs in self.edges.items():
            if i < j:
                sel = est.join_selectivity(
                    rels[i].plan.node, [a for a, _ in pairs],
                    rels[j].plan.node, [b for _, b in pairs], self.rows[i], self.rows[j])
                self.adj[i].append((j, sel))
                self.adj[j].append((i, sel))
        self.keep, self.keys, self.sub_rows = [], [], []
        for how, sub, on in self.semis:
            parts: dict[int, list[str]] = {}
            for outer, _inner in on:
                parts.setdefault(owner[outer], []).append(outer)
            kept = est.semi_fraction([(rels[i].plan.node, names) for i, names in parts.items()],
                                     sub.node, [inner for _o, inner in on])
            self.keep.append(kept if how == "semi" else 1.0 - kept)
            self.keys.append(frozenset(parts))
            self.sub_rows.append(est.rows(sub.node))
        self.selective = sorted(range(len(self.semis)), key=lambda k: (self.keep[k], k))
        best = None
        for start in self.runs[0][1]:
            # Without semi/anti joins the greedy walk prices its own order
            # and stops once it cannot win.
            bound = None if self.semis or best is None else best[0]
            order, cost = self._greedy(start, bound)
            if order is None:
                continue
            placed = {}
            if self.semis:
                steps = self._steps(order)
                placed = self._place(steps)
                cost = self._cost(steps, placed)
            if best is None or cost < best[0]:
                best = (cost, order, placed)
        if best is None:
            return None
        return tuple(best[1]), tuple((k, best[2][k]) for k in self.selective if k in best[2])

    def _joined(self, i: int, covered: set) -> float | None:
        """The selectivity of joining relation ``i`` to the ``covered``
        ones, or None when no ON pair connects them."""
        sel = None
        for j, s in self.adj[i]:
            if j in covered:
                sel = s if sel is None else sel * s
        return sel

    def _residual(self, covered: set, before: set) -> float:
        return UNPRICED ** sum(1 for r in self.residuals
                               if r <= covered and not r <= before)

    def _greedy(self, start: int, bound: float | None) -> tuple[list[int] | None, float]:
        """The greedy order from ``start`` and its cost without semi/anti
        joins; ``(None, 0)`` when the relations are not connected or the
        cost reaches ``bound``."""
        order, covered, p, cost = [], set(), self.rows[start], 0.0
        reach: dict[int, float] = {}  # relation -> selectivity of joining it now

        def cover(j: int) -> None:
            order.append(j)
            covered.add(j)
            reach.pop(j, None)
            for i, s in self.adj[j]:
                if i not in covered:
                    reach[i] = reach.get(i, 1.0) * s

        cover(start)
        for boundary, run in self.runs:
            if boundary is not None:
                cost += p + self.rows[boundary]
                cover(boundary)
            remaining = [i for i in run if i not in covered]
            while remaining:
                pick = None
                for i in remaining:
                    if i in reach:
                        new = p * self.rows[i] * reach[i]
                        if self.residuals:
                            new *= self._residual(covered | {i}, covered)
                        if pick is None or new < pick[1]:
                            pick = (i, new)
                if pick is None:
                    return None, 0.0  # disconnected: leave it to the text's order
                cost += p + self.rows[pick[0]]
                if bound is not None and cost >= bound:
                    return None, 0.0
                cover(pick[0])
                remaining.remove(pick[0])
                p = pick[1]
        return order, cost

    def _steps(self, order: list) -> list[tuple[int, float | None, float]]:
        """Per position of ``order``: the relation, the selectivity of its
        join to the ones before it (unused for the first; None for a
        position-keeping join, which passes its probe rows on), and the
        residuals' share that the prefix keeps once it is joined."""
        steps, covered = [], set()
        for pos, i in enumerate(order):
            sel = 0.0 if pos == 0 else (
                self._joined(i, covered) if self.rels[i].how == "inner" else None)
            resid = self._residual(covered | {i}, covered) if self.residuals else 1.0
            covered.add(i)
            steps.append((i, sel, resid))
        return steps

    def _cost(self, steps: list, placed: dict) -> float:
        """The estimated rows entering every join of the order ``steps``
        with the semi/anti joins ``placed`` (index -> ``(position, on)``:
        ``on`` places it on that relation before it is joined, otherwise
        it goes after that join)."""
        at: dict[tuple[int, bool], list[int]] = {}
        for k in self.selective:
            if k in placed:
                at.setdefault(placed[k], []).append(k)
        cost = p = 0.0
        for pos, (i, sel, resid) in enumerate(steps):
            rows = self.rows[i]
            for k in at.get((pos, True), ()):
                cost += rows + self.sub_rows[k]
                rows *= self.keep[k]
            if pos == 0:
                p = rows
            else:
                cost += p + rows
                if sel is not None:
                    p *= rows * sel
            p *= resid
            for k in at.get((pos, False), ()):
                cost += p + self.sub_rows[k]
                p *= self.keep[k]
        return cost

    def _place(self, steps: list) -> dict:
        """Each semi/anti join's cheapest position in the order ``steps``,
        most selective first, with the ones before it already placed."""
        placed: dict[int, tuple[int, bool]] = {}
        for k in self.selective:
            covered, best = set(), None
            for pos, (i, _sel, _resid) in enumerate(steps):
                covered.add(i)
                where = []
                if pos and self.keys[k] == {i} and self.rels[i].how == "inner":
                    where.append((pos, True))
                if self.keys[k] <= covered:
                    where.append((pos, False))
                for at in where:
                    cost = self._cost(steps, {**placed, k: at})
                    if best is None or cost < best[0]:
                        best = (cost, at)
            placed[k] = best[1]
        return placed

    def _build(self, order: tuple, placed: tuple) -> Q:
        def semi_join(plan: Q, at: tuple[int, bool]) -> Q:
            for k, where in placed:
                if where == at:
                    how, sub, on = self.semis[k]
                    plan = plan.join(sub, on=on, how=how)
            return plan

        plan, covered = None, set()
        for pos, i in enumerate(order):
            rel = self.rels[i]
            right = semi_join(rel.plan, (pos, True))
            if plan is None:
                plan = right
            elif rel.how != "inner":
                plan = plan.join(right, on=list(rel.pairs), how=rel.how)
            else:
                pairs = sorted(p for j in covered for p in self.edges.get((j, i), ()))
                plan = plan.join(right, on=pairs)
            covered.add(i)
            plan = semi_join(plan, (pos, False))
        return plan


def _plan_query(shared: _Shared, stmt: A.Node) -> Q:
    """Lower a full statement (SELECT or UNION chain) with no outer scope."""
    if not isinstance(stmt, A.UnionStmt):
        return _SelectLowering(shared).lower(stmt)
    # Walk the left-deep union spine iteratively.
    spine: list[A.UnionStmt] = []
    cur: A.Node = stmt
    while isinstance(cur, A.UnionStmt):
        spine.append(cur)
        cur = cur.left
    plan = _SelectLowering(shared).lower(cur)
    cols = list(output_columns(plan.node, shared.db))
    for union in reversed(spine):
        right = _plan_query(shared, union.right) if isinstance(union.right, A.UnionStmt) \
            else _SelectLowering(shared).lower(union.right)
        rcols = list(output_columns(right.node, shared.db))
        if rcols != cols:
            raise SqlError(
                f"UNION inputs must produce the same columns "
                f"({cols} vs {rcols})"
            )
        plan = plan.union_all(right)
        if not union.all:
            plan = plan.distinct()
    return plan


class _SelectLowering:
    """Lowers one SELECT block. Aggregate registration (``__aggN``) is
    per-block, matching one AggregateNode per block."""

    def __init__(self, shared: _Shared):
        self.shared = shared
        self.db = shared.db
        self._aggs: dict[str, object] = {}
        self._agg_counter = 0

    # -- entry points ---------------------------------------------------

    def lower(self, stmt: A.Node) -> Q:
        if not isinstance(stmt, A.SelectStmt):
            return _plan_query(self.shared, stmt)
        plan, scope, _corr = self._from_where(stmt, corr_scope=None)
        plan = self._project_and_aggregate(plan, scope, stmt)
        if stmt.order_by:
            out_cols = set(output_columns(plan.node, self.db))
            for name, _direction in stmt.order_by:
                if name not in out_cols:
                    raise SqlError(f"ORDER BY column {name!r} is not in scope")
            plan = plan.sort(*stmt.order_by)
        if stmt.limit is not None:
            plan = plan.limit(stmt.limit)
        return plan

    # -- FROM + WHERE ---------------------------------------------------

    def _from_where(
        self, stmt: A.SelectStmt, corr_scope: set | None
    ) -> tuple[Q, set, list[tuple[str, str]]]:
        """Plan FROM + joins, classify WHERE conjuncts, place the pending
        subquery joins and apply the residual filters. When ``corr_scope``
        is given, equality conjuncts correlating with it are extracted and
        returned instead of planned."""
        rels = [_Relation("inner", self._lower_from_item(stmt.from_item), ())]
        text_columns = list(output_columns(rels[0].plan.node, self.db))
        for join in stmt.joins:
            rel = self._lower_join_item(join, text_columns)
            rels.append(rel)
            if join.how not in ("semi", "anti"):
                right_on = {b for _a, b in rel.pairs}
                text_columns += [c for c in rel.columns
                                 if not (c in text_columns and c in right_on)]
        scope = set(text_columns)

        pending: list[tuple[str, Q, list[tuple[str, str]]]] = []
        corr: list[tuple[str, str]] = []
        filters: list[Expr] = []
        for c in _conjuncts(stmt.where):
            if isinstance(c, A.Unary) and c.op == "NOT" and \
                    isinstance(c.operand, (A.InSelect, A.Exists)):
                inner = c.operand
                c = (A.InSelect(inner.operand, inner.query, not inner.negated)
                     if isinstance(inner, A.InSelect)
                     else A.Exists(inner.query, not inner.negated))
            if corr_scope is not None:
                pair = _corr_pair(c, scope, corr_scope)
                if pair is not None:
                    corr.append(pair)
                    continue
            if isinstance(c, A.InSelect):
                self._lower_in_select(c, scope, pending)
                continue
            if isinstance(c, A.Exists):
                self._lower_exists(c, scope, pending, filters)
                continue
            replacement = self._corr_scalar_filter(c, scope, pending)
            if replacement is not None:
                filters.append(replacement)
                continue
            filters.append(self._lower_expr(c, scope))
        # A decorrelated scalar aggregate is one more inner-joined relation.
        for how, sub, on in pending:
            if how == "inner":
                rels.append(_Relation("inner", sub, tuple(on)))
                text_columns += list(output_columns(sub.node, self.db))
        semis = [(how, sub, on) for how, sub, on in pending if how != "inner"]
        # An attempt to correlate that finds no correlation is thrown
        # away (its caller plans the subquery again): nothing to order.
        discarded = corr_scope is not None and not corr
        plan = None if discarded else _JoinOrder(self.shared, rels, semis, filters).plan()
        if plan is None:  # nothing to choose: text order, subquery joins last
            plan = rels[0].plan
            for rel in rels[1:]:
                plan = plan.join(rel.plan, on=list(rel.pairs), how=rel.how)
            for how, sub, on in semis:
                plan = plan.join(sub, on=on, how=how)
        elif any(item.expr is None for item in stmt.items) and \
                output_columns(plan.node, self.db) != text_columns:
            plan = plan.select(*text_columns)  # SELECT * keeps its text order
        if filters:
            plan = plan.filter(reduce(lambda a, b: a & b, filters))
        return plan, scope, corr

    def _lower_from_item(self, item: A.Node) -> Q:
        if isinstance(item, A.TableRef):
            try:
                return Q(self.db).scan(item.name)
            except KeyError:
                raise SqlError(f"unknown table {item.name!r}") from None
        return _plan_query(self.shared, item.query)

    def _lower_join_item(self, join: A.JoinClause, left_columns: list) -> "_Relation":
        """Lower one JOIN clause's item and orient its ON pairs against
        the columns the FROM items before it produce (text order)."""
        right = self._lower_from_item(join.item)
        right_cols = set(output_columns(right.node, self.db))
        left_cols = set(left_columns)
        # Orient each pair: left side of the pair must come from the plan
        # built so far, the other from the newly joined table.
        oriented = []
        for a, b in join.on:
            if b in right_cols and a not in right_cols:
                pair = (a, b)
            elif a in right_cols and b not in right_cols:
                pair = (b, a)
            elif b in right_cols:
                pair = (a, b)
            else:
                raise SqlError(
                    f"join condition {a} = {b} does not reference the joined table"
                )
            if pair[0] not in left_cols:
                raise SqlError(f"join column {pair[0]!r} is not in scope")
            oriented.append(pair)
        return _Relation(join.how, right, tuple(oriented))

    # -- subquery conjuncts ---------------------------------------------

    def _try_correlate(self, query: A.Node, outer_scope: set):
        """Plan ``query``'s FROM+WHERE extracting correlation against
        ``outer_scope``. Returns ``(child, plan, inner_scope, corr)`` or
        None when the subquery is uncorrelated (or a UNION)."""
        if not isinstance(query, A.SelectStmt):
            return None
        child = _SelectLowering(self.shared)
        plan, inner_scope, corr = child._from_where(query, corr_scope=outer_scope)
        if not corr:
            return None
        return child, plan, inner_scope, corr

    @staticmethod
    def _reject_block_clauses(sub: A.SelectStmt, what: str) -> None:
        if sub.group_by or sub.having is not None or sub.order_by or sub.limit is not None:
            raise SqlError(
                f"correlated {what} subquery cannot use "
                f"GROUP BY/HAVING/ORDER BY/LIMIT"
            )

    def _lower_in_select(self, c: A.InSelect, scope: set, pending: list) -> None:
        if not isinstance(c.operand, A.Col):
            raise SqlError("IN (SELECT ...) requires a plain column on the left")
        left_name = c.operand.name
        if left_name not in scope:
            raise SqlError(f"column {left_name!r} is not in scope")
        how = "anti" if c.negated else "semi"
        prep = self._try_correlate(c.query, scope)
        if prep is None:
            subplan = _plan_query(self.shared, c.query)
            sub_cols = output_columns(subplan.node, self.db)
            if len(sub_cols) != 1:
                raise SqlError("IN subquery must produce exactly one column")
            pending.append(
                (how, subplan.project(__sub=col(sub_cols[0])), [(left_name, "__sub")])
            )
            return
        child, inner_plan, inner_scope, corr = prep
        sub = c.query
        self._reject_block_clauses(sub, "IN")
        if len(sub.items) != 1 or sub.items[0].expr is None:
            raise SqlError("IN subquery must produce exactly one column")
        value = child._lower_expr(sub.items[0].expr, inner_scope)
        n = self.shared.next_subq()
        vname = f"__subq{n}"
        proj = {vname: value}
        on = [(left_name, vname)]
        for i, (inner_col, outer_col) in enumerate(corr):
            key = f"{vname}_k{i}"
            proj[key] = col(inner_col)
            on.append((outer_col, key))
        pending.append((how, inner_plan.project(**proj), on))

    def _lower_exists(self, c: A.Exists, scope: set, pending: list,
                      filters: list) -> None:
        prep = self._try_correlate(c.query, scope)
        if prep is None:
            subplan = _plan_query(self.shared, c.query)
            counted = scalar(subplan.aggregate(by=[], __exists=agg.count_star()))
            filters.append((counted == lit(0)) if c.negated else (counted > lit(0)))
            return
        child, inner_plan, inner_scope, corr = prep
        if c.query.group_by or c.query.having is not None:
            raise SqlError("correlated EXISTS subquery cannot use GROUP BY/HAVING")
        n = self.shared.next_subq()
        proj = {}
        on = []
        for i, (inner_col, outer_col) in enumerate(corr):
            key = f"__subq{n}_k{i}"
            proj[key] = col(inner_col)
            on.append((outer_col, key))
        pending.append(("anti" if c.negated else "semi", inner_plan.project(**proj), on))

    def _corr_scalar_filter(self, c: A.Node, scope: set, pending: list) -> Expr | None:
        """Decorrelate ``expr CMP (SELECT agg ... WHERE inner = outer)``:
        aggregate the subquery grouped by its correlation keys, inner-join
        it back, and compare against the joined value column."""
        if not (isinstance(c, A.Binary) and c.op in _CMP_OPS):
            return None
        for sub_side, other_side in ((c.right, c.left), (c.left, c.right)):
            if not isinstance(sub_side, A.SubqueryExpr):
                continue
            prep = self._try_correlate(sub_side.query, scope)
            if prep is None:
                return None  # uncorrelated: ordinary expression lowering
            child, inner_plan, inner_scope, corr = prep
            sub = sub_side.query
            self._reject_block_clauses(sub, "scalar")
            if len(sub.items) != 1 or sub.items[0].expr is None:
                raise SqlError("scalar subquery must produce exactly one column")
            value = child._lower_expr(sub.items[0].expr, inner_scope, allow_aggs=True)
            if not child._aggs:
                raise SqlError("correlated scalar subquery must compute an aggregate")
            keys = [inner_col for inner_col, _ in corr]
            agg_plan = inner_plan.aggregate(by=keys, **child._aggs)
            n = self.shared.next_subq()
            vname = f"__subq{n}"
            proj = {}
            on = []
            for i, (inner_col, outer_col) in enumerate(corr):
                key = f"{vname}_k{i}"
                proj[key] = col(inner_col)
                on.append((outer_col, key))
            proj[vname] = value
            pending.append(("inner", agg_plan.project(**proj), on))
            other = self._lower_expr(other_side, scope)
            if sub_side is c.right:
                return Cmp(_CMP_OPS[c.op], other, col(vname))
            return Cmp(_CMP_OPS[c.op], col(vname), other)
        return None

    # -- projection + aggregation ---------------------------------------

    def _project_and_aggregate(self, plan: Q, scope: set, stmt: A.SelectStmt) -> Q:
        items = stmt.items
        group_names = list(stmt.group_by)
        has_star = any(item.expr is None for item in items)

        lowered: list[tuple[str, Expr, bool]] = []  # (alias, expr, uses_aggs)
        for item in items:
            if item.expr is None:
                continue
            before = len(self._aggs)
            e = self._lower_expr(item.expr, scope, allow_aggs=True)
            lowered.append((item.alias, e, len(self._aggs) > before))

        having_expr = None
        if stmt.having is not None:
            alias_map = {alias: e for alias, e, _uses in lowered}
            post_scope = set(group_names) | set(self._aggs)
            # HAVING sees post-aggregation columns, but aggregate *arguments*
            # inside it (e.g. HAVING SUM(l_quantity) > 300) resolve against
            # the pre-aggregation scope.
            having_expr = self._lower_expr(
                stmt.having, post_scope, allow_aggs=True, alias_map=alias_map,
                agg_scope=scope,
            )

        if not self._aggs and not group_names:
            if has_star:
                if len(items) > 1:
                    raise SqlError("SELECT * cannot mix with other items")
                result = plan
                out_names = scope
            else:
                result = plan.project(**{alias: e for alias, e, _uses in lowered})
                out_names = {alias for alias, _e, _uses in lowered}
            if having_expr is not None:
                # No aggregation: HAVING degenerates to a filter over the
                # projected output.
                bad = having_expr.references() - out_names
                if bad:
                    raise SqlError(f"HAVING column {sorted(bad)[0]!r} is not in scope")
                result = result.filter(having_expr)
            return result

        if has_star:
            raise SqlError("SELECT * cannot be combined with aggregation")

        # Group keys may name SELECT aliases of computed expressions; those
        # must be materialized before the aggregate.
        alias_lowered = {alias: (e, uses) for alias, e, uses in lowered}
        pre_project: dict[str, Expr] = {}
        for name in group_names:
            if name not in scope:
                if name not in alias_lowered:
                    raise SqlError(f"GROUP BY column {name!r} is not in scope")
                e, uses_aggs = alias_lowered[name]
                if uses_aggs:
                    raise SqlError(f"GROUP BY column {name!r} is an aggregate")
                pre_project[name] = e
        if pre_project:
            needed: set[str] = set()
            for spec in self._aggs.values():
                if spec.expr is not None:
                    needed |= spec.expr.references()
            for e in pre_project.values():
                needed |= e.references()
            keep = {name: col(name) for name in needed & scope}
            keep.update({g: col(g) for g in group_names if g in scope})
            keep.update(pre_project)
            plan = plan.project(**keep)

        plan = plan.aggregate(by=group_names, **self._aggs)
        post_cols = set(group_names) | set(self._aggs)
        if having_expr is not None:
            bad = having_expr.references() - post_cols
            if bad:
                raise SqlError(
                    f"HAVING column {sorted(bad)[0]!r} must appear in "
                    f"GROUP BY or inside an aggregate"
                )
            plan = plan.filter(having_expr)
        # Group-key select items were materialized before the aggregate
        # (possibly as computed expressions); after it they are plain
        # columns named by their alias.
        final: dict[str, Expr] = {}
        for alias, e, _uses in lowered:
            if alias in group_names:
                final[alias] = col(alias)
                continue
            bad = e.references() - post_cols
            if bad:
                raise SqlError(
                    f"column {sorted(bad)[0]!r} must appear in GROUP BY "
                    f"or inside an aggregate"
                )
            final[alias] = e
        return plan.project(**final)

    # -- expressions ----------------------------------------------------

    def _register_agg(self, spec) -> Expr:
        name = f"__agg{self._agg_counter}"
        self._agg_counter += 1
        self._aggs[name] = spec
        return col(name)

    def _lower_expr(
        self,
        node: A.Node,
        scope: set,
        *,
        allow_aggs: bool = False,
        alias_map: dict[str, Expr] | None = None,
        agg_scope: set | None = None,
    ) -> Expr:
        lower = lambda n: self._lower_expr(  # noqa: E731
            n, scope, allow_aggs=allow_aggs, alias_map=alias_map,
            agg_scope=agg_scope,
        )
        if isinstance(node, A.Binary):
            return self._lower_binary(node, scope, allow_aggs, alias_map, agg_scope)
        if isinstance(node, A.Col):
            name = node.name
            if name in scope:
                return col(name)
            if alias_map is not None and name in alias_map:
                return alias_map[name]
            raise SqlError(f"column {name!r} is not in scope")
        if isinstance(node, (A.Number, A.String, A.DateLit)):
            literal = lower_literal(node)
            self.shared.literals.append((node, literal))
            return literal
        if isinstance(node, A.Interval):
            raise SqlError("INTERVAL is only valid in date arithmetic")
        if isinstance(node, A.Unary):
            if node.op == "NOT":
                return ~lower(node.operand)
            return lit(0) - lower(node.operand)
        if isinstance(node, A.Between):
            operand = lower(node.operand)
            return (operand >= lower(node.lo)) & (operand <= lower(node.hi))
        if isinstance(node, A.InList):
            result = lower(node.operand).isin(list(node.values))
            return ~result if node.negated else result
        if isinstance(node, A.InSelect):
            raise SqlError("IN (SELECT ...) is only supported in WHERE conjunctions")
        if isinstance(node, A.Exists):
            raise SqlError("EXISTS is only supported in WHERE conjunctions")
        if isinstance(node, A.LikePred):
            operand = lower(node.operand)
            return operand.not_like(node.pattern) if node.negated \
                else operand.like(node.pattern)
        if isinstance(node, A.IsNullPred):
            operand = lower(node.operand)
            return operand.is_not_null() if node.negated else operand.is_null()
        if isinstance(node, A.CaseWhen):
            whens = [(lower(cond), lower(value)) for cond, value in node.whens]
            otherwise = lower(node.otherwise) if node.otherwise is not None else lit(0.0)
            return case(whens, otherwise)
        if isinstance(node, A.Func):
            if node.name == "UPPER":
                return lower(node.args[0]).upper()
            if node.name == "LOWER":
                return lower(node.args[0]).lower()
            return concat(*[lower(arg) for arg in node.args])
        if isinstance(node, A.ExtractYearExpr):
            return lower(node.operand).year()
        if isinstance(node, A.SubstringFunc):
            return lower(node.operand).substring(node.start, node.length)
        if isinstance(node, A.Agg):
            if not allow_aggs:
                raise SqlError("aggregate functions are only allowed in SELECT and HAVING")
            if node.star:
                return self._register_agg(agg.count_star())
            arg = self._lower_expr(
                node.arg, scope if agg_scope is None else agg_scope,
                allow_aggs=False, alias_map=alias_map,
            )
            if node.distinct:
                return self._register_agg(agg.count_distinct(arg))
            return self._register_agg(_AGG_BUILDERS[node.func](arg))
        if isinstance(node, A.SubqueryExpr):
            subplan = _plan_query(self.shared, node.query)
            sub_cols = output_columns(subplan.node, self.db)
            if len(sub_cols) != 1:
                raise SqlError("scalar subquery must produce exactly one column")
            return scalar(subplan)
        raise SqlError(f"cannot lower expression {type(node).__name__}")

    def _lower_binary(self, node: A.Binary, scope: set, allow_aggs: bool,
                      alias_map: dict[str, Expr] | None,
                      agg_scope: set | None = None) -> Expr:
        # Walk the left spine iteratively: parser loops build left-deep
        # chains (a + b + c, a AND b AND ...), and recursing down them
        # frame-per-node would let a long flat chain exhaust the stack
        # even though its *nesting* depth is 1.
        spine: list[tuple[str, A.Node]] = []
        cur: A.Node = node
        while isinstance(cur, A.Binary):
            spine.append((cur.op, cur.right))
            cur = cur.left
        acc = self._lower_expr(cur, scope, allow_aggs=allow_aggs,
                               alias_map=alias_map, agg_scope=agg_scope)
        for op, right in reversed(spine):
            if isinstance(right, A.Interval):
                if op == "+":
                    acc = self._shift_date(acc, right, +1)
                elif op == "-":
                    acc = self._shift_date(acc, right, -1)
                else:
                    raise SqlError("INTERVAL is only valid in date arithmetic")
                continue
            rhs = self._lower_expr(right, scope, allow_aggs=allow_aggs,
                                   alias_map=alias_map, agg_scope=agg_scope)
            acc = _apply_binop(op, acc, rhs)
        return acc

    @staticmethod
    def _shift_date(base: Expr, interval: A.Interval, sign: int) -> Expr:
        """Fold ``DATE 'x' +/- INTERVAL 'n' unit`` into a date literal."""
        if not (isinstance(base, Literal) and isinstance(base.value, str)):
            raise SqlError("INTERVAL arithmetic needs a DATE literal")
        try:
            base_date = _dt.date.fromisoformat(base.value)
            years = months = days = 0
            if interval.unit == "DAY":
                days = interval.amount
            elif interval.unit == "MONTH":
                months = interval.amount
            else:
                years = interval.amount
            year = base_date.year + sign * years
            month = base_date.month + sign * months
            year += (month - 1) // 12
            month = (month - 1) % 12 + 1
            day = min(base_date.day, _days_in_month(year, month))
            moved = _dt.date(year, month, day) + _dt.timedelta(days=sign * days)
        except (ValueError, OverflowError) as exc:
            raise SqlError(f"invalid date arithmetic: {exc}") from None
        return lit(moved.isoformat())


def plan_statement(db: Database, stmt: A.Node, literals: list | None = None,
                   orders: list | None = None) -> Q:
    """Lower an already-parsed syntax tree onto an engine plan.

    When given, ``literals`` records every literal node lowered as
    ``(syntax node, Literal, read)``: ``read`` when a join-order estimate
    read the literal's value, so another value may plan another order.
    ``orders`` records each estimated block's decision, in planning
    order: the plan is the same function of its literals as long as
    these decisions are.
    """
    shared = _Shared(db, stmt, orders)
    plan = _plan_query(shared, stmt)
    read = shared.remember()
    if literals is not None:
        literals.extend((node, literal, id(literal) in read)
                        for node, literal in shared.literals)
    return plan


def parse(db: Database, text: str, literals: list | None = None,
          orders: list | None = None) -> Q:
    """Parse a SQL SELECT into a plan (alias: :func:`sql`).

    ``literals`` and ``orders`` are passed on to :func:`plan_statement`.

    Never-crash contract: the only exception this raises for any input
    string is :class:`SqlError`. Unexpected internal failures are wrapped
    in an ``internal=True`` :class:`SqlError` as a last resort; the fuzz
    suite asserts that guard never fires.
    """
    try:
        return plan_statement(db, parse_statement(text), literals, orders)
    except SqlError:
        raise
    except RecursionError:
        raise SqlError("query nested too deeply", internal=True) from None
    except Exception as exc:
        raise SqlError(
            f"internal error while planning: {type(exc).__name__}: {exc}",
            internal=True,
        ) from exc


sql = parse
