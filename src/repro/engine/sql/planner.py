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
from functools import reduce

from ..expr import Cmp, Expr, Literal, case, col, concat, lit, scalar
from ..optimizer import output_columns
from ..plan import Q, agg
from ..table import Database
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


class _Shared:
    """Per-statement planning state: the catalog, a counter that keeps
    decorrelated-subquery column names (``__subqN``) globally unique and
    deterministic in syntax-tree order, and (when given) the list that
    records each ``(syntax node, Literal)`` pair in lowering order."""

    def __init__(self, db: Database, literals: list | None = None):
        self.db = db
        self.literals = literals
        self._subq = 0

    def next_subq(self) -> int:
        n = self._subq
        self._subq += 1
        return n


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
        """Plan FROM + joins, classify WHERE conjuncts, apply the pending
        subquery joins and residual filters. When ``corr_scope`` is given,
        equality conjuncts correlating with it are extracted and returned
        instead of planned."""
        plan = self._lower_from_item(stmt.from_item)
        for join in stmt.joins:
            plan = self._apply_join(plan, join)
        scope = set(output_columns(plan.node, self.db))

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
        for how, sub, on in pending:
            plan = plan.join(sub, on=on, how=how)
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

    def _apply_join(self, plan: Q, join: A.JoinClause) -> Q:
        if isinstance(join.item, A.TableRef):
            try:
                right = Q(self.db).scan(join.item.name)
            except KeyError:
                raise SqlError(f"unknown table {join.item.name!r}") from None
            right_cols = set(self.db.table(join.item.name).column_names)
        else:
            right = _plan_query(self.shared, join.item.query)
            right_cols = set(output_columns(right.node, self.db))
        left_cols = set(output_columns(plan.node, self.db))
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
        return plan.join(right, on=oriented, how=join.how)

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
            if self.shared.literals is not None:
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


def plan_statement(db: Database, stmt: A.Node, literals: list | None = None) -> Q:
    """Lower an already-parsed syntax tree onto an engine plan; every
    literal node lowered is recorded in ``literals`` when given."""
    return _plan_query(_Shared(db, literals), stmt)


def parse(db: Database, text: str, literals: list | None = None) -> Q:
    """Parse a SQL SELECT into a plan (alias: :func:`sql`).

    ``literals`` is passed on to :func:`plan_statement`.

    Never-crash contract: the only exception this raises for any input
    string is :class:`SqlError`. Unexpected internal failures are wrapped
    in an ``internal=True`` :class:`SqlError` as a last resort; the fuzz
    suite asserts that guard never fires.
    """
    try:
        return plan_statement(db, parse_statement(text), literals)
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
