"""Recursive-descent SQL parser: token stream → syntax tree.

Supported subset (everything the planner can lower):

* ``SELECT`` expressions with aliases, ``*``, aggregate functions
  (``SUM/AVG/MIN/MAX/COUNT/COUNT(*)/COUNT(DISTINCT x)``);
* ``FROM`` a base table or a derived table ``(SELECT ...) AS t``, plus
  ``[INNER|LEFT|SEMI|ANTI] JOIN <table | (SELECT ...)> ON`` equality
  conditions (conjunctions of ``a = b``);
* ``WHERE`` with arithmetic, comparisons, ``AND/OR/NOT``, ``BETWEEN``,
  ``IN (list)``, ``[NOT] IN (SELECT ...)``, ``[NOT] EXISTS (SELECT ...)``
  (including correlated forms), ``[NOT] LIKE``, ``IS [NOT] NULL``, and
  scalar subqueries (uncorrelated anywhere, correlated as a top-level
  comparison conjunct);
* ``GROUP BY`` plain columns or SELECT aliases, ``HAVING`` (which may
  name SELECT aliases);
* ``ORDER BY`` output columns with ``ASC/DESC``, ``LIMIT``;
* ``UNION`` and ``UNION ALL`` between SELECTs;
* ``CASE WHEN`` in any expression position, ``EXTRACT(YEAR FROM d)``,
  ``SUBSTRING(s FROM i FOR n)`` / ``SUBSTRING(s, i, n)``,
  ``UPPER/LOWER/CONCAT``, ``DATE 'yyyy-mm-dd'`` and date
  ``+/- INTERVAL 'n' DAY|MONTH|YEAR``.

Never-crash contract: the parser is depth-bounded (``MAX_DEPTH``) so
pathological nesting raises :class:`SqlError` long before Python's
recursion limit, every token mismatch raises :class:`SqlError` with the
offending token's line/column, and each grammar loop consumes at least
one token, so parsing always terminates.
"""

from __future__ import annotations

import re

from . import ast as A
from .errors import SqlError
from .lexer import Token, tokenize

__all__ = ["parse_statement", "MAX_DEPTH"]

# Bound on combined expression/subquery nesting. Each level costs ~10-15
# Python frames, so 50 keeps worst-case stack use far below the
# interpreter's recursion limit while allowing any sane query.
MAX_DEPTH = 50

_CMP_TOKENS = {"EQ": "=", "NE": "<>", "LT": "<", "LE": "<=", "GT": ">",
               "GE": ">="}
_INT_RE = re.compile(r"^-?\d{1,9}$")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self._depth = 0

    # -- token plumbing -------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return token

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str) -> Token:
        token = self.next()
        if token.kind != kind:
            raise self._err(
                f"expected {kind} but found {token.kind} ({token.value!r})",
                token,
            )
        return token

    def _err(self, message: str, token: Token | None = None) -> SqlError:
        token = token if token is not None else self.peek()
        return SqlError(message, line=token.line, column=token.column)

    def _enter(self) -> None:
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise self._err(f"query nested too deeply (limit {MAX_DEPTH})")

    # -- statements -----------------------------------------------------

    def parse_statement(self) -> A.Node:
        self._enter()
        try:
            stmt: A.Node = self._parse_select()
            while self.accept("UNION"):
                all_ = bool(self.accept("ALL"))
                right = self._parse_select()
                stmt = A.UnionStmt(stmt, right, all_)
            return stmt
        finally:
            self._depth -= 1

    def _parse_select(self) -> A.SelectStmt:
        self.expect("SELECT")
        items = self._select_list()
        self.expect("FROM")
        from_item = self._from_item()
        joins = []
        while self.peek().kind in ("JOIN", "INNER", "LEFT", "SEMI", "ANTI"):
            joins.append(self._join_clause())

        where = self._expr() if self.accept("WHERE") else None

        group_by: tuple = ()
        if self.accept("GROUP"):
            self.expect("BY")
            group_by = tuple(self._name_list())

        having = self._expr() if self.accept("HAVING") else None

        order_by = []
        if self.accept("ORDER"):
            self.expect("BY")
            while True:
                name = self._identifier("ORDER BY column")
                direction = "asc"
                if self.accept("DESC"):
                    direction = "desc"
                else:
                    self.accept("ASC")
                order_by.append((name, direction))
                if not self.accept("COMMA"):
                    break

        limit = None
        if self.accept("LIMIT"):
            token = self.expect("NUMBER")
            if "." in token.value:
                raise self._err("LIMIT must be an integer", token)
            limit = int(token.value)

        self.accept("SEMI_COLON")
        return A.SelectStmt(
            items=tuple(items),
            from_item=from_item,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            having=having,
            order_by=tuple(order_by),
            limit=limit,
        )

    # -- clauses --------------------------------------------------------

    def _select_list(self) -> list[A.SelectItem]:
        items: list[A.SelectItem] = []
        while True:
            if self.accept("STAR"):
                items.append(A.SelectItem(expr=None, alias=None))
            else:
                expr = self._expr()
                alias = None
                if self.accept("AS"):
                    alias = self._identifier("alias")
                elif self.peek().kind == "IDENT":
                    alias = self.next().value
                if alias is None:
                    alias = expr.name if isinstance(expr, A.Col) else f"col{len(items)}"
                items.append(A.SelectItem(expr=expr, alias=alias))
            if not self.accept("COMMA"):
                return items

    def _from_item(self) -> A.Node:
        if self.accept("LPAREN"):
            query = self.parse_statement()
            self.expect("RPAREN")
            return A.DerivedTable(query, self._maybe_alias())
        name = self._identifier("table name")
        return A.TableRef(name, self._maybe_alias())

    def _join_clause(self) -> A.JoinClause:
        how = "inner"
        kind = self.next().kind
        if kind in ("INNER", "LEFT", "SEMI", "ANTI"):
            how = kind.lower()
            self.expect("JOIN")
        item = self._from_item()
        self.expect("ON")
        on = [self._join_equality()]
        while self.accept("AND"):
            on.append(self._join_equality())
        return A.JoinClause(how, item, tuple(on))

    def _join_equality(self) -> tuple[str, str]:
        left = self._identifier("join column")
        self.expect("EQ")
        right = self._identifier("join column")
        return left, right

    def _maybe_alias(self) -> str | None:
        if self.accept("AS"):
            return self._identifier("alias")
        if self.peek().kind == "IDENT" and self.peek(1).kind != "DOT":
            return self.next().value
        return None

    def _name_list(self) -> list[str]:
        names = [self._identifier("column")]
        while self.accept("COMMA"):
            names.append(self._identifier("column"))
        return names

    def _identifier(self, what: str) -> str:
        token = self.next()
        if token.kind != "IDENT":
            raise self._err(f"expected {what}, found {token.value!r}", token)
        if self.accept("DOT"):
            # Qualified name: alias.column — column names are globally
            # unique in this engine, keep only the column part.
            return self.expect("IDENT").value
        return token.value

    # -- expressions ----------------------------------------------------

    def _expr(self) -> A.Node:
        self._enter()
        try:
            return self._or_expr()
        finally:
            self._depth -= 1

    def _or_expr(self) -> A.Node:
        left = self._and_expr()
        while self.accept("OR"):
            left = A.Binary("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> A.Node:
        left = self._not_expr()
        while self.accept("AND"):
            left = A.Binary("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> A.Node:
        if self.peek().kind == "NOT":
            if self.peek(1).kind == "EXISTS":
                self.next()
                return self._exists(negated=True)
            self.next()
            self._enter()
            try:
                return A.Unary("NOT", self._not_expr())
            finally:
                self._depth -= 1
        if self.peek().kind == "EXISTS":
            return self._exists(negated=False)
        return self._comparison()

    def _exists(self, negated: bool) -> A.Exists:
        self.expect("EXISTS")
        self.expect("LPAREN")
        query = self.parse_statement()
        self.expect("RPAREN")
        return A.Exists(query, negated)

    def _comparison(self) -> A.Node:
        left = self._additive()
        kind = self.peek().kind
        if kind in _CMP_TOKENS:
            self.next()
            return A.Binary(_CMP_TOKENS[kind], left, self._additive())
        if self.accept("BETWEEN"):
            lo = self._additive()
            self.expect("AND")
            hi = self._additive()
            return A.Between(left, lo, hi)
        negated = False
        if self.peek().kind == "NOT" and self.peek(1).kind in ("IN", "LIKE", "BETWEEN"):
            self.next()
            negated = True
            if self.accept("BETWEEN"):
                lo = self._additive()
                self.expect("AND")
                hi = self._additive()
                return A.Unary("NOT", A.Between(left, lo, hi))
        if self.accept("IN"):
            return self._in_tail(left, negated)
        if self.accept("LIKE"):
            pattern = self.expect("STRING").value
            return A.LikePred(left, pattern, negated)
        if self.accept("IS"):
            is_not = bool(self.accept("NOT"))
            self.expect("NULL")
            return A.IsNullPred(left, is_not)
        return left

    def _in_tail(self, left: A.Node, negated: bool) -> A.Node:
        self.expect("LPAREN")
        if self.peek().kind == "SELECT":
            query = self.parse_statement()
            self.expect("RPAREN")
            return A.InSelect(left, query, negated)
        values = [self._literal_value()]
        while self.accept("COMMA"):
            values.append(self._literal_value())
        self.expect("RPAREN")
        return A.InList(left, tuple(values), negated)

    def _literal_value(self):
        token = self.next()
        if token.kind == "NUMBER":
            return float(token.value) if "." in token.value else int(token.value)
        if token.kind == "STRING":
            return token.value
        if token.kind == "MINUS":
            inner = self._literal_value()
            if not isinstance(inner, (int, float)):
                raise self._err("expected a literal, found a string", token)
            return -inner
        raise self._err(f"expected a literal, found {token.value!r}", token)

    def _additive(self) -> A.Node:
        left = self._multiplicative()
        while True:
            if self.accept("PLUS"):
                left = A.Binary("+", left, self._multiplicative())
            elif self.accept("MINUS"):
                left = A.Binary("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> A.Node:
        left = self._unary()
        while True:
            if self.accept("STAR"):
                left = A.Binary("*", left, self._unary())
            elif self.accept("SLASH"):
                left = A.Binary("/", left, self._unary())
            else:
                return left

    def _unary(self) -> A.Node:
        if self.accept("MINUS"):
            self._enter()
            try:
                return A.Unary("-", self._unary())
            finally:
                self._depth -= 1
        return self._primary()

    def _primary(self) -> A.Node:
        token = self.peek()
        if token.kind == "NUMBER":
            self.next()
            return A.Number(token.value, token.position)
        if token.kind == "STRING":
            self.next()
            return A.String(token.value, token.position)
        if token.kind == "DATE":
            self.next()
            value = self.expect("STRING")
            return A.DateLit(value.value, value.position)
        if token.kind == "INTERVAL":
            self.next()
            amount = self.expect("STRING")
            if not _INT_RE.match(amount.value):
                raise self._err("INTERVAL amount must be an integer", amount)
            unit = self.next()
            if unit.kind not in ("DAY", "MONTH", "YEAR"):
                raise self._err(f"unsupported interval unit {unit.value!r}", unit)
            return A.Interval(int(amount.value), unit.kind)
        if token.kind == "CASE":
            return self._case()
        if token.kind in ("SUM", "AVG", "MIN", "MAX", "COUNT"):
            return self._aggregate_call()
        if token.kind == "EXTRACT":
            self.next()
            self.expect("LPAREN")
            self.expect("YEAR")
            self.expect("FROM")
            inner = self._expr()
            self.expect("RPAREN")
            return A.ExtractYearExpr(inner)
        if token.kind == "SUBSTRING":
            return self._substring()
        if token.kind in ("UPPER", "LOWER"):
            self.next()
            self.expect("LPAREN")
            inner = self._expr()
            self.expect("RPAREN")
            return A.Func(token.kind, (inner,))
        if token.kind == "CONCAT":
            self.next()
            self.expect("LPAREN")
            args = [self._expr()]
            while self.accept("COMMA"):
                args.append(self._expr())
            self.expect("RPAREN")
            if len(args) < 2:
                raise self._err("CONCAT requires at least two arguments", token)
            return A.Func("CONCAT", tuple(args))
        if token.kind == "LPAREN":
            self.next()
            if self.peek().kind == "SELECT":
                query = self.parse_statement()
                self.expect("RPAREN")
                return A.SubqueryExpr(query)
            inner = self._expr()
            self.expect("RPAREN")
            return inner
        if token.kind == "IDENT":
            return A.Col(self._identifier("column"))
        if token.kind == "EOF":
            raise self._err("unexpected end of input", token)
        raise self._err(f"unexpected token {token.value!r}", token)

    def _case(self) -> A.CaseWhen:
        self.expect("CASE")
        whens = []
        self.expect("WHEN")
        while True:
            cond = self._expr()
            self.expect("THEN")
            value = self._expr()
            whens.append((cond, value))
            if not self.accept("WHEN"):
                break
        otherwise = self._expr() if self.accept("ELSE") else None
        self.expect("END")
        return A.CaseWhen(tuple(whens), otherwise)

    def _substring(self) -> A.SubstringFunc:
        self.next()
        self.expect("LPAREN")
        inner = self._expr()
        if self.accept("FROM"):
            start = self._int_arg("SUBSTRING start")
            self.expect("FOR")
            length = self._int_arg("SUBSTRING length")
        else:
            self.expect("COMMA")
            start = self._int_arg("SUBSTRING start")
            self.expect("COMMA")
            length = self._int_arg("SUBSTRING length")
        self.expect("RPAREN")
        if start < 1:
            raise self._err("SUBSTRING start must be >= 1")
        return A.SubstringFunc(inner, start, length)

    def _int_arg(self, what: str) -> int:
        token = self.expect("NUMBER")
        if "." in token.value:
            raise self._err(f"{what} must be an integer literal", token)
        return int(token.value)

    def _aggregate_call(self) -> A.Agg:
        func = self.next().kind
        self.expect("LPAREN")
        if func == "COUNT" and self.accept("STAR"):
            self.expect("RPAREN")
            return A.Agg("COUNT", None, star=True)
        if func == "COUNT" and self.accept("DISTINCT"):
            inner = self._expr()
            self.expect("RPAREN")
            return A.Agg("COUNT", inner, distinct=True)
        inner = self._expr()
        self.expect("RPAREN")
        return A.Agg(func, inner)


def parse_statement(text: str) -> A.Node:
    """Parse SQL text into a syntax tree; raises :class:`SqlError` on any
    malformed input."""
    parser = _Parser(tokenize(text))
    stmt = parser.parse_statement()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise SqlError(
            f"unexpected trailing input {trailing.value!r}",
            line=trailing.line,
            column=trailing.column,
        )
    return stmt
