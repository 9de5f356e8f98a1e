"""Syntax tree for the SQL dialect, plus a renderer back to SQL text.

The parser (:mod:`repro.engine.sql.parser`) produces these nodes without
touching a catalog; the planner (:mod:`repro.engine.sql.planner`) lowers
them onto engine plans. Keeping the tree explicit buys two things: the
round-trip property test (``render`` → reparse → identical plan
fingerprint) and a planner that can classify WHERE conjuncts — semi/anti
joins for ``IN``/``EXISTS``, decorrelation for correlated scalar
subqueries — after parsing instead of during it.

``render`` emits conservative, fully-parenthesized SQL. It is not meant
to be pretty; it is meant to reparse to a semantically identical tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Node", "Col", "Number", "String", "DateLit", "Interval", "Binary",
    "Unary", "Between", "InList", "InSelect", "Exists", "LikePred",
    "IsNullPred", "CaseWhen", "Func", "ExtractYearExpr", "SubstringFunc",
    "Agg", "SubqueryExpr", "SelectItem", "TableRef", "DerivedTable",
    "JoinClause", "SelectStmt", "UnionStmt", "render",
]


class Node:
    """Base class for every syntax-tree node."""

    __slots__ = ()


# -- expressions -------------------------------------------------------


@dataclass(frozen=True)
class Col(Node):
    name: str


@dataclass(frozen=True)
class Number(Node):
    """Numeric literal; the source text is kept so rendering is exact.
    ``position`` (here, on :class:`String` and on :class:`DateLit`) is the
    literal token's character offset, or -1 for a node built by hand."""

    text: str
    position: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class String(Node):
    value: str
    position: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class DateLit(Node):
    value: str
    position: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Interval(Node):
    amount: int
    unit: str  # DAY | MONTH | YEAR


@dataclass(frozen=True)
class Binary(Node):
    """op in: OR AND = <> < <= > >= + - * /"""

    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Unary(Node):
    """op in: - NOT"""

    op: str
    operand: Node


@dataclass(frozen=True)
class Between(Node):
    operand: Node
    lo: Node
    hi: Node


@dataclass(frozen=True)
class InList(Node):
    """``x [NOT] IN (literal, ...)`` — values are plain Python values."""

    operand: Node
    values: tuple
    negated: bool


@dataclass(frozen=True)
class InSelect(Node):
    operand: Node
    query: Node  # SelectStmt | UnionStmt
    negated: bool


@dataclass(frozen=True)
class Exists(Node):
    query: Node
    negated: bool


@dataclass(frozen=True)
class LikePred(Node):
    operand: Node
    pattern: str
    negated: bool


@dataclass(frozen=True)
class IsNullPred(Node):
    operand: Node
    negated: bool


@dataclass(frozen=True)
class CaseWhen(Node):
    whens: tuple  # ((cond, value), ...)
    otherwise: Node | None


@dataclass(frozen=True)
class Func(Node):
    """UPPER / LOWER / CONCAT calls."""

    name: str
    args: tuple


@dataclass(frozen=True)
class ExtractYearExpr(Node):
    operand: Node


@dataclass(frozen=True)
class SubstringFunc(Node):
    operand: Node
    start: int
    length: int


@dataclass(frozen=True)
class Agg(Node):
    """SUM/AVG/MIN/MAX/COUNT call; ``arg`` is None for COUNT(*)."""

    func: str
    arg: Node | None
    distinct: bool = False
    star: bool = False


@dataclass(frozen=True)
class SubqueryExpr(Node):
    """``(SELECT ...)`` used as a scalar value."""

    query: Node


# -- statements --------------------------------------------------------


@dataclass(frozen=True)
class SelectItem(Node):
    """One SELECT-list entry; ``expr is None`` means ``*`` (alias None)."""

    expr: Node | None
    alias: str | None


@dataclass(frozen=True)
class TableRef(Node):
    name: str
    alias: str | None = None


@dataclass(frozen=True)
class DerivedTable(Node):
    query: Node
    alias: str | None = None


@dataclass(frozen=True)
class JoinClause(Node):
    how: str  # inner | left | semi | anti
    item: Node  # TableRef | DerivedTable
    on: tuple  # ((name, name), ...)


@dataclass(frozen=True)
class SelectStmt(Node):
    items: tuple
    from_item: Node
    joins: tuple = ()
    where: Node | None = None
    group_by: tuple = ()
    having: Node | None = None
    order_by: tuple = ()  # ((name, "asc"|"desc"), ...)
    limit: int | None = None


@dataclass(frozen=True)
class UnionStmt(Node):
    left: Node
    right: Node
    all: bool


# -- rendering ---------------------------------------------------------


def _quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


_JOIN_SQL = {"inner": "JOIN", "left": "LEFT JOIN", "semi": "SEMI JOIN",
             "anti": "ANTI JOIN"}


def render(node: Node) -> str:
    """Render a syntax tree back to SQL text in the engine's dialect."""
    if isinstance(node, UnionStmt):
        keyword = "UNION ALL" if node.all else "UNION"
        return f"{render(node.left)} {keyword} {render(node.right)}"
    if isinstance(node, SelectStmt):
        return _render_select(node)
    return _render_expr(node)


def _render_select(stmt: SelectStmt) -> str:
    parts = ["SELECT", ", ".join(_render_item(item) for item in stmt.items)]
    parts.append("FROM")
    parts.append(_render_from(stmt.from_item))
    for join in stmt.joins:
        on = " AND ".join(f"{a} = {b}" for a, b in join.on)
        parts.append(f"{_JOIN_SQL[join.how]} {_render_from(join.item)} ON {on}")
    if stmt.where is not None:
        parts.append(f"WHERE {_render_expr(stmt.where)}")
    if stmt.group_by:
        parts.append("GROUP BY " + ", ".join(stmt.group_by))
    if stmt.having is not None:
        parts.append(f"HAVING {_render_expr(stmt.having)}")
    if stmt.order_by:
        keys = ", ".join(f"{name} {direction.upper()}" for name, direction in stmt.order_by)
        parts.append(f"ORDER BY {keys}")
    if stmt.limit is not None:
        parts.append(f"LIMIT {stmt.limit}")
    return " ".join(parts)


def _render_item(item: SelectItem) -> str:
    if item.expr is None:
        return "*"
    text = _render_expr(item.expr)
    if item.alias is not None:
        return f"{text} AS {item.alias}"
    return text


def _render_from(item: Node) -> str:
    if isinstance(item, TableRef):
        return item.name if item.alias is None else f"{item.name} AS {item.alias}"
    assert isinstance(item, DerivedTable)
    body = f"({render(item.query)})"
    return body if item.alias is None else f"{body} AS {item.alias}"


def _render_literal(value) -> str:
    if isinstance(value, str):
        return _quote(value)
    return repr(value)


def _render_expr(node: Node) -> str:
    if isinstance(node, Col):
        return node.name
    if isinstance(node, Number):
        return node.text
    if isinstance(node, String):
        return _quote(node.value)
    if isinstance(node, DateLit):
        return f"DATE {_quote(node.value)}"
    if isinstance(node, Interval):
        return f"INTERVAL {_quote(str(node.amount))} {node.unit}"
    if isinstance(node, Binary):
        op = {"AND": "AND", "OR": "OR"}.get(node.op, node.op)
        return f"({_render_expr(node.left)} {op} {_render_expr(node.right)})"
    if isinstance(node, Unary):
        if node.op == "NOT":
            return f"(NOT {_render_expr(node.operand)})"
        return f"(- {_render_expr(node.operand)})"
    if isinstance(node, Between):
        return (f"({_render_expr(node.operand)} BETWEEN "
                f"{_render_expr(node.lo)} AND {_render_expr(node.hi)})")
    if isinstance(node, InList):
        values = ", ".join(_render_literal(v) for v in node.values)
        word = "NOT IN" if node.negated else "IN"
        return f"({_render_expr(node.operand)} {word} ({values}))"
    if isinstance(node, InSelect):
        word = "NOT IN" if node.negated else "IN"
        return f"({_render_expr(node.operand)} {word} ({render(node.query)}))"
    if isinstance(node, Exists):
        word = "NOT EXISTS" if node.negated else "EXISTS"
        return f"{word} ({render(node.query)})"
    if isinstance(node, LikePred):
        word = "NOT LIKE" if node.negated else "LIKE"
        return f"({_render_expr(node.operand)} {word} {_quote(node.pattern)})"
    if isinstance(node, IsNullPred):
        word = "IS NOT NULL" if node.negated else "IS NULL"
        return f"({_render_expr(node.operand)} {word})"
    if isinstance(node, CaseWhen):
        parts = ["CASE"]
        for cond, value in node.whens:
            parts.append(f"WHEN {_render_expr(cond)} THEN {_render_expr(value)}")
        if node.otherwise is not None:
            parts.append(f"ELSE {_render_expr(node.otherwise)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(node, Func):
        args = ", ".join(_render_expr(a) for a in node.args)
        return f"{node.name}({args})"
    if isinstance(node, ExtractYearExpr):
        return f"EXTRACT(YEAR FROM {_render_expr(node.operand)})"
    if isinstance(node, SubstringFunc):
        return (f"SUBSTRING({_render_expr(node.operand)} "
                f"FROM {node.start} FOR {node.length})")
    if isinstance(node, Agg):
        if node.star:
            return "COUNT(*)"
        inner = _render_expr(node.arg)
        if node.distinct:
            return f"{node.func}(DISTINCT {inner})"
        return f"{node.func}({inner})"
    if isinstance(node, SubqueryExpr):
        return f"({render(node.query)})"
    raise TypeError(f"cannot render node {type(node).__name__}")
