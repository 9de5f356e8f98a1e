"""Expression AST and vectorized evaluator.

Expressions are built with a small combinator API::

    from repro.engine.expr import col, lit
    pred = (col("l_shipdate") >= "1994-01-01") & (col("l_quantity") < 24)

and evaluated column-at-a-time over a :class:`~repro.engine.frame.Frame`.
Every evaluation records scalar-operation counts into the active
:class:`~repro.engine.profile.OperatorWork`, so downstream hardware models
see the arithmetic the query actually performed.

String columns are dictionary-encoded; comparisons, IN, LIKE, SUBSTRING
and UPPER/LOWER run once per *unique* value — once per dictionary, not
per call — and are then mapped through the code array, exactly the trick
a columnar DBMS uses.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .column import Column
from .frame import Frame
from .keycache import key_cache
from .types import BOOL, DATE, FLOAT64, INT64, STRING, date_to_days

if TYPE_CHECKING:  # pragma: no cover
    from .executor import ExecContext

__all__ = [
    "Expr",
    "col",
    "lit",
    "case",
    "scalar",
    "concat",
    "ColRef",
    "Literal",
    "ScalarSubquery",
    "StringCase",
    "Concat",
    "rewrite_colrefs",
]


def _coerce_literal_for(other, reference: "Expr"):
    """Wrap a bare Python value as a Literal."""
    if isinstance(other, Expr):
        return other
    return Literal(other)


class Expr:
    """Base class for all expression nodes."""

    # The structural key, once computed (repro.engine.fingerprint).
    __slots__ = ("_skey",)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other) -> "Expr":
        return Arith("+", self, _coerce_literal_for(other, self))

    def __radd__(self, other) -> "Expr":
        return Arith("+", _coerce_literal_for(other, self), self)

    def __sub__(self, other) -> "Expr":
        return Arith("-", self, _coerce_literal_for(other, self))

    def __rsub__(self, other) -> "Expr":
        return Arith("-", _coerce_literal_for(other, self), self)

    def __mul__(self, other) -> "Expr":
        return Arith("*", self, _coerce_literal_for(other, self))

    def __rmul__(self, other) -> "Expr":
        return Arith("*", _coerce_literal_for(other, self), self)

    def __truediv__(self, other) -> "Expr":
        return Arith("/", self, _coerce_literal_for(other, self))

    def __rtruediv__(self, other) -> "Expr":
        return Arith("/", _coerce_literal_for(other, self), self)

    # -- comparison ----------------------------------------------------
    def __eq__(self, other) -> "Expr":  # type: ignore[override]
        return Cmp("==", self, _coerce_literal_for(other, self))

    def __ne__(self, other) -> "Expr":  # type: ignore[override]
        return Cmp("!=", self, _coerce_literal_for(other, self))

    def __lt__(self, other) -> "Expr":
        return Cmp("<", self, _coerce_literal_for(other, self))

    def __le__(self, other) -> "Expr":
        return Cmp("<=", self, _coerce_literal_for(other, self))

    def __gt__(self, other) -> "Expr":
        return Cmp(">", self, _coerce_literal_for(other, self))

    def __ge__(self, other) -> "Expr":
        return Cmp(">=", self, _coerce_literal_for(other, self))

    # -- boolean -------------------------------------------------------
    def __and__(self, other) -> "Expr":
        return BoolOp("and", self, other)

    def __or__(self, other) -> "Expr":
        return BoolOp("or", self, other)

    def __invert__(self) -> "Expr":
        return Not(self)

    # -- SQL-ish helpers -------------------------------------------------
    def between(self, lo, hi) -> "Expr":
        return (self >= lo) & (self <= hi)

    def isin(self, values: Sequence) -> "Expr":
        return InList(self, list(values))

    def like(self, pattern: str) -> "Expr":
        return Like(self, pattern)

    def not_like(self, pattern: str) -> "Expr":
        return Not(Like(self, pattern))

    def substring(self, start: int, length: int) -> "Expr":
        return Substring(self, start, length)

    def upper(self) -> "Expr":
        return StringCase(self, "upper")

    def lower(self) -> "Expr":
        return StringCase(self, "lower")

    def year(self) -> "Expr":
        return ExtractYear(self)

    def is_null(self) -> "Expr":
        return IsNull(self, negate=False)

    def is_not_null(self) -> "Expr":
        return IsNull(self, negate=True)

    def __hash__(self):  # __eq__ is overloaded, keep Expr usable in sets
        return id(self)

    # -- evaluation ------------------------------------------------------
    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        raise NotImplementedError

    def references(self) -> set[str]:
        """Column names this expression reads (for projection pruning)."""
        raise NotImplementedError


class ColRef(Expr):
    """Reference to a column of the input frame."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        return frame.column(self.name)

    def references(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:  # pragma: no cover
        return f"col({self.name!r})"


class Literal(Expr):
    """A constant. Strings that look like ISO dates are coerced when
    compared against DATE columns; everything else keeps its Python type."""

    def __init__(self, value):
        self.value = value

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        n = frame.nrows
        v = self.value
        if isinstance(v, bool):
            return Column(BOOL, np.full(n, v, dtype=np.bool_))
        if isinstance(v, int):
            return Column(INT64, np.full(n, v, dtype=np.int64))
        if isinstance(v, float):
            return Column(FLOAT64, np.full(n, v, dtype=np.float64))
        if isinstance(v, str):
            return Column.from_strings([v] * n) if n else Column.from_strings([])
        if v is None:  # a scalar subquery's NULL, e.g. MAX over no rows
            return Column(FLOAT64, np.full(n, np.nan), valid=np.zeros(n, dtype=np.bool_))
        raise TypeError(f"unsupported literal {v!r}")

    def references(self) -> set[str]:
        return set()

    def __repr__(self) -> str:  # pragma: no cover
        return f"lit({self.value!r})"


_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


def _numeric(column: Column) -> np.ndarray:
    """Physical numeric payload of a column (dates as days)."""
    return column.values


def _per_dictionary(dictionary: np.ndarray, key, compute):
    """``compute(dictionary)`` — a LIKE mask, a SUBSTRING dictionary and
    remap — run once per dictionary object and ``key`` through the one
    identity memo: dictionaries are immutable and shared by every frame
    over a column."""
    return key_cache.memo(dictionary, key, compute)


def _entry_mask(dictionary: np.ndarray, key, test) -> np.ndarray:
    """``test(entry)`` per dictionary entry, as a boolean mask."""
    return _per_dictionary(dictionary, key, lambda d: np.fromiter(map(test, d), np.bool_, len(d)))


def _map_entries(column: Column, key, func) -> Column:
    """A STRING column through ``func`` per dictionary entry."""
    new_dict, remap = _per_dictionary(column.dictionary, key, lambda d: np.unique(
        np.asarray([func(s) for s in d], dtype=object), return_inverse=True))
    return Column.from_string_codes(remap[column.values].astype(np.int32), new_dict)


class Arith(Expr):
    """Binary arithmetic; result is FLOAT64 (INT64 when both sides are
    integers and the op is not division), NULL where either operand is."""

    _OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        lcol = self.left.evaluate(frame, ctx)
        rcol = self.right.evaluate(frame, ctx)
        lval, rval = _numeric(lcol), _numeric(rcol)
        if self.op == "/":
            # x/0 -> inf and 0/0 -> NaN, silently: AVG recomposition from
            # rollup cells divides by a zero count for all-NULL groups,
            # matching the aggregate kernel's errstate-guarded ratio.
            with np.errstate(invalid="ignore", divide="ignore"):
                result = self._OPS[self.op](lval, rval)
        else:
            result = self._OPS[self.op](lval, rval)
        ctx.work.ops += frame.nrows
        valid = lcol.valid
        if rcol.valid is not None:
            valid = rcol.valid if valid is None else valid & rcol.valid
        if self.op != "/" and lcol.dtype is INT64 and rcol.dtype is INT64:
            return Column(INT64, result.astype(np.int64), valid=valid)
        if lcol.dtype is DATE and rcol.dtype is INT64:
            return Column(DATE, result.astype(np.int32), valid=valid)
        return Column(FLOAT64, result.astype(np.float64, copy=False), valid=valid)

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.left!r} {self.op} {self.right!r})"


class Cmp(Expr):
    """Comparison producing a BOOL column. Handles date-string literals and
    dictionary-encoded string columns."""

    _OPS = {
        "==": np.equal,
        "!=": np.not_equal,
        "<": np.less,
        "<=": np.less_equal,
        ">": np.greater,
        ">=": np.greater_equal,
    }

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        ufunc = self._OPS[self.op]
        ctx.work.ops += frame.nrows
        # Fast paths: column vs literal.
        if isinstance(self.right, Literal):
            lcol = self.left.evaluate(frame, ctx)
            rv = self.right.value
            if lcol.dtype is STRING and isinstance(rv, str):
                return self._masked(lcol, self.dictionary_mask(lcol.dictionary)[lcol.values])
            if lcol.dtype is DATE and isinstance(rv, str) and _DATE_RE.match(rv):
                rv = date_to_days(rv)
            return self._masked(lcol, ufunc(lcol.values, rv))
        lcol = self.left.evaluate(frame, ctx)
        rcol = self.right.evaluate(frame, ctx)
        if lcol.dtype is STRING and rcol.dtype is STRING:
            if lcol.dictionary is rcol.dictionary and self.op in ("==", "!="):
                # Shared dictionary: equal strings have equal codes, so
                # compare the int32 codes without decoding either side.
                return self._masked(lcol, ufunc(lcol.values, rcol.values), rcol)
            mask = ufunc(lcol.decoded().astype(str), rcol.decoded().astype(str))
            ctx.work.rand_accesses += frame.nrows  # dictionary gathers
            return self._masked(lcol, mask, rcol)
        return self._masked(lcol, ufunc(lcol.values, rcol.values), rcol)

    @staticmethod
    def _masked(lcol: Column, mask: np.ndarray, rcol: Column | None = None) -> Column:
        # NULL comparisons are false.
        if lcol.valid is not None:
            mask = mask & lcol.valid
        if rcol is not None and rcol.valid is not None:
            mask = mask & rcol.valid
        return Column(BOOL, mask.astype(np.bool_, copy=False))

    def dictionary_mask(self, dictionary: np.ndarray) -> np.ndarray:
        """``entry <op> literal`` per dictionary entry (a string literal)."""
        ufunc, rv = self._OPS[self.op], self.right.value
        return _per_dictionary(dictionary, ("cmp", self.op, rv), lambda d: ufunc(d.astype(str), rv))

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.left!r} {self.op} {self.right!r})"


class BoolOp(Expr):
    def __init__(self, op: str, left: Expr, right: Expr):
        if not isinstance(right, Expr):
            raise TypeError("boolean operands must be expressions")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        lval = self.left.evaluate(frame, ctx).values
        rval = self.right.evaluate(frame, ctx).values
        ctx.work.ops += frame.nrows
        out = np.logical_and(lval, rval) if self.op == "and" else np.logical_or(lval, rval)
        return Column(BOOL, out)

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.left!r} {self.op.upper()} {self.right!r})"


class Not(Expr):
    def __init__(self, operand: Expr):
        self.operand = operand

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        ctx.work.ops += frame.nrows
        return Column(BOOL, np.logical_not(self.operand.evaluate(frame, ctx).values))

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"(NOT {self.operand!r})"


class InList(Expr):
    def __init__(self, operand: Expr, values: list):
        self.operand = operand
        self.values = values

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        column = self.operand.evaluate(frame, ctx)
        ctx.work.ops += frame.nrows * max(1, len(self.values) // 2)
        if column.dtype is STRING:
            mask = self.dictionary_mask(column.dictionary)[column.values]
        else:
            vals = self.values
            if column.dtype is DATE:
                vals = [date_to_days(v) if isinstance(v, str) else v for v in vals]
            mask = np.isin(column.values, np.asarray(vals))
        if column.valid is not None:
            mask = mask & column.valid
        return Column(BOOL, mask.astype(np.bool_, copy=False))

    def dictionary_mask(self, dictionary: np.ndarray) -> np.ndarray:
        """Membership in the list per dictionary entry."""
        wanted = frozenset(self.values)
        return _entry_mask(dictionary, ("in", wanted), wanted.__contains__)

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.operand!r} IN {self.values!r})"


def _like_to_regex(pattern: str) -> re.Pattern:
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)


class Like(Expr):
    """SQL LIKE over a dictionary-encoded string column (evaluated once per
    unique value)."""

    def __init__(self, operand: Expr, pattern: str):
        self.operand = operand
        self.pattern = pattern
        self._regex = _like_to_regex(pattern)

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        column = self.operand.evaluate(frame, ctx)
        if column.dtype is not STRING:
            raise TypeError("LIKE requires a string operand")
        mask = self.dictionary_mask(column.dictionary)[column.values]
        # Cost model: dictionary pooling makes our LIKE nearly free, but a
        # real engine pattern-matches every row's string bytes. Charge the
        # per-row work it would do: stream the string heap and ~1 op per
        # 2 characters matched.
        avg_len = _per_dictionary(
            column.dictionary, "avg_len", lambda d: float(np.mean([len(s) for s in d] or [0]))
        )
        ctx.work.ops += frame.nrows * avg_len * 0.5
        ctx.work.seq_bytes += frame.nrows * avg_len
        if column.valid is not None:
            mask = mask & column.valid
        return Column(BOOL, mask.astype(np.bool_, copy=False))

    def dictionary_mask(self, dictionary: np.ndarray) -> np.ndarray:
        """Whether each dictionary entry matches the pattern."""
        regex = self._regex
        return _entry_mask(dictionary, ("like", self.pattern), lambda s: regex.match(s) is not None)

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.operand!r} LIKE {self.pattern!r})"


class Substring(Expr):
    """1-based SQL SUBSTRING over strings."""

    def __init__(self, operand: Expr, start: int, length: int):
        self.operand = operand
        self.start = start
        self.length = length

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        column = self.operand.evaluate(frame, ctx)
        if column.dtype is not STRING:
            raise TypeError("SUBSTRING requires a string operand")
        lo = self.start - 1
        hi = lo + self.length
        ctx.work.ops += frame.nrows
        return _map_entries(column, ("substring", lo, hi), lambda s: s[lo:hi])

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"substring({self.operand!r}, {self.start}, {self.length})"


class StringCase(Expr):
    """UPPER/LOWER over a dictionary-encoded string column. Like
    :class:`Substring`, the transform runs once per *unique* value and is
    mapped through the code array."""

    def __init__(self, operand: Expr, mode: str):
        if mode not in ("upper", "lower"):
            raise ValueError(f"string case mode must be upper/lower, got {mode!r}")
        self.operand = operand
        self.mode = mode

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        column = self.operand.evaluate(frame, ctx)
        if column.dtype is not STRING:
            raise TypeError(f"{self.mode.upper()} requires a string operand")
        ctx.work.ops += frame.nrows
        return _map_entries(column, (self.mode,), str.upper if self.mode == "upper" else str.lower)

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mode}({self.operand!r})"


class Concat(Expr):
    """String concatenation of two or more operands.

    Unlike the per-unique-value kernels above, the result cardinality is
    the cross of the operands' dictionaries, so this decodes each operand
    and concatenates row-at-a-time — and charges that per-row work."""

    def __init__(self, parts: Sequence[Expr]):
        if len(parts) < 2:
            raise ValueError("CONCAT requires at least two operands")
        self.parts = list(parts)

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        columns = [part.evaluate(frame, ctx) for part in self.parts]
        for column in columns:
            if column.dtype is not STRING:
                raise TypeError("CONCAT requires string operands")
        decoded = [column.decoded().astype(str) for column in columns]
        out = decoded[0]
        for piece in decoded[1:]:
            out = np.char.add(out, piece)
        ctx.work.ops += frame.nrows * len(columns)
        ctx.work.rand_accesses += frame.nrows * len(columns)  # dictionary gathers
        return Column.from_strings(list(out))

    def references(self) -> set[str]:
        refs: set[str] = set()
        for part in self.parts:
            refs |= part.references()
        return refs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"concat({', '.join(map(repr, self.parts))})"


class ExtractYear(Expr):
    """EXTRACT(YEAR FROM date_column)."""

    def __init__(self, operand: Expr):
        self.operand = operand

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        column = self.operand.evaluate(frame, ctx)
        if column.dtype is not DATE:
            raise TypeError("EXTRACT YEAR requires a date operand")
        days = column.values.astype("datetime64[D]")
        years = days.astype("datetime64[Y]").astype(np.int64) + 1970
        ctx.work.ops += frame.nrows
        return Column(INT64, years)

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"year({self.operand!r})"


class Case(Expr):
    """CASE WHEN ... THEN ... [WHEN ...] ELSE ... END."""

    def __init__(self, whens: list[tuple[Expr, Expr]], otherwise: Expr):
        self.whens = whens
        self.otherwise = otherwise

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        result_col = self.otherwise.evaluate(frame, ctx)
        result = result_col.values.astype(np.float64)
        # Apply WHENs in reverse so the first match wins.
        for cond, value in reversed(self.whens):
            mask = cond.evaluate(frame, ctx).values
            val = value.evaluate(frame, ctx).values
            result = np.where(mask, val, result)
            ctx.work.ops += frame.nrows
        return Column(FLOAT64, result)

    def references(self) -> set[str]:
        refs = self.otherwise.references()
        for cond, value in self.whens:
            refs |= cond.references() | value.references()
        return refs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"case({self.whens!r}, {self.otherwise!r})"


class IsNull(Expr):
    def __init__(self, operand: Expr, negate: bool):
        self.operand = operand
        self.negate = negate

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        column = self.operand.evaluate(frame, ctx)
        ctx.work.ops += frame.nrows
        if column.valid is None:
            mask = np.zeros(frame.nrows, dtype=np.bool_)
        else:
            mask = ~column.valid
        if self.negate:
            mask = ~mask
        return Column(BOOL, mask)

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.operand!r} IS {'NOT ' if self.negate else ''}NULL)"


class ScalarSubquery(Expr):
    """A subplan producing a single value, usable as a literal.

    The executor runs the subplan once per query (results are cached in
    the execution context), merging the subplan's work profile into the
    parent query's profile — just as MonetDB evaluates an uncorrelated
    scalar subquery once.
    """

    def __init__(self, plan):
        self.plan = plan

    def evaluate(self, frame: Frame, ctx: "ExecContext") -> Column:
        value = ctx.scalar(self.plan)
        return Literal(value).evaluate(frame, ctx)

    def references(self) -> set[str]:
        return set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        """The subplan's root and tables, not its whole tree."""
        plan = getattr(self.plan, "node", self.plan)  # a Q builder or its node
        tables = sorted({node.table for node in plan.walk() if hasattr(node, "table")})
        root = type(plan).__name__.removesuffix("Node").lower()
        return f"scalar({root} over {', '.join(tables)})"


def rewrite_colrefs(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rebuild ``expr`` with column references renamed through ``mapping``.

    Used by predicate pushdown to translate a filter through a
    pass-through projection (``project(alias=col("x"))`` means a filter
    on ``alias`` becomes a filter on ``x`` below the project). Names
    absent from the mapping are kept. Scalar subqueries are shared, not
    copied: they reference no outer columns.
    """
    if isinstance(expr, ColRef):
        return ColRef(mapping.get(expr.name, expr.name))
    if isinstance(expr, (Literal, ScalarSubquery)):
        return expr
    if isinstance(expr, (Arith, Cmp)):
        return type(expr)(
            expr.op,
            rewrite_colrefs(expr.left, mapping),
            rewrite_colrefs(expr.right, mapping),
        )
    if isinstance(expr, BoolOp):
        return BoolOp(
            expr.op,
            rewrite_colrefs(expr.left, mapping),
            rewrite_colrefs(expr.right, mapping),
        )
    if isinstance(expr, Not):
        return Not(rewrite_colrefs(expr.operand, mapping))
    if isinstance(expr, InList):
        return InList(rewrite_colrefs(expr.operand, mapping), list(expr.values))
    if isinstance(expr, Like):
        return Like(rewrite_colrefs(expr.operand, mapping), expr.pattern)
    if isinstance(expr, Substring):
        return Substring(rewrite_colrefs(expr.operand, mapping), expr.start, expr.length)
    if isinstance(expr, StringCase):
        return StringCase(rewrite_colrefs(expr.operand, mapping), expr.mode)
    if isinstance(expr, Concat):
        return Concat([rewrite_colrefs(part, mapping) for part in expr.parts])
    if isinstance(expr, ExtractYear):
        return ExtractYear(rewrite_colrefs(expr.operand, mapping))
    if isinstance(expr, IsNull):
        return IsNull(rewrite_colrefs(expr.operand, mapping), expr.negate)
    if isinstance(expr, Case):
        return Case(
            [
                (rewrite_colrefs(cond, mapping), rewrite_colrefs(value, mapping))
                for cond, value in expr.whens
            ],
            rewrite_colrefs(expr.otherwise, mapping),
        )
    raise TypeError(f"cannot rewrite expression {type(expr).__name__}")


def col(name: str) -> ColRef:
    """Reference a column by name."""
    return ColRef(name)


def lit(value) -> Literal:
    """Wrap a Python constant as an expression."""
    return Literal(value)


def case(whens: list[tuple[Expr, "Expr | float | int"]], otherwise) -> Case:
    """Build a CASE expression: ``case([(cond, value), ...], else_value)``.
    THEN/ELSE values may be bare Python numbers."""
    coerced = [(cond, _coerce_literal_for(value, None)) for cond, value in whens]
    return Case(coerced, _coerce_literal_for(otherwise, None))


def scalar(plan) -> ScalarSubquery:
    """Use an aggregate subplan as a scalar value."""
    return ScalarSubquery(plan)


def concat(*parts: "Expr | str") -> Concat:
    """Concatenate string expressions (bare strings become literals)."""
    return Concat([_coerce_literal_for(part, None) for part in parts])
