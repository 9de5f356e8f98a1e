"""Cardinality estimates for the SQL planner's join order.

Three rules, each priced against the catalog the plan will run on:

* **Filtered base table** — ``nrows`` times the fraction of a fixed,
  strided sample of at most :data:`SAMPLE_ROWS` rows that passes the
  conjuncts. One rule covers ranges, ``IN``, ``LIKE``, string equality
  and column-vs-column tests alike; on a table no larger than the sample
  it is exact. A scan under projections and filters (a derived table
  over one table) samples the same way. The sampled columns are kept in
  the identity memo (:mod:`~repro.engine.keycache`), one entry per
  table, so a column is sampled once per process.
* **Equi-join** — ``left × right / max(ndv_left, ndv_right)``, where an
  ndv is the key's distinct count in its base table
  (:meth:`~repro.engine.table.Table.distinct_count`, counted once per
  table). A build key unique in its base table has ndv = that
  table's rows, so an FK join estimates ``probe × build_filtered /
  build_base``.
* **Everything else, recursively over the plan** — an aggregate yields
  its group key's ndv (capped by its input), a semi join keeps the share
  of probe keys the subquery's keys can match, an anti join the rest.

A predicate the sample cannot price — a HAVING over aggregates, a
comparison against a scalar subquery, a residual over several joined
relations — keeps :data:`UNPRICED` of its input.

The samples read the predicates' literal values, so a plan ordered
from the estimates depends on them: the planner records its join-order
decisions, and a prepared server shape whose trip made one re-plans a
request with new values, re-binding only while the decisions hold.
"""

from __future__ import annotations

import numpy as np

from .column import Column
from .compression import CompressedColumn
from .expr import ColRef, Expr
from .frame import Frame
from .keycache import key_cache
from .optimizer import output_columns
from .plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    UnionAllNode,
)
from .profile import OperatorWork
from .table import Database, Table
from .zonemap import split_conjuncts

__all__ = ["Estimator", "SAMPLE_ROWS", "UNPRICED", "sample_indices"]

SAMPLE_ROWS = 1024
# The share of its input a predicate the sample cannot price keeps: the
# classic default selectivity of an opaque comparison (Selinger et al.).
UNPRICED = 1.0 / 3.0


def sample_indices(nrows: int) -> np.ndarray:
    """The rows a table of ``nrows`` is sampled at: every
    ``ceil(nrows / SAMPLE_ROWS)``-th row from the first, so at most
    :data:`SAMPLE_ROWS` rows and every row of a smaller table."""
    step = max(1, -(-nrows // SAMPLE_ROWS))
    return np.arange(0, nrows, step)


def _table_sample(table: Table) -> tuple[np.ndarray, dict[str, Column]]:
    """The sample rows of ``table`` and its sampled columns so far, one
    memo entry per table; a column is sampled on first use."""
    return key_cache.memo(table, ("sample", SAMPLE_ROWS),
                          lambda t: (sample_indices(t.nrows), {}))


class _SampleContext:
    """The slice of an execution context expression evaluation needs."""

    def __init__(self):
        self.work = OperatorWork("estimate")


class Estimator:
    """Row estimates over one catalog, memoized per plan node for the
    estimator's lifetime (one planned statement)."""

    def __init__(self, db: Database):
        self.db = db
        self._context = _SampleContext()
        self._rows: dict[int, tuple[PlanNode, float]] = {}
        self._ndv: dict[tuple, tuple] = {}  # (id(node), key) -> (node, ndv)

    # -- sampling -------------------------------------------------------

    def _evaluate(self, frame: Frame, expr: Expr) -> Column | None:
        """``expr`` over sample rows; None when it cannot be priced (a
        scalar subquery, which the sample's context cannot run, or an
        ill-typed expression, which fails at run time instead)."""
        try:
            return expr.evaluate(frame, self._context)
        except Exception:
            return None

    def _mask(self, frame: Frame, expr: Expr) -> np.ndarray | None:
        """Which sample rows pass ``expr``; None when it cannot be priced."""
        column = self._evaluate(frame, expr)
        return None if column is None else np.asarray(column.values, dtype=bool)

    def _sample(self, node: PlanNode, needed: set[str]) -> tuple[Frame, float] | None:
        """The sample rows of a scan under filters and projections with
        the ``needed`` columns, and the rows each stands for; None when
        ``node`` is anything else or a predicate cannot be priced."""
        below = node
        while isinstance(below, (FilterNode, ProjectNode)):
            below = below.child
        if not isinstance(below, ScanNode):
            return None
        if isinstance(node, ScanNode):
            table = self.db.table(node.table)
            if node.predicate is not None:
                needed = needed | node.predicate.references()
            indices, sampled = _table_sample(table)
            for name in needed - sampled.keys():
                if name in table.columns:
                    stored = table.columns[name]
                    plain = stored.to_column() if isinstance(stored, CompressedColumn) else stored
                    sampled[name] = plain.take(indices)
            frame = Frame({n: sampled[n] for n in needed if n in sampled}, len(indices))
            scale = table.nrows / max(1, frame.nrows)
            if node.predicate is not None:
                mask = self._mask(frame, node.predicate)
                if mask is None:
                    return None
                frame = frame.filter(mask)
            return frame, scale
        if isinstance(node, FilterNode):
            sampled = self._sample(node.child, needed | node.predicate.references())
            if sampled is None:
                return None
            mask = self._mask(sampled[0], node.predicate)
            return None if mask is None else (sampled[0].filter(mask), sampled[1])
        if isinstance(node, ProjectNode):
            exprs = [(n, e) for n, e in node.exprs if n in needed]
            sampled = self._sample(node.child, set().union(*(e.references() for _, e in exprs)))
            if sampled is None:
                return None
            frame, scale = sampled
            columns = {}
            for name, expr in exprs:
                columns[name] = self._evaluate(frame, expr)
                if columns[name] is None:
                    return None
            return Frame(columns, frame.nrows), scale

    def _sampled_rows(self, node: PlanNode, conjuncts: list[Expr]) -> float | None:
        """Rows of ``node`` passing ``conjuncts``, by the sample; None when
        ``node`` cannot be sampled."""
        if not conjuncts:  # renames over a whole table keep its rows
            below = node
            while isinstance(below, ProjectNode):
                below = below.child
            if isinstance(below, ScanNode) and below.predicate is None:
                return float(self.db.table(below.table).nrows)
        with np.errstate(all="ignore"):
            sampled = self._sample(node, set().union(*(c.references() for c in conjuncts)))
            if sampled is None:
                return None
            frame, scale = sampled
            keep, factor = None, 1.0
            for conjunct in conjuncts:
                mask = self._mask(frame, conjunct)
                if mask is None:
                    factor *= UNPRICED
                else:
                    keep = mask if keep is None else keep & mask
        hits = float(frame.nrows if keep is None else np.count_nonzero(keep))
        if hits == 0 and scale > 1:
            hits = 0.5  # nothing sampled passed: less than one sample row's worth
        return hits * scale * factor

    def filtered_rows(self, node: PlanNode, conjuncts: list[Expr]) -> float:
        """Estimated rows of ``node`` that pass every one of ``conjuncts``."""
        rows = self._sampled_rows(node, conjuncts)
        return self.rows(node) * UNPRICED ** len(conjuncts) if rows is None else rows

    # -- plans ----------------------------------------------------------

    def rows(self, node: PlanNode) -> float:
        """Estimated output rows of a logical plan node."""
        memo = self._rows.get(id(node))
        if memo is None:
            memo = self._rows[id(node)] = (node, self._estimate(node))
        return memo[1]

    def _estimate(self, node: PlanNode) -> float:
        if isinstance(node, (ScanNode, FilterNode, ProjectNode)):
            rows = self._sampled_rows(node, [])
            if rows is not None:
                return rows
        if isinstance(node, ScanNode):
            return float(self.db.table(node.table).nrows) * UNPRICED
        if isinstance(node, FilterNode):
            return self.rows(node.child) * UNPRICED ** len(split_conjuncts(node.predicate))
        if isinstance(node, (ProjectNode, SortNode, DistinctNode)):
            return self.rows(node.child)
        if isinstance(node, LimitNode):
            return min(float(node.n), self.rows(node.child))
        if isinstance(node, UnionAllNode):
            return self.rows(node.left) + self.rows(node.right)
        if isinstance(node, AggregateNode):
            child = self.rows(node.child)
            if not node.group_by:
                return 1.0
            groups = self.ndv(node.child, node.group_by)
            return child if groups is None else min(child, float(groups))
        if isinstance(node, JoinNode):
            left = self.rows(node.left)
            if node.how in ("semi", "anti"):
                kept = self.semi_fraction([(node.left, node.left_on)], node.right, node.right_on)
                return left * (kept if node.how == "semi" else 1.0 - kept)
            right = self.rows(node.right)
            joined = left * right * self.join_selectivity(
                node.left, node.left_on, node.right, node.right_on, left, right)
            return max(left, joined) if node.how == "left" else joined
        raise TypeError(f"unknown plan node {type(node).__name__}")

    # -- distinct counts ------------------------------------------------

    def _origin(self, node: PlanNode, name: str) -> tuple[str, str] | None:
        """The base ``(table, column)`` a plan column passes through from
        unchanged, or None when it is computed."""
        while True:
            if isinstance(node, ScanNode):
                table = self.db.table(node.table)
                return (node.table, name) if name in table.columns else None
            if isinstance(node, ProjectNode):
                expr = dict(node.exprs).get(name)
                if not isinstance(expr, ColRef):
                    return None
                name, node = expr.name, node.child
            elif isinstance(node, AggregateNode):
                if name not in node.group_by:
                    return None
                node = node.child
            elif isinstance(node, JoinNode):
                left = output_columns(node.left, self.db)
                node = node.left if name in left or node.how in ("semi", "anti") \
                    else node.right
            elif isinstance(node, (FilterNode, SortNode, LimitNode, DistinctNode)):
                node = node.child
            else:
                return None

    def ndv(self, node: PlanNode, names) -> int | None:
        """Distinct count of the key ``names`` of ``node`` in their base
        tables: exact within one table, a product across tables; None when
        a key column is computed."""
        key = (id(node), tuple(names))
        if key not in self._ndv:
            self._ndv[key] = (node, self._key_ndv(node, names))
        return self._ndv[key][1]

    def _key_ndv(self, node: PlanNode, names) -> int | None:
        by_table: dict[str, list[str]] = {}
        for name in names:
            origin = self._origin(node, name)
            if origin is None:
                return None
            by_table.setdefault(origin[0], []).append(origin[1])
        total = 1
        for table, columns in sorted(by_table.items()):
            total *= self.db.table(table).distinct_count(tuple(dict.fromkeys(columns)))
        return total

    def join_selectivity(self, left: PlanNode, left_on, right: PlanNode, right_on,
                         left_rows: float, right_rows: float) -> float:
        """The share of the cross product an equi-join keeps:
        ``1 / max(ndv_left, ndv_right)`` of the key's base-table distinct
        counts (an unknown side's estimate stands in for its count)."""
        domains = [d for d in (self.ndv(left, left_on), self.ndv(right, right_on))
                   if d is not None]
        domain = max(domains) if domains else max(left_rows, right_rows)
        return 1.0 / max(1.0, float(domain))

    def semi_fraction(self, probe: list[tuple[PlanNode, tuple]], sub: PlanNode,
                      sub_on) -> float:
        """The share of probe rows a semi join on ``sub`` keeps: the
        subquery's distinct keys over the probe keys' domain, at most 1.
        ``probe`` lists each probe relation with its key columns."""
        domain = 1.0
        for node, names in probe:
            count = self.ndv(node, names)
            domain *= self.rows(node) if count is None else count
        sub_rows = self.rows(sub)
        sub_keys = self.ndv(sub, sub_on)
        matched = sub_rows if sub_keys is None else min(sub_rows, float(sub_keys))
        return min(1.0, matched / max(1.0, domain))
