"""Query plan nodes (logical, plus the few physical ones) and the fluent builder.

Queries are composed with :class:`Q`::

    from repro.engine import Q, col, agg

    plan = (
        Q(db).scan("lineitem")
        .filter(col("l_shipdate") <= "1998-09-02")
        .aggregate(by=["l_returnflag", "l_linestatus"],
                   sum_qty=agg.sum(col("l_quantity")))
        .sort("l_returnflag", "l_linestatus")
    )
    result = db.execute(plan)

The builder and the optimizer only ever produce the *logical* nodes.
:func:`repro.engine.physical.lower` turns an optimized tree into the one
the executor interprets: the same nodes plus :class:`TopKNode`,
:class:`PredicatedScanNode`, :class:`RunLevelAggregateNode`,
:class:`EncodedMissNode` and (for a parallel executor)
:class:`MorselSegmentNode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .expr import ColRef, Expr, col
from .operators.aggregate import (
    AggSpec,
    avg,
    count,
    count_distinct,
    count_star,
    max_,
    min_,
    sum_,
)

__all__ = ["Q", "agg", "PlanNode", "ScanNode", "FilterNode", "ProjectNode",
           "JoinNode", "AggregateNode", "SortNode", "LimitNode", "DistinctNode",
           "UnionAllNode", "TopKNode", "PredicatedScanNode",
           "RunLevelAggregateNode", "EncodedMissNode", "MorselSegmentNode"]


class agg:
    """Aggregate constructors for :meth:`Q.aggregate`."""

    sum = staticmethod(sum_)
    avg = staticmethod(avg)
    count = staticmethod(count)
    count_star = staticmethod(count_star)
    count_distinct = staticmethod(count_distinct)
    min = staticmethod(min_)
    max = staticmethod(max_)


@dataclass(frozen=True)
class PlanNode:
    """Base logical plan node."""

    # The structural key, once computed (repro.engine.fingerprint).
    __slots__ = ("_skey",)

    def children(self) -> list["PlanNode"]:
        return []

    def walk(self):
        """Every node of this subtree, pre-order: a node before its
        inputs, the last input's subtree first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())

    def map_children(self, fn) -> "PlanNode":
        """This node with ``fn`` applied to its input(s) — ``child``, or
        ``left`` and ``right`` — or ``self`` when none of them changed."""
        names = [n for n in ("child", "left", "right") if hasattr(self, n)]
        new = {n: fn(getattr(self, n)) for n in names}
        if all(new[n] is getattr(self, n) for n in names):
            return self
        return replace(self, **new)


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """Base-table scan, optionally with a pushed-down scan predicate.

    ``predicate`` holds the sargable conjuncts the optimizer attached:
    the scan applies them while streaming and consults zone maps to skip
    blocks they provably exclude (see :mod:`repro.engine.zonemap`).
    ``columns`` are the *output* columns; predicate-only columns are
    streamed for evaluation but not emitted.
    """

    table: str
    columns: tuple[str, ...] | None = None
    predicate: Expr | None = None

    def streamed_columns(self, table) -> list[str]:
        """Every column this scan streams from ``table``, in scan order:
        the output columns (all of the table's when unrestricted), then
        the predicate-only references by name."""
        names = list(self.columns if self.columns is not None else table.column_names)
        if self.predicate is not None:
            names += [
                ref for ref in sorted(self.predicate.references()) if ref not in names
            ]
        return names


@dataclass(frozen=True)
class FilterNode(PlanNode):
    child: PlanNode
    predicate: Expr

    def children(self):
        return [self.child]


@dataclass(frozen=True)
class ProjectNode(PlanNode):
    child: PlanNode
    exprs: tuple[tuple[str, Expr], ...]

    def children(self):
        return [self.child]


@dataclass(frozen=True)
class JoinNode(PlanNode):
    left: PlanNode
    right: PlanNode
    left_on: tuple[str, ...]
    right_on: tuple[str, ...]
    how: str = "inner"

    def children(self):
        return [self.left, self.right]


@dataclass(frozen=True)
class AggregateNode(PlanNode):
    child: PlanNode
    group_by: tuple[str, ...]
    aggs: tuple[tuple[str, AggSpec], ...]

    def children(self):
        return [self.child]


@dataclass(frozen=True)
class SortNode(PlanNode):
    child: PlanNode
    keys: tuple[tuple[str, str], ...]

    def children(self):
        return [self.child]


@dataclass(frozen=True)
class LimitNode(PlanNode):
    child: PlanNode
    n: int

    def children(self):
        return [self.child]


@dataclass(frozen=True)
class DistinctNode(PlanNode):
    child: PlanNode
    columns: tuple[str, ...] | None = None

    def children(self):
        return [self.child]


@dataclass(frozen=True)
class UnionAllNode(PlanNode):
    left: PlanNode
    right: PlanNode

    def children(self):
        return [self.left, self.right]


# -- physical nodes: produced only by repro.engine.physical.lower ---------


@dataclass(frozen=True)
class TopKNode(PlanNode):
    """Fused ``Limit(Sort)``: a partition select instead of a full sort."""

    child: PlanNode
    keys: tuple[tuple[str, str], ...]
    n: int

    def children(self):
        return [self.child]


@dataclass(frozen=True)
class PredicatedScanNode(ScanNode):
    """A scan with a pushed-down predicate, classified once: everything
    about it that depends only on the plan, the catalog and the settings.

    ``conjuncts`` is the predicate split on AND. ``block_codes`` holds one
    zone-map verdict (``BLOCK_SKIP`` / ``BLOCK_TAKE`` / ``BLOCK_EVAL``,
    :mod:`repro.engine.zonemap`) per block of the table — all EVAL with
    skipping off or nothing sargable — and ``block_probes`` the probes
    each block cost; a scan of rows ``[start, stop)`` reads its slice.
    Under compressed execution ``encoded`` holds the conjuncts compiled to
    run on the packed payloads (:class:`~repro.engine.encoded.EncodedConjunct`)
    and ``encoded_misses`` counts those that read compressed data but did
    not compile; ``residual`` is what is left to evaluate on decoded rows
    (the whole predicate when nothing compiled, ``None`` when everything
    did). ``streamed`` is :meth:`ScanNode.streamed_columns`; ``late`` makes
    the scan emit a selection vector instead of compact columns.
    """

    conjuncts: tuple = field(default=(), compare=False)
    block_codes: object = field(default=None, compare=False)  # np.ndarray[int8]
    block_probes: int = field(default=0, compare=False)
    encoded: tuple = field(default=(), compare=False)
    encoded_misses: int = field(default=0, compare=False)
    residual: Expr | None = field(default=None, compare=False)
    streamed: tuple[str, ...] = field(default=(), compare=False)
    late: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class RunLevelAggregateNode(AggregateNode):
    """A predicate-free scan+aggregate that ``prepare_aggregate`` proved
    exact over RLE runs. ``plan`` (an
    :class:`~repro.engine.encoded.EncodedAggregatePlan`) streams and
    reduces on its own; the child scan is kept for EXPLAIN only."""

    plan: object = field(default=None, compare=False)


@dataclass(frozen=True)
class EncodedMissNode(PlanNode):
    """Marks an aggregate over compressed columns whose run-level
    compilation was declined: executing it counts one
    ``engine.encoded.aggregate`` miss, then runs ``child`` unchanged."""

    child: PlanNode

    def children(self):
        return [self.child]


@dataclass(frozen=True)
class MorselSegmentNode(PlanNode):
    """A scan → filter/project chain, optionally capped by a
    decomposable aggregate or a top-k, that a parallel executor runs once
    per morsel and then merges (:mod:`repro.engine.merge`).

    ``plan`` is the fragment in serial form (what EXPLAIN prints and the
    merge phase reads its grouping / ordering from); ``morsel`` is what
    each morsel interprets — ``plan`` itself, or for ``kind ==
    "aggregate"`` the same chain under the decomposed partial aggregates.
    ``ranges`` are the morsels that run: the ones the zone maps prove
    empty are left out, and ``skipped`` (an
    :class:`~repro.engine.profile.OperatorWork`, or ``None``) is what
    scanning them would have charged the scan operator.
    """

    kind: str  # "chain" | "aggregate" | "topk"
    plan: PlanNode
    morsel: PlanNode
    scan: ScanNode
    subqueries: tuple  # ScalarSubquery exprs to resolve before fan-out
    ranges: tuple[tuple[int, int], ...]
    skipped: object = field(default=None, compare=False)

    def children(self):
        return [self.plan]


class Q:
    """Immutable fluent plan builder bound to a database catalog."""

    def __init__(self, db, node: PlanNode | None = None):
        self.db = db
        self.node = node

    def _wrap(self, node: PlanNode) -> "Q":
        return Q(self.db, node)

    def _require_node(self) -> PlanNode:
        if self.node is None:
            raise ValueError("start the plan with .scan(table)")
        return self.node

    # ------------------------------------------------------------------

    def scan(self, table: str, columns: list[str] | None = None) -> "Q":
        """Start from a base table (optionally restricting columns)."""
        if table not in self.db:
            raise KeyError(f"unknown table {table!r}")
        cols = tuple(columns) if columns is not None else None
        return self._wrap(ScanNode(table, cols))

    def filter(self, predicate: Expr) -> "Q":
        """Keep rows satisfying ``predicate``."""
        return self._wrap(FilterNode(self._require_node(), predicate))

    def project(self, **exprs) -> "Q":
        """Compute named expressions; output has exactly these columns.
        String values are shorthand for column references."""
        resolved = tuple(
            (name, col(e) if isinstance(e, str) else e) for name, e in exprs.items()
        )
        return self._wrap(ProjectNode(self._require_node(), resolved))

    def select(self, *names: str) -> "Q":
        """Keep only the named pass-through columns."""
        return self._wrap(
            ProjectNode(self._require_node(), tuple((n, col(n)) for n in names))
        )

    def join(
        self,
        other: "Q | str",
        on: list[tuple[str, str]],
        how: str = "inner",
    ) -> "Q":
        """Join with another plan (or a table name) on key-name pairs
        ``[(left_col, right_col), ...]``."""
        if isinstance(other, str):
            other = Q(self.db).scan(other)
        left_on = tuple(pair[0] for pair in on)
        right_on = tuple(pair[1] for pair in on)
        return self._wrap(
            JoinNode(self._require_node(), other._require_node(), left_on, right_on, how)
        )

    def aggregate(self, by: list[str] | None = None, **aggs: AggSpec) -> "Q":
        """Group by ``by`` (default: global aggregate) and compute ``aggs``."""
        for name, spec in aggs.items():
            if not isinstance(spec, AggSpec):
                raise TypeError(f"aggregate {name!r} must be built with the agg namespace")
        return self._wrap(
            AggregateNode(self._require_node(), tuple(by or ()), tuple(aggs.items()))
        )

    def sort(self, *keys: "str | tuple[str, str]") -> "Q":
        """Order by the given keys; a bare name sorts ascending."""
        resolved = tuple((k, "asc") if isinstance(k, str) else (k[0], k[1]) for k in keys)
        for _, direction in resolved:
            if direction not in ("asc", "desc"):
                raise ValueError(f"sort direction must be asc/desc, got {direction!r}")
        return self._wrap(SortNode(self._require_node(), resolved))

    def limit(self, n: int) -> "Q":
        return self._wrap(LimitNode(self._require_node(), n))

    def distinct(self, *columns: str) -> "Q":
        return self._wrap(DistinctNode(self._require_node(), tuple(columns) or None))

    def union_all(self, other: "Q") -> "Q":
        """Concatenate with another plan producing the same columns."""
        return self._wrap(UnionAllNode(self._require_node(), other._require_node()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Q({self.node!r})"
