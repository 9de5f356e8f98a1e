"""Registry of the 22 TPC-H query definitions.

A definition plans the query's SQL text (:mod:`repro.tpch.sqltext`), so
the paper tables, the cluster and the benchmarks run the same plan as
``repro sql`` and the query server.

Usage::

    from repro.tpch.queries import get_query, ALL_QUERY_NUMBERS, CHOKEPOINTS
    plan = get_query(6).build(db, {"sf": 1.0})
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Database, Q

from .sqltext import build_from_sql

__all__ = ["QUERIES", "ALL_QUERY_NUMBERS", "CHOKEPOINTS", "get_query", "QueryDef"]

_NAMES = {
    1: "Pricing Summary Report",
    2: "Minimum Cost Supplier",
    3: "Shipping Priority",
    4: "Order Priority Checking",
    5: "Local Supplier Volume",
    6: "Forecasting Revenue Change",
    7: "Volume Shipping",
    8: "National Market Share",
    9: "Product Type Profit Measure",
    10: "Returned Item Reporting",
    11: "Important Stock Identification",
    12: "Shipping Modes and Order Priority",
    13: "Customer Distribution",
    14: "Promotion Effect",
    15: "Top Supplier",
    16: "Parts/Supplier Relationship",
    17: "Small-Quantity-Order Revenue",
    18: "Large Volume Customer",
    19: "Discounted Revenue",
    20: "Potential Part Promotion",
    21: "Suppliers Who Kept Orders Waiting",
    22: "Global Sales Opportunity",
}


@dataclass(frozen=True)
class QueryDef:
    """A TPC-H query: its number, spec title and SQL plan.

    ``build(db, params)`` plans the query's SQL text against ``db``;
    ``params`` may carry ``sf`` (Q11's HAVING fraction is 0.0001 / SF
    per the spec) or Q11's ``fraction`` itself.
    """

    number: int
    name: str

    def build(self, db: Database, params: dict | None = None) -> Q:
        return build_from_sql(db, self.number, params)


QUERIES: dict[int, QueryDef] = {n: QueryDef(n, name) for n, name in _NAMES.items()}

ALL_QUERY_NUMBERS = tuple(sorted(QUERIES))

# The 8 chokepoint queries the paper uses for SF 10 / the strategy study
# (following Menon et al. and Crotty et al.).
CHOKEPOINTS = (1, 3, 4, 5, 6, 13, 14, 19)


def get_query(number: int) -> QueryDef:
    """Look up a TPC-H query definition by number (1-22)."""
    try:
        return QUERIES[number]
    except KeyError:
        raise KeyError(f"TPC-H queries are numbered 1-22, got {number}") from None
