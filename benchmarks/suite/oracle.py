"""Expected rows for every timed request, and the comparison.

Two oracles, neither sharing a configuration with the system under
test:

* :func:`engine_rows` runs SQL text on the *plain* seeded database with
  a serial ``Executor`` and every physical gate off (no zone-map
  skipping, late materialization, compressed execution, rollups or
  spilling; no budget, no cache, no compression).
* :class:`DashboardOracle` answers the ``serve_closed`` fresh-literal
  families straight from numpy per-day cells, with no engine code at
  all, so thousands of distinct date literals cost microseconds each.

Oracles are computed in a child process (``run.py --oracle``) so the
measuring process's ``ru_maxrss`` belongs to the system under test.
"""

from __future__ import annotations

import math
import re

import numpy as np

from repro.engine import Executor, OptimizerSettings
from repro.engine.sql import sql as parse_sql
from repro.engine.types import date_to_days, days_to_date

ORACLE_SETTINGS = OptimizerSettings(
    predicate_pushdown=True,
    zone_map_skipping=False,
    late_materialization=False,
    compressed_execution=False,
    rollups=False,
    spilling=False,
)

_ORDER_BY = re.compile(r"\border\s+by\b", re.IGNORECASE)


def engine_rows(db, texts, settings=ORACLE_SETTINGS) -> dict:
    """``{text: rows}`` from a serial executor under ``settings``."""
    executor = Executor(db, settings)
    return {text: executor.execute(parse_sql(db, text)).rows for text in texts}


def _sort_key(row):
    return tuple((value is None, value) for value in row)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def rows_match(text: str, expected, actual, exact: bool = False) -> bool:
    """Row equality: ordered when ``text`` has an ORDER BY, otherwise
    order-insensitive; floats within ``rel_tol=1e-6`` unless ``exact``."""
    if len(expected) != len(actual):
        return False
    if not _ORDER_BY.search(text):
        expected = sorted(expected, key=_sort_key)
        actual = sorted(actual, key=_sort_key)
    if exact:
        return expected == actual
    for want, got in zip(expected, actual):
        if len(want) != len(got):
            return False
        for a, b in zip(want, got):
            if _is_number(a) and _is_number(b):
                if not math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


class DashboardOracle:
    """Numpy ground truth for the five fresh-literal request families.

    Built once from the plain tables: per-(day, returnflag, linestatus)
    lineitem cells, per-day Q6-qualifying revenue, and per-(day,
    priority) order counts. A request is then a prefix or suffix sum.
    """

    def __init__(self, db):
        li = db.table("lineitem")
        day = li.column("l_shipdate").values.astype(np.int64)
        flag, status = li.column("l_returnflag"), li.column("l_linestatus")
        self.flags = [str(v) for v in flag.dictionary]
        self.statuses = [str(v) for v in status.dictionary]
        self.day0 = int(day.min())
        ndays = int(day.max()) - self.day0 + 1
        nf, ns = len(self.flags), len(self.statuses)
        cell = ((day - self.day0) * nf + flag.values) * ns + status.values
        qty = li.column("l_quantity").values.astype(np.float64)
        price = li.column("l_extendedprice").values
        disc = li.column("l_discount").values
        tax = li.column("l_tax").values
        disc_price = price * (1 - disc)

        def cells(weights=None):
            flat = np.bincount(cell, weights=weights, minlength=ndays * nf * ns)
            return flat.reshape(ndays, nf, ns)

        # Measure order: count, qty, price, disc_price, charge, discount.
        self.cells = np.stack([
            cells(), cells(qty), cells(price), cells(disc_price),
            cells(disc_price * (1 + tax)), cells(disc),
        ])
        self.prefix = self.cells.cumsum(axis=1)
        q6 = (disc >= 0.05) & (disc <= 0.07) & (qty < 24)
        self.q6_day = np.bincount(
            day[q6] - self.day0, weights=(price * disc)[q6], minlength=ndays
        )

        orders = db.table("orders")
        oday = orders.column("o_orderdate").values.astype(np.int64)
        prio = orders.column("o_orderpriority")
        self.priorities = [str(v) for v in prio.dictionary]
        self.oday0 = int(oday.min())
        nodays = int(oday.max()) - self.oday0 + 1
        npr = len(self.priorities)
        self.prio_cells = np.bincount(
            (oday - self.oday0) * npr + prio.values, minlength=nodays * npr
        ).reshape(nodays, npr)

    def _upto(self, cutoff: str):
        """Measures x flag x status summed over days <= cutoff."""
        index = date_to_days(cutoff) - self.day0
        if index < 0:
            return np.zeros(self.prefix[:, 0].shape)
        return self.prefix[:, min(index, self.prefix.shape[1] - 1)]

    def pricing(self, cutoff: str) -> list[tuple]:
        sums = self._upto(cutoff)
        rows = []
        for fi, flag in sorted(enumerate(self.flags), key=lambda p: p[1]):
            for si, status in sorted(enumerate(self.statuses), key=lambda p: p[1]):
                n, qty, base, disc_price, charge, disc = sums[:, fi, si]
                if n:
                    rows.append((flag, status, qty, base, disc_price, charge,
                                 qty / n, base / n, disc / n, int(n)))
        return rows

    def flag(self, cutoff: str) -> list[tuple]:
        sums = self._upto(cutoff).sum(axis=2)
        return [
            (flag, sums[1, fi], int(sums[0, fi]))
            for fi, flag in sorted(enumerate(self.flags), key=lambda p: p[1])
            if sums[0, fi]
        ]

    def daily_rev(self, since: str) -> list[tuple]:
        start = max(0, date_to_days(since) - self.day0)
        per_day = self.cells[:, start:].sum(axis=(2, 3))
        return [
            (days_to_date(self.day0 + start + i), per_day[2, i], int(per_day[0, i]))
            for i in range(per_day.shape[1])
            if per_day[0, i]
        ]

    def q6_fresh(self, since: str) -> list[tuple]:
        start = max(0, date_to_days(since) - self.day0)
        stop = max(0, date_to_days("1999-01-01") - self.day0)
        return [(float(self.q6_day[start:stop].sum()),)]

    def prio_fresh(self, since: str) -> list[tuple]:
        start = max(0, date_to_days(since) - self.oday0)
        counts = self.prio_cells[start:].sum(axis=0)
        return [
            (prio, int(counts[pi]))
            for pi, prio in sorted(enumerate(self.priorities), key=lambda p: p[1])
            if counts[pi]
        ]
