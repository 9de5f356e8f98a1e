"""An independent oracle for the SQL texts: the same tables and the same
query text, run by stdlib ``sqlite3`` instead of the engine.

Dates are stored as ISO strings, so comparisons and ``ORDER BY`` on them
behave as on dates. :func:`to_sqlite` rewrites the few constructs of the
engine's dialect that sqlite spells differently (date literals and
interval arithmetic, ``EXTRACT(YEAR ...)``, ``SUBSTRING(... FROM ...
FOR ...)``); everything else is passed through unchanged.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
import sqlite3

import pytest

_INTERVAL = re.compile(
    r"DATE\s+'(\d{4}-\d{2}-\d{2})'\s*([+-])\s*INTERVAL\s+'(\d+)'\s+(DAY|MONTH|YEAR)",
    re.IGNORECASE,
)
_DATE = re.compile(r"DATE\s+'(\d{4}-\d{2}-\d{2})'", re.IGNORECASE)
_EXTRACT_YEAR = re.compile(r"EXTRACT\s*\(\s*YEAR\s+FROM\s+(\w+)\s*\)", re.IGNORECASE)
_SUBSTRING = re.compile(
    r"SUBSTRING\s*\(\s*(\w+)\s+FROM\s+(\d+)\s+FOR\s+(\d+)\s*\)", re.IGNORECASE
)


def _shift(iso: str, sign: str, amount: int, unit: str) -> str:
    day = _dt.date.fromisoformat(iso)
    amount = amount if sign == "+" else -amount
    unit = unit.upper()
    if unit == "DAY":
        return (day + _dt.timedelta(days=amount)).isoformat()
    months = amount * (12 if unit == "YEAR" else 1)
    index = day.year * 12 + day.month - 1 + months
    return day.replace(year=index // 12, month=index % 12 + 1).isoformat()


def to_sqlite(text: str) -> str:
    """Rewrite one engine-dialect SQL text into sqlite's dialect."""
    text = _INTERVAL.sub(
        lambda m: "'" + _shift(m[1], m[2], int(m[3]), m[4]) + "'", text
    )
    text = _DATE.sub(lambda m: f"'{m[1]}'", text)
    text = _EXTRACT_YEAR.sub(lambda m: f"CAST(substr({m[1]}, 1, 4) AS INTEGER)", text)
    return _SUBSTRING.sub(lambda m: f"substr({m[1]}, {m[2]}, {m[3]})", text)


def load(db) -> sqlite3.Connection:
    """An in-memory sqlite copy of every table of ``db``, with an index
    on each key column so correlated subqueries stay cheap."""
    conn = sqlite3.connect(":memory:")
    # The engine's LIKE is case-sensitive; sqlite's is not by default.
    conn.execute("PRAGMA case_sensitive_like = ON")
    for name in db.table_names:
        table = db.table(name)
        columns = list(table.column_names)
        values = []
        for column in columns:
            data = table.column(column).to_list()
            if data and isinstance(data[0], _dt.date):
                data = [d.isoformat() for d in data]
            values.append(data)
        conn.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        conn.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            zip(*values),
        )
        for column in columns:
            if column.endswith("key"):
                conn.execute(f"CREATE INDEX {name}_{column} ON {name} ({column})")
    conn.commit()
    return conn


def run(conn: sqlite3.Connection, text: str) -> list[tuple]:
    """The rows of one engine-dialect SQL text, as sqlite computes them."""
    return conn.execute(to_sqlite(text)).fetchall()


def _normal(value):
    if isinstance(value, _dt.date):
        return value.isoformat()
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def assert_rows_equal(ours, theirs, label) -> None:
    """Row-for-row, in order: exact for strings, ints and dates, and to
    ``rel=1e-9`` for floats (the two engines sum in different orders).
    The engine's NaN for an empty aggregate matches sqlite's NULL."""
    assert len(ours) == len(theirs), label
    for our_row, their_row in zip(ours, theirs):
        assert len(our_row) == len(their_row), label
        for a, b in zip(map(_normal, our_row), map(_normal, their_row)):
            if isinstance(a, float) or isinstance(b, float):
                assert a is not None and b is not None, (label, our_row, their_row)
                assert float(a) == pytest.approx(float(b), rel=1e-9), (
                    label, our_row, their_row)
            else:
                assert a == b, (label, our_row, their_row)
