"""The SQL-text registry: the one definition of the 22 TPC-H queries.

Their rows are pinned by golden files (``test_golden.py``), which the
engine itself wrote; here every text is also run by stdlib ``sqlite3``
over the same tables, an engine that shares no code with this one.
"""

import pytest

from repro.engine import execute
from repro.tpch import get_query
from repro.tpch.sqltext import SQL_QUERY_NUMBERS, build_from_sql, sql_text

from . import sqlite_oracle


@pytest.fixture(scope="module")
def sqlite_db(tpch_db):
    conn = sqlite_oracle.load(tpch_db)
    yield conn
    conn.close()


class TestSqlTextRegistry:
    def test_covers_all_queries(self):
        assert set(SQL_QUERY_NUMBERS) == set(range(1, 23))

    def test_unsupported_query_raises_helpfully(self, tpch_db):
        with pytest.raises(KeyError, match="no SQL text"):
            build_from_sql(tpch_db, 99)

    @pytest.mark.parametrize("number", SQL_QUERY_NUMBERS)
    def test_sql_matches_sqlite(self, tpch_db, sqlite_db, tpch_params, number):
        ours = execute(tpch_db, get_query(number).build(tpch_db, tpch_params))
        theirs = sqlite_oracle.run(sqlite_db, sql_text(number, tpch_params))
        sqlite_oracle.assert_rows_equal(ours.rows, theirs, number)
