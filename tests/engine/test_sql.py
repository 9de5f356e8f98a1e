"""SQL front-end tests: lexer, parser features, TPC-H equivalence,
errors."""

import pytest

from repro.engine import execute
from repro.engine.sql import SqlSyntaxError, sql, tokenize
from repro.tpch import get_query


class TestLexer:
    def test_keywords_case_insensitive(self):
        kinds = [t.kind for t in tokenize("select From WHERE")]
        assert kinds == ["SELECT", "FROM", "WHERE", "EOF"]

    def test_strings_with_escaped_quotes(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_numbers(self):
        tokens = tokenize("42 3.14 .5")
        assert [t.value for t in tokens[:-1]] == ["42", "3.14", ".5"]

    def test_two_char_operators(self):
        kinds = [t.kind for t in tokenize("<= >= <> !=")]
        assert kinds[:-1] == ["LE", "GE", "NE", "NE"]

    def test_comments_stripped(self):
        kinds = [t.kind for t in tokenize("select -- comment\n 1")]
        assert kinds == ["SELECT", "NUMBER", "EOF"]

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError, match="unterminated"):
            tokenize("'oops")

    def test_bad_character(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            tokenize("select @")


class TestBasicSelect:
    def test_select_star(self, toy_db):
        result = execute(toy_db, sql(toy_db, "SELECT * FROM u"))
        assert result.column_names == ["k2", "w", "name"]
        assert len(result) == 4

    def test_projection_with_aliases(self, toy_db):
        result = execute(toy_db, sql(toy_db, "SELECT k AS key, v * 2 AS double FROM t"))
        assert result.column_names == ["key", "double"]
        assert result.column("double")[0] == 20.0

    def test_where_filters(self, toy_db):
        result = execute(toy_db, sql(toy_db, "SELECT k FROM t WHERE k > 3"))
        assert result.column("k") == [4, 5, 6]

    def test_order_and_limit(self, toy_db):
        result = execute(
            toy_db, sql(toy_db, "SELECT k FROM t ORDER BY k DESC LIMIT 2")
        )
        assert result.column("k") == [6, 5]

    def test_qualified_names_accepted(self, toy_db):
        result = execute(toy_db, sql(toy_db, "SELECT t.k FROM t AS t WHERE t.k = 1"))
        assert result.column("k") == [1]

    def test_string_comparison(self, toy_db):
        result = execute(toy_db, sql(toy_db, "SELECT k FROM t WHERE s = 'a'"))
        assert sorted(result.column("k")) == [1, 3, 6]

    def test_between_and_in(self, toy_db):
        between = execute(toy_db, sql(toy_db, "SELECT k FROM t WHERE k BETWEEN 2 AND 4"))
        assert between.column("k") == [2, 3, 4]
        in_list = execute(toy_db, sql(toy_db, "SELECT k FROM t WHERE k IN (1, 5, 9)"))
        assert sorted(in_list.column("k")) == [1, 5]

    def test_not_in_list(self, toy_db):
        result = execute(toy_db, sql(toy_db, "SELECT k FROM t WHERE k NOT IN (1, 2, 3, 4)"))
        assert sorted(result.column("k")) == [5, 6]

    def test_like(self, toy_db):
        result = execute(toy_db, sql(toy_db, "SELECT name FROM u WHERE name LIKE 'two%'"))
        assert sorted(result.column("name")) == ["two", "two-b"]

    def test_date_literals_and_intervals(self, toy_db):
        result = execute(toy_db, sql(
            toy_db,
            "SELECT k FROM t WHERE d >= DATE '1995-01-01' - INTERVAL '1' YEAR "
            "AND d < DATE '1994-01-01' + INTERVAL '12' MONTH",
        ))
        assert sorted(result.column("k")) == [1, 2, 6]

    def test_negative_numbers(self, toy_db):
        result = execute(toy_db, sql(toy_db, "SELECT k FROM t WHERE k > -1 AND k < 2"))
        assert result.column("k") == [1]


class TestJoins:
    def test_inner_join(self, toy_db):
        result = execute(toy_db, sql(
            toy_db, "SELECT k, w FROM t JOIN u ON k = k2 ORDER BY k, w"
        ))
        assert result.rows == [(1, 100.0), (2, 200.0), (2, 201.0)]

    def test_join_orientation_is_automatic(self, toy_db):
        # ON written "right = left" still works.
        result = execute(toy_db, sql(
            toy_db, "SELECT k FROM t JOIN u ON k2 = k"
        ))
        assert sorted(result.column("k")) == [1, 2, 2]

    def test_left_join(self, toy_db):
        result = execute(toy_db, sql(
            toy_db, "SELECT k, w FROM t LEFT JOIN u ON k = k2 WHERE w IS NULL"
        ))
        assert sorted(result.column("k")) == [3, 4, 5, 6]

    def test_semi_and_anti_join(self, toy_db):
        semi = execute(toy_db, sql(toy_db, "SELECT k FROM t SEMI JOIN u ON k = k2"))
        anti = execute(toy_db, sql(toy_db, "SELECT k FROM t ANTI JOIN u ON k = k2"))
        assert sorted(semi.column("k") + anti.column("k")) == [1, 2, 3, 4, 5, 6]


class TestAggregation:
    def test_global_aggregate(self, toy_db):
        assert execute(toy_db, sql(toy_db, "SELECT SUM(v) AS s FROM t")).scalar() == 210.0

    def test_group_by_with_having(self, toy_db):
        result = execute(toy_db, sql(
            toy_db,
            "SELECT s, COUNT(*) AS n FROM t GROUP BY s HAVING COUNT(*) > 1 ORDER BY s",
        ))
        assert result.rows == [("a", 3), ("b", 2)]

    def test_expression_over_aggregates(self, toy_db):
        result = execute(toy_db, sql(
            toy_db, "SELECT SUM(v) / COUNT(*) AS mean FROM t"
        ))
        assert result.scalar() == pytest.approx(35.0)

    def test_count_distinct(self, toy_db):
        assert execute(
            toy_db, sql(toy_db, "SELECT COUNT(DISTINCT s) AS n FROM t")
        ).scalar() == 3

    def test_group_by_computed_alias(self, toy_db):
        result = execute(toy_db, sql(
            toy_db,
            "SELECT EXTRACT(YEAR FROM d) AS yr, COUNT(*) AS n "
            "FROM t GROUP BY yr ORDER BY yr",
        ))
        years = result.column("yr")
        assert years == sorted(years)
        assert sum(result.column("n")) == 6

    def test_case_inside_aggregate(self, toy_db):
        result = execute(toy_db, sql(
            toy_db,
            "SELECT SUM(CASE WHEN s = 'a' THEN v ELSE 0 END) AS a_total FROM t",
        ))
        assert result.scalar() == 100.0


class TestSubqueries:
    def test_scalar_subquery(self, toy_db):
        result = execute(toy_db, sql(
            toy_db, "SELECT k FROM t WHERE v > (SELECT AVG(v) FROM t)"
        ))
        assert sorted(result.column("k")) == [4, 5, 6]

    def test_in_subquery_becomes_semi_join(self, toy_db):
        result = execute(toy_db, sql(
            toy_db, "SELECT k FROM t WHERE k IN (SELECT k2 FROM u)"
        ))
        assert sorted(result.column("k")) == [1, 2]

    def test_not_in_subquery_becomes_anti_join(self, toy_db):
        result = execute(toy_db, sql(
            toy_db, "SELECT k FROM t WHERE k NOT IN (SELECT k2 FROM u) AND k < 6"
        ))
        assert sorted(result.column("k")) == [3, 4, 5]

    def test_in_subquery_mixed_with_predicates(self, toy_db):
        result = execute(toy_db, sql(
            toy_db, "SELECT k FROM t WHERE k IN (SELECT k2 FROM u) AND v > 15"
        ))
        assert result.column("k") == [2]


class TestTPCHEquivalence:
    """Queries written in SQL here match the registry's TPC-H plans."""

    def _rows_equal(self, a, b):
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            for x, y in zip(ra, rb):
                if isinstance(x, float):
                    assert x == pytest.approx(y, rel=1e-9)
                else:
                    assert x == y

    def test_q01(self, tpch_db, tpch_params):
        plan = sql(tpch_db, """
            SELECT l_returnflag, l_linestatus,
                   SUM(l_quantity) AS sum_qty,
                   SUM(l_extendedprice) AS sum_base_price,
                   SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
                   SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
                   AVG(l_quantity) AS avg_qty,
                   AVG(l_extendedprice) AS avg_price,
                   AVG(l_discount) AS avg_disc,
                   COUNT(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """)
        registry = execute(tpch_db, get_query(1).build(tpch_db, tpch_params))
        self._rows_equal(execute(tpch_db, plan).rows, registry.rows)

    def test_q06(self, tpch_db, tpch_params):
        plan = sql(tpch_db, """
            SELECT SUM(l_extendedprice * l_discount) AS revenue
            FROM lineitem
            WHERE l_shipdate >= DATE '1994-01-01'
              AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR
              AND l_discount BETWEEN 0.049 AND 0.071
              AND l_quantity < 24
        """)
        registry = execute(tpch_db, get_query(6).build(tpch_db, tpch_params))
        assert execute(tpch_db, plan).scalar() == pytest.approx(registry.scalar())

    def test_q04(self, tpch_db, tpch_params):
        plan = sql(tpch_db, """
            SELECT o_orderpriority, COUNT(*) AS order_count
            FROM orders
            WHERE o_orderdate >= DATE '1993-07-01'
              AND o_orderdate < DATE '1993-07-01' + INTERVAL '3' MONTH
              AND o_orderkey IN (
                  SELECT l_orderkey FROM lineitem WHERE l_commitdate < l_receiptdate)
            GROUP BY o_orderpriority
            ORDER BY o_orderpriority
        """)
        registry = execute(tpch_db, get_query(4).build(tpch_db, tpch_params))
        self._rows_equal(execute(tpch_db, plan).rows, registry.rows)

    def test_q14(self, tpch_db, tpch_params):
        plan = sql(tpch_db, """
            SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                                     THEN l_extendedprice * (1 - l_discount)
                                     ELSE 0 END)
                   / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE l_shipdate >= DATE '1995-09-01'
              AND l_shipdate < DATE '1995-09-01' + INTERVAL '1' MONTH
        """)
        registry = execute(tpch_db, get_query(14).build(tpch_db, tpch_params))
        assert execute(tpch_db, plan).scalar() == pytest.approx(registry.scalar())

    def test_q19_style_disjunction(self, tpch_db, tpch_params):
        plan = sql(tpch_db, """
            SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE l_shipmode IN ('AIR', 'AIR REG')
              AND l_shipinstruct = 'DELIVER IN PERSON'
              AND ((p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11
                    AND p_size BETWEEN 1 AND 5
                    AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG'))
                OR (p_brand = 'Brand#23' AND l_quantity BETWEEN 10 AND 20
                    AND p_size BETWEEN 1 AND 10
                    AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK'))
                OR (p_brand = 'Brand#34' AND l_quantity BETWEEN 20 AND 30
                    AND p_size BETWEEN 1 AND 15
                    AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')))
        """)
        registry = execute(tpch_db, get_query(19).build(tpch_db, tpch_params))
        assert execute(tpch_db, plan).scalar() == pytest.approx(registry.scalar())


class TestDerivedTables:
    def test_from_subquery(self, toy_db):
        result = execute(toy_db, sql(toy_db, """
            SELECT s, total FROM (
                SELECT s, SUM(v) AS total FROM t GROUP BY s
            ) AS sums
            WHERE total > 50 ORDER BY s
        """))
        assert result.rows == [("a", 100.0), ("b", 70.0)]

    def test_join_against_subquery(self, toy_db):
        result = execute(toy_db, sql(toy_db, """
            SELECT k, w FROM t
            JOIN (SELECT k2, w FROM u WHERE w < 500) AS cheap ON k = k2
            ORDER BY k, w
        """))
        assert result.rows == [(1, 100.0), (2, 200.0), (2, 201.0)]

    def test_left_join_filtered_subquery_q13_pattern(self, toy_db):
        """Filtering the right side *before* a left join — the Q13 shape
        that plain WHERE cannot express."""
        result = execute(toy_db, sql(toy_db, """
            SELECT k, n FROM (
                SELECT k, COUNT(w) AS n FROM t
                LEFT JOIN (SELECT k2, w FROM u WHERE w > 150) AS big
                  ON k = k2
                GROUP BY k
            ) AS counted ORDER BY k
        """))
        counts = dict(result.rows)
        assert counts[2] == 2 and counts[1] == 0

    def test_nested_aggregation_two_levels(self, toy_db):
        result = execute(toy_db, sql(toy_db, """
            SELECT COUNT(*) AS groups FROM (
                SELECT s, COUNT(*) AS n FROM t GROUP BY s
            ) AS per_s
        """))
        assert result.scalar() == 3


class TestUnionAll:
    def test_union_all_concatenates(self, tpch_db):
        plan = sql(tpch_db, """
            SELECT n_name AS name FROM nation WHERE n_regionkey = 0
            UNION ALL
            SELECT r_name AS name FROM region
        """)
        result = execute(tpch_db, plan)
        assert len(result) == 10  # 5 African nations + 5 regions
        assert "AFRICA" in result.column("name")

    def test_union_with_aggregates_per_branch(self, tpch_db):
        plan = sql(tpch_db, """
            SELECT COUNT(*) AS n FROM nation
            UNION ALL
            SELECT COUNT(*) AS n FROM region
        """)
        result = execute(tpch_db, plan)
        assert sorted(result.column("n")) == [5, 25]


class TestErrors:
    def test_unknown_table(self, toy_db):
        with pytest.raises(SqlSyntaxError, match="unknown table"):
            sql(toy_db, "SELECT * FROM missing")

    def test_trailing_garbage(self, toy_db):
        with pytest.raises(SqlSyntaxError, match="trailing"):
            sql(toy_db, "SELECT k FROM t extra stuff here")

    def test_star_with_aggregation(self, toy_db):
        with pytest.raises(SqlSyntaxError):
            sql(toy_db, "SELECT *, COUNT(*) AS n FROM t GROUP BY s")

    def test_group_by_unknown_column(self, toy_db):
        with pytest.raises(SqlSyntaxError, match="not in scope"):
            sql(toy_db, "SELECT COUNT(*) AS n FROM t GROUP BY nothing")

    def test_in_subquery_needs_plain_column(self, toy_db):
        with pytest.raises(SqlSyntaxError, match="plain column"):
            sql(toy_db, "SELECT k FROM t WHERE k + 1 IN (SELECT k2 FROM u)")

    def test_in_subquery_multiple_columns(self, toy_db):
        with pytest.raises(SqlSyntaxError, match="one column"):
            sql(toy_db, "SELECT k FROM t WHERE k IN (SELECT k2, w FROM u)")

    def test_missing_from(self, toy_db):
        with pytest.raises(SqlSyntaxError, match="expected FROM"):
            sql(toy_db, "SELECT 1")
