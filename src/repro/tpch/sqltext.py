"""All 22 TPC-H queries as SQL text (for the engine's SQL front-end).

The spec's queries, written in the engine's dialect. Correlated
subqueries (Q2, Q17, Q20), ``EXISTS`` (Q4, Q22), ``IN (SELECT ...)``
(Q16, Q18, Q20, Q21), scalar subqueries (Q11, Q15, Q22), and derived
tables (Q7, Q8, Q13, Q15, Q22) all go through the SQL front-end's
decorrelation and semi/anti-join lowering. Q21's spec EXISTS/NOT EXISTS
pair needs a non-equality correlation the dialect doesn't decorrelate,
so its text uses the equivalent relational form (an order qualifies when
it has >= 2 distinct suppliers overall but fewer than 2 among its late
lines).

Q11's spec FRACTION depends on the scale factor, so its text carries a
``{fraction}`` placeholder; :func:`sql_text` substitutes 0.0001 / SF
unless ``params`` gives the fraction itself.

These texts are the only definition of the queries:
:meth:`repro.tpch.QueryDef.build` plans them, and
``tests/tpch/test_golden.py`` checks their rows against golden files and
``tests/tpch/test_sqltext.py`` against stdlib ``sqlite3`` running the same
text.
"""

from __future__ import annotations

from repro.engine import Database, Q
from repro.engine.sql import sql

__all__ = ["SQL_QUERIES", "build_from_sql", "sql_text", "SQL_QUERY_NUMBERS"]

SQL_QUERIES: dict[int, str] = {
    1: """
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
    """,
    3: """
        SELECT l_orderkey, o_orderdate, o_shippriority,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON o_orderkey = l_orderkey
        WHERE c_mktsegment = 'BUILDING'
          AND o_orderdate < DATE '1995-03-15'
          AND l_shipdate > DATE '1995-03-15'
        GROUP BY l_orderkey, o_orderdate, o_shippriority
        ORDER BY revenue DESC, o_orderdate
        LIMIT 10
    """,
    2: """
        SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address,
               s_phone, s_comment
        FROM part
        JOIN partsupp ON p_partkey = ps_partkey
        JOIN supplier ON ps_suppkey = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        WHERE p_size = 15
          AND p_type LIKE '%BRASS'
          AND r_name = 'EUROPE'
          AND ps_supplycost = (
              SELECT MIN(ps_supplycost)
              FROM partsupp
              JOIN supplier ON ps_suppkey = s_suppkey
              JOIN nation ON s_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
              WHERE r_name = 'EUROPE'
                AND ps_partkey = p_partkey)
        ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
        LIMIT 100
    """,
    4: """
        SELECT o_orderpriority, COUNT(*) AS order_count
        FROM orders
        WHERE o_orderdate >= DATE '1993-07-01'
          AND o_orderdate < DATE '1993-07-01' + INTERVAL '3' MONTH
          AND EXISTS (
              SELECT * FROM lineitem
              WHERE l_orderkey = o_orderkey
                AND l_commitdate < l_receiptdate)
        GROUP BY o_orderpriority
        ORDER BY o_orderpriority
    """,
    5: """
        SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON o_orderkey = l_orderkey
        JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
        JOIN nation ON c_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        WHERE r_name = 'ASIA'
          AND o_orderdate >= DATE '1994-01-01'
          AND o_orderdate < DATE '1994-01-01' + INTERVAL '1' YEAR
        GROUP BY n_name
        ORDER BY revenue DESC
    """,
    6: """
        SELECT SUM(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= DATE '1994-01-01'
          AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR
          AND l_discount BETWEEN 0.049 AND 0.071
          AND l_quantity < 24
    """,
    7: """
        SELECT supp_nation, cust_nation,
               EXTRACT(YEAR FROM l_shipdate) AS l_year,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM supplier
        JOIN lineitem ON s_suppkey = l_suppkey
        JOIN orders ON l_orderkey = o_orderkey
        JOIN customer ON o_custkey = c_custkey
        JOIN (SELECT n_nationkey AS sn_key, n_name AS supp_nation
              FROM nation) AS n1 ON s_nationkey = sn_key
        JOIN (SELECT n_nationkey AS cn_key, n_name AS cust_nation
              FROM nation) AS n2 ON c_nationkey = cn_key
        WHERE l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
          AND ((supp_nation = 'FRANCE' AND cust_nation = 'GERMANY')
            OR (supp_nation = 'GERMANY' AND cust_nation = 'FRANCE'))
        GROUP BY supp_nation, cust_nation, l_year
        ORDER BY supp_nation, cust_nation, l_year
    """,
    8: """
        SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year,
               SUM(CASE WHEN supp_nation = 'BRAZIL'
                        THEN l_extendedprice * (1 - l_discount)
                        ELSE 0 END)
               / SUM(l_extendedprice * (1 - l_discount)) AS mkt_share
        FROM part
        JOIN lineitem ON p_partkey = l_partkey
        JOIN supplier ON l_suppkey = s_suppkey
        JOIN orders ON l_orderkey = o_orderkey
        JOIN customer ON o_custkey = c_custkey
        JOIN (SELECT n_nationkey AS cn_key, n_regionkey AS cn_region
              FROM nation) AS n1 ON c_nationkey = cn_key
        JOIN region ON cn_region = r_regionkey
        JOIN (SELECT n_nationkey AS sn_key, n_name AS supp_nation
              FROM nation) AS n2 ON s_nationkey = sn_key
        WHERE p_type = 'ECONOMY ANODIZED STEEL'
          AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
          AND r_name = 'AMERICA'
        GROUP BY o_year
        ORDER BY o_year
    """,
    9: """
        SELECT nation, o_year, SUM(amount) AS sum_profit
        FROM (
            SELECT n_name AS nation,
                   EXTRACT(YEAR FROM o_orderdate) AS o_year,
                   l_extendedprice * (1 - l_discount)
                     - ps_supplycost * l_quantity AS amount
            FROM part
            JOIN lineitem ON p_partkey = l_partkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN partsupp ON l_partkey = ps_partkey AND l_suppkey = ps_suppkey
            JOIN orders ON l_orderkey = o_orderkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE p_name LIKE '%green%'
        ) AS profit
        GROUP BY nation, o_year
        ORDER BY nation, o_year DESC
    """,
    10: """
        SELECT c_custkey, c_name, c_acctbal, c_phone, n_name, c_address,
               c_comment,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON o_orderkey = l_orderkey
        JOIN nation ON c_nationkey = n_nationkey
        WHERE o_orderdate >= DATE '1993-10-01'
          AND o_orderdate < DATE '1993-10-01' + INTERVAL '3' MONTH
          AND l_returnflag = 'R'
        GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address,
                 c_comment
        ORDER BY revenue DESC
        LIMIT 20
    """,
    11: """
        SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value
        FROM partsupp
        JOIN supplier ON ps_suppkey = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        WHERE n_name = 'GERMANY'
        GROUP BY ps_partkey
        HAVING value > (
            SELECT SUM(ps_supplycost * ps_availqty) * {fraction}
            FROM partsupp
            JOIN supplier ON ps_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE n_name = 'GERMANY')
        ORDER BY value DESC
    """,
    12: """
        SELECT l_shipmode,
               SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END) AS high_line_count,
               SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 0 ELSE 1 END) AS low_line_count
        FROM orders
        JOIN lineitem ON o_orderkey = l_orderkey
        WHERE l_shipmode IN ('MAIL', 'SHIP')
          AND l_commitdate < l_receiptdate
          AND l_shipdate < l_commitdate
          AND l_receiptdate >= DATE '1994-01-01'
          AND l_receiptdate < DATE '1994-01-01' + INTERVAL '1' YEAR
        GROUP BY l_shipmode
        ORDER BY l_shipmode
    """,
    13: """
        SELECT c_count, COUNT(*) AS custdist
        FROM (
            SELECT c_custkey, COUNT(o_orderkey) AS c_count
            FROM customer
            LEFT JOIN (SELECT o_orderkey, o_custkey FROM orders
                       WHERE o_comment NOT LIKE '%special%requests%') AS o
              ON c_custkey = o_custkey
            GROUP BY c_custkey
        ) AS c_orders
        GROUP BY c_count
        ORDER BY custdist DESC, c_count DESC
    """,
    14: """
        SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                                 THEN l_extendedprice * (1 - l_discount)
                                 ELSE 0 END)
               / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
        FROM lineitem
        JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate >= DATE '1995-09-01'
          AND l_shipdate < DATE '1995-09-01' + INTERVAL '1' MONTH
    """,
    15: """
        SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
        FROM supplier
        JOIN (SELECT l_suppkey,
                     SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
              FROM lineitem
              WHERE l_shipdate >= DATE '1996-01-01'
                AND l_shipdate < DATE '1996-04-01'
              GROUP BY l_suppkey) AS revenue
          ON s_suppkey = l_suppkey
        WHERE total_revenue >= (
            SELECT MAX(total_revenue)
            FROM (SELECT l_suppkey,
                         SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
                  FROM lineitem
                  WHERE l_shipdate >= DATE '1996-01-01'
                    AND l_shipdate < DATE '1996-04-01'
                  GROUP BY l_suppkey) AS r)
        ORDER BY s_suppkey
    """,
    16: """
        SELECT p_brand, p_type, p_size,
               COUNT(DISTINCT ps_suppkey) AS supplier_cnt
        FROM partsupp
        JOIN part ON ps_partkey = p_partkey
        WHERE p_brand <> 'Brand#45'
          AND p_type NOT LIKE 'MEDIUM POLISHED%'
          AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9)
          AND ps_suppkey NOT IN (
              SELECT s_suppkey FROM supplier
              WHERE s_comment LIKE '%Customer%Complaints%')
        GROUP BY p_brand, p_type, p_size
        ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
    """,
    17: """
        SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly
        FROM lineitem
        JOIN part ON l_partkey = p_partkey
        WHERE p_brand = 'Brand#23'
          AND p_container = 'MED BOX'
          AND l_quantity < (
              SELECT 0.2 * AVG(l_quantity)
              FROM lineitem
              WHERE l_partkey = p_partkey)
    """,
    18: """
        SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
               SUM(l_quantity) AS sum_qty
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON o_orderkey = l_orderkey
        WHERE o_orderkey IN (
            SELECT l_orderkey FROM lineitem
            GROUP BY l_orderkey
            HAVING SUM(l_quantity) > 300)
        GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
        ORDER BY o_totalprice DESC, o_orderdate
        LIMIT 100
    """,
    19: """
        SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM lineitem
        JOIN part ON l_partkey = p_partkey
        WHERE l_shipmode IN ('AIR', 'AIR REG')
          AND l_shipinstruct = 'DELIVER IN PERSON'
          AND ((p_brand = 'Brand#12'
                AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
                AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5)
            OR (p_brand = 'Brand#23'
                AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
                AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10)
            OR (p_brand = 'Brand#34'
                AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
                AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15))
    """,
    20: """
        SELECT s_name, s_address
        FROM supplier
        JOIN nation ON s_nationkey = n_nationkey
        WHERE n_name = 'CANADA'
          AND s_suppkey IN (
              SELECT ps_suppkey
              FROM partsupp
              WHERE ps_partkey IN (
                    SELECT p_partkey FROM part WHERE p_name LIKE 'forest%')
                AND ps_availqty > (
                    SELECT 0.5 * SUM(l_quantity)
                    FROM lineitem
                    WHERE l_shipdate >= DATE '1994-01-01'
                      AND l_shipdate < DATE '1995-01-01'
                      AND l_partkey = ps_partkey
                      AND l_suppkey = ps_suppkey))
        ORDER BY s_name
    """,
    21: """
        SELECT s_name, COUNT(*) AS numwait
        FROM supplier
        JOIN lineitem ON s_suppkey = l_suppkey
        JOIN orders ON l_orderkey = o_orderkey
        JOIN nation ON s_nationkey = n_nationkey
        WHERE o_orderstatus = 'F'
          AND n_name = 'SAUDI ARABIA'
          AND l_receiptdate > l_commitdate
          AND l_orderkey IN (
              SELECT l_orderkey FROM lineitem
              GROUP BY l_orderkey
              HAVING COUNT(DISTINCT l_suppkey) >= 2)
          AND l_orderkey NOT IN (
              SELECT l_orderkey FROM lineitem
              WHERE l_receiptdate > l_commitdate
              GROUP BY l_orderkey
              HAVING COUNT(DISTINCT l_suppkey) >= 2)
        GROUP BY s_name
        ORDER BY numwait DESC, s_name
        LIMIT 100
    """,
    22: """
        SELECT cntrycode, COUNT(*) AS numcust, SUM(c_acctbal) AS totacctbal
        FROM (
            SELECT SUBSTRING(c_phone FROM 1 FOR 2) AS cntrycode, c_acctbal
            FROM customer
            WHERE SUBSTRING(c_phone FROM 1 FOR 2)
                    IN ('13', '31', '23', '29', '30', '18', '17')
              AND c_acctbal > (
                  SELECT AVG(c_acctbal) FROM customer
                  WHERE c_acctbal > 0.0
                    AND SUBSTRING(c_phone FROM 1 FOR 2)
                          IN ('13', '31', '23', '29', '30', '18', '17'))
              AND NOT EXISTS (
                  SELECT * FROM orders WHERE o_custkey = c_custkey)
        ) AS custsale
        GROUP BY cntrycode
        ORDER BY cntrycode
    """,
}

SQL_QUERY_NUMBERS = tuple(sorted(SQL_QUERIES))


def sql_text(number: int, params: dict | None = None) -> str:
    """The SQL text for query ``number`` with substitution parameters
    applied (only Q11's scale-dependent FRACTION needs one)."""
    try:
        text = SQL_QUERIES[number]
    except KeyError:
        raise KeyError(
            f"Q{number} has no SQL text: TPC-H queries are numbered 1-22"
        ) from None
    if number == 11:
        p = params or {}
        fraction = p.get("fraction", 0.0001 / p.get("sf", 1.0))
        text = text.format(fraction=repr(float(fraction)))
    return text


def build_from_sql(db: Database, number: int, params: dict | None = None) -> Q:
    """Plan a TPC-H query from its SQL text."""
    return sql(db, sql_text(number, params))
