"""Tests for the expression AST and its vectorized evaluation."""

import numpy as np
import pytest

from repro.engine import Column, Database, Frame, Table, case, col, execute, lit
from repro.engine.executor import ExecContext
from repro.engine.sql import sql
from repro.engine.profile import WorkProfile
from repro.engine.types import BOOL, DATE, FLOAT64, INT64, STRING


class _Ctx:
    """Minimal evaluation context: a fresh profile with one operator."""

    def __init__(self):
        self.profile = WorkProfile()
        self.work = self.profile.new_operator("test")

    def scalar(self, plan):  # pragma: no cover - not used here
        raise NotImplementedError


@pytest.fixture
def frame():
    return Frame({
        "i": Column.from_ints([1, 2, 3, 4]),
        "f": Column.from_floats([1.5, 2.5, 3.5, 4.5]),
        "s": Column.from_strings(["apple", "banana", "apple", "cherry"]),
        "d": Column.from_dates(["1994-01-01", "1995-06-15", "1993-12-31", "1994-12-31"]),
    })


def ev(expr, frame):
    return expr.evaluate(frame, _Ctx())


class TestArithmetic:
    def test_add_ints_stays_int(self, frame):
        out = ev(col("i") + col("i"), frame)
        assert out.dtype is INT64
        assert out.values.tolist() == [2, 4, 6, 8]

    def test_int_plus_float_promotes(self, frame):
        out = ev(col("i") + col("f"), frame)
        assert out.dtype is FLOAT64
        assert out.values.tolist() == [2.5, 4.5, 6.5, 8.5]

    def test_division_always_float(self, frame):
        out = ev(col("i") / 2, frame)
        assert out.dtype is FLOAT64
        assert out.values.tolist() == [0.5, 1.0, 1.5, 2.0]

    def test_scalar_broadcast_left_and_right(self, frame):
        assert ev(2 * col("i"), frame).values.tolist() == [2, 4, 6, 8]
        assert ev(col("i") - 1, frame).values.tolist() == [0, 1, 2, 3]
        assert ev(10 - col("i"), frame).values.tolist() == [9, 8, 7, 6]

    def test_revenue_expression_shape(self, frame):
        out = ev(col("f") * (1.0 - col("f") * 0.0), frame)
        assert out.values.tolist() == [1.5, 2.5, 3.5, 4.5]

    def test_ops_are_counted(self, frame):
        ctx = _Ctx()
        (col("i") + col("i")).evaluate(frame, ctx)
        assert ctx.work.ops == 4


class TestComparison:
    def test_int_literal(self, frame):
        assert ev(col("i") > 2, frame).values.tolist() == [False, False, True, True]

    def test_le_ge(self, frame):
        assert ev(col("i") <= 2, frame).values.tolist() == [True, True, False, False]
        assert ev(col("i") >= 4, frame).values.tolist() == [False, False, False, True]

    def test_ne(self, frame):
        assert ev(col("i") != 2, frame).values.tolist() == [True, False, True, True]

    def test_date_iso_string_literal(self, frame):
        out = ev(col("d") >= "1994-01-01", frame)
        assert out.values.tolist() == [True, True, False, True]

    def test_string_equality_through_dictionary(self, frame):
        out = ev(col("s") == "apple", frame)
        assert out.values.tolist() == [True, False, True, False]

    def test_string_absent_literal_all_false(self, frame):
        assert ev(col("s") == "durian", frame).values.tolist() == [False] * 4

    def test_string_inequality_lexicographic(self, frame):
        out = ev(col("s") >= "banana", frame)
        assert out.values.tolist() == [False, True, False, True]

    def test_column_vs_column(self, frame):
        out = ev(col("f") > col("i"), frame)
        assert out.values.tolist() == [True, True, True, True]

    def test_null_comparisons_false(self):
        frame = Frame({
            "x": Column(INT64, np.array([1, 2]), valid=np.array([True, False])),
        })
        assert ev(col("x") == 2, frame).values.tolist() == [False, False]
        assert ev(col("x") == 1, frame).values.tolist() == [True, False]


class TestBoolean:
    def test_and_or_not(self, frame):
        both = (col("i") > 1) & (col("i") < 4)
        assert ev(both, frame).values.tolist() == [False, True, True, False]
        either = (col("i") == 1) | (col("i") == 4)
        assert ev(either, frame).values.tolist() == [True, False, False, True]
        assert ev(~(col("i") == 1), frame).values.tolist() == [False, True, True, True]

    def test_between_inclusive(self, frame):
        out = ev(col("i").between(2, 3), frame)
        assert out.values.tolist() == [False, True, True, False]

    def test_non_expr_operand_raises(self, frame):
        with pytest.raises(TypeError):
            (col("i") > 1) & True  # noqa: B015


class TestInList:
    def test_ints(self, frame):
        out = ev(col("i").isin([2, 4, 9]), frame)
        assert out.values.tolist() == [False, True, False, True]

    def test_strings(self, frame):
        out = ev(col("s").isin(["apple", "cherry"]), frame)
        assert out.values.tolist() == [True, False, True, True]

    def test_dates_accept_iso_strings(self, frame):
        out = ev(col("d").isin(["1994-01-01"]), frame)
        assert out.values.tolist() == [True, False, False, False]

    def test_empty_list(self, frame):
        assert ev(col("i").isin([]), frame).values.tolist() == [False] * 4


class TestLike:
    def test_prefix(self, frame):
        assert ev(col("s").like("ap%"), frame).values.tolist() == [True, False, True, False]

    def test_suffix_and_infix(self, frame):
        assert ev(col("s").like("%rry"), frame).values.tolist() == [False, False, False, True]
        assert ev(col("s").like("%nan%"), frame).values.tolist() == [False, True, False, False]

    def test_underscore_single_char(self, frame):
        assert ev(col("s").like("appl_"), frame).values.tolist() == [True, False, True, False]

    def test_not_like(self, frame):
        assert ev(col("s").not_like("%a%"), frame).values.tolist() == [False, False, False, True]

    def test_regex_metacharacters_are_literal(self):
        frame = Frame({"s": Column.from_strings(["a.b", "axb"])})
        assert ev(col("s").like("a.b"), frame).values.tolist() == [True, False]

    def test_like_requires_strings(self, frame):
        with pytest.raises(TypeError):
            ev(col("i").like("%1%"), frame)

    def test_like_charges_string_bytes(self, frame):
        ctx = _Ctx()
        col("s").like("%a%").evaluate(frame, ctx)
        assert ctx.work.seq_bytes > 0  # string heap traffic is costed


class TestStringFunctions:
    def test_substring_is_one_based(self, frame):
        out = ev(col("s").substring(1, 2), frame)
        assert out.to_list() == ["ap", "ba", "ap", "ch"]

    def test_substring_past_end(self):
        frame = Frame({"s": Column.from_strings(["ab"])})
        assert ev(col("s").substring(1, 10), frame).to_list() == ["ab"]

    def test_extract_year(self, frame):
        out = ev(col("d").year(), frame)
        assert out.values.tolist() == [1994, 1995, 1993, 1994]
        assert out.dtype is INT64

    def test_year_requires_date(self, frame):
        with pytest.raises(TypeError):
            ev(col("i").year(), frame)


class TestCase:
    def test_first_match_wins(self, frame):
        expr = case([
            (col("i") < 3, lit(1.0)),
            (col("i") < 5, lit(2.0)),
        ], 0.0)
        assert ev(expr, frame).values.tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_else_branch(self, frame):
        expr = case([(col("i") == 99, lit(1.0))], -1.0)
        assert ev(expr, frame).values.tolist() == [-1.0] * 4

    def test_bare_number_values(self, frame):
        expr = case([(col("s") == "apple", col("f"))], 0)
        assert ev(expr, frame).values.tolist() == [1.5, 0.0, 3.5, 0.0]


class TestNullPredicates:
    def test_is_null_and_not_null(self):
        frame = Frame({
            "x": Column(FLOAT64, np.array([1.0, 2.0]), valid=np.array([False, True])),
            "y": Column.from_ints([1, 2]),
        })
        assert ev(col("x").is_null(), frame).values.tolist() == [True, False]
        assert ev(col("x").is_not_null(), frame).values.tolist() == [False, True]
        assert ev(col("y").is_null(), frame).values.tolist() == [False, False]


class TestLiterals:
    def test_int_float_string_bool(self, frame):
        assert ev(lit(7), frame).dtype is INT64
        assert ev(lit(7.5), frame).dtype is FLOAT64
        assert ev(lit("x"), frame).dtype is STRING
        assert ev(lit(True), frame).dtype is BOOL

    def test_unsupported_literal(self, frame):
        with pytest.raises(TypeError):
            ev(lit(object()), frame)

    def test_references(self):
        expr = (col("a") + col("b")) * (1.0 - col("c"))
        assert expr.references() == {"a", "b", "c"}
        assert lit(1).references() == set()


class TestArithmeticNulls:
    """Arithmetic over a NULL operand is NULL, whatever reads the result:
    ``a(k = 1..4) LEFT JOIN b(k2 = {1, 2})`` leaves ``w`` NULL for k = 3, 4."""

    @pytest.fixture
    def db(self):
        db = Database("nulls")
        db.add(Table("a", {"k": Column.from_ints([1, 2, 3, 4])}))
        db.add(Table("b", {
            "k2": Column.from_ints([1, 2]),
            "w": Column.from_floats([10.0, 20.0]),
        }))
        return db

    @staticmethod
    def run(db, select, rest=""):
        return execute(db, sql(db, f"SELECT {select} FROM a LEFT JOIN b ON k = k2 {rest}"))

    def test_projection_is_null_where_an_operand_is(self, db):
        result = self.run(db, "k, w + 1 AS x", "ORDER BY k")
        assert result.rows == [(1, 11.0), (2, 21.0), (3, None), (4, None)]

    def test_sum_and_count_skip_null_results(self, db):
        result = self.run(db, "SUM(w + 1) AS s, COUNT(w + 1) AS c")
        assert result.rows == [(32.0, 2)]

    def test_comparison_with_a_null_result_is_false(self, db):
        result = self.run(db, "k", "WHERE w + 1 > 0")
        assert sorted(result.column("k")) == [1, 2]
