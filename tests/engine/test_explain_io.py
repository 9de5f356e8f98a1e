"""Tests for EXPLAIN and CSV I/O."""

import pytest

from repro.engine import Q, agg, col, execute
from repro.engine.explain import explain, explain_profile
from repro.engine.io import load_database, read_csv, save_database, write_csv


class TestExplain:
    def test_tree_structure(self, toy_db):
        plan = (
            Q(toy_db).scan("t").filter(col("k") > 1)
            .join("u", on=[("k", "k2")])
            .aggregate(by=["s"], n=agg.count_star())
            .sort(("n", "desc")).limit(3)
        )
        text = explain(plan, toy_db)
        for fragment in ("TopK 3 [n desc]", "Aggregate by [s]",
                         "HashJoin inner on (k=k2)", "Filter", "Scan t", "Scan u"):
            assert fragment in text
        # The fused top-k is one physical node: no Limit or Sort line.
        assert "Limit" not in text and "Sort" not in text

    def test_limit_without_sort_stays_limit(self, toy_db):
        text = explain(Q(toy_db).scan("t").limit(3), toy_db)
        assert "Limit 3" in text and "TopK" not in text
        # ... and a Sort without a Limit stays a full sort.
        text = explain(Q(toy_db).scan("t").sort("v"), toy_db)
        assert "Sort [v asc]" in text and "TopK" not in text

    def test_output_columns_line(self, toy_db):
        text = explain(Q(toy_db).scan("t").select("k", "v"), toy_db)
        assert "output: [k, v]" in text

    def test_optimized_scan_shows_pruned_columns(self, toy_db):
        text = explain(Q(toy_db).scan("t").project(x="k"), toy_db, optimize=True)
        assert "Scan t [k]" in text

    def test_unoptimized_scan_shows_star(self, toy_db):
        text = explain(Q(toy_db).scan("t"), toy_db, optimize=False)
        assert "Scan t [*]" in text

    def test_predicates_render_readably(self, toy_db):
        text = explain(
            Q(toy_db).scan("t").filter((col("k") > 1) & (col("s") == "a")),
            toy_db,
        )
        assert "AND" in text and "col('k')" in text

    def test_empty_plan_rejected(self, toy_db):
        with pytest.raises(ValueError):
            explain(Q(toy_db), toy_db)

    def test_profile_table(self, toy_db):
        result = execute(toy_db, Q(toy_db).scan("t").filter(col("k") > 1))
        text = explain_profile(result)
        assert "scan" in text and "filter" in text and "total" in text

    def test_union_all_rendered(self, toy_db):
        plan = Q(toy_db).scan("t").select("k").union_all(
            Q(toy_db).scan("u").project(k="k2")
        )
        text = explain(plan, toy_db)
        assert "UnionAll" in text
        assert text.count("Scan") == 2

    def test_topk_visible_in_profile(self, toy_db):
        result = execute(toy_db, Q(toy_db).scan("t").sort("v").limit(2))
        assert "topk" in explain_profile(result)


class TestCsvRoundtrip:
    def test_table_roundtrip(self, toy_db, tmp_path):
        original = toy_db.table("t")
        path = write_csv(original, tmp_path / "t.csv")
        loaded = read_csv(path)
        assert loaded.name == "t"
        assert loaded.column_names == original.column_names
        for name in original.column_names:
            assert loaded.column(name).to_list() == original.column(name).to_list()
            assert loaded.column(name).dtype is original.column(name).dtype

    def test_database_roundtrip(self, toy_db, tmp_path):
        save_database(toy_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        assert sorted(loaded.table_names) == sorted(toy_db.table_names)

    def test_tpch_sample_roundtrip(self, tpch_db, tmp_path):
        nation = tpch_db.table("nation")
        loaded = read_csv(write_csv(nation, tmp_path / "nation.csv"))
        assert loaded.nrows == 25
        assert loaded.column("n_name").to_list() == nation.column("n_name").to_list()

    def test_queries_run_on_loaded_data(self, toy_db, tmp_path):
        save_database(toy_db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        original = execute(toy_db, Q(toy_db).scan("t").aggregate(s=agg.sum(col("v"))))
        reloaded = execute(loaded, Q(loaded).scan("t").aggregate(s=agg.sum(col("v"))))
        assert original.scalar() == reloaded.scalar()

    def test_untyped_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="type suffix"):
            read_csv(bad)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_database(tmp_path)

    def test_compressed_table_rejected(self, toy_db, tmp_path):
        from repro.engine import compress_table

        compressed = compress_table(toy_db.table("t"))
        with pytest.raises(TypeError, match="compressed"):
            write_csv(compressed, tmp_path / "c.csv")
