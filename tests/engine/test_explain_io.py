"""Tests for EXPLAIN and CSV I/O."""

import re

import pytest

from repro.engine import Executor, Q, agg, col, execute
from repro.engine.explain import explain, explain_profile
from repro.engine.io import load_database, read_csv, save_database, write_csv
from repro.obs import Tracer, iter_spans
from repro.tpch import get_query


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


class TestSpillTagFollowsTheDispatchRule:
    """``[spill: join ...]`` is a dry run of ``spill.choose_build_side``
    on static estimates: a join is tagged only when *neither* input fits
    the budget, and its fan-out is sized by the smaller one."""

    @staticmethod
    def _join_lines(tpch_db, tpch_params, budget):
        from repro.tpch import get_query

        text = explain(get_query(3).build(tpch_db, tpch_params), tpch_db,
                       memory_budget=budget)
        return [line for line in text.splitlines() if "HashJoin" in line]

    def test_a_join_whose_left_input_fits_is_not_tagged(self, tpch_db, tpch_params):
        # customer's key column (36 KB with its hash entries) fits 256 KiB,
        # orders (600 KB) does not: the join builds over customer in memory.
        upper, lower = self._join_lines(tpch_db, tpch_params, 256 * 1024)
        assert "c_custkey=o_custkey" in lower and "[spill" not in lower
        # Both inputs of the join above it are over: still out-of-core,
        # partitioned for its smaller (left) input, not for lineitem.
        assert "o_orderkey=l_orderkey" in upper
        assert re.search(r"\[spill: join p=4 depth=1\]", upper)

    def test_a_budget_neither_input_fits_still_tags_it(self, tpch_db, tpch_params):
        for line in self._join_lines(tpch_db, tpch_params, 16 * 1024):
            assert re.search(r"\[spill: join p=\d+ depth=\d+\]", line), line


class TestExplainReportsWhatRuns:
    """``[enc-eval n/m]`` and the morsel count of ``[segment: ...]`` are
    read off the lowered plan, so they must agree with the execution of
    that plan — over the pinned scan set, every query of which has at
    most one predicated scan."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("storage", ["plain", "compressed"])
    def test_tags_match_the_traced_execution(
        self, scan_pins, tpch_db, clustered_ctpch_db, storage, workers
    ):
        db = tpch_db if storage == "plain" else clustered_ctpch_db
        executor = scan_pins.make_executor(
            db, (True, True, True), workers, tracer=Tracer()
        )
        for name, text in scan_pins.QUERIES.items():
            plan = scan_pins.sql(db, text)
            printed = explain(
                executor.lower(plan), db, optimize=False, settings=executor.settings
            )
            profile = executor.execute(plan).profile
            spans = list(iter_spans(executor.tracer.roots[-1]))

            pushed = [line for line in printed.splitlines() if "[pushed]" in line]
            assert len(pushed) <= 1, name
            tag = re.search(r"\[enc-eval(?: (\d+)/\d+)?\]", pushed[0]) if pushed else None
            assert (tag is not None) == (profile.encoded_eval_rows > 0), name
            ran_encoded = {
                s.attrs.get("encoded", 0) for s in spans
                if s.kind == "operator" and s.attrs.get("pushdown")
            }
            if tag is not None and tag.group(1):
                assert ran_encoded == {int(tag.group(1))}, name
            elif tag is not None:  # every conjunct
                assert len(ran_encoded) == 1 and min(ran_encoded) > 0, name

            printed_morsels = {
                int(n) for n in re.findall(r"\[segment: \w+ x(\d+) morsels\]", printed)
            }
            traced_morsels = {
                s.attrs["morsels"] for s in spans
                if s.kind == "pipeline" and s.name.startswith("segment:")
            }
            assert printed_morsels == traced_morsels, name
        executor.close()

    def test_lowering_for_explain_counts_no_dispatch(self, scan_pins, clustered_ctpch_db):
        from repro.engine.encoded import aggregate_stats, predicate_stats

        db = clustered_ctpch_db
        before = (predicate_stats.hits, predicate_stats.misses,
                  aggregate_stats.hits, aggregate_stats.misses)
        for text in scan_pins.QUERIES.values():
            explain(scan_pins.sql(db, text), db)
        assert before == (predicate_stats.hits, predicate_stats.misses,
                          aggregate_stats.hits, aggregate_stats.misses)


class TestExplainIsDeterministic:
    @pytest.mark.parametrize("number", range(1, 23))
    def test_no_object_addresses_in_lowered_tpch_plans(self, tpch_db, tpch_params, number):
        """Every expression prints by value (a scalar subquery as a short
        form), so the same query explains the same way in every run."""
        executor = Executor(tpch_db)
        text = explain(
            executor.lower(get_query(number).build(tpch_db, tpch_params)),
            tpch_db, optimize=False, settings=executor.settings,
        )
        assert " object at 0x" not in text


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
