"""Tests for the benchmark harness and the Table 3–12 grid definitions."""
import time

import pytest

from repro.bench.harness import (
    TIMEOUT_SECONDS, build_cell_df, clear_cache, input_df, run_cell, timed_action,
)
from repro.bench.report import (
    CLAIMS, load_results, render_section, results_path, results_to_json, verdicts,
)
from repro.bench.tables import (
    COMPLETE_ALGOS, INCOMPLETE_ALGOS, SS_SCALE, TABLES, table_def,
)
from repro.core import physical

from tests.helpers import executed_plan


class TestTableDefs:
    def test_all_ten_tables_defined(self):
        assert sorted(TABLES) == list(range(3, 13))

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            table_def(2)

    @pytest.mark.parametrize("t", sorted(TABLES))
    def test_algorithms_match_dataset_variant(self, t):
        td = table_def(t)
        assert td.algorithms == (COMPLETE_ALGOS if td.complete else INCOMPLETE_ALGOS)

    @pytest.mark.parametrize("t", sorted(TABLES))
    def test_cells_cover_full_grid(self, t):
        td = table_def(t)
        cells = list(td.cells())
        assert len(cells) == len(td.sweep_values) * len(td.algorithms)
        for c in cells:
            assert c["dims"] in range(1, 7)
            assert c["executors"] >= 1
            assert c["n"] > 0

    @pytest.mark.parametrize("t", sorted(TABLES))
    def test_paper_rows_align_with_sweep(self, t):
        td = table_def(t)
        assert len(td.paper_reference_seconds) == len(td.sweep_values)
        for algo, row in td.paper_percent.items():
            assert algo in td.algorithms
            assert len(row) == len(td.sweep_values)

    def test_scale_mapping(self):
        assert SS_SCALE[10_000_000] == 2_500_000  # 1/4 scale
        # Bench scale is a further 1/10.
        assert {c["sweep_value"]: c["n"] for c in table_def(7).cells(bench=True)} == {
            1_000_000: 25_000, 2_000_000: 50_000, 5_000_000: 125_000, 10_000_000: 250_000}
        assert {t: {c["n"] for c in table_def(t).cells(bench=True)} for t in TABLES} == {
            3: {24_000}, 4: {24_000}, 5: {250_000}, 6: {25_000}, 7: {25_000, 50_000, 125_000, 250_000},
            8: {25_000, 50_000, 125_000, 250_000}, 9: {24_000}, 10: {24_000}, 11: {250_000},
            12: {125_000}}

    def test_dims_sweeps_are_1_to_6(self):
        for t in (3, 4, 5, 6):
            assert table_def(t).sweep_values == (1, 2, 3, 4, 5, 6)

    def test_executor_sweeps_match_paper(self):
        for t in (9, 10, 11, 12):
            assert table_def(t).sweep_values == (1, 2, 3, 5, 10)


def plan_above_cache(df) -> str:
    """The executed plan of ``df`` down to its first cached-input scan,
    without the plan that built the cache."""
    return executed_plan(df).split("InMemoryRelation")[0]


class TestHarness:
    def test_input_df_cached_and_materialized(self, spark):
        clear_cache()
        a = input_df(spark, "airbnb", n=800, complete=True, executors=3)
        b = input_df(spark, "airbnb", n=800, complete=True, executors=3)
        assert a is b
        assert a.count() > 0
        clear_cache()

    def test_input_df_built_in_executors_partitions_one_at_a_time(self, spark):
        clear_cache()
        a = input_df(spark, "airbnb", n=700, complete=True, executors=2)
        assert a.storageLevel.useMemory and a.rdd.getNumPartitions() == 2
        b = input_df(spark, "airbnb", n=700, complete=True, executors=3)
        assert not a.storageLevel.useMemory
        assert b.storageLevel.useMemory and b.rdd.getNumPartitions() == 3
        clear_cache()
        assert not b.storageLevel.useMemory

    def test_unknown_dataset_rejected(self, spark):
        with pytest.raises(ValueError):
            input_df(spark, "nope", n=10, complete=True, executors=2)

    @pytest.mark.parametrize("executors", [1, 3])
    def test_reference_joins_over_executors_partitions(self, spark, executors):
        out = build_cell_df(spark, dataset="store_sales", complete=True, dims=3, n=600,
                            executors=executors, algorithm="reference")
        # The anti join streams over the cached input and is the result:
        # no shuffle between the join and the write.
        plan = plan_above_cache(out)
        assert "LeftAnti" in plan and "InMemoryTableScan" in plan
        assert "Exchange" not in plan
        assert out.rdd.getNumPartitions() == executors
        clear_cache()

    @pytest.mark.parametrize("executors", [1, 3])
    def test_distributed_complete_reads_input_in_place(self, spark, executors):
        out = build_cell_df(spark, dataset="store_sales", complete=True, dims=3, n=600,
                            executors=executors, algorithm="distributed_complete")
        plan = plan_above_cache(out)
        assert "InMemoryTableScan" in plan
        assert "RoundRobinPartitioning" not in plan
        assert plan.count("Exchange") == 1  # only the global stage's repartition(1)
        clear_cache()

    def test_timed_action_returns_seconds(self, spark):
        df = spark.range(1000)
        secs = timed_action(spark, df, timeout_s=30)
        assert secs is not None and 0 < secs < 30

    def test_timed_action_timeout_returns_none(self, spark):
        # A deliberately slow stage: sleep inside mapInPandas.
        import pandas as pd  # noqa: F401

        def slow(batches):
            for pdf in batches:
                time.sleep(15)
                yield pdf

        df = spark.range(100).repartition(1)
        slow_df = df.mapInPandas(slow, df.schema)
        t0 = time.time()
        assert timed_action(spark, slow_df, timeout_s=2) is None
        assert time.time() - t0 < 40  # cancelled, not run to completion

    def test_timed_action_timeout_returns_after_tasks_end(self, spark, monkeypatch):
        """The next cell must not be timed while the cancelled one's tasks run."""
        def slow(batches):
            for pdf in batches:
                time.sleep(20)
                yield pdf

        sc = spark.sparkContext
        groups = []
        set_group = sc.setJobGroup
        monkeypatch.setattr(sc, "setJobGroup",
                            lambda g, *a, **kw: (groups.append(g), set_group(g, *a, **kw)))
        df = spark.range(0, 100, 1, 3)
        assert timed_action(spark, df.mapInPandas(slow, df.schema), timeout_s=2) is None

        tracker = sc.statusTracker()
        [group] = groups
        stage_ids = [s for j in tracker.getJobIdsForGroup(group)
                     for s in tracker.getJobInfo(j).stageIds]
        assert stage_ids
        infos = [tracker.getStageInfo(s) for s in stage_ids]
        assert all(i is None or i.numActiveTasks == 0 for i in infos), infos

    @pytest.mark.parametrize("algorithm", COMPLETE_ALGOS)
    def test_build_cell_df_complete_counts_agree(self, spark, algorithm):
        out = build_cell_df(
            spark, dataset="store_sales", complete=True, dims=3, n=600,
            executors=3, algorithm=algorithm,
        )
        counts = out.count()
        base = build_cell_df(
            spark, dataset="store_sales", complete=True, dims=3, n=600,
            executors=3, algorithm="distributed_complete",
        ).count()
        assert counts == base

    def test_build_cell_df_incomplete_reference_is_superset(self, spark):
        # The benchmark reference is the paper's literal Listing-4
        # rewrite (SQL three-valued semantics): on incomplete data it
        # keeps every NULL-bearing tuple, i.e. a superset of the
        # null-aware skyline the specialized algorithm computes.
        ref = build_cell_df(
            spark, dataset="airbnb", complete=False, dims=6, n=500,
            executors=2, algorithm="reference",
        ).count()
        spec_cnt = build_cell_df(
            spark, dataset="airbnb", complete=False, dims=6, n=500,
            executors=2, algorithm="distributed_incomplete",
        ).count()
        assert ref >= spec_cnt > 0

    def test_incomplete_reference_renders_three_valued_listing4(self, spark, monkeypatch):
        # The reference cell is the paper's literal NOT EXISTS text: no
        # IS NULL disjuncts, even on the incomplete table.
        rendered = []
        listing4 = physical.listing4_sql

        def spy(*args, **kwargs):
            rendered.append(listing4(*args, **kwargs))
            return rendered[-1]

        monkeypatch.setattr(physical, "listing4_sql", spy)
        build_cell_df(spark, dataset="airbnb", complete=False, dims=2, n=500,
                      executors=2, algorithm="reference")
        assert rendered == [
            "SELECT * FROM {df} AS o WHERE NOT EXISTS (SELECT 1 FROM {df} AS i WHERE "
            "(i.price <= o.price) AND (i.accommodates >= o.accommodates) AND "
            "((i.price < o.price) OR (i.accommodates > o.accommodates)))"
        ]

    def test_run_cell_returns_time(self, spark):
        secs = run_cell(
            spark, dataset="airbnb", complete=True, dims=2, n=500,
            executors=2, algorithm="distributed_complete", timeout_s=60,
        )
        assert secs is not None and secs > 0
        clear_cache()

    def test_default_timeout_matches_design(self):
        assert TIMEOUT_SECONDS == 120.0


class TestReport:
    def _fake_results(self, td):
        return {
            (v, a): (None if (i + j) % 7 == 6 else 1.0 + i + j)
            for i, v in enumerate(td.sweep_values)
            for j, a in enumerate(td.algorithms)
        }

    def test_render_contains_both_views(self):
        td = table_def(3)
        md = render_section(td, self._fake_results(td))
        assert "Ours (% of our reference)" in md and "Absolute seconds (ours)" in md
        assert "100.00%" in md

    def test_render_timeout_marker(self):
        td = table_def(3)
        results = {(v, a): None for v in td.sweep_values for a in td.algorithms}
        md = render_section(td, results)
        assert "t.o." in md and "n.a." in md

    def test_json_round_trip(self):
        import json

        td = table_def(4)
        payload = json.loads(results_to_json(td, self._fake_results(td)))
        assert payload["table"] == 4
        assert len(payload["cells"]) == len(list(td.cells()))

    def test_load_results_reads_what_was_written(self, tmp_path):
        td = table_def(4)
        results = self._fake_results(td)
        assert load_results(str(tmp_path), 4) is None
        with open(results_path(str(tmp_path), 4), "w") as f:
            f.write(results_to_json(td, results))
        assert load_results(str(tmp_path), 4) == results

    def test_render_prints_verdict_rows(self):
        td = table_def(9)
        results = {(v, a): 2.0 if a == "reference" else 1.0
                   for v in td.sweep_values for a in td.algorithms}
        md = render_section(td, results)
        for claim in CLAIMS:
            assert f"| claim: {claim} | holds | holds | holds | holds | holds |" in md

    def test_render_without_results_names_the_job(self):
        md = render_section(table_def(4), None)
        assert "no reproduction results found" in md
        assert "`python jobs/run_table.py --table 4`" in md
        assert "Ours" not in md


class TestVerdicts:
    """``verdicts`` on one cell of a synthetic results dict."""

    @staticmethod
    def _judge(table, sweep_value, **seconds):
        td = table_def(table)
        at = td.sweep_values.index(sweep_value)
        results = {(sweep_value, a): seconds.get(a) for a in td.algorithms}
        return {claim: cells[at] for claim, cells in verdicts(td, results).items()}

    @pytest.mark.parametrize("seconds, expected", [
        ({"reference": 2.0, "non_distributed_complete": 2.0,
          "distributed_complete": 2.0, "distributed_incomplete": 3.0}, ("fails", "holds")),
        ({"non_distributed_complete": 5.0, "distributed_complete": 4.0,
          "distributed_incomplete": 6.0}, ("holds", "holds")),
        ({"reference": 3.0, "non_distributed_complete": 2.0}, ("holds", "fails")),
        ({"reference": 3.0, "distributed_complete": 2.0}, ("holds", "holds")),
        ({"reference": 3.0, "non_distributed_complete": 1.0,
          "distributed_complete": 2.0}, ("holds", "fails")),
        ({"reference": 3.0}, ("fails", "n.a.")),
        ({}, ("n.a.", "n.a.")),
    ], ids=["tie", "reference-timed-out", "distributed-timed-out",
            "others-timed-out", "distributed-behind", "specialized-timed-out",
            "all-timed-out"])
    def test_complete_cell(self, seconds, expected):
        # Table 9 at 1 executor: complete data, 6 dimensions.
        assert self._judge(9, 1, **seconds) == dict(zip(CLAIMS, expected))

    def test_one_dimension_cell_has_no_distributed_verdict(self):
        # Table 3 at 1 dimension: every specialized algorithm runs one plan.
        assert self._judge(3, 1, reference=5.0, non_distributed_complete=1.0,
                           distributed_complete=3.0, distributed_incomplete=2.0) == {
            CLAIMS[0]: "holds", CLAIMS[1]: "n.a."}

    def test_incomplete_table_has_one_claim(self):
        assert self._judge(4, 2, reference=1.39, distributed_incomplete=1.97) == {
            CLAIMS[0]: "fails"}

    @pytest.mark.parametrize("reference", [116.5, None])
    def test_reference_near_timeout_same_verdict(self, reference):
        # The bench Table 12 reference at 1 executor runs close to the
        # timeout: finished or not, the verdict is the same.
        assert self._judge(12, 1, reference=reference, distributed_incomplete=40.0) == {
            CLAIMS[0]: "holds"}
