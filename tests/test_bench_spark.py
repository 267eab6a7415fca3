"""Tests for the benchmark harness and the Table 3–12 grid definitions."""
import time

import pytest

from repro.bench.harness import (
    TIMEOUT_SECONDS, build_cell_df, clear_cache, input_df, run_cell, timed_action,
)
from repro.bench.report import render_table, results_to_json
from repro.bench.tables import (
    COMPLETE_ALGOS, INCOMPLETE_ALGOS, SS_SCALE, TABLES, table_def,
)
from repro.core import physical


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

    def test_dims_sweeps_are_1_to_6(self):
        for t in (3, 4, 5, 6):
            assert table_def(t).sweep_values == (1, 2, 3, 4, 5, 6)

    def test_executor_sweeps_match_paper(self):
        for t in (9, 10, 11, 12):
            assert table_def(t).sweep_values == (1, 2, 3, 5, 10)


class TestHarness:
    def test_input_df_cached_and_materialized(self, spark):
        clear_cache()
        a = input_df(spark, "airbnb", n=800, complete=True)
        b = input_df(spark, "airbnb", n=800, complete=True)
        assert a is b
        assert a.count() > 0
        clear_cache()

    def test_unknown_dataset_rejected(self, spark):
        with pytest.raises(ValueError):
            input_df(spark, "nope", n=10, complete=True)

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
            "(i.__sky_d0 <= o.__sky_d0) AND (i.__sky_d1 >= o.__sky_d1) AND "
            "((i.__sky_d0 < o.__sky_d0) OR (i.__sky_d1 > o.__sky_d1)))"
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
        md = render_table(td, self._fake_results(td))
        assert "Relative to reference" in md and "Absolute seconds" in md
        assert "100.00%" in md

    def test_render_timeout_marker(self):
        td = table_def(3)
        results = {(v, a): None for v in td.sweep_values for a in td.algorithms}
        md = render_table(td, results)
        assert "t.o." in md and "n.a." in md

    def test_json_round_trip(self):
        import json

        td = table_def(4)
        payload = json.loads(results_to_json(td, self._fake_results(td)))
        assert payload["table"] == 4
        assert len(payload["cells"]) == len(list(td.cells()))
