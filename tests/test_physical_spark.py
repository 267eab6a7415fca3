"""Integration tests: the four physical algorithms on Spark (repro.core.physical).

Every result-checking test diffs against a definitional oracle (and,
for complete data, the DuckDB-executed Listing-4 rewrite) — §5.9's
"intensively tested ... verified against the equivalent plain SQL".
"""
import datetime
import fnmatch
import re
import threading
import time
import uuid
import zipfile
from decimal import Decimal

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, LongType

from repro.api import skyline
from repro.core import physical
from repro.core.physical import ALGORITHMS, compute_skyline, listing4_sql
from repro.core.spec import SkylineSpec, sdiff, smax, smin, spec_of
from repro.oracle import assert_equivalent
from repro.sqlext import sky_sql

from tests.helpers import assert_skyline_equals_oracle, executed_plan, skyline_oracle_pandas

SPECIALIZED = [a for a in ALGORITHMS if a != "reference"]


def make_pdf(seed: int, n: int = 300, *, ties: bool = True, null_rate: float = 0.0) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    if ties:
        a = rng.integers(0, 6, n).astype(float)
        b = rng.integers(0, 6, n).astype(float)
        c = rng.integers(0, 4, n).astype(float)
    else:
        a, b, c = rng.random(n) * 10, rng.random(n) * 10, rng.random(n) * 10
    pdf = pd.DataFrame({"id": np.arange(n), "a": a, "b": b, "c": c})
    if null_rate:
        for col in ("a", "b", "c"):
            pdf.loc[rng.random(n) < null_rate, col] = np.nan
    return pdf


class TestCompleteAlgorithms:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("ties", [True, False])
    def test_matches_definitional_oracle(self, spark, algorithm, ties):
        pdf = make_pdf(1, ties=ties)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), smin("c"), complete=True)
        out = compute_skyline(df, spec, algorithm=algorithm)
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=False)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_duckdb_reference(self, spark, algorithm):
        pdf = make_pdf(2)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), complete=True)
        out = compute_skyline(df, spec, algorithm=algorithm)
        sql = listing4_sql("t", spec, ["a", "b"], null_aware=False)
        assert_equivalent(out, sql, t=pdf)

    @pytest.mark.parametrize("algorithm", SPECIALIZED)
    @pytest.mark.parametrize("parallelism", [1, 3, 8])
    def test_parallelism_does_not_change_result(self, spark, algorithm, parallelism):
        pdf = make_pdf(3)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), complete=True)
        out = compute_skyline(df, spec, algorithm=algorithm, parallelism=parallelism)
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=False)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_dimension(self, spark, algorithm):
        pdf = make_pdf(4)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), complete=True)
        out = compute_skyline(df, spec, algorithm=algorithm)
        got = out.toPandas()
        assert set(got["a"]) == {pdf["a"].min()}
        assert len(got) == (pdf["a"] == pdf["a"].min()).sum()

    def test_empty_input(self, spark):
        df = spark.createDataFrame(make_pdf(5)).where("id < 0")
        spec = spec_of(smin("a"), smax("b"), complete=True)
        for algorithm in ALGORITHMS:
            assert compute_skyline(df, spec, algorithm=algorithm).count() == 0

    def test_single_row(self, spark):
        pdf = make_pdf(6).head(1)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), complete=True)
        for algorithm in ALGORITHMS:
            assert compute_skyline(df, spec, algorithm=algorithm).count() == 1

    def test_all_duplicates_kept_without_distinct(self, spark):
        pdf = pd.DataFrame({"id": range(10), "a": [1.0] * 10})
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), complete=True)
        for algorithm in ALGORITHMS:
            assert compute_skyline(df, spec, algorithm=algorithm).count() == 10

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_distinct_keeps_one_per_value_tuple(self, spark, algorithm):
        pdf = pd.DataFrame({"id": range(10), "a": [1.0] * 10})
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), distinct=True, complete=True)
        assert compute_skyline(df, spec, algorithm=algorithm).count() == 1

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_diff_dimension(self, spark, algorithm):
        pdf = make_pdf(7)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), sdiff("c"), complete=True)
        out = compute_skyline(df, spec, algorithm=algorithm)
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=False)

    def test_expression_dimensions(self, spark):
        pdf = make_pdf(8)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a + c"), smax("b * 2"), complete=True)
        out = compute_skyline(df, spec, algorithm="distributed_complete").toPandas()
        work = pdf.assign(**{"a + c": pdf.a + pdf.c, "b * 2": pdf.b * 2})
        exp = skyline_oracle_pandas(
            work, spec_of(smin("a + c"), smax("b * 2")), incomplete=False
        )
        assert sorted(out["id"]) == sorted(exp["id"])

    def test_internal_columns_dropped(self, spark):
        df = spark.createDataFrame(make_pdf(9))
        out = compute_skyline(df, spec_of(smin("a"), complete=True),
                              algorithm="distributed_complete")
        assert out.columns == df.columns

    def test_column_collision_rejected(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"__sky_d0": [1.0]}))
        with pytest.raises(ValueError, match="collides"):
            compute_skyline(df, spec_of(smin("__sky_d0"), complete=True))

    def test_unknown_algorithm_rejected(self, spark):
        df = spark.createDataFrame(make_pdf(10))
        with pytest.raises(ValueError, match="unknown algorithm"):
            compute_skyline(df, spec_of(smin("a")), algorithm="bogus")

    @pytest.mark.parametrize("parallelism", [2.5, 0, -1, True])
    def test_bad_parallelism_rejected(self, spark, parallelism):
        df = spark.createDataFrame(make_pdf(10))
        with pytest.raises(ValueError, match="parallelism must be a positive int"):
            compute_skyline(df, spec_of(smin("a"), smax("b")), parallelism=parallelism)

    @pytest.mark.parametrize("algorithm", SPECIALIZED)
    def test_payload_types_pass_through_empty_partitions(self, spark, algorithm):
        # Three rows over eight local partitions: most partitions are
        # empty, so their local stages emit nothing.  Every payload type
        # must come back from both Arrow stages exactly as it went in.
        schema = ("id INT, a DOUBLE, b DOUBLE, s STRING, dec DECIMAL(12,3), "
                  "d DATE, ts TIMESTAMP")
        rows = [
            (0, 1.0, 1.0, "x", Decimal("1.250"), datetime.date(2024, 1, 1),
             datetime.datetime(2024, 1, 1, 12, 0, 0, 123456)),
            (1, 2.0, 2.0, "y", Decimal("999999999.999"), datetime.date(1900, 2, 28),
             datetime.datetime(2024, 1, 2)),
            (2, 0.5, 3.0, None, Decimal("-7.001"), None,
             datetime.datetime(1969, 12, 31, 23, 59, 59, 999999)),
        ]
        df = spark.createDataFrame(rows, schema)
        out = compute_skyline(df, spec_of(smin("a"), smin("b")), algorithm=algorithm,
                              parallelism=8)
        assert out.schema == df.schema
        assert sorted(tuple(r) for r in out.collect()) == [rows[0], rows[2]]


class TestIncompleteAlgorithm:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("null_rate", [0.15, 0.4])
    def test_matches_null_aware_oracle(self, spark, seed, null_rate):
        pdf = make_pdf(20 + seed, null_rate=null_rate)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), smin("c"))
        out = compute_skyline(df, spec, algorithm="distributed_incomplete", parallelism=4)
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_reference_null_aware_matches(self, spark, seed):
        pdf = make_pdf(30 + seed, null_rate=0.25)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), smin("c"))
        out = compute_skyline(df, spec, algorithm="reference")
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=True)

    def test_paper_appendix_a_counterexample_end_to_end(self, spark):
        # a=(1,*,10), b=(3,2,*), c=(*,5,3): cyclic dominance -> empty skyline.
        pdf = pd.DataFrame(
            {"x": [1.0, 3.0, np.nan], "y": [np.nan, 2.0, 5.0], "z": [10.0, np.nan, 3.0]}
        )
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("x"), smin("y"), smin("z"))
        for algorithm in ("distributed_incomplete", "reference"):
            assert compute_skyline(df, spec, algorithm=algorithm).count() == 0

    def test_incomplete_on_complete_data_matches_complete(self, spark):
        pdf = make_pdf(40)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"))
        a = compute_skyline(df, spec, algorithm="distributed_incomplete").toPandas()
        b = compute_skyline(df, SkylineSpec(spec.dimensions, complete=True),
                            algorithm="distributed_complete").toPandas()
        assert sorted(a["id"]) == sorted(b["id"])

    def test_diff_with_nulls(self, spark):
        pdf = make_pdf(41, null_rate=0.2)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), sdiff("c"))
        out = compute_skyline(df, spec, algorithm="distributed_incomplete")
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=True)

    def test_complete_algorithm_rejects_actual_nulls(self, spark):
        # COMPLETE on data that does contain NULLs is a user error; we
        # surface it instead of silently computing garbage.
        pdf = make_pdf(42, null_rate=0.3)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"), complete=True)
        with pytest.raises(Exception):
            compute_skyline(df, spec, algorithm="distributed_complete").count()


@pytest.fixture
def chosen(monkeypatch):
    """Every algorithm Listing 8 picks while the test builds skylines."""
    picks = []
    select = physical.select_algorithm

    def spy(*args):
        picks.append(select(*args))
        return picks[-1]

    monkeypatch.setattr(physical, "select_algorithm", spy)
    return picks


@pytest.fixture(scope="module")
def ranged(spark):
    """Non-nullable columns only, also registered as the view ``ranged``."""
    df = spark.range(1000).selectExpr("id", "id * 2 AS v", "1000 - id AS w")
    df.createOrReplaceTempView("ranged")
    yield df
    spark.catalog.dropTempView("ranged")


class TestAlgorithmSelection:
    """Listing 8: COMPLETE keyword or non-nullable dims -> complete path."""

    def test_complete_keyword_selects_complete(self, spark, chosen):
        df = spark.createDataFrame(make_pdf(50))  # nullable schema
        compute_skyline(df, spec_of(smin("a"), complete=True))
        assert chosen == ["distributed_complete"]

    def test_nullable_schema_selects_incomplete(self, spark, chosen):
        df = spark.createDataFrame(make_pdf(51))
        compute_skyline(df, spec_of(smin("a")))
        assert chosen == ["distributed_incomplete"]

    def test_non_nullable_schema_selects_complete(self, ranged, chosen):
        assert not ranged.schema["v"].nullable
        compute_skyline(ranged, spec_of(smin("v")))
        assert chosen == ["distributed_complete"]

    def test_expression_dim_conservatively_incomplete(self, ranged, chosen):
        # Nullability is Catalyst's, derived per expression: it calls
        # ``v / 2`` nullable although ``v`` is not, and Listing 8 follows.
        compute_skyline(ranged, spec_of(smin("v / 2")))
        assert chosen == ["distributed_incomplete"]

    @pytest.mark.parametrize("dim", ["v + 1", "V"])
    def test_sql_and_dataframe_api_agree(self, spark, ranged, chosen, dim):
        # A computed or differently-cased dimension over non-nullable
        # columns is non-nullable, whichever entry point builds the skyline.
        api = skyline(ranged, smin(dim), smax("w"))
        sql = sky_sql(spark, f"SELECT * FROM ranged SKYLINE OF {dim} MIN, w MAX")
        assert chosen == ["distributed_complete"] * 2
        assert sorted(api.toPandas()["id"]) == sorted(sql.toPandas()["id"])

    def test_nullable_expression_selects_incomplete(self, spark, ranged, chosen):
        skyline(ranged, smin("nullif(v, 0)"), smax("w"))
        sky_sql(spark, "SELECT * FROM ranged SKYLINE OF nullif(v, 0) MIN, w MAX")
        assert chosen == ["distributed_incomplete"] * 2

    def test_selection_used_by_compute(self, spark):
        # No override: nullable input with NULLs must still be correct
        # because the incomplete algorithm is auto-selected.
        pdf = make_pdf(52, null_rate=0.3)
        df = spark.createDataFrame(pdf)
        spec = spec_of(smin("a"), smax("b"))
        out = compute_skyline(df, spec)
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=True)


def four_partition_df(spark, n: int = 300):
    """``n`` rows with tied double dims ``a``, ``b``, ``c`` in 4 partitions,
    with no shuffle in their plan."""
    return spark.range(0, n, 1, 4).selectExpr(
        "id", "double(id * 7 % 6) AS a", "double(id * 11 % 6) AS b", "double(id * 13 % 4) AS c")


@pytest.fixture(scope="module")
def cached4(spark):
    """``four_partition_df`` persisted with its cache built, and its rows."""
    df = four_partition_df(spark).persist()
    df.count()
    yield df, df.toPandas()
    df.unpersist()


class TestLocalStageShuffle:
    """Only the incomplete local stage shuffles its input (§5.6, §5.7)."""

    SPEC = spec_of(smin("a"), smax("b"), smin("c"), complete=True)

    def test_built_cache_with_parallelism_partitions_not_reshuffled(self, cached4):
        df, pdf = cached4
        out = compute_skyline(df, self.SPEC, algorithm="distributed_complete", parallelism=4)
        plan = executed_plan(out)
        assert "RoundRobinPartitioning(4)" not in plan
        assert plan.count("Exchange") == 1  # only the global stage's repartition(1)
        assert_skyline_equals_oracle(out, pdf, self.SPEC, incomplete=False)

    @pytest.mark.parametrize("cached", [False, True], ids=["unpersisted", "built_cache"])
    def test_complete_local_stage_reads_child_partitions(self, spark, cached4, cached):
        # Unpersisted, not ``cached4``'s plan: Spark would read an equal plan
        # from its cache.
        df = cached4[0] if cached else four_partition_df(spark, n=301)
        out = compute_skyline(df, self.SPEC, algorithm="distributed_complete", parallelism=3)
        plan = executed_plan(out)
        # One shuffle, the global stage's repartition(1): the local stage is a
        # narrow step over the child's 4 partitions.
        assert df.rdd.getNumPartitions() == 4
        assert "RoundRobinPartitioning" not in plan
        assert plan.count("Exchange") == 1
        assert_skyline_equals_oracle(out, df.toPandas(), self.SPEC, incomplete=False)

    def test_repartitioned_child_keeps_its_shuffle(self, cached4):
        df, pdf = cached4
        out = compute_skyline(df.repartition(3), self.SPEC, algorithm="distributed_complete",
                              parallelism=3)
        plan = executed_plan(out)
        assert "RoundRobinPartitioning(3)" in plan
        assert plan.count("Exchange") == 2
        assert_skyline_equals_oracle(out, pdf, self.SPEC, incomplete=False)

    def test_incomplete_shuffles_on_null_bitmap(self, spark):
        pdf = make_pdf(70, null_rate=0.2)
        spec = spec_of(smin("a"), smax("b"), smin("c"))
        out = compute_skyline(spark.createDataFrame(pdf), spec,
                              algorithm="distributed_incomplete", parallelism=3)
        assert re.search(r"hashpartitioning\(isnull\(a#\d+\), isnull\(b#\d+\), "
                         r"isnull\(c#\d+\), 3\)", executed_plan(out))
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=True)

    def test_frame_planned_before_persist_not_reshuffled(self, spark):
        df = four_partition_df(spark, n=302)
        assert df.rdd.getNumPartitions() == 4  # plans ``df`` before its cache exists
        df.persist()
        try:
            df.count()  # builds the cache
            pdf = df.toPandas()
            out = compute_skyline(df, self.SPEC, algorithm="distributed_complete", parallelism=4)
            plan = executed_plan(out)
            assert "InMemoryTableScan" in plan and plan.count("Exchange") == 1
            assert_skyline_equals_oracle(out, pdf, self.SPEC, incomplete=False)
        finally:
            df.unpersist()

    def test_reference_keeps_child_cached(self, cached4):
        # The reference registers its input as a temp view for one
        # statement; dropping that view must not unpersist the input.
        df, pdf = cached4
        out = compute_skyline(df, self.SPEC, algorithm="reference")
        assert df.storageLevel.useMemory
        assert "InMemoryTableScan" in executed_plan(out)
        assert_skyline_equals_oracle(out, pdf, self.SPEC, incomplete=False)

    def test_building_starts_no_job(self, spark):
        # A persisted aggregate whose cache is not built: asking it for its
        # partitions through ``df.rdd`` would run the aggregation.
        agg = (spark.range(0, 1000, 1, 4)
               .groupBy((F.col("id") % 37).alias("k"))
               .agg(F.max(F.col("id") % 11).cast("double").alias("hi"),
                    F.count("*").cast("double").alias("n"))
               .persist())
        sc = spark.sparkContext
        plan_group, run_group = (f"sky-{uuid.uuid4().hex[:8]}" for _ in range(2))
        result = {}

        def build_then_run():
            sc.setJobGroup(plan_group, "build a skyline")
            out = skyline(agg, smin("hi"), smax("n"), complete=True, parallelism=4)
            sc.setJobGroup(run_group, "run it")
            result["rows"] = out.count()

        try:
            th = threading.Thread(target=build_then_run)
            th.start()
            th.join(120)
            # Job events reach the status tracker asynchronously but in order:
            # once the run's jobs show, any job started while building would too.
            deadline = time.monotonic() + 30
            while not sc.statusTracker().getJobIdsForGroup(run_group):
                assert time.monotonic() < deadline, "the run's jobs never showed"
                time.sleep(0.05)
            assert result["rows"] > 0
            assert list(sc.statusTracker().getJobIdsForGroup(plan_group)) == []
        finally:
            agg.unpersist()


class TestInPlaceDimensions:
    """A dimension naming one column is read in place, not copied."""

    @pytest.mark.parametrize("algorithm", SPECIALIZED)
    def test_double_columns_add_no_internal_column(self, spark, algorithm):
        pdf = make_pdf(60)
        spec = spec_of(smin("a"), smax("b"), smin("c"), complete=True)
        out = compute_skyline(spark.createDataFrame(pdf), spec, algorithm=algorithm)
        assert "__sky_d" not in executed_plan(out)
        assert_skyline_equals_oracle(out, pdf, spec, incomplete=False)

    @pytest.mark.parametrize("algorithm", SPECIALIZED)
    def test_only_non_double_dims_appended(self, spark, algorithm):
        pdf = make_pdf(61).assign(k=lambda p: p["c"].astype("int64"))
        spec = spec_of(smin("a"), smax("k"), smin("b + c"), complete=True)
        out = compute_skyline(spark.createDataFrame(pdf), spec, algorithm=algorithm)
        plan = executed_plan(out)
        # The bigint column ``k`` is read in place too; only ``b + c`` is appended.
        assert "__sky_d0" not in plan and "__sky_d1" not in plan
        assert "__sky_d2" in plan
        assert out.columns == list(pdf.columns)
        expected = skyline_oracle_pandas(pdf.assign(**{"b + c": pdf.b + pdf.c}), spec,
                                         incomplete=False)
        assert sorted(out.toPandas()["id"]) == sorted(expected["id"])

    def test_appended_dims_keep_spark_type_in_one_projection(self, spark):
        df = spark.createDataFrame(make_pdf(66).assign(k=lambda p: p["c"].astype("int64")))
        spec = spec_of(smin("k + 1"), smax("a"), smin("b * 2"))
        work, cols, appended, _ = physical._materialize_dims(df, spec)
        assert cols == ["__sky_d0", "a", "__sky_d2"] and appended == ["__sky_d0", "__sky_d2"]
        assert work.schema["__sky_d0"].dataType == LongType()
        assert work.schema["__sky_d2"].dataType == DoubleType()
        analyzed = work._jdf.queryExecution().analyzed().toString()
        assert analyzed.count("Project") == 1
        assert physical._materialize_dims(df, spec_of(smin("k"), smax("a")))[0] is df

    @pytest.mark.parametrize("algorithm", SPECIALIZED)
    def test_one_column_as_min_and_max(self, spark, algorithm):
        # The spec rejects ``smin("a"), smax("a")``; ``A`` names the same
        # column in another case, so it is appended and ``a`` read in place.
        pdf = make_pdf(62)
        spec = spec_of(smin("a"), smax("A"), complete=True)
        out = compute_skyline(spark.createDataFrame(pdf), spec, algorithm=algorithm)
        assert "__sky_d0" not in executed_plan(out) and "__sky_d1" in executed_plan(out)
        expected = skyline_oracle_pandas(pdf.assign(A=pdf.a), spec, incomplete=False)
        assert len(expected) == len(pdf)  # no row beats another on both ends
        assert sorted(out.toPandas()["id"]) == sorted(expected["id"])

    @pytest.mark.parametrize("algorithm", SPECIALIZED)
    def test_nan_values_behave_as_cast_path(self, spark, algorithm):
        # Real NaN (not NULL) in a double column: read in place it must act
        # exactly as the appended ``cast(x AS double)`` copy of it does.
        df = spark.createDataFrame(make_pdf(63)).selectExpr(
            "id", "IF(id % 7 = 0, double('NaN'), a) AS x", "b")

        def run(dim):
            spec = spec_of(smin(dim), smax("b"))
            try:
                return sorted(compute_skyline(df, spec, algorithm=algorithm)
                              .toPandas()["id"])
            except Exception as exc:  # the complete kernels reject NaN
                return type(exc)

        got = run("x")
        assert got == run("cast(x AS double)")
        if algorithm == "distributed_incomplete":  # NaN counts as NULL
            expected = skyline_oracle_pandas(df.toPandas(), spec_of(smin("x"), smax("b")),
                                             incomplete=True)
            assert got == sorted(expected["id"])
        else:
            assert issubclass(got, Exception)

    def test_literal_is_not_read_as_column(self, spark):
        # ``true`` is the boolean literal in Spark SQL, even over a column
        # named ``true``: a constant dimension, so only ``a`` decides.
        pdf = make_pdf(65).rename(columns={"b": "true"})
        out = compute_skyline(spark.createDataFrame(pdf), spec_of(smin("true"), smin("a")),
                              algorithm="distributed_complete")
        assert sorted(out.toPandas()["id"]) == sorted(pdf["id"][pdf["a"] == pdf["a"].min()])

    @pytest.mark.parametrize("algorithm", SPECIALIZED)
    def test_distinct_over_in_place_dims(self, spark, algorithm):
        pdf = make_pdf(64)
        spec = spec_of(smin("a"), smax("b"), distinct=True, complete=True)
        out = compute_skyline(spark.createDataFrame(pdf), spec, algorithm=algorithm)
        assert "__sky_d" not in executed_plan(out)
        got = out.toPandas()
        expected = skyline_oracle_pandas(pdf, spec, incomplete=False)
        assert len(got) == len(got[["a", "b"]].drop_duplicates())
        assert (set(map(tuple, got[["a", "b"]].to_numpy()))
                == set(map(tuple, expected[["a", "b"]].to_numpy())))


INSTALL_ARCHIVES = ("pyspark.zip", "py4j-*-src.zip", "spark-core_*.jar")


def test_skyline_stage_freezes_only_install_archives(spark, tmp_path):
    """After a skyline query, a reused worker keeps the Spark installation's
    zip importers frozen and every other one plain, and a zip added with
    ``addPyFile`` after that query is still imported."""
    n = spark.sparkContext.defaultParallelism
    compute_skyline(four_partition_df(spark), spec_of(smin("a"), smax("b")),
                    algorithm="distributed_complete", parallelism=n).collect()
    module = f"sky_added_{uuid.uuid4().hex[:8]}"
    with zipfile.ZipFile(tmp_path / f"{module}.zip", "w") as zf:
        zf.writestr(f"{module}.py", "VALUE = 42\n")
    spark.sparkContext.addPyFile(str(tmp_path / f"{module}.zip"))

    def probe(batches):
        import importlib
        import os
        import sys
        value = importlib.import_module(module).VALUE
        stage_ran = getattr(sys.modules.get("repro.core.physical"), "_spark_archives_frozen", False)
        rows = [{"stage_ran": stage_ran, "value": value, "kind": type(imp).__name__,
                 "archive": os.path.basename(imp.archive)}
                for imp in list(sys.path_importer_cache.values()) if hasattr(imp, "archive")]
        yield pa.RecordBatch.from_pylist(rows)

    schema = "stage_ran boolean, value long, kind string, archive string"
    got = spark.range(0, n, 1, n).mapInArrow(probe, schema).toPandas()
    assert (got["value"] == 42).all()
    assert f"{module}.zip" in set(got["archive"])
    got["install"] = got["archive"].map(
        lambda a: any(fnmatch.fnmatch(a, p) for p in INSTALL_ARCHIVES))
    reused = got[got["stage_ran"]]
    assert len(reused), "no probe task ran in a worker that had run a skyline stage"
    frozen = reused[reused["install"]]
    for pattern in INSTALL_ARCHIVES:
        assert fnmatch.filter(frozen["archive"], pattern), pattern
    assert (frozen["kind"] == "_FrozenZipImporter").all()
    assert (got["kind"][~got["install"] | ~got["stage_ran"]] == "zipimporter").all()
