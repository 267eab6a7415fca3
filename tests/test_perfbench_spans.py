"""The benchmark's trace hooks (``perfbench/layers.py``) reach every layer.

``layers.Spans`` times five program functions by swapping the module
attributes their callers look up (``engine.parse_skyline_query``,
``analyzer.resolve``, ``optimizer.optimize``, ``plan.execute``,
``physical.select_algorithm``), and counts a rewrite when ``optimize``
returns something other than its argument.  These tests pin that
contract from the program's side: renaming one of the five, or calling
it other than through its module, empties a span here.
"""
import importlib
from pathlib import Path

import pandas as pd
import pytest

from repro.api import skyline, smin
from repro.sqlext import sky_sql

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def points(spark):
    df = spark.createDataFrame(pd.DataFrame({
        "id": range(6),
        "a": [3.0, 1.0, 2.0, 1.0, 5.0, 4.0],
        "b": [1.0, 2.0, 2.0, 3.0, 0.0, 1.0],
    }))
    df.createOrReplaceTempView("spans_points")
    return df


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("layers").Spans()
    with spans.installed():
        yield spans


def test_one_dimension_skyline_is_rewritten(spans, points):
    with spans.measuring("q"):
        rows = skyline(points, smin("a")).collect()
    assert sorted(r.id for r in rows) == [1, 3]
    assert spans.seconds["q"]["optimize"] > 0
    assert spans.seconds["q"]["execute"] > 0
    assert spans.rewrites["q"] == 1


def test_two_dimension_sky_sql_spans_every_layer(spark, spans, points):
    with spans.measuring("q"):
        rows = sky_sql(spark, "SELECT * FROM spans_points SKYLINE OF a MIN, b MIN").collect()
    assert sorted(r.id for r in rows) == [0, 1, 4]
    for span in ("parse", "resolve", "optimize", "execute", "select_algorithm"):
        assert spans.seconds["q"][span] > 0, span
    assert spans.rewrites["q"] == 0
