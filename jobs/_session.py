"""Shared SparkSession builder for spark-submit entrypoints.

Jobs are written as functions over a SparkSession; ``get_session`` is
the builder of conftest.py's ``spark`` fixture, so standalone
``python jobs/x.py`` / ``spark-submit jobs/x.py`` runs get the same
session configuration as the tests.
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
# Importing conftest also sets PYSPARK_SUBMIT_ARGS before pyspark loads.
from conftest import get_session  # noqa: E402,F401
