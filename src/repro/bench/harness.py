"""Timed execution of one experiment cell (paper §6.1/§6.4).

A *cell* is one (dataset variant, #dimensions, #tuples, #executors,
algorithm) combination; Tables 3–12 are grids of cells.  Differences
from the paper's testbed, per DESIGN.md:

* "executors" → partition count of the cell's input, for every
  algorithm alike, on one ``local[*]`` session: the input is cached
  with exactly that many partitions, the ``distributed_complete``
  local stage reads them in place, the reference's anti join streams
  over them, and ``parallelism=executors`` sizes the null-bitmap
  shuffle of ``distributed_incomplete``;
* timeout 3600 s → 120 s (data is scaled 1/4–1/5), enforced by
  cancelling the Spark job group — a timed-out cell reports ``None``
  and is rendered "t.o." exactly like the paper;
* runtime = wall-clock of writing the result to the ``noop`` sink
  (materializes every row, no collect overhead).

Input DataFrames are generated, repartitioned, persisted and
materialized *before* timing, so cells measure query execution, not
data generation.  One input is held at a time: the cells of a table
run grouped by input, and a new input unpersists the previous one.
"""
from __future__ import annotations

import threading
import time
import uuid
from typing import Optional

from pyspark.sql import DataFrame, SparkSession

from ..api import skyline
from ..data import airbnb, airbnb_dims, store_sales, store_sales_dims

__all__ = ["TIMEOUT_SECONDS", "timed_action", "run_cell", "input_df", "clear_cache"]

#: Paper: 3600 s at full scale; ours: 120 s at 1/4–1/5 scale.
TIMEOUT_SECONDS = 120.0

_CACHE: dict[tuple, DataFrame] = {}


def input_df(spark: SparkSession, dataset: str, *, n: int, complete: bool,
             executors: int) -> DataFrame:
    """The cell's input table, persisted and materialized in ``executors``
    partitions; building a different one unpersists the previous one."""
    key = (dataset, n, complete, executors)
    if key not in _CACHE:
        if dataset == "airbnb":
            df = airbnb(spark, n=n, complete=complete)
        elif dataset == "store_sales":
            df = store_sales(spark, n=n, complete=complete)
        else:
            raise ValueError(f"unknown dataset {dataset!r}")
        clear_cache()
        df = df.repartition(executors).persist()
        df.count()  # materialize outside the timed region
        _CACHE[key] = df
    return _CACHE[key]


def clear_cache() -> None:
    for df in _CACHE.values():
        df.unpersist()
    _CACHE.clear()


def timed_action(spark: SparkSession, df: DataFrame,
                 timeout_s: float = TIMEOUT_SECONDS) -> Optional[float]:
    """Wall-clock seconds of a noop-sink write; None on timeout.

    The action runs in a worker thread under a dedicated job group;
    on timeout the group is cancelled (``interruptOnCancel``), which
    is the local-mode equivalent of the paper killing the YARN job.
    See :func:`_cancel` for when a timed-out call returns.
    """
    sc = spark.sparkContext
    group = f"sky-bench-{uuid.uuid4().hex[:8]}"
    result: dict = {}

    def action() -> None:
        sc.setJobGroup(group, "skyline benchmark cell", interruptOnCancel=True)
        t0 = time.perf_counter()
        try:
            df.write.format("noop").mode("overwrite").save()
            result["t"] = time.perf_counter() - t0
        except Exception as exc:  # cancelled or failed
            result["err"] = exc

    th = threading.Thread(target=action, daemon=True)
    th.start()
    th.join(timeout_s)
    if th.is_alive():
        _cancel(sc, group, th)
        return None
    if "err" in result:
        raise result["err"]
    return result["t"]


def _cancel(sc, group: str, action: threading.Thread) -> None:
    """Cancel ``group`` until its action has ended and no stage of the
    group has an active task, or 30 s have passed.

    ``cancelJobGroup`` reaches only the jobs running at the time, and a
    query can start more after it: AQE submits the broadcast join of
    the reference cell as a map-stage job once its broadcast is built.
    So every job of the group that is seen running is cancelled.  A
    cancelled job's tasks still hold their cores until they notice the
    kill, and the next cell must not be timed on cores shared with them.
    """
    tracker = sc.statusTracker()
    cancelled: set = set()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        jobs = [j for j in map(tracker.getJobInfo, tracker.getJobIdsForGroup(group)) if j]
        running = {j.jobId for j in jobs if j.status == "RUNNING"}
        if running - cancelled:
            sc.cancelJobGroup(group)
            cancelled |= running
        stages = (tracker.getStageInfo(s) for j in jobs for s in j.stageIds)
        if not action.is_alive() and not any(s and s.numActiveTasks for s in stages):
            return
        time.sleep(0.05)


def build_cell_df(spark: SparkSession, *, dataset: str, complete: bool,
                  dims: int, n: int, executors: int, algorithm: str) -> DataFrame:
    """Construct the (lazy) result DataFrame for one cell.

    The reference always says COMPLETE: it is then the paper's literal
    Listing-4 rewrite under SQL three-valued semantics, which on
    incomplete data is the formulation a user would actually write,
    and the one whose ~n² cost the paper's reference rows exhibit.
    """
    df = input_df(spark, dataset, n=n, complete=complete, executors=executors)
    dim_list = airbnb_dims(dims) if dataset == "airbnb" else store_sales_dims(dims)
    return skyline(df, *dim_list, complete=complete or algorithm == "reference",
                   algorithm=algorithm, parallelism=executors)


def run_cell(spark: SparkSession, *, dataset: str, complete: bool, dims: int,
             n: int, executors: int, algorithm: str,
             timeout_s: float = TIMEOUT_SECONDS) -> Optional[float]:
    """Time one cell; None = timeout (rendered "t.o.")."""
    out = build_cell_df(spark, dataset=dataset, complete=complete, dims=dims,
                        n=n, executors=executors, algorithm=algorithm)
    return timed_action(spark, out, timeout_s)
