"""Benchmark-side spans around the program's public layer functions.

:class:`Spans` replaces module attributes with timing wrappers for the
duration of a ``with`` block and records, per query, the time spent in
each layer.  The program itself is not modified: the wrappers sit on
the names the callers look up (``engine.parse_skyline_query``,
``analyzer.resolve``, ``optimizer.optimize``, ``plan.execute``,
``physical.select_algorithm``).  A recursive function such as
``plan.execute`` is timed at its outermost call only.

The kernels run inside PySpark's Python workers, out of reach of these
wrappers; :func:`replay_kernels` times them in this process instead,
on the workload's own input split the way the stages split it.
"""
from __future__ import annotations

import importlib
import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name)
TARGETS = (
    ("repro.sqlext.engine", "parse_skyline_query", "parse"),
    ("repro.sqlext.analyzer", "resolve", "resolve"),
    ("repro.core.optimizer", "optimize", "optimize"),
    ("repro.core.plan", "execute", "execute"),
    ("repro.core.physical", "select_algorithm", "select_algorithm"),
)


class Spans:
    """Per-query layer times and optimizer rewrite counts."""

    def __init__(self) -> None:
        self.query: str | None = None
        self.seconds: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.rewrites: dict[str, int] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)

    def _wrap(self, fn, span: str):
        def timed(*args, **kwargs):
            if self.query is None or self._depth[span]:
                return fn(*args, **kwargs)
            self._depth[span] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[self.query][span] += time.perf_counter() - t0
                self._depth[span] -= 1
            if span == "optimize" and args and result is not args[0]:
                self.rewrites[self.query] += 1
            return result
        return timed

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, span in TARGETS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, span))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    @contextmanager
    def measuring(self, query: str):
        self.query = query
        try:
            yield
        finally:
            self.query = None


def _timed_peak(fn, *args):
    tracemalloc.reset_peak()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0, tracemalloc.get_traced_memory()[1] / 2**20


def replay_kernels(df, dims, complete: bool, parallelism: int | None,
                   out: dict[str, float]) -> None:
    """Time normalize + local + global kernels on ``df`` split as the stages see it.

    The local split is read back from Spark with the repartitioning
    ``physical`` applies for the algorithm (for complete data
    round-robin into ``parallelism`` partitions, or the input's own
    partitions when it is None; for incomplete data hash of the null
    bitmap); the global input is the concatenation of the local
    outputs.  Seconds are added to ``out`` summed over partitions;
    ``_peak_mb`` is the largest ``tracemalloc`` peak of one call, as one
    Python worker would see it.  Times include the overhead of
    ``tracemalloc``.
    """
    import pandas as pd
    from pyspark.sql import functions as F

    from repro.core import bnl
    from repro.core.dominance import normalize_matrix
    from repro.core.spec import SkylineSpec

    spec = SkylineSpec(tuple(dims), complete=complete)
    cols = [f"__sky_d{i}" for i in range(len(dims))]
    work = df.select(*[F.expr(d.expr).cast("double").alias(c) for d, c in zip(dims, cols)])
    keys = [] if complete else [F.isnull(F.col(c)) for c in cols]
    if parallelism is not None:
        work = work.repartition(parallelism, *keys)
    elif keys:
        work = work.repartition(*keys)
    parts = work.withColumn("__pid", F.spark_partition_id()).toPandas()

    kind = "complete" if complete else "incomplete"
    local_fn = bnl.bnl_skyline_mask if complete else bnl.incomplete_local_skyline_mask
    global_fn = bnl.bnl_skyline_mask if complete else bnl.incomplete_global_skyline_mask
    survivors = []
    tracemalloc.start()
    try:
        for _, pdf in parts.groupby("__pid", sort=True):
            pdf = pdf.drop(columns="__pid").reset_index(drop=True)
            (mm, diff), t, peak = _timed_peak(normalize_matrix, pdf, spec, cols)
            out["normalize_s"] += t
            out["normalize_peak_mb"] = max(out["normalize_peak_mb"], peak)
            mask, t, peak = _timed_peak(local_fn, mm, diff)
            out[f"{kind}_local_s"] += t
            out[f"{kind}_local_peak_mb"] = max(out[f"{kind}_local_peak_mb"], peak)
            survivors.append(pdf[mask])
        merged = pd.concat(survivors, ignore_index=True)
        (mm, diff), t, peak = _timed_peak(normalize_matrix, merged, spec, cols)
        out["normalize_s"] += t
        out["normalize_peak_mb"] = max(out["normalize_peak_mb"], peak)
        _, t, peak = _timed_peak(global_fn, mm, diff)
        out[f"{kind}_global_s"] += t
        out[f"{kind}_global_peak_mb"] = max(out[f"{kind}_global_peak_mb"], peak)
    finally:
        tracemalloc.stop()


def worker_peak_rss_mb(root_pid: int) -> float:
    """Largest ``VmHWM`` of the PySpark Python workers under ``root_pid``."""
    children = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children[ppid].append(int(entry))
    peak_kb = 0
    stack = list(children[root_pid])
    while stack:
        pid = stack.pop()
        stack.extend(children[pid])
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if b"pyspark" not in fh.read():
                    continue
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024
