"""Per-stage numbers from Spark's (uncompressed) event log.

Every timed query runs under its own Spark job group, so a stage
belongs to the query whose group started the job that ran it.  A
stage's role is read from its shuffle records, not from its id:

* ``input``:  writes shuffle output and reads none (scan of the
  persisted input, shuffled into the skyline stages);
* ``local``:  reads and writes shuffle records (the local-skyline
  ``mapInPandas`` stage, shuffled into ``repartition(1)``);
* ``global``: reads shuffle records and writes none (the result stage).

Stages that do neither (a scan straight into the result) count toward
``stages`` only.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def _acc(stage_info: dict, name: str) -> float:
    for a in stage_info.get("Accumulables", []):
        if a.get("Name") == name:
            return float(a.get("Value") or 0)
    return 0.0


def _role(read: float, written: float) -> str | None:
    if written and not read:
        return "input"
    if read and written:
        return "local"
    if read:
        return "global"
    return None


def read_events(log_dir: Path) -> list[dict]:
    """All events of the one application whose log is under ``log_dir``."""
    files = sorted(p for p in log_dir.rglob("*") if p.is_file()
                   and not p.name.startswith((".", "appstatus")))
    events = []
    for path in files:
        with path.open() as fh:
            events.extend(json.loads(line) for line in fh if line.strip())
    return events


def query_stages(events: list[dict]) -> dict[str, dict]:
    """Per job group: stage count, per-role figures, shuffle bytes and GC time.

    Times are seconds.  ``<role>_python_s`` is the summed "time to run
    Python workers" of the role's tasks; ``local_task_max_s`` and
    ``local_task_skew`` (max ÷ median) use the tasks' executor run time.
    """
    group_of_stage: dict[int, str] = {}
    for e in events:
        if e["Event"] == "SparkListenerJobStart":
            group = (e.get("Properties") or {}).get("spark.jobGroup.id")
            if group:
                for sid in e.get("Stage IDs", []):
                    group_of_stage[sid] = group

    task_run_ms: dict[int, list[float]] = defaultdict(list)
    task_gc_ms: dict[int, float] = defaultdict(float)
    for e in events:
        if e["Event"] == "SparkListenerTaskEnd" and e.get("Task Metrics"):
            m = e["Task Metrics"]
            task_run_ms[e["Stage ID"]].append(float(m.get("Executor Run Time", 0)))
            task_gc_ms[e["Stage ID"]] += float(m.get("JVM GC Time", 0))

    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for e in events:
        if e["Event"] != "SparkListenerStageCompleted":
            continue
        info = e["Stage Info"]
        sid = info["Stage ID"]
        group = group_of_stage.get(sid)
        if group is None or "Completion Time" not in info:
            continue
        q = out[group]
        q["stages"] += 1
        written = _acc(info, "internal.metrics.shuffle.write.recordsWritten")
        read = _acc(info, "internal.metrics.shuffle.read.recordsRead")
        q["shuffle_bytes"] += _acc(info, "internal.metrics.shuffle.write.bytesWritten")
        q["gc_s"] += task_gc_ms[sid] / 1000
        role = _role(read, written)
        if role is None:
            continue
        q[f"{role}_s"] += (info["Completion Time"] - info["Submission Time"]) / 1000
        q[f"{role}_python_s"] += _acc(info, "time to run Python workers") / 1000
        q[f"{role}_rows_in"] += read
        q[f"{role}_rows_out"] += written if written else _acc(info, "number of output rows")
        if role == "local" and task_run_ms[sid]:
            runs = task_run_ms[sid]
            q["local_task_max_s"] = max(q["local_task_max_s"], max(runs) / 1000)
            med = statistics.median(runs)
            q["local_task_skew"] = max(q["local_task_skew"], max(runs) / med if med else 0.0)
    return {g: dict(v) for g, v in out.items()}


def python_start_s(events: list[dict]) -> float:
    """Total "time to start Python workers" over every stage of the application."""
    return sum(_acc(e["Stage Info"], "time to start Python workers")
               for e in events if e["Event"] == "SparkListenerStageCompleted") / 1000
