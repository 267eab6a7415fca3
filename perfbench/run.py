"""Skyline benchmark: one closed-loop client against a local[4] Spark session.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ss_complete_6d --seed 1 --seconds 15 --trace 0

Workloads are described in ``workloads.py`` and ``perfbench/README.md``.
A run

1. computes the expected answers from the seed (NumPy or DuckDB, see
   ``oracle.py``) while the Spark JVM starts;
2. sets up three times in the same session: generate the inputs with
   ``repro.data``, persist and materialize them, run one small warm-up
   query.  ``setup_s`` is the median of the three;
3. runs whole cycles for ``WARMUP_S`` seconds (checked, not timed),
   then sends the workload's cycle of queries, one at a time, until
   ``--seconds`` have passed (a started cycle is finished).  A query is
   timed from the API call until its rows are collected, and every
   result is compared with the expected answer;
4. with ``--trace 1`` only: runs with Spark's event log on and the
   spans of ``layers.py`` on every other cycle, replays the kernels,
   and reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the JSON result.  Everything the
run writes stays under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ROUNDS = 3
# Whole cycles run (and checked, not timed) after set-up: the JVM's JIT
# and the workers' allocations need a few full-size queries before a
# query's time levels off.
WARMUP_S = 5.0
QUERY_TIMEOUT_S = 60.0
CORES = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_session(run_dir: Path, app: str, traced: bool):
    """A local[4] session configured like the repository's jobs/_session.py."""
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # The launcher JVM of spark-submit gets these; the driver JVM gets the
    # same through --driver-java-options.  Both then keep to ``tmp``.
    jvm_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]", "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1", "--conf spark.ui.enabled=false",
        f"--conf spark.local.dir={shlex.quote(str(tmp))}",
        "--driver-java-options", shlex.quote(jvm_opts),
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    b = (SparkSession.builder.appName(app)
         .config("spark.sql.shuffle.partitions", "64")
         .config("spark.sql.execution.arrow.pyspark.enabled", "true")
         .config("spark.sql.autoBroadcastJoinThreshold", -1)
         .config("spark.ui.showConsoleProgress", "false")
         .config("spark.sql.warehouse.dir", (run_dir / "warehouse").as_uri()))
    if traced:
        log_dir = run_dir / "eventlog"
        log_dir.mkdir(exist_ok=True)
        b = (b.config("spark.eventLog.enabled", "true")
             .config("spark.eventLog.dir", log_dir.as_uri())
             .config("spark.eventLog.compress", "false"))
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until the JVM (and its Python workers) have exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            if proc.stdin:
                proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None


def run_query(spark, q, group: str, spans, timed_layers: bool) -> dict:
    """One query under its own job group; a timer cancels it after QUERY_TIMEOUT_S."""
    sc = spark.sparkContext
    sc.setJobGroup(group, q.label, interruptOnCancel=True)
    watchdog = threading.Timer(QUERY_TIMEOUT_S, sc.cancelJobGroup, [group])
    watchdog.start()
    rec = {"group": group, "label": q.label, "layers": timed_layers}
    t0 = time.perf_counter()
    try:
        with spans.measuring(group) if timed_layers else nullcontext():
            df = q.build(spark)
        rec["plan_s"] = time.perf_counter() - t0
        pdf = df.toPandas()
        rec["seconds"] = time.perf_counter() - t0
        rec["ok"] = bool(q.check(pdf))
        if not rec["ok"]:
            rec["error"] = f"wrong result ({len(pdf)} rows)"
    except Exception as exc:  # a failing query is counted, the run goes on
        rec["seconds"] = time.perf_counter() - t0
        rec["ok"] = False
        rec["error"] = f"{type(exc).__name__}: {str(exc).splitlines()[0][:200] if str(exc) else ''}"
    finally:
        watchdog.cancel()
        sc.setLocalProperty("spark.jobGroup.id", None)
    return rec


def closed_loop(spark, wl, seconds: float, spans, traced: bool, tag: str) -> list[dict]:
    """Whole cycles until ``seconds`` have passed; in a traced run every other
    cycle has the layer spans on, so their cost shows as trace.overhead_s."""
    records: list[dict] = []
    cycle = wl.cycle()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        for q in cycle:
            records.append(run_query(spark, q, f"{tag}-q{len(records)}", spans,
                                     traced and k % 2 == 0))
        k += 1
    return records


def end_to_end(setup: list[float], records: list[dict], rss_mb: float) -> dict:
    times = [r["seconds"] for r in records]
    ok = sum(r["ok"] for r in records)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "query_p50_s": (statistics.median(times), "s", len(times)),
        "worker_peak_rss_mb": (rss_mb, "MB", 1),
        "success_rate": (ok / len(records), "ratio", len(records)),
    }


def per_layer(wl, records, spans, stages, extras) -> dict:
    """Every layer figure as (value, unit, samples); see README.md for what each moves.

    Span figures are means over the queries with spans on, stage figures
    means over all timed queries; kernel replay and the paper ratios
    are single measurements.
    """
    layered = [r for r in records if r["layers"] and "plan_s" in r]
    plain = [r for r in records if not r["layers"] and "plan_s" in r]
    nl, nr = len(layered), len(records)

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    def span(name: str, unit: str = "s") -> tuple:
        return mean(spans.seconds[r["group"]].get(name, 0.0) for r in layered), unit, nl

    def stage(name: str, unit: str) -> tuple:
        return mean(stages.get(r["group"], {}).get(name, 0.0) for r in records), unit, nr

    m = {
        "sqlext.parser.parse_s": span("parse"),
        "sqlext.analyzer.resolve_s": span("resolve"),
        "core.optimizer.optimize_s": span("optimize"),
        "core.optimizer.rewrites": (
            mean(spans.rewrites[r["group"]] for r in layered) * len(wl.cycle()), "count", nl),
        "core.physical.plan_s": (mean(r["plan_s"] for r in layered), "s", nl),
        "core.physical.select_algorithm_s": span("select_algorithm"),
        "core.plan.execute_s": span("execute"),
    }
    for role in ("local", "global"):
        for field, unit in (("s", "s"), ("python_s", "s"), ("rows_in", "count"), ("rows_out", "count")):
            m[f"core.physical.stage.{role}_{field}"] = stage(f"{role}_{field}", unit)
    m["core.physical.stage.input_s"] = stage("input_s", "s")
    m["core.physical.stage.local_task_max_s"] = stage("local_task_max_s", "s")
    m["core.physical.stage.local_task_skew"] = stage("local_task_skew", "ratio")
    m["core.physical.stages"] = stage("stages", "count")
    m["core.physical.shuffle_bytes"] = stage("shuffle_bytes", "bytes")
    kernels = extras.get("kernels", {})
    for k in ("normalize", "complete_local", "complete_global", "incomplete_local", "incomplete_global"):
        layer = "core.dominance" if k == "normalize" else "core.bnl"
        m[f"{layer}.{k}_s"] = (kernels.get(f"{k}_s", 0.0), "s", 1)
        m[f"{layer}.{k}_peak_mb"] = (kernels.get(f"{k}_peak_mb", 0.0), "MB", 1)
    m["spark.gc_s"] = stage("gc_s", "s")
    m["spark.python_start_s"] = (extras["python_start_s"], "s", 1)
    m["session.temp_views_leaked"] = (extras["temp_views_leaked"], "count", 1)
    on = [r["seconds"] for r in layered]
    off = [r["seconds"] for r in plain]
    m["trace.overhead_s"] = (
        statistics.median(on) - statistics.median(off) if on and off else 0.0, "s", nr)
    m["trace.unaccounted_s"] = (
        mean(r["seconds"] - r["plan_s"] - sum(stages.get(r["group"], {}).get(f"{role}_s", 0.0)
                                              for role in ("input", "local", "global"))
             for r in layered), "s", nl)
    for key in ("reference_over_distributed", "non_distributed_over_distributed"):
        m[f"paper.{key}"] = (extras.get(key, 0.0), "ratio", 1 if key in extras else 0)
    return m


def paper_ratios(spark, wl, records, spans) -> tuple[dict, list[dict]]:
    """One reference and one non_distributed_complete run on the same input,
    each over the median distributed query time of this run."""
    from workloads import Query

    base = statistics.median(r["seconds"] for r in records)
    out, recs = {}, []
    for algo, key in (("reference", "reference_over_distributed"),
                      ("non_distributed_complete", "non_distributed_over_distributed")):
        q = Query(algo, lambda s, a=algo: wl.query(algorithm=a), wl.check)
        rec = run_query(spark, q, f"paper-{algo}", spans, False)
        recs.append(rec)
        out[key] = rec["seconds"] / base
    return out, recs


def temp_views_leaked(spark, own: tuple) -> int:
    return sum(1 for t in spark.catalog.listTables() if t.isTemporary and t.name not in own)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import eventlog
    import layers
    import workloads

    traced = bool(args.trace)
    wl = workloads.make(args.workload, args.seed)
    run_dir = HERE / "out" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    spans = layers.Spans()
    extras: dict = {}
    spark = None
    try:
        try:
            with ThreadPoolExecutor(1) as pool:
                answers = pool.submit(wl.compute_answers)
                t0 = time.perf_counter()
                spark = start_session(run_dir, f"perfbench-{args.workload}", traced)
                session_start_s = time.perf_counter() - t0
                answers.result()

            setup = []
            for _ in range(SETUP_ROUNDS):
                wl.unload()
                t0 = time.perf_counter()
                wl.load(spark)
                wl.warmup()
                setup.append(time.perf_counter() - t0)

            warmup = closed_loop(spark, wl, WARMUP_S, spans, False, "warmup")
            with spans.installed() if traced else nullcontext():
                records = closed_loop(spark, wl, args.seconds, spans, traced, "bench")
                checks = warmup + records
                if traced:
                    extras["kernels"] = defaultdict(float)
                    for replay in wl.replays():
                        layers.replay_kernels(*replay, extras["kernels"])
                    if isinstance(wl, workloads.StoreSales):
                        ratios, recs = paper_ratios(spark, wl, records, spans)
                        extras.update(ratios)
                        checks += recs
            extras["temp_views_leaked"] = temp_views_leaked(spark, workloads.VIEWS)
            rss_mb = layers.worker_peak_rss_mb(spark.sparkContext._gateway.proc.pid)
        finally:
            if spark is not None:
                stop_session(spark)
        if traced:
            events = eventlog.read_events(run_dir / "eventlog")
            extras["python_start_s"] = eventlog.python_start_s(events)
            table = per_layer(wl, records, spans, eventlog.query_stages(events), extras)
        else:
            table = end_to_end(setup, records, rss_mb)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(checks)
    failed = sum(not r["ok"] for r in checks)
    metrics = {k: (v, u) for k, (v, u, _) in table.items()}
    samples = {k: n for k, (_, _, n) in table.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": wl.params, "session_start_s": session_start_s,
        "setup_rounds_s": setup, "warmup": warmup, "queries": records,
        "extra_checks": checks[len(warmup) + len(records):],
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k]} for k, (v, u) in metrics.items()},
    }
    (HERE / "out" / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  params {json.dumps(wl.params)}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<44} {v:>14.6g} {u:<6} n={samples[k]}")
    if not traced:
        # Too few samples per run for a gated tail percentile; shown for reading only.
        p90 = float(np.percentile([r["seconds"] for r in records], 90))
        print(f"  {'query_p90_s (not gated)':<44} {p90:>14.6g} {'s':<6} n={len(records)}")
    for r in checks:
        if not r["ok"]:
            print(f"  FAILED {r['label']}: {r.get('error')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
