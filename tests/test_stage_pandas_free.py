"""The skyline stage bodies run without pandas, as in a Python worker.

Each test pickles a stage built by ``physical._make_stage`` with the
same ``cloudpickle`` PySpark ships closures with, and runs it in a
fresh interpreter on Arrow IPC bytes, the form in which a worker
receives a partition.  The child reports which rows survived and
whether ``pandas`` or ``pyarrow.compute`` was ever imported.
"""
import datetime as dt
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pyarrow as pa
from pyspark import cloudpickle

import repro
from repro.core import bnl, physical
from repro.core.spec import smin, smax, spec_of

SRC = str(Path(repro.__file__).resolve().parent.parent)

# Reads the pickled stage, then the IPC stream, from the files named on
# the command line; prints the surviving payload and the import checks.
CHILD = """
import json, sys
import pyarrow as pa
from pyspark import cloudpickle
with open(sys.argv[1], "rb") as fh:
    stage = cloudpickle.loads(fh.read())
with open(sys.argv[2], "rb") as fh:
    batches = list(stage(iter(pa.ipc.open_stream(fh.read()))))
loaded = {m: m in sys.modules for m in ("pandas", "pyarrow.compute")}
rows = [r for b in batches for r in b.column("name").to_pylist()]
print(json.dumps({**loaded, "rows": rows}))
"""

COLS = ["__sky_d0", "__sky_d1"]
DOUBLES = pa.schema([("__sky_d0", pa.float64()), ("__sky_d1", pa.float64()),
                     ("name", pa.string())])
LEAN = {"pandas": False, "pyarrow.compute": False}


def ipc_bytes(*batches: dict, schema: pa.Schema = DOUBLES) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, schema) as writer:
        for cols in batches:
            writer.write_batch(pa.record_batch(
                [pa.array(cols[f.name], f.type) for f in schema], schema=schema))
    return sink.getvalue().to_pybytes()


def run_in_fresh_interpreter(tmp_path, stage, data: bytes) -> dict:
    (tmp_path / "stage.pkl").write_bytes(cloudpickle.dumps(stage))
    (tmp_path / "input.arrow").write_bytes(data)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "stage.pkl"), str(tmp_path / "input.arrow")],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_complete_bnl_stage(tmp_path):
    # x MIN, y MAX: (2, 3) beats (3, 3); the rest are incomparable.  A
    # NULL payload and an empty batch pass through.
    data = ipc_bytes(
        {"__sky_d0": [1.0, 2.0], "__sky_d1": [1.0, 3.0], "name": ["a", None]},
        {"__sky_d0": [], "__sky_d1": [], "name": []},
        {"__sky_d0": [3.0, 0.0], "__sky_d1": [3.0, 0.0], "name": ["c", "d"]},
    )
    stage = physical._make_stage(spec_of(smin("x"), smax("y")), COLS, bnl.bnl_skyline_mask)
    out = run_in_fresh_interpreter(tmp_path, stage, data)
    assert out == {**LEAN, "rows": ["a", None, "d"]}


def test_incomplete_global_stage(tmp_path):
    # Null-aware dominance on the shared non-NULL dimensions:
    # a beats b and d on x; c beats b and d on y; a and c share none.
    data = ipc_bytes(
        {"__sky_d0": [1.0, 2.0], "__sky_d1": [None, 5.0], "name": ["a", "b"]},
        {"__sky_d0": [None, 3.0], "__sky_d1": [4.0, 6.0], "name": [None, "d"]},
    )
    stage = physical._make_stage(spec_of(smin("x"), smin("y")), COLS,
                                 bnl.incomplete_global_skyline_mask)
    out = run_in_fresh_interpreter(tmp_path, stage, data)
    assert out == {**LEAN, "rows": ["a", None]}



def test_complete_stage_over_spark_typed_columns(tmp_path):
    # Dimensions arrive as Spark types them: i MIN (int32), m MAX
    # (decimal(10,2)), f MIN (boolean), t MIN (timestamp).  Row a
    # dominates b, c, d and e, each worse on one dimension; f is better
    # than a on i only.
    t0 = dt.datetime(2024, 5, 1, tzinfo=dt.timezone.utc)
    t1 = t0 + dt.timedelta(microseconds=1)
    schema = pa.schema([("i", pa.int32()), ("m", pa.decimal128(10, 2)), ("f", pa.bool_()),
                        ("t", pa.timestamp("us", tz="UTC")), ("name", pa.string())])
    data = ipc_bytes(
        {"i": [1, 2, 1], "m": [Decimal("5.00"), Decimal("5.00"), Decimal("4.99")],
         "f": [False, False, False], "t": [t0, t0, t0], "name": ["a", "b", "c"]},
        {"i": [1, 1, 0], "m": [Decimal("5.00"), Decimal("5.00"), Decimal("-0.01")],
         "f": [True, False, True], "t": [t0, t1, t1], "name": ["d", "e", "f"]},
        schema=schema)
    stage = physical._make_stage(spec_of(smin("i"), smax("m"), smin("f"), smin("t")),
                                 ["i", "m", "f", "t"], bnl.bnl_skyline_mask)
    out = run_in_fresh_interpreter(tmp_path, stage, data)
    assert out == {**LEAN, "rows": ["a", "f"]}
