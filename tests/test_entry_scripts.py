"""Import smoke test for the entry scripts under jobs/ and benchmarks/.

Nothing else imports these scripts, so a library name they use could
disappear without any other test noticing.  Importing a module runs
its top-level imports but not ``main()``.
"""
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
JOBS = sorted(p.stem for p in (ROOT / "jobs").glob("*.py"))
BENCHMARKS = sorted(p.stem for p in (ROOT / "benchmarks").glob("*.py"))


@pytest.mark.parametrize("name", JOBS)
def test_job_imports(monkeypatch, name):
    # Jobs are run as ``python jobs/x.py``, so their own directory is on
    # the path and they import each other by bare name.
    monkeypatch.syspath_prepend(str(ROOT / "jobs"))
    importlib.import_module(name)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_benchmark_imports(name):
    importlib.import_module(f"benchmarks.{name}")
