"""Tests of the entry scripts under jobs/.

Nothing else imports these scripts, so a library name they use could
disappear without any other test noticing: each is imported once,
which runs its top-level imports but not ``main()``.  The table runner
is also run without Spark, and EXPERIMENTS.md is checked to be the
generator's output.
"""
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench.report import load_results
from repro.bench.tables import COMPLETE_ALGOS, table_def

ROOT = Path(__file__).resolve().parent.parent
JOBS = sorted(p.stem for p in (ROOT / "jobs").glob("*.py"))


def _job(monkeypatch, name):
    # Jobs are run as ``python jobs/x.py``, so their own directory is on
    # the path and they import each other by bare name.
    monkeypatch.syspath_prepend(str(ROOT / "jobs"))
    return importlib.import_module(name)


@pytest.mark.parametrize("name", JOBS)
def test_job_imports(monkeypatch, name):
    _job(monkeypatch, name)


def test_run_table_writes_json_and_prints_section(monkeypatch, tmp_path, capsys):
    """``run_table`` without Spark, at both scales: ``run_cell`` returns
    fixed seconds, and ``None`` (timed out) for the 6-dimension reference
    cell.  The printed section judges the claims."""
    run_table = _job(monkeypatch, "run_table")
    calls = []

    def fake_run_cell(spark, *, algorithm, dims, timeout_s, **cell):
        calls.append((algorithm, dims, timeout_s, cell))
        return None if (algorithm, dims) == ("reference", 6) else 1.5

    monkeypatch.setattr(run_table, "run_cell", fake_run_cell)
    tdef = table_def(4)
    for bench, n in ((False, 500_000), (True, 24_000)):
        calls.clear()
        out_dir = str(tmp_path / f"bench-{bench}")
        results = run_table.run_table(None, 4, 7.0, out_dir, bench=bench)

        assert len(calls) == len(list(tdef.cells()))
        assert all(t == 7.0 and set(c) == {"dataset", "complete", "n", "executors"}
                   for _, _, t, c in calls)
        assert {c["n"] for *_, c in calls} == {n}
        assert load_results(out_dir, 4) == results
        assert results[6, "reference"] is None and results[1, "reference"] == 1.5
        out = capsys.readouterr().out
        assert out.startswith(f"## Table 4 — {tdef.caption}")
        assert "| reference | 1.50 s | 1.50 s | 1.50 s | 1.50 s | 1.50 s | t.o. |" in out
        assert "| distributed incomplete | 100.00% |" in out and "| n.a. |" in out
        # A tie is no win; the timed-out reference is beaten.
        assert ("| claim: best specialized < reference | fails | fails | fails | fails "
                "| fails | holds |") in out
        assert "claim: distributed complete" not in out


def test_run_table_warm_up_writes_each_algorithm_once(monkeypatch, capsys):
    """The warm-up noop-writes every algorithm over one small table and
    records nothing."""
    run_table = _job(monkeypatch, "run_table")
    cells, writes = [], []
    monkeypatch.setattr(run_table, "build_cell_df",
                        lambda spark, **cell: cells.append(cell) or cell["algorithm"])
    monkeypatch.setattr(run_table, "timed_action",
                        lambda spark, df, timeout_s: writes.append((df, timeout_s)))
    run_table.warm_up(None, 9.0)
    assert writes == [(a, 9.0) for a in COMPLETE_ALGOS]
    assert {(c["dataset"], c["complete"], c["n"]) for c in cells} == {
        ("store_sales", True, run_table.WARMUP_ROWS)}
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, out_dir", [
    ([], "results"),
    (["--bench"], "results/bench"),
    (["--bench", "--out", "elsewhere"], "elsewhere"),
])
def test_run_table_out_dir_default(monkeypatch, argv, out_dir):
    """A bench run must not overwrite the reproduction-scale results/tableNN.json."""
    run_table = _job(monkeypatch, "run_table")
    calls = []
    monkeypatch.setattr(run_table, "get_session", lambda name: SimpleNamespace(stop=lambda: None))
    monkeypatch.setattr(run_table, "warm_up", lambda spark, timeout_s: calls.append("warm-up"))
    monkeypatch.setattr(run_table, "run_table",
                        lambda spark, t, timeout_s, out, bench: calls.append((t, out, bench)))
    monkeypatch.setattr(sys, "argv", ["run_table.py", "--table", "4", *argv])
    run_table.main()
    assert calls == ["warm-up", (4, out_dir, "--bench" in argv)]


def test_experiments_md_is_generated(monkeypatch, tmp_path):
    """EXPERIMENTS.md is exactly what make_experiments_md builds from results/."""
    make = _job(monkeypatch, "make_experiments_md")
    out = tmp_path / "EXPERIMENTS.md"
    monkeypatch.setattr(sys, "argv", ["make_experiments_md.py", "--results",
                                      str(ROOT / "results"), "--out", str(out)])
    make.main()
    assert out.read_text() == (ROOT / "EXPERIMENTS.md").read_text()
