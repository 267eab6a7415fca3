"""Render experiment results in the paper's Appendix-D table style, and
write and read the ``results/tableNN.json`` files they are kept in.

:func:`render_section` is one table's EXPERIMENTS.md section: the
paper's numbers as Appendix D prints them (reference in seconds, the
other algorithms as % of the reference), then ours twice, as % of our
reference and as absolute seconds, with the paper's two claims judged
per cell by :func:`verdicts`.  "t.o." / "n.a." mean what they mean in
the paper.
"""
from __future__ import annotations

import json
import os
from typing import Optional

from .tables import TableDef

__all__ = ["LABELS", "CLAIMS", "verdicts", "render_section", "results_path",
           "results_to_json", "load_results"]

LABELS = {
    "reference": "reference",
    "non_distributed_complete": "non-distributed complete",
    "distributed_complete": "distributed complete",
    "distributed_incomplete": "distributed incomplete",
}


#: The paper's two claims (§6), as :func:`verdicts` names them.
CLAIMS = ("best specialized < reference", "distributed complete ≤ other specialized")


def _claim1(ref: Optional[float], specialized: list) -> str:
    finished = [t for t in specialized if t is not None]
    if ref is None:
        return "holds" if finished else "n.a."
    return "holds" if finished and min(finished) < ref else "fails"


def _claim2(dist: Optional[float], others: list) -> str:
    finished = [t for t in others if t is not None]
    if dist is None:
        return "fails" if finished else "n.a."
    return "holds" if all(dist <= t for t in finished) else "fails"


def verdicts(tdef: TableDef, results: dict) -> dict[str, tuple[str, ...]]:
    """Each of the paper's claims, judged in every cell of ``tdef``.

    Maps each name in :data:`CLAIMS` to one verdict per sweep value, in
    ``tdef.sweep_values`` order: ``"holds"``, ``"fails"`` or ``"n.a."``.
    ``results`` is as in :func:`render_section`; a ``None`` time is a
    timeout.  The specialized algorithms are every algorithm of the
    table but ``reference``.

    * "best specialized < reference", in every cell: holds when the
      fastest specialized time that finished is strictly below the
      reference's, or when the reference timed out and some specialized
      algorithm finished; fails when the reference finished and no
      specialized time is below it, also when every specialized
      algorithm timed out; n.a. when the reference timed out too.
    * "distributed complete ≤ other specialized", complete tables only
      (an incomplete table has just one specialized algorithm): holds
      when distributed complete finished and is at or below every other
      specialized time that finished; fails otherwise, also when it
      timed out and another specialized algorithm finished; n.a. when
      every specialized algorithm timed out.  Also n.a. in a
      one-dimension cell, where the optimizer rewrites every
      specialized algorithm to the same §5.4 plan, so their times
      differ only by noise.
    """
    specialized = [a for a in tdef.algorithms if a != "reference"]
    others = [a for a in specialized if a != "distributed_complete"]
    out = {CLAIMS[0]: tuple(
        _claim1(results.get((v, "reference")), [results.get((v, a)) for a in specialized])
        for v in tdef.sweep_values)}
    if tdef.complete:
        out[CLAIMS[1]] = tuple(
            "n.a." if tdef.dims(v) == 1 else
            _claim2(results.get((v, "distributed_complete")), [results.get((v, a)) for a in others])
            for v in tdef.sweep_values)
    return out


def _row(label: str, cells) -> str:
    return f"| {label} | " + " | ".join(cells) + " |"


def _header(tdef: TableDef) -> list[str]:
    vals = [f"{v:,}" if isinstance(v, int) and v >= 1000 else str(v)
            for v in tdef.sweep_values]
    return [_row("algorithm", vals), "|---" * (len(vals) + 1) + "|"]


def _fmt_percent(v: Optional[float], ref: Optional[float]) -> str:
    if ref is None:
        return "n.a."
    if v is None:
        return "t.o."
    return f"{100.0 * v / ref:.2f}%"


def _paper_rows(tdef: TableDef) -> list[str]:
    none_marker = "t.o." if tdef.paper_none_is_timeout else "(n/r)"
    rows = [_row("reference", [none_marker if v is None else f"{v:.2f} s"
                               for v in tdef.paper_reference_seconds])]
    for algo in tdef.algorithms:
        if algo != "reference":
            rows.append(_row(LABELS[algo], ["n.a." if v is None else f"{v:.2f}%"
                                            for v in tdef.paper_percent[algo]]))
    return rows


def render_section(tdef: TableDef, results: Optional[dict]) -> str:
    """Markdown for one table: the paper's numbers, then ours.

    ``results`` maps (sweep_value, algorithm) -> seconds | None (timed
    out); ``None`` means the table has not been run.
    """
    header = _header(tdef)
    out = [f"## Table {tdef.table} — {tdef.caption}", "",
           "*Paper (reference in seconds; others in % of reference; "
           "\"(n/r)\" = not recoverable from the PDF text extraction):*", "",
           *header, *_paper_rows(tdef), ""]
    if results is None:
        out += ["*(no reproduction results found — run "
                f"`python jobs/run_table.py --table {tdef.table}`)*", ""]
    else:
        refs = [results.get((v, "reference")) for v in tdef.sweep_values]
        pct, secs = [], []
        for algo in tdef.algorithms:
            times = [results.get((v, algo)) for v in tdef.sweep_values]
            pct.append(_row(LABELS[algo], map(_fmt_percent, times, refs)))
            secs.append(_row(LABELS[algo], ["t.o." if t is None else f"{t:.2f} s"
                                            for t in times]))
        claims = [_row(f"claim: {claim}", cells)
                  for claim, cells in verdicts(tdef, results).items()]
        out += ["*Ours (% of our reference):*", "", *header, *pct, *claims, "",
                "*Absolute seconds (ours):*", "", *header, *secs, ""]
    return "\n".join(out)


def results_path(results_dir: str, table: int) -> str:
    return os.path.join(results_dir, f"table{table:02d}.json")


def results_to_json(tdef: TableDef, results: dict) -> str:
    """Serialize one table's results (the ``results_path`` file)."""
    payload = {
        "table": tdef.table,
        "caption": tdef.caption,
        "cells": [
            {"sweep_value": v, "algorithm": a, "seconds": results.get((v, a))}
            for v in tdef.sweep_values
            for a in tdef.algorithms
        ],
    }
    return json.dumps(payload, indent=2)


def load_results(results_dir: str, table: int) -> Optional[dict]:
    """The results ``results_to_json`` wrote for ``table``; None if absent."""
    path = results_path(results_dir, table)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        payload = json.load(f)
    return {(c["sweep_value"], c["algorithm"]): c["seconds"] for c in payload["cells"]}
