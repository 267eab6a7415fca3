"""Render experiment results in the paper's Appendix-D table style.

Each table is emitted twice, as in the paper: once as percentages of
the reference time (100% = reference; "t.o." / "n.a." semantics
identical to the paper) and once as absolute seconds.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional

from .tables import TableDef

__all__ = ["LABELS", "fmt_seconds", "percent_rows", "render_table",
           "render_results_markdown", "results_to_json"]

LABELS = {
    "reference": "reference",
    "non_distributed_complete": "non-distributed complete",
    "distributed_complete": "distributed complete",
    "distributed_incomplete": "distributed incomplete",
}


def fmt_seconds(v: Optional[float]) -> str:
    return "t.o." if v is None else f"{v:.2f}"


def _fmt_percent(v: Optional[float], ref: Optional[float]) -> str:
    if ref is None:
        return "n.a."
    if v is None:
        return "t.o."
    return f"{100.0 * v / ref:.2f}%"


def percent_rows(tdef: TableDef, results: dict) -> list[str]:
    """One markdown row per algorithm: its times as % of the reference's.

    ``results`` maps (sweep_value, algorithm) -> seconds | None.
    """
    sweep_vals = list(tdef.sweep_values)
    refs = [results.get((v, "reference")) for v in sweep_vals]
    rows = []
    for algo in tdef.algorithms:
        cells = [
            "100.00%" if algo == "reference" and r is not None
            else _fmt_percent(results.get((v, algo)), r)
            for v, r in zip(sweep_vals, refs)
        ]
        rows.append(f"| {LABELS[algo]} | " + " | ".join(cells) + " |")
    return rows


def render_table(tdef: TableDef, results: dict) -> str:
    """Markdown for one table.

    ``results`` maps (sweep_value, algorithm) -> seconds | None.
    """
    sweep_vals = list(tdef.sweep_values)
    header = "| algorithm | " + " | ".join(str(v) for v in sweep_vals) + " |"
    sep = "|---" * (len(sweep_vals) + 1) + "|"
    pct_rows = percent_rows(tdef, results)
    sec_rows = [
        f"| {LABELS[algo]} | "
        + " | ".join(fmt_seconds(results.get((v, algo))) for v in sweep_vals) + " |"
        for algo in tdef.algorithms
    ]
    lines = [
        f"**Table {tdef.table}** — {tdef.caption}",
        "",
        "*Relative to reference:*",
        "", header, sep, *pct_rows, "",
        "*Absolute seconds:*",
        "", header, sep, *sec_rows, "",
    ]
    return "\n".join(lines)


def render_results_markdown(tdef: TableDef, results: dict, *, run_params: str = "") -> str:
    out = render_table(tdef, results)
    if run_params:
        out += f"\n*Reproduction parameters: {run_params}*\n"
    return out


def results_to_json(tdef: TableDef, results: dict) -> str:
    """Serialize one table's results (for results/*.json artifacts)."""
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
