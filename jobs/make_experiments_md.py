"""Assemble EXPERIMENTS.md from results/tableNN.json + the paper's numbers.

Usage:
    python jobs/make_experiments_md.py [--results results] [--out EXPERIMENTS.md]

For every evaluation table (3–12) this renders, side by side:
* the paper's measurements (reference row in seconds; other algorithms
  as % of reference, exactly as printed in Appendix D), and
* this reproduction's measurements in the same two formats.

Shape commentary lives in ``jobs/experiments_notes.py`` so a re-run
refreshes numbers without losing the analysis text.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from repro.bench.report import LABELS, fmt_seconds, percent_rows
from repro.bench.tables import TABLES, table_def

from experiments_notes import HEADER, NOTES, FOOTER


def load_results(results_dir: str, table: int) -> dict | None:
    path = os.path.join(results_dir, f"table{table:02d}.json")
    if not os.path.exists(path):
        return None
    payload = json.load(open(path))
    return {
        (c["sweep_value"], c["algorithm"]): c["seconds"] for c in payload["cells"]
    }


def paper_rows(tdef) -> list[str]:
    lines = []
    none_marker = "t.o." if tdef.paper_none_is_timeout else "(n/r)"
    cells = [none_marker if v is None else f"{v:.2f} s"
             for v in tdef.paper_reference_seconds]
    lines.append("| reference | " + " | ".join(cells) + " |")
    for algo in tdef.algorithms:
        if algo == "reference":
            continue
        row = tdef.paper_percent.get(algo)
        cells = ["n.a." if v is None else f"{v:.2f}%" for v in row]
        lines.append(f"| {LABELS[algo]} | " + " | ".join(cells) + " |")
    return lines


def ours_rows(tdef, results) -> list[str]:
    sec_lines = []
    for algo in tdef.algorithms:
        secs = [results.get((v, algo)) for v in tdef.sweep_values]
        cells = [fmt_seconds(s) + ("" if s is None else " s") for s in secs]
        sec_lines.append(f"| {LABELS[algo]} | " + " | ".join(cells) + " |")
    return (percent_rows(tdef, results) + ["", "*Absolute seconds (ours):*", ""]
            + _header(tdef) + sec_lines)


def _header(tdef) -> list[str]:
    vals = [f"{v:,}" if isinstance(v, int) and v >= 1000 else str(v)
            for v in tdef.sweep_values]
    return ["| algorithm | " + " | ".join(vals) + " |",
            "|---" * (len(vals) + 1) + "|"]


def render_table_section(table: int, results_dir: str) -> str:
    tdef = table_def(table)
    results = load_results(results_dir, table)
    out = [f"## Table {table} — {tdef.caption}", ""]
    out += [f"*Paper (reference in seconds; others in % of reference; "
            f"\"(n/r)\" = not recoverable from the PDF text extraction):*", ""]
    out += _header(tdef) + paper_rows(tdef) + [""]
    if results is None:
        out += ["*(no reproduction results found — run "
                f"`python jobs/run_table.py --table {table}`)*", ""]
    else:
        out += ["*Ours (% of our reference):*", ""]
        out += _header(tdef) + ours_rows(tdef, results) + [""]
    note = NOTES.get(table)
    if note:
        out += [note.strip(), ""]
    return "\n".join(out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--results", default="results")
    ap.add_argument("--out", default="EXPERIMENTS.md")
    args = ap.parse_args()
    parts = [HEADER.strip(), ""]
    for t in sorted(TABLES):
        parts.append(render_table_section(t, args.results))
    parts.append(FOOTER.strip())
    with open(args.out, "w") as f:
        f.write("\n".join(parts) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
