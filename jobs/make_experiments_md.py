"""Assemble EXPERIMENTS.md from results/tableNN.json + the paper's numbers.

Usage:
    python jobs/make_experiments_md.py [--results results] [--out EXPERIMENTS.md]

At the top, the paper's two claims as ``repro.bench.report.verdicts``
judges them, at both scales: the cells where each fails, from
<results>/tableNN.json and <results>/bench/tableNN.json.  Then, for
every evaluation table (3–12), side by side:
* the paper's measurements (reference row in seconds; other algorithms
  as % of reference, exactly as printed in Appendix D), and
* this reproduction's measurements in the same two formats, with the
  claim verdicts per cell.

The prose lives in ``jobs/experiments_notes.py``, so a re-run
refreshes numbers and verdicts without losing it.
"""
from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from repro.bench.report import CLAIMS, load_results, render_section, verdicts
from repro.bench.tables import TABLES, table_def

from experiments_notes import HEADER, SETUP, FOOTER

#: Each scale the claims summary covers: subdirectory of --results, caption.
SCALES = (("", "Reproduction scale (`results/`, 16 cores, 48 GB)"),
          ("bench", "Bench scale (`results/bench/`, 1/10 of the reproduction sizes, "
                    "4 cores, 15 GB)"))

CLAIMS_INTRO = """\
## The paper's two claims, computed

The paper's evaluation (§6) claims that the integrated skyline beats
the Listing-4 plain-SQL rewrite, and that distributed complete is the
best specialized algorithm.  `repro.bench.report.verdicts` judges both
in every cell (its docstring states the rules), and each table below
prints the verdicts under "Ours".  Listed here are the sweep values
where a claim fails, with those where it is n.a. in parentheses;
"none" means it fails nowhere, "—" that the table has no such claim
(incomplete data has one specialized algorithm).  The second claim is
n.a. at 1 dimension: there the optimizer rewrites every specialized
algorithm to the same §5.4 scalar-subquery plan, so their times differ
only by noise."""


def _summary_cell(tdef, cells) -> str:
    def where(verdict):
        return ", ".join(f"{v:,}" for v, c in zip(tdef.sweep_values, cells) if c == verdict)
    fails, na = where("fails"), where("n.a.")
    return (fails or "none") + (f" (n.a.: {na})" if na else "")


def claims_summary(results_dir: str) -> list[str]:
    """Where each claim fails, per table, at each scale under ``results_dir``."""
    out = [CLAIMS_INTRO, ""]
    for sub, caption in SCALES:
        out += [f"*{caption}:*", "",
                "| table | swept | " + " | ".join(CLAIMS) + " |", "|---" * (2 + len(CLAIMS)) + "|"]
        for t in sorted(TABLES):
            tdef = table_def(t)
            results = load_results(os.path.join(results_dir, sub), t)
            if results is None:
                cells = ["not run"] * len(CLAIMS)
            else:
                judged = verdicts(tdef, results)
                cells = [_summary_cell(tdef, judged[c]) if c in judged else "—" for c in CLAIMS]
            out.append(f"| {t} | {tdef.sweep} | " + " | ".join(cells) + " |")
        out.append("")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--results", default="results")
    ap.add_argument("--out", default="EXPERIMENTS.md")
    args = ap.parse_args()
    parts = [HEADER.strip(), "", *claims_summary(args.results), SETUP.strip(), ""]
    for t in sorted(TABLES):
        parts.append(render_section(table_def(t), load_results(args.results, t)))
    parts.append(FOOTER.strip())
    with open(args.out, "w") as f:
        f.write("\n".join(parts) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
