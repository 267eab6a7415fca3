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
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from repro.bench.report import load_results, render_section
from repro.bench.tables import TABLES, table_def

from experiments_notes import HEADER, NOTES, FOOTER


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--results", default="results")
    ap.add_argument("--out", default="EXPERIMENTS.md")
    args = ap.parse_args()
    parts = [HEADER.strip(), ""]
    for t in sorted(TABLES):
        parts.append(render_section(table_def(t), load_results(args.results, t),
                                    NOTES.get(t, "")))
    parts.append(FOOTER.strip())
    with open(args.out, "w") as f:
        f.write("\n".join(parts) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
