"""Appendix-E complex-query experiment on the synthetic MusicBrainz subset.

Usage:
    python jobs/run_musicbrainz.py [--dims 1 2 3 4 5 6] [--timeout 60]

Runs the Listing 11/12 base queries (LEFT OUTER JOIN + aggregate
subquery) with a k-dimensional skyline on top, comparing the
specialized algorithms against the Listing-13-style reference rewrite.
The paper reports this experiment as figures only (16–19, out of
scope); this job reports the same comparison as a table.
"""
from __future__ import annotations

import argparse
import sys

from _session import get_session

from repro.bench.harness import timed_action
from repro.bench.tables import COMPLETE_ALGOS, INCOMPLETE_ALGOS
from repro.data.musicbrainz import (
    BASE_QUERY_COMPLETE, BASE_QUERY_INCOMPLETE, MUSICBRAINZ_DIMS,
    musicbrainz_tables,
)
from repro.sqlext import sky_sql


def skyline_query(base: str, k: int, complete: bool) -> str:
    items = ", ".join(f"{c} {t.value}" for c, t in MUSICBRAINZ_DIMS[:k])
    if complete:
        # Even the "complete" recordings get NULL num_tracks/min_position
        # from the LEFT OUTER JOIN (recordings on no track); the COMPLETE
        # keyword asserts NULL-free dimensions, so restrict the base.
        base = f"SELECT * FROM ({base}) __b WHERE num_tracks IS NOT NULL"
        return f"SELECT * FROM ({base}) __c SKYLINE OF COMPLETE {items}"
    return f"SELECT * FROM ({base}) __i SKYLINE OF {items}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs="*", default=[2, 4, 6])
    ap.add_argument("--n", type=int, default=15_000)
    ap.add_argument("--timeout", type=float, default=60.0)
    args = ap.parse_args()
    spark = get_session("skyline-musicbrainz")
    try:
        musicbrainz_tables(spark, n=args.n)
        for complete, base in ((True, BASE_QUERY_COMPLETE), (False, BASE_QUERY_INCOMPLETE)):
            variant = "complete" if complete else "incomplete"
            algos = COMPLETE_ALGOS if complete else INCOMPLETE_ALGOS
            for k in args.dims:
                q = skyline_query(base, k, complete)
                for algo in algos:
                    df = sky_sql(spark, q, algorithm=algo)
                    secs = timed_action(spark, df, args.timeout)
                    print(
                        f"musicbrainz {variant} dims={k} algo={algo}: "
                        f"{'t.o.' if secs is None else f'{secs:.2f}s'}",
                        file=sys.stderr,
                    )
                    print(f"| {variant} | {k} | {algo} | "
                          f"{'t.o.' if secs is None else f'{secs:.2f}'} |")
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
