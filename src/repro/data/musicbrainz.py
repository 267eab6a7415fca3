"""Synthetic MusicBrainz subset for the complex-query experiments (Appendix E).

The paper adapts the MusicBrainz recordings database: ~1.5M recordings
(~500k of which have ratings), a ``track`` table linking recordings to
album tracks, and a ``recording_meta`` table with ratings.  The base
queries (Listings 11/12) left-outer-join per-recording track
aggregates (count, min position) and join the meta table; the skyline
(Table 13) runs on top.

This generator produces the three tables at 1/100 scale (default
15,000 recordings) with the same structural features:

* ~1/3 of recordings have a rating (``rating``/``rating_count``
  non-NULL in ``recording_meta``).
* ``length`` is NULL for a small fraction of recordings; ``video`` is
  a rare boolean flag.
* Recordings appear on 0..6 tracks; recordings on no track get NULL
  ``num_tracks``/``min_position`` from the LEFT OUTER JOIN.

``recording_complete`` is the NULL-free recording subset (paper's
complete dataset); ``recording_incomplete`` keeps NULLs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core.spec import DimType, SkylineDimension
from ._frame import to_spark

__all__ = ["MUSICBRAINZ_DIMS", "musicbrainz_dims", "musicbrainz_tables",
           "BASE_QUERY_COMPLETE", "BASE_QUERY_INCOMPLETE"]

#: Table-13 skyline dimensions in the paper's order.
MUSICBRAINZ_DIMS: tuple[tuple[str, DimType], ...] = (
    ("rating", DimType.MAX),
    ("rating_count", DimType.MAX),
    ("length", DimType.MIN),
    ("video", DimType.MAX),
    ("num_tracks", DimType.MAX),
    ("min_position", DimType.MIN),
)


def musicbrainz_dims(k: int) -> list[SkylineDimension]:
    if not 1 <= k <= len(MUSICBRAINZ_DIMS):
        raise ValueError(f"k must be in 1..{len(MUSICBRAINZ_DIMS)}")
    return [SkylineDimension(c, t) for c, t in MUSICBRAINZ_DIMS[:k]]


#: Listing 11 — complete base query (NULLs folded away with ifnull).
BASE_QUERY_COMPLETE = """
SELECT
  r.id,
  ifnull(r.length, 0) AS length,
  r.video,
  ifnull(rm.rating, 0) AS rating,
  ifnull(rm.rating_count, 0) AS rating_count,
  recording_tracks.num_tracks,
  recording_tracks.min_position
FROM recording_complete r LEFT OUTER JOIN (
  SELECT
    ri.id AS id,
    count(ti.recording) AS num_tracks,
    min(ti.position) AS min_position
  FROM recording_complete ri
  JOIN track ti ON (ti.recording = ri.id)
  GROUP BY ri.id
) recording_tracks USING (id)
JOIN recording_meta rm USING (id)
"""

#: Listing 12 — incomplete base query (NULLs kept).
BASE_QUERY_INCOMPLETE = """
SELECT * FROM recording_incomplete r
LEFT OUTER JOIN (
  SELECT
    ri.id AS id,
    count(ti.recording) AS num_tracks,
    min(ti.position) AS min_position
  FROM recording_incomplete ri
  JOIN track ti ON (ti.recording = ri.id)
  GROUP BY ri.id
) recording_tracks USING (id)
JOIN recording_meta rm USING (id)
"""


def musicbrainz_tables(spark: SparkSession, *, n: int = 15_000, seed: int = 23,
                       register: bool = True) -> dict[str, pd.DataFrame]:
    """Generate the tables; optionally register them as temp views.

    Returns the pandas frames (also usable as DuckDB oracle inputs).
    Registered view names: ``recording_complete``,
    ``recording_incomplete``, ``track``, ``recording_meta``.
    """
    g = np.random.default_rng(seed)
    length = np.round(g.normal(210_000, 60_000, n)).clip(5_000, 3_600_000)
    length[g.random(n) < 0.05] = np.nan
    video = (g.random(n) < 0.03).astype(np.int64)
    recording = pd.DataFrame(
        {"id": np.arange(1, n + 1), "length": length, "video": video}
    )

    has_rating = g.random(n) < (1 / 3)
    rating = np.where(has_rating, np.round(g.uniform(0, 100, n)), np.nan)
    rating_count = np.where(has_rating, np.floor(g.pareto(1.0, n) * 3) + 1, np.nan)
    recording_meta = pd.DataFrame(
        {"id": np.arange(1, n + 1), "rating": rating, "rating_count": rating_count}
    )

    # 0..6 track appearances per recording (expected ~1.6, many zero).
    n_tracks = g.choice(np.arange(0, 7), size=n, p=[0.3, 0.3, 0.17, 0.1, 0.06, 0.04, 0.03])
    rec_ids = np.repeat(np.arange(1, n + 1), n_tracks)
    track = pd.DataFrame(
        {
            "recording": rec_ids,
            "position": g.integers(1, 21, rec_ids.size),
            "medium": g.integers(1, max(2, n // 10), rec_ids.size),
        }
    )

    tables = {
        "recording_incomplete": recording,
        "recording_complete": recording.dropna(subset=["length"]).reset_index(drop=True),
        "track": track,
        "recording_meta": recording_meta,
    }
    if register:
        for name, pdf in tables.items():
            to_spark(spark, pdf).createOrReplaceTempView(name)
    return tables
