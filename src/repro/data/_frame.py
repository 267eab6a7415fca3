"""How a generated pandas table enters Spark (DESIGN.md §2, "Generated tables").

``spark.createDataFrame(pdf)`` plans the rows as a driver-local
``LocalRelation``: each task of a stage that scans it carries its
slice of the rows, and a cache built over it keeps that lineage, so
every task that reads the cache deserializes the slice again.  Above
the size at which Spark warns that a task is too large, the frame is
checkpointed into the block manager once instead.
"""
from __future__ import annotations

import pandas as pd
from pyspark import StorageLevel
from pyspark.sql import DataFrame, SparkSession

__all__ = ["TASK_WARN_BYTES", "partition_bytes", "to_spark"]

#: Spark's ``TaskSetManager`` warns about a task larger than 1000 KiB.
TASK_WARN_BYTES = 1000 * 1024


def partition_bytes(rows: int, columns: int, partitions: int) -> int:
    """Estimated bytes of the largest slice of a ``LocalRelation`` of
    ``rows`` fixed-width rows with ``columns`` columns, as its scan
    ships it to one of ``partitions`` tasks.

    ``LocalTableScanExec`` splits the rows into ``min(rows, partitions)``
    slices.  An ``UnsafeRow`` of up to 64 fixed-width columns is an
    8-byte null bitset plus 8 bytes per column, and serializing it adds
    about 17 bytes (Spark reported 2,234,823 bytes for a task of 25,000
    8-column rows, against 25,000 × 89).  Every generated column is a
    number, so no row has a variable-length part.
    """
    slices = max(1, min(rows, partitions))
    return -(-rows // slices) * (8 + 8 * columns + 17)


def to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """``pdf`` as a DataFrame whose tasks carry at most
    :data:`TASK_WARN_BYTES` of its rows.

    A larger frame is checkpointed with ``DISK_ONLY``: every caller
    persists the result, and a memory-level checkpoint would keep a
    second in-memory copy of the rows.  Schema, partition count and
    rows are those of ``spark.createDataFrame(pdf)``.  Spark removes the
    checkpoint's blocks once the returned DataFrame is garbage-collected.
    """
    df = spark.createDataFrame(pdf)
    parallelism = spark.sparkContext.defaultParallelism
    if partition_bytes(len(pdf), len(pdf.columns), parallelism) <= TASK_WARN_BYTES:
        return df
    return df.localCheckpoint(eager=True, storageLevel=StorageLevel.DISK_ONLY)
