"""Spark DataFrame helpers used across the EDA compute pipeline."""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

__all__ = ["with_row_index"]


def with_row_index(df: DataFrame, name: str = "row_index") -> DataFrame:
    """Contiguous 0-based row index without collapsing to one partition.

    ``monotonically_increasing_id`` is not contiguous; a global
    ``row_number`` window is single-partition. Instead: number rows within
    each partition (parallel window over ``spark_partition_id``), count rows
    per partition, and add the driver-computed cumulative offset back via a
    broadcast join — the DataFrame version of ``zipWithIndex``.
    Ordering follows current partition layout, which is what the missing
    spectrum needs (file/row locality, not a semantic order).
    """
    pid = F.spark_partition_id()
    tagged = df.withColumn("__pid", pid).withColumn(
        "__pos",
        F.row_number().over(
            Window.partitionBy("__pid").orderBy(F.monotonically_increasing_id())
        )
        - 1,
    )
    counts = (
        tagged.groupBy("__pid").count().orderBy("__pid").collect()
    )
    offsets, acc = {}, 0
    for row in counts:
        offsets[row["__pid"]] = acc
        acc += row["count"]
    spark = df.sparkSession
    offsets_df = spark.createDataFrame(
        [(int(k), int(v)) for k, v in offsets.items()] or [(0, 0)],
        "___pid INT, __offset BIGINT",
    )
    return (
        tagged.join(
            F.broadcast(offsets_df), tagged["__pid"] == offsets_df["___pid"], "left"
        )
        .withColumn(name, F.coalesce(F.col("__pos") + F.col("__offset"), F.col("__pos")))
        .drop("__pid", "__pos", "___pid", "__offset")
    )

