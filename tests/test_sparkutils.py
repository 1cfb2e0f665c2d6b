"""Unit tests for the Spark substrate helpers."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.substrate.sparkutils import with_row_index


@pytest.fixture(scope="module")
def small(spark):
    pdf = pd.DataFrame(
        {
            "a": [1.0, 2.0, np.nan, 4.0],
            "b": [10.0, None, 30.0, 40.0],
            "c": ["x", "y", None, "x"],
        }
    )
    return spark.createDataFrame(pdf)


def test_with_row_index_contiguous(spark):
    df = spark.range(0, 1000).repartition(7)
    idx = with_row_index(df, "ri").toPandas()["ri"].sort_values().to_numpy()
    assert (idx == np.arange(1000)).all()


def test_with_row_index_preserves_rows(spark):
    df = spark.range(0, 100).withColumn("v", F.col("id") * 2).repartition(5)
    out = with_row_index(df).toPandas()
    assert sorted(out["id"]) == list(range(100))
    assert "row_index" in out.columns
    assert sorted(out["row_index"]) == list(range(100))


def test_with_row_index_single_row(spark):
    out = with_row_index(spark.range(1)).toPandas()
    assert out["row_index"].tolist() == [0]
