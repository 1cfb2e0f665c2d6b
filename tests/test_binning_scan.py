"""The report's one scan bins values and numbers rows exactly.

The missing spectrum is checked against an oracle built from ``toPandas()``
row order — partition by partition, and in each partition in scan order,
which is the order the partition offsets number rows in. The report's
histograms are checked against the Catalyst ``compute.histogram_pass``.
Both comparisons are exact: a drift in the kernel's row numbering or bin
rule fails them.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import compute, create_report
from repro.core.config import Config
from repro.core.dtypes import EDAType, detect_types
from repro.core.missing import spectrum_pass


def _oracle_spectrum(df, bins: int) -> pd.DataFrame:
    pdf = df.toPandas()
    nrows = len(pdf)
    missing = pdf.isna().astype("int64")
    missing["segment"] = np.minimum(np.arange(nrows) * bins // max(nrows, 1), bins - 1)
    long = missing.melt(id_vars="segment", var_name="column", value_name="m")
    out = (
        long.groupby(["segment", "column"], sort=True)["m"]
        .agg(["sum", "size"])
        .reset_index()
    )
    return pd.DataFrame({
        "segment": out["segment"].astype("int32"),
        "column": out["column"].astype(object),
        "missing_rate": out["sum"] / out["size"],
        "n": out["size"].astype("int64"),
    })


def _mixed(nrows: int) -> pd.DataFrame:
    g = np.random.default_rng(nrows)
    pdf = pd.DataFrame({
        "a": g.normal(size=nrows),
        "b": g.integers(0, 5, nrows).astype("float64"),
        "c": g.choice(["x", "y", "z"], nrows).astype(object),
    })
    return pdf.mask(g.random(pdf.shape) < 0.2)


def _parallelized(spark, nrows: int, partitions: int):
    """``_mixed(nrows)`` in ``partitions`` partitions, in order, without a shuffle."""
    rows = [
        tuple(None if pd.isna(v) else v for v in (float(a), float(b), c))
        for a, b, c in _mixed(nrows).itertuples(index=False)
    ]
    rdd = spark.sparkContext.parallelize(rows, partitions)
    return spark.createDataFrame(rdd, "a DOUBLE, b DOUBLE, c STRING")


@pytest.fixture(scope="module")
def cached7(spark):
    df = spark.createDataFrame(_mixed(1000)).repartition(7)
    df.cache().count()
    yield df
    df.unpersist()


FRAMES = {
    "five_rows_eight_partitions": (lambda s: _parallelized(s, 5, 8), 3),
    "more_bins_than_rows": (lambda s: _parallelized(s, 7, 3), 20),
    "one_row": (lambda s: s.createDataFrame(_mixed(1)), 20),
    "zero_rows": (lambda s: s.createDataFrame([], "a DOUBLE, c STRING"), 20),
    # a local relation: Catalyst evaluates a projection over it on the
    # driver, then scans its rows in several tasks
    "computed_nan": (
        lambda s: s.sql(
            "SELECT * FROM VALUES (CAST('NaN' AS DOUBLE), 'x'), (1.0, NULL), (NULL, 'y') AS t(a, c)"
        ),
        2,
    ),
}


@pytest.mark.parametrize("bins", [1, 7, 20])
def test_spectrum_of_cached_frame_equals_row_order_oracle(cached7, bins):
    pd.testing.assert_frame_equal(
        spectrum_pass(cached7, bins), _oracle_spectrum(cached7, bins), check_exact=True
    )


@pytest.mark.parametrize("make, bins", FRAMES.values(), ids=FRAMES.keys())
def test_spectrum_equals_row_order_oracle(spark, make, bins):
    df = make(spark)
    pd.testing.assert_frame_equal(spectrum_pass(df, bins), _oracle_spectrum(df, bins), check_exact=True)


def test_spectrum_of_uncached_shuffle_equals_row_order_oracle(spark):
    # An uncached shuffle's row order inside a partition can change from job
    # to job (map outputs are fetched in no fixed order), so a cell here is
    # missing by partition: offsets that are wrong, or rows numbered twice
    # or not at all, still move the segments that straddle two partitions.
    pid, ids = F.spark_partition_id(), F.col("id")
    df = (
        spark.range(0, 997)
        .repartition(5)
        .withColumn("v", F.when(pid % 2 == 0, None).otherwise(ids))
        .withColumn("w", F.when(pid == 1, F.lit(float("nan"))).otherwise(ids / 7))
    )
    pd.testing.assert_frame_equal(spectrum_pass(df, 20), _oracle_spectrum(df, 20), check_exact=True)


def test_scan_raises_when_partition_layout_moves(cached7, monkeypatch):
    # every partition's rows counted against the next partition id
    shifted = {pid + 1: rows for pid, rows in compute.partition_rows(cached7).items()}
    monkeypatch.setattr(compute, "partition_rows", lambda df: shifted)
    with pytest.raises(RuntimeError, match="partition layout changed"):
        spectrum_pass(cached7, 5)


def test_report_histograms_equal_histogram_pass(spark):
    g = np.random.default_rng(7)
    n, bins = 900, Config.from_user()["hist.bins"]
    k = np.arange(n)
    pdf = pd.DataFrame({
        "k": k.astype("float64"),
        "big": 1e9 + g.normal(0.0, 1.0, n),
        # values on the edges, and steps where floor((v − mn) / width)
        # differs from multiplying by 1 / width or searching the edges
        "edges": np.resize(np.linspace(-1.0, 2.0, bins + 1), n),
        "tenths": 1 + (k % 31) / 10,
        "hundredths": -5 + (k % 301) / 100,
        "const": np.full(n, 7.0),
        "allnull": np.full(n, np.nan),
        "inf": g.normal(size=n),
        "nulls": g.normal(size=n),
        "ints": g.integers(-3, 17, n),
        "cat": g.choice(["u", "v"], n).astype(object),
    })
    pdf.loc[::9, "inf"] = np.inf
    pdf.loc[::13, "inf"] = -np.inf
    pdf.loc[::5, "nulls"] = np.nan  # pandas ingestion: NULL
    df = (
        spark.createDataFrame(pdf)
        .withColumn("nan", F.when(F.col("k") % 7 == 0, F.lit(float("nan"))).otherwise(F.col("k") / 3))
        .repartition(3)
    )
    df.cache().count()
    try:
        types = detect_types(df)
        num = [c for c, t in types.items() if t is EDAType.NUMERICAL]
        assert {"allnull", "const", "nan", "inf"} <= set(num)
        stats = compute.basic_stats_pass(df, types)
        want = compute.histogram_pass(
            df, num, {c: (stats[c]["min"], stats[c]["max"]) for c in num}, bins
        )
        got = create_report(df).intermediates["variables"]
    finally:
        df.unpersist()
    for c in num:
        counts, edges = want[c]
        np.testing.assert_array_equal(got[c]["hist"]["counts"], counts, err_msg=c)
        np.testing.assert_array_equal(got[c]["hist"]["edges"], edges, err_msg=c)
    assert want["const"][0].tolist() == [n]
    assert want["allnull"][0].size == 0
    assert want["edges"][0].sum() == n
