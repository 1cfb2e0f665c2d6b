"""The numeric stats below the cell budget against a pandas/numpy oracle.

``create_report``, ``plot(df)`` and ``plot(df, c)`` take them from one
collect (``compute.numeric_stats``). On a frame holding NaN, computed NaN,
null, ±inf, a constant, an all-null column and a column near 1e9, and on 0
and 1 rows: the counts exactly (``ninfinite`` None when every value is
missing); ``distinct`` as pandas' ``nunique`` of the finite values; the
quantile at ``p`` as ``sorted[ceil(p·n) − 1]`` of them; the moments as
pandas' within ``test_moments``' tolerance at the column's offset.
"""
import math

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import compute, create_report, plot
from repro.core.dtypes import EDAType, detect_types

from .test_moments import _population_moments, _tol

FAR = 1e9


def _adversarial(spark):
    g = np.random.default_rng(21)
    n = 3000
    pdf = pd.DataFrame({
        "x": g.normal(size=n),
        "far": FAR + g.normal(size=n),
        "const": np.full(n, 7.0),
        "allnull": np.full(n, np.nan),
        "i": np.round(g.normal(size=n) * 3),
        "cat": g.choice(["u", "v", None], n).astype(object),
    })
    pdf.loc[::9, "x"] = np.inf
    pdf.loc[::13, "x"] = -np.inf
    pdf.loc[::7, "x"] = np.nan  # pandas ingestion: NULL
    pdf.loc[::5, "i"] = np.nan
    return (
        spark.createDataFrame(pdf)
        .withColumn("i", F.col("i").cast("int"))
        .withColumn("nan", F.when(F.col("i") == 0, F.lit(float("nan"))).otherwise(F.col("x")))
        .repartition(3)
    )


FRAMES = {
    "adversarial": _adversarial,
    "one_row": lambda s: s.createDataFrame([(1.5, None, "a")], "x DOUBLE, i INT, cat STRING"),
    "zero_rows": lambda s: s.createDataFrame([], "x DOUBLE, i INT, cat STRING"),
}


def _task_stats(df) -> dict[str, dict[str, dict]]:
    """Each task's stats of each numeric column."""
    num = [c for c, t in detect_types(df).items() if t is EDAType.NUMERICAL]
    variables = create_report(df).intermediates["variables"]
    overview = plot(df).intermediates["col_stats"]
    return {
        "create_report": {c: variables[c]["stats"] for c in num},
        "plot": {c: overview[c] for c in num},
        "plot_col": {c: plot(df, c).intermediates["stats"] for c in num},
    }


def _assert_oracle(task: str, stats: dict, raw: pd.Series, nrows: int) -> None:
    col, c = raw.name, f"{task}:{raw.name}"
    raw = raw.astype("float64")
    v = np.sort(raw[np.isfinite(raw)].to_numpy())
    n = v.size
    nmissing = int(raw.isna().sum())
    assert stats["count"] == n, c
    assert stats["nmissing"] == nmissing, c
    assert stats["ninfinite"] == (None if nmissing == nrows else int(np.isinf(raw).sum())), c
    assert stats["distinct"] == pd.Series(v).nunique(), c
    if n == 0:
        rest = ("min", "max", "nzero", "nnegative", "sum", "mean", "std", "skew", "kurt")
        assert all(stats[k] is None for k in rest), c
        assert all(q is None for q in stats.get("quantiles", {}).values()), c
        return
    assert (stats["min"], stats["max"]) == (v[0], v[-1]), c
    assert (stats["nzero"], stats["nnegative"]) == ((v == 0).sum(), (v < 0).sum()), c
    for p, q in stats.get("quantiles", {}).items():
        assert q == v[math.ceil(p * n) - 1], (c, p)
    tol = _tol(FAR if col == "far" else 0.0)
    s = pd.Series(v)
    assert stats["sum"] == pytest.approx(s.sum(), rel=tol), c
    assert stats["mean"] == pytest.approx(s.mean(), rel=tol), c
    if n == 1:
        assert stats["std"] is None, c
    else:
        assert stats["std"] == pytest.approx(s.std(ddof=1), rel=tol), c
    if n < 3 or s.std() == 0:  # one value or a constant: no skew or kurtosis
        assert np.isnan(stats["skew"]) and np.isnan(stats["kurt"]), c
    else:
        g1, g2 = _population_moments(s)
        assert stats["skew"] == pytest.approx(g1, abs=tol), c
        assert stats["kurt"] == pytest.approx(g2, abs=tol), c


@pytest.mark.parametrize("make", FRAMES.values(), ids=FRAMES.keys())
def test_numeric_stats_match_the_oracle(spark, make):
    df = make(spark)
    raw = df.toPandas()
    for task, stats in _task_stats(df).items():
        assert stats, task
        for c, col_stats in stats.items():
            _assert_oracle(task, col_stats, raw[c], len(raw))


def test_numeric_stats_keys_are_the_stats_pass(spark):
    """The same keys in the same order as ``basic_stats_pass``' numeric entries."""
    df = _adversarial(spark)
    types = detect_types(df)
    num = [c for c, t in types.items() if t is EDAType.NUMERICAL]
    want = compute.basic_stats_pass(df, types, num, compute.STATS_QUANTILES)
    values = compute.driver_values(df, num, want["__table__"]["nrows"], num)
    got = compute.numeric_stats(
        values.values, values.flags, len(values.values), compute.STATS_QUANTILES
    )
    for c in num:
        assert list(got[c]) == list(want[c]), c
        assert list(got[c]["quantiles"]) == list(want[c]["quantiles"]), c
