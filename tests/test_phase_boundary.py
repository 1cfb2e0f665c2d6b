"""The report's phase boundary (paper §5.2).

Below the cell budget ``create_report`` collects every column once and runs
the numeric stats, the co-moment kernel, Spearman, the shared sample, the
interactions, the categorical stats, the value counts and the duplicate
count on the driver; above it (here a budget of 0) they run in Spark. Both paths must give the
same counts, min/max, quantiles, histograms, spectrum and missing counts
exactly, and the same Pearson, nullity and Spearman to 1e-12. The moments
(sum, mean, std, skew, kurt) come from two passes over the collect on one
path and from Spark's centred aggregates on the other, and agree to 1e-12
relative; skew and kurt, which have no scale, also to 1e-12 absolute (a
skew that is 0 in exact arithmetic reads 0 on one path and 1e-16 on the
other). A column near a large offset gets ``test_moments``' tolerance at
that offset for the statistics of its deviations (std, skew, kurt) and
its Pearson: the two paths round the deviations differently below the
offset's ulp; its sum and mean keep 1e-12. Numeric ``distinct`` is exact
on the driver path (checked against pandas) and an HLL estimate in Spark
(``test_compute``'s bound). The sample is a seeded numpy draw on the
driver path, checked against pandas on the same draw. The categorical
stats, value counts (their order too) and the duplicate count are exact on
both paths, the duplicate count equal to pandas' ``duplicated``; the mean
label length agrees to 1e-12 relative, and categorical ``distinct`` is
exact on the driver path (pandas' ``nunique``) and an HLL estimate in
Spark. ``plot(df)`` and ``plot(df, c)`` cross the same boundary and are
held to the same rules.
So do the pair tasks (``plot(df, x, y)``, ``plot_missing(df, c1[, c2])``
and the correlation pair): their hexbins, lines, top groups, before/after
counts and box quartiles are equal on both paths, their scatter and
Kendall samples equal pandas' on the same draw.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import (
    compute, correlation, create_report, plot, plot_correlation, plot_missing, report,
)
from repro.core.config import Config
from repro.core.overview import duplicate_rows_pass

from .test_binning_scan import FRAMES, _mixed
from .test_correlation import kendall_oracle
from .test_moments import _tol
from .test_scan_shape import _jobs

ATOL = 1e-12
#: the adversarial frame's ``far`` column is N(FAR, 1)
FAR = 1e9


def _adversarial(spark):
    """NaN, computed NaN, null, ±inf, ties, a constant, an all-null column,
    a column near a large offset and a categorical column, in 3 partitions
    of more rows than two of the driver's kernel batches."""
    g = np.random.default_rng(3)
    n = 2 * correlation._DRIVER_BATCH + 900
    k = np.arange(n)
    pdf = pd.DataFrame({
        "k": k.astype("float64"),
        "x": g.normal(size=n),
        "far": FAR + g.normal(size=n),
        "ties": np.round(g.normal(size=n) * 2),
        "const": np.full(n, 7.0),
        "allnull": np.full(n, np.nan),
        "cat": g.choice(["u", "v", None], n).astype(object),
    })
    pdf.loc[::9, "x"] = np.inf
    pdf.loc[::13, "x"] = -np.inf
    pdf.loc[::5, "ties"] = np.nan  # pandas ingestion: NULL
    return (
        spark.createDataFrame(pdf)
        .withColumn("nan", F.when(F.col("k") % 7 == 0, F.lit(float("nan"))).otherwise(F.col("k") / 3))
        .repartition(3)
    )


#: the labels of ``_categorical``'s ``word``: non-ASCII (a combining
#: accent, a dotted capital I, an emoji), the empty string, and None
WORDS = ["é", "İ", "😀", "", "a", "Z", "e\u0301", None]


def _categorical(spark):
    """Labels against the Spark path's rules, in 3 partitions: non-ASCII
    values and the empty string, an all-null string column, a boolean, a
    datetime, 1,200 values of 2 rows each (ties across the 1,000-value cut
    of the value counts), and every row twice, the second time with a NaN
    where the first has a null and −0.0 where it has 0.0: 1,200 duplicate
    rows for pandas."""
    n = 1200
    i = np.arange(2 * n) % n
    pdf = pd.DataFrame({
        "id": np.arange(2 * n),
        "word": [WORDS[k % len(WORDS)] for k in i],
        "many": [f"v{k}" for k in i],
        "none": None,
        "flag": [(True, False, None)[k % 3] for k in i],
        "x": [None if k % 4 == 0 else float(k % 3) for k in i],
        "when": [None if k % 5 == 0 else pd.Timestamp("2020-01-01") + pd.Timedelta(days=k % 5) for k in i],
    })
    schema = "id long, word string, many string, none string, flag boolean, x double, when timestamp"
    second = f"id >= {n}"
    return (
        spark.createDataFrame(pdf, schema)
        .withColumn("x", F.expr(
            f"CASE WHEN {second} AND x IS NULL THEN CAST('NaN' AS DOUBLE) "
            f"WHEN {second} AND x = 0 THEN CAST('-0.0' AS DOUBLE) ELSE x END"
        ))
        .drop("id")
        .repartition(3)
    )


CASES = {
    **{name: make for name, (make, _) in FRAMES.items()},
    "cached7": lambda s: s.createDataFrame(_mixed(1000)).repartition(7),
    "adversarial": _adversarial,
    "categorical": _categorical,
}


def _both_paths(df, monkeypatch, config=None):
    below = create_report(df, config).intermediates
    with monkeypatch.context() as m:
        m.setattr(compute, "DRIVER_CELLS", 0)
        above = create_report(df, config).intermediates
    return below, above


def _same(a, b) -> bool:
    """Equal, NaN equal to NaN, dicts entry by entry."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b or (a != a and b != b)


#: the numeric stats the two paths take with different arithmetic
MOMENTS = ("sum", "mean", "std", "skew", "kurt")
#: the moments without a scale, held to ``ATOL`` absolute too
SCALE_FREE = ("skew", "kurt")


def _moment_tol(c: str, k: str) -> tuple[float, float]:
    """``(rtol, atol)`` of moment ``k`` of column ``c`` between the paths."""
    if c == "far" and k == "std":
        return _tol(FAR), 0.0
    if c == "far" and k in SCALE_FREE:
        return 0.0, _tol(FAR)
    return ATOL, ATOL if k in SCALE_FREE else 0.0


def _assert_stats_agree(c, got, want, finite: pd.Series):
    """``got`` (driver path) against ``want`` (Spark): exact but for the
    moments, a categorical column's mean label length and ``distinct``,
    checked against pandas' ``nunique`` of the column's ``finite`` values."""
    if "min_ts" in want:  # datetime: the same Spark pass on both paths
        assert _same(got, want), c
        return
    assert list(got) == list(want), c
    assert got["distinct"] == finite.nunique(), c
    if "len_mean" in want:  # categorical
        exact = [k for k in want if k not in ("distinct", "len_mean")]
        assert _same({k: got[k] for k in exact}, {k: want[k] for k in exact}), c
        if want["len_mean"] is None:
            assert got["len_mean"] is None, c
        else:
            np.testing.assert_allclose(got["len_mean"], want["len_mean"], rtol=ATOL, err_msg=c)
        return
    exact = [k for k in want if k not in MOMENTS and k != "distinct"]
    assert _same({k: got[k] for k in exact}, {k: want[k] for k in exact}), c
    for k in MOMENTS:
        if want[k] is None:
            assert got[k] is None, (c, k)
        else:
            rtol, atol = _moment_tol(c, k)
            np.testing.assert_allclose(
                got[k], want[k], rtol=rtol, atol=atol, equal_nan=True, err_msg=f"{c}.{k}"
            )


def _assert_paths_agree(df, below, above):
    rows = df.toPandas()
    finite = rows.replace([np.inf, -np.inf], np.nan)
    for c, sub in above["variables"].items():
        _assert_stats_agree(c, below["variables"][c]["stats"], sub["stats"], finite[c])
        if "hist" in sub:
            for k in ("counts", "edges"):
                np.testing.assert_array_equal(
                    below["variables"][c]["hist"][k], sub["hist"][k], err_msg=c
                )
    assert below["dataset_stats"] == above["dataset_stats"]
    assert below["dataset_stats"]["n_duplicate_rows"] == rows.duplicated().sum()
    _assert_value_counts_equal(below["value_counts"], above["value_counts"])
    for k in ("bar", "missing_rate"):
        pd.testing.assert_series_equal(below["missing"][k], above["missing"][k], check_exact=True)
    pd.testing.assert_frame_equal(
        below["missing"]["spectrum"], above["missing"]["spectrum"], check_exact=True
    )
    pairs = [("nullity", below["missing"]["nullity_corr"], above["missing"]["nullity_corr"])]
    pairs += [(m, below["correlations"][m], above["correlations"][m]) for m in ("pearson", "spearman")]
    for what, got, want in pairs:
        assert list(got.index) == list(want.index) and list(got.columns) == list(want.columns)
        # every entry to 1e-12 but the Pearson of ``far``, which gets its offset's tolerance
        tight = [c for c in got.index if what != "pearson" or c != "far"]
        for cols, atol in ((tight, ATOL), (list(got.index), _tol(FAR))):
            np.testing.assert_allclose(
                got.loc[cols, cols].to_numpy("float64"), want.loc[cols, cols].to_numpy("float64"),
                rtol=0, atol=atol, equal_nan=True, err_msg=what,
            )


def _assert_value_counts_equal(got: dict, want: dict):
    """The same columns, values, counts, order and exact totals."""
    assert list(got) == list(want)
    for c, counts in want.items():
        pd.testing.assert_series_equal(got[c], counts, check_exact=True)
        assert got[c].attrs == counts.attrs, c


@pytest.mark.parametrize("make", CASES.values(), ids=CASES.keys())
def test_driver_path_equals_distributed_path(spark, monkeypatch, make):
    df = make(spark)
    _assert_paths_agree(df, *_both_paths(df, monkeypatch))


def test_driver_path_equals_distributed_path_on_titanic(titanic, monkeypatch):
    _assert_paths_agree(titanic, *_both_paths(titanic, monkeypatch))


def _plot_both_paths(df, monkeypatch, *args):
    below = plot(df, *args).intermediates
    with monkeypatch.context() as m:
        m.setattr(compute, "DRIVER_CELLS", 0)
        above = plot(df, *args).intermediates
    return below, above


def _frame(request, name):
    if name == "titanic":
        return request.getfixturevalue("titanic")
    make = _categorical if name == "categorical" else _adversarial
    return make(request.getfixturevalue("spark"))


@pytest.mark.parametrize("name", ["titanic", "adversarial", "categorical"])
def test_overview_driver_path_equals_distributed_path(request, monkeypatch, name):
    """``plot(df)``: the stats, histograms, value counts and dataset
    statistics of both paths."""
    df = _frame(request, name)
    below, above = _plot_both_paths(df, monkeypatch)
    rows = df.toPandas()
    finite = rows.replace([np.inf, -np.inf], np.nan)
    assert list(below["col_stats"]) == list(above["col_stats"])
    for c, want in above["col_stats"].items():
        _assert_stats_agree(c, below["col_stats"][c], want, finite[c])
    assert list(below["hists"]) == list(above["hists"])
    for c, (counts, edges) in above["hists"].items():
        np.testing.assert_array_equal(below["hists"][c][0], counts, err_msg=c)
        np.testing.assert_array_equal(below["hists"][c][1], edges, err_msg=c)
    assert below["dataset_stats"] == above["dataset_stats"]
    assert below["dataset_stats"]["n_duplicate_rows"] == rows.duplicated().sum()
    _assert_value_counts_equal(below["value_counts"], above["value_counts"])


UNIVARIATE = {
    "titanic": ["num_0", "num_2"],
    "adversarial": ["x", "far", "ties", "const", "allnull", "nan"],
}


@pytest.mark.parametrize(
    "name, col", [(n, c) for n, cols in UNIVARIATE.items() for c in cols]
)
def test_univariate_driver_path_equals_distributed_path(request, monkeypatch, name, col):
    """``plot(df, c)``: stats, quantiles, histogram, Q-Q and box of both
    paths. The KDE and the outlier estimate read each path's own sample."""
    df = _frame(request, name)
    below, above = _plot_both_paths(df, monkeypatch, col)
    finite = df.select(col).toPandas()[col].replace([np.inf, -np.inf], np.nan)
    assert below["nrows"] == above["nrows"]
    _assert_stats_agree(col, below["stats"], above["stats"], finite)
    for k in ("counts", "edges"):
        np.testing.assert_array_equal(below["hist"][k], above["hist"][k], err_msg=k)
    np.testing.assert_array_equal(below["qq"]["sample"], above["qq"]["sample"])
    rtol, atol = _moment_tol(col, "std")
    np.testing.assert_allclose(
        below["qq"]["theoretical"], above["qq"]["theoretical"], rtol=rtol, atol=atol
    )
    box = [k for k in above["box"] if k != "n_outliers_est"]
    assert _same({k: below["box"][k] for k in box}, {k: above["box"][k] for k in box})


CATEGORICAL = {"titanic": ["cat_0", "cat_1"], "categorical": ["word", "many", "none", "flag"]}


@pytest.mark.parametrize(
    "name, col", [(n, c) for n, cols in CATEGORICAL.items() for c in cols]
)
def test_univariate_categorical_driver_path_equals_distributed_path(
    request, monkeypatch, name, col
):
    """``plot(df, c)`` of a categorical column: stats, value counts, bar and
    pie of both paths. The word counts run in Spark on both."""
    df = _frame(request, name)
    below, above = _plot_both_paths(df, monkeypatch, col)
    assert below["nrows"] == above["nrows"]
    _assert_stats_agree(col, below["stats"], above["stats"], df.select(col).toPandas()[col])
    _assert_value_counts_equal({col: below["value_counts"]}, {col: above["value_counts"]})
    for k in ("bar", "pie"):
        pd.testing.assert_series_equal(below[k], above[k], check_exact=True)
    assert below["words"]["word_counts"].equals(above["words"]["word_counts"])


def test_constant_column_moments_agree_above_the_budget(spark, monkeypatch):
    """A constant whose value is not exact in binary (0.1) has std 0 and NaN
    skew and kurt on both paths, in ``plot(df, c)`` and in the report. Spark's
    streaming moments gave 999 rows of it in 3 partitions a std of 6e-18."""
    g = np.random.default_rng(14)
    n = 999
    pdf = pd.DataFrame({"tenth": np.full(n, 0.1), "x": g.normal(size=n)})
    df = spark.createDataFrame(pdf).repartition(3)
    below, above = _plot_both_paths(df, monkeypatch, "tenth")
    _assert_stats_agree("tenth", below["stats"], above["stats"], pdf["tenth"])
    below, above = _both_paths(df, monkeypatch)
    for c in pdf:
        _assert_stats_agree(c, below["variables"][c]["stats"], above["variables"][c]["stats"], pdf[c])
    stats = above["variables"]["tenth"]["stats"]
    assert stats["std"] == 0.0 and np.isnan(stats["skew"]) and np.isnan(stats["kurt"])


def test_below_the_budget_no_scan_and_no_sample_job(titanic, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a Spark pass the driver path replaces ran")

    monkeypatch.setattr(report, "comoment_scan", fail)
    monkeypatch.setattr(report.compute, "finite_sample", fail)
    monkeypatch.setattr(correlation, "rank_scan", fail)
    create_report(titanic)


def test_below_the_budget_no_numeric_stats_aggregate(titanic, monkeypatch):
    """The report, ``plot(df)`` and ``plot(df, c)`` take their numeric stats,
    quantiles and histograms from the one collect: no melted numeric
    aggregate, histogram job or Spark sample runs."""
    melted = compute._melted_stats

    def categorical_only(df, cols, cast, aggs):
        assert cast != "double", f"a numeric stats aggregate ran over {cols}"
        return melted(df, cols, cast, aggs)

    def fail(*args, **kwargs):
        raise AssertionError("a Spark pass the driver path replaces ran")

    monkeypatch.setattr(compute, "_melted_stats", categorical_only)
    for name in ("histogram_pass", "binned_counts", "sample_pass"):
        monkeypatch.setattr(compute, name, fail)
    create_report(titanic)
    plot(titanic)
    plot(titanic, "num_0")


def test_overview_numeric_stats_and_histograms_equal_the_reports(titanic):
    """Below the budget ``plot(df)`` reads the report's rules over the same
    values: its numeric stats and histograms equal the report's exactly."""
    got = plot(titanic).intermediates
    want = create_report(titanic).intermediates["variables"]
    numeric = [c for c, sub in want.items() if sub["type"] == "numerical"]
    assert numeric
    for c in numeric:
        report = {k: v for k, v in want[c]["stats"].items() if k != "quantiles"}
        assert _same(got["col_stats"][c], report), c
        counts, edges = got["hists"][c]
        np.testing.assert_array_equal(counts, want[c]["hist"]["counts"], err_msg=c)
        np.testing.assert_array_equal(edges, want[c]["hist"]["edges"], err_msg=c)


def test_above_the_budget_the_sample_and_scan_jobs_run(spark, titanic, monkeypatch):
    """Budget 0: the numeric stats aggregate, the Spark sample, the
    co-moment scan and the distributed Spearman rank replace the one
    collect: 16 jobs where ``test_report_composition.PINNED_JOBS`` has 3
    below the budget."""
    monkeypatch.setattr(compute, "DRIVER_CELLS", 0)
    assert _jobs(spark, lambda: create_report(titanic)) == 16


def test_duplicate_rows_take_null_and_nan_as_one_value(spark, monkeypatch):
    """pandas' ``duplicated`` takes a null and a NaN as one value, and 0.0
    and −0.0 too: two of these six rows repeat an earlier one, on both paths
    of the report and of ``plot(df)`` and in ``duplicate_rows_pass``."""
    df = spark.sql(
        "SELECT * FROM VALUES (CAST(NULL AS DOUBLE), 'a'), (CAST('NaN' AS DOUBLE), 'a'), "
        "(0.0D, 'b'), (CAST('-0.0' AS DOUBLE), 'b'), (CAST('Infinity' AS DOUBLE), 'c'), "
        "(CAST('-Infinity' AS DOUBLE), 'c') AS t(x, s)"
    )
    assert df.toPandas().duplicated().sum() == 2
    assert duplicate_rows_pass(df) == 2
    for budget in (compute.DRIVER_CELLS, 0):
        monkeypatch.setattr(compute, "DRIVER_CELLS", budget)
        assert create_report(df).intermediates["dataset_stats"]["n_duplicate_rows"] == 2, budget
        assert plot(df).intermediates["dataset_stats"]["n_duplicate_rows"] == 2, budget


def test_duplicate_rows_keep_integers_exact(spark, monkeypatch):
    """2**53 and 2**53 + 1 are one double but two integers: no duplicate
    on either path, as in pandas."""
    df = spark.sql("SELECT * FROM VALUES (9007199254740992L, 'a'), (9007199254740993L, 'a') AS t(n, s)")
    assert df.toPandas().duplicated().sum() == 0
    for budget in (compute.DRIVER_CELLS, 0):
        monkeypatch.setattr(compute, "DRIVER_CELLS", budget)
        assert create_report(df).intermediates["dataset_stats"]["n_duplicate_rows"] == 0, budget
        assert plot(df).intermediates["dataset_stats"]["n_duplicate_rows"] == 0, budget


def test_duplicate_rows_equal_pandas():
    """``compute.duplicate_rows`` over raw doubles and dictionary codes is
    pandas' ``duplicated`` of the same rows, key overflow included."""
    g = np.random.default_rng(17)
    for ncols, card in ((3, 3), (40, 4), (6, 50)):
        values = g.integers(0, card, size=(ncols, 500)).astype("float64")
        values[values == 0] = np.nan
        values[values == 1] = -0.0
        values[values == 2] = np.inf
        codes = g.integers(-1, card, size=500).astype("int32")
        pdf = pd.DataFrame({**{f"v{i}": v for i, v in enumerate(values)}, "c": codes})
        want = int(pdf.duplicated().sum())
        assert compute.duplicate_rows([*values, codes], 500) == want, (ncols, card)
    assert compute.duplicate_rows([], 0) == 0


@pytest.mark.parametrize("name", ["titanic", "categorical"])
def test_below_the_budget_no_categorical_job(request, monkeypatch, name):
    """When the labels fit, the report and ``plot(df)`` take the categorical
    stats, value counts and duplicate count from the one collect: no stats
    aggregate but the datetime one, no value count and no ``distinct``."""
    from pyspark.sql import DataFrame

    df = _frame(request, name)
    melted = compute._melted_stats

    def datetime_only(df, cols, cast, aggs):
        assert cast == "timestamp", f"a {cast} stats aggregate ran over {cols}"
        return melted(df, cols, cast, aggs)

    def fail(*args, **kwargs):
        raise AssertionError("a Spark pass the driver path replaces ran")

    monkeypatch.setattr(compute, "_melted_stats", datetime_only)
    monkeypatch.setattr(compute, "category_counts", fail)
    monkeypatch.setattr(DataFrame, "distinct", fail)
    create_report(df)
    plot(df)


def test_labels_over_the_budget_take_the_spark_passes(spark, monkeypatch):
    """A label costs ``LABEL_CELLS`` plus its bytes / 8 in the budget. 300
    rows of two values, a short label and a 600-byte text are 675 cells
    with their flags and no labels, over 25,000 with the labels: at a
    budget of 2,000 the numeric values come to the driver and the
    categorical stats, value counts and duplicate count run in Spark, and
    the report and ``plot(df)`` equal the whole-frame collect's."""
    g = np.random.default_rng(18)
    n = 300
    pdf = pd.DataFrame({
        "x": g.normal(size=n),
        "y": g.choice([1.0, 2.0, np.nan], n),
        "cat": g.choice(["p", "q", None], n).astype(object),
        "text": [str(i % 11) + "x" * 599 for i in range(n)],
    })
    pdf = pd.concat([pdf.iloc[: n - 40], pdf.iloc[:40]], ignore_index=True)  # 40 repeats
    df = spark.createDataFrame(pdf).repartition(3)
    df.cache().count()
    passes, value_counts = [], compute.value_counts_pass

    def spy(*args, **kwargs):
        passes.append(args[1])
        return value_counts(*args, **kwargs)

    monkeypatch.setattr(compute, "value_counts_pass", spy)
    try:
        whole = create_report(df).intermediates, plot(df).intermediates
        assert passes == []
        monkeypatch.setattr(compute, "DRIVER_CELLS", 2_000)
        split = create_report(df).intermediates, plot(df).intermediates
    finally:
        df.unpersist()
    assert passes == [["cat", "text"]] * 2
    _assert_paths_agree(df, whole[0], split[0])
    assert whole[0]["dataset_stats"]["n_duplicate_rows"] == 40
    for c, want in split[1]["col_stats"].items():
        _assert_stats_agree(c, whole[1]["col_stats"][c], want, pdf[c])
    assert whole[1]["dataset_stats"] == split[1]["dataset_stats"]
    _assert_value_counts_equal(whole[1]["value_counts"], split[1]["value_counts"])


def _bins(v: np.ndarray, finite: np.ndarray, gs: int) -> np.ndarray:
    """``floor((v − mn) / width)`` capped, over the column's finite min/max."""
    mn, mx = finite.min(), finite.max()
    if mx == mn:
        return np.zeros(v.size, dtype="int64")
    return np.minimum(np.floor((v - mn) / ((mx - mn) / gs)), gs - 1).astype("int64")


def test_interactions_bin_every_finite_pair(spark):
    """Below the budget the interactions count every row, not a sample."""
    cfg = Config.from_user()
    gs, n = cfg["hexbin.gridsize"], cfg["kde.sample_size"] + 1000
    g = np.random.default_rng(8)
    pdf = pd.DataFrame({"x": g.normal(size=n), "y": g.exponential(size=n), "z": np.full(n, 2.0)})
    pdf.loc[::11, "x"] = np.nan
    pdf.loc[::17, "y"] = np.inf
    df = spark.createDataFrame(pdf).repartition(4)
    got = create_report(df, {"correlation.methods": ()}).intermediates["interactions"]
    assert list(got) == [("x", "y"), ("x", "z"), ("y", "z")]
    for a, b in got:
        x, y = pdf[a].to_numpy(), pdf[b].to_numpy()
        ok = np.isfinite(x) & np.isfinite(y)
        xb = _bins(x[ok], x[np.isfinite(x)], gs)
        yb = _bins(y[ok], y[np.isfinite(y)], gs)
        want = np.bincount(xb * gs + yb, minlength=gs * gs).reshape(gs, gs)
        grid = np.zeros((gs, gs), dtype="int64")
        grid[got[(a, b)]["xbin"], got[(a, b)]["ybin"]] = got[(a, b)]["count"]
        np.testing.assert_array_equal(grid, want, err_msg=f"{a} × {b}")
        assert grid.sum() == ok.sum() > cfg["kde.sample_size"]


def test_sample_kde_and_kendall_equal_pandas_on_the_same_draw(spark):
    """The driver path's sample is the head of one seeded permutation of the
    collected rows: KDE and Kendall equal pandas on the same rows, and
    ``plot_correlation(df)`` draws the same Kendall rows."""
    cfg = Config.from_user()
    n = cfg["kendall.sample_size"] + 500
    g = np.random.default_rng(12)
    x = g.normal(size=n)
    pdf = pd.DataFrame({"x": x, "y": 0.4 * x + g.normal(size=n), "t": np.round(g.normal(size=n))})
    pdf.loc[::23, "y"] = np.nan
    pdf.loc[[5, 60], "t"] = [np.inf, -np.inf]
    df = spark.createDataFrame(pdf).repartition(3)
    df.cache().count()
    try:
        got = create_report(df).intermediates
        matrix_kendall = plot_correlation(df).intermediates["kendall"]
        rows = df.toPandas()  # collect order: partition order
    finally:
        df.unpersist()
    rows = rows.replace([np.inf, -np.inf], np.nan)
    size = max(cfg["kde.sample_size"], cfg["kendall.sample_size"])
    draw = rows.iloc[np.random.default_rng(cfg["compute.seed"]).permutation(n)[:size]]

    for c in rows.columns:
        s = draw[c].dropna().head(cfg["kde.sample_size"]).to_numpy()
        grid = np.linspace(rows[c].min(), rows[c].max(), cfg["kde.grid_points"])
        h = pd.Series(s).std() * s.size ** (-1 / 5)
        want = np.exp(-0.5 * ((grid[:, None] - s[None, :]) / h) ** 2).mean(axis=1)
        want /= h * np.sqrt(2 * np.pi)
        kde = got["variables"][c]["kde"]
        np.testing.assert_allclose(kde["grid"], grid, rtol=1e-15, err_msg=c)
        np.testing.assert_allclose(kde["density"], want, rtol=1e-12, atol=0, err_msg=c)

    sample = draw.head(cfg["kendall.sample_size"])
    kendall = got["correlations"]["kendall"]
    for a in rows.columns:
        for b in rows.columns:
            if a != b:  # pairwise-complete: each pair over its own finite rows
                want = kendall_oracle(sample[a].to_numpy(), sample[b].to_numpy())
                assert kendall.loc[a, b] == pytest.approx(want, rel=0, abs=ATOL), (a, b)
    pd.testing.assert_frame_equal(matrix_kendall, kendall, check_exact=True)


def test_single_threaded_blas_restores_the_thread_count():
    """The driver's kernel runs its matrix products on one BLAS thread, as
    Spark's Python workers do, and gives the count back afterwards, also
    when more threads than cores enter the block at once."""
    import sys
    import threading

    from repro.core import compute

    openblas = compute._openblas_threads()
    if openblas is None:
        pytest.skip("numpy is not linked against its own OpenBLAS here")
    get, put = openblas
    before = get()
    seen = []

    def enter():
        for _ in range(200):
            with compute.single_threaded_blas():
                seen.append(get())

    put(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1] * 1600
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        put(before)


# -- the pair tasks: plot(df, x, y), plot_missing(df, c1[, c2]) and the
# correlation pair cross the same boundary --------------------------------


@pytest.fixture(scope="module")
def adversarial(spark):
    """The adversarial frame, cached: its collect order is then the order
    of any scan of it, filtered or not, which the sample checks rebuild."""
    df = _adversarial(spark)
    df.cache().count()
    yield df
    df.unpersist()


def _sorted_grid(frame: pd.DataFrame) -> np.ndarray:
    """A hexbin's ``(xbin, ybin, count)`` rows as int64, in cell order."""
    grid = frame[["xbin", "ybin", "count"]].to_numpy("int64")
    return grid[np.lexsort((grid[:, 1], grid[:, 0]))]


def _assert_frames_equal(got: pd.DataFrame, want: pd.DataFrame, what: str):
    """The same columns and values, exactly; integer columns may differ in width."""
    assert list(got.columns) == list(want.columns), what
    for c in want.columns:
        g, w = got[c].to_numpy(), want[c].to_numpy()
        if w.dtype.kind in "iu":
            g, w = g.astype("int64"), w.astype("int64")
        np.testing.assert_array_equal(g, w, err_msg=f"{what}.{c}")


def _complete(df, cols) -> pd.DataFrame:
    """``cols`` of ``df`` as finite float64, NaN where missing or ±inf, in collect order."""
    return df.select(*cols).toPandas().astype("float64").replace([np.inf, -np.inf], np.nan)


def _draw(rows: pd.DataFrame, n: int) -> pd.DataFrame:
    """The head ``n`` of the seeded permutation of ``rows``: ``compute.drawn``'s rule."""
    perm = np.random.default_rng(Config.from_user()["compute.seed"]).permutation(len(rows))
    return rows.iloc[perm[:n]].reset_index(drop=True)


def _scatter(rows: pd.DataFrame) -> pd.DataFrame:
    """The scatter of ``rows``: its complete rows, drawn when more than the
    cap, sorted by their first value, then their second."""
    pairs = rows.dropna().reset_index(drop=True)
    size = Config.from_user()["scatter.sample_size"]
    points = pairs if len(pairs) <= size else _draw(pairs, size)
    a, b = points.to_numpy().T
    return points.iloc[np.lexsort((b, a))].reset_index(drop=True)


NUM_NUM = {
    "titanic": [("num_0", "num_1"), ("num_2", "num_3")],
    "adversarial": [("x", "far"), ("ties", "const"), ("nan", "ties"), ("x", "allnull")],
}


@pytest.mark.parametrize("name, x, y", [(n, *p) for n, pairs in NUM_NUM.items() for p in pairs])
def test_num_num_driver_path_equals_distributed_path(request, monkeypatch, name, x, y):
    """NN: the hexbin and the binned box (exact quartiles) of both paths
    are equal; the scatter is pandas' complete pairs on the same draw."""
    df = request.getfixturevalue(name)
    below, above = _plot_both_paths(df, monkeypatch, x, y)
    np.testing.assert_array_equal(_sorted_grid(below["hexbin"]), _sorted_grid(above["hexbin"]))
    for k in ("x_edges", "y_edges"):
        np.testing.assert_array_equal(below["hexbin"].attrs.get(k), above["hexbin"].attrs.get(k))
    _assert_frames_equal(below["binned_box"], above["binned_box"], "binned_box")
    np.testing.assert_array_equal(
        below["binned_box"].attrs.get("x_edges"), above["binned_box"].attrs.get("x_edges")
    )
    rows = _complete(df, [x, y])
    assert below["hexbin"]["count"].sum() == rows.notna().all(axis=1).sum()
    np.testing.assert_array_equal(below["scatter"][[x, y]].to_numpy(), _scatter(rows).to_numpy())


NUM_CAT = {
    "titanic": [("num_0", "cat_0"), ("cat_1", "num_2")],
    "adversarial": [("x", "cat"), ("cat", "far"), ("const", "cat"), ("allnull", "cat")],
}


@pytest.mark.parametrize("name, a, b", [(n, *p) for n, pairs in NUM_CAT.items() for p in pairs])
def test_num_cat_driver_path_equals_distributed_path(request, monkeypatch, name, a, b):
    """NC and CN: the top groups, the box per group (exact quartiles) and
    the lines of both paths are equal."""
    df = request.getfixturevalue(name)
    _assert_num_cat_equal(*_plot_both_paths(df, monkeypatch, a, b))


def _assert_num_cat_equal(below, above):
    assert below["groups"] == above["groups"]
    _assert_frames_equal(below["cat_box"], above["cat_box"], "cat_box")
    assert list(below["lines"]) == list(above["lines"])
    for g, line in above["lines"].items():
        np.testing.assert_array_equal(below["lines"][g], line, err_msg=g)
    np.testing.assert_array_equal(below.get("line_edges"), above.get("line_edges"))


def test_num_cat_top_groups_break_ties_by_value(spark, monkeypatch):
    """Six equally frequent categories, five groups: both paths keep the
    first five values in ascending order (UTF-8 byte order, code points)."""
    values = ["b", "a", "é", "d", "c", "Z"]
    pdf = pd.DataFrame({"g": values * 20, "n": np.arange(120.0)})
    df = spark.createDataFrame(pdf).repartition(3)
    below, above = _plot_both_paths(df, monkeypatch, "n", "g")
    assert below["groups"] == above["groups"] == sorted(values)[:5]
    _assert_frames_equal(below["cat_box"], above["cat_box"], "cat_box")


def test_num_cat_prices_a_label_by_its_bytes(spark, monkeypatch):
    """A collected label costs ``LABEL_CELLS`` plus its bytes / 8 in the
    budget. 200 rows of a value and a 600-byte label are 1,000 cells before
    the bytes and 16,000 with them: a budget of 2,000 takes the Spark path,
    one of 20,000 the driver path, and both give the same answer."""
    g = np.random.default_rng(15)
    n = 200
    pdf = pd.DataFrame({"text": [str(i % 7) + "x" * 599 for i in range(n)], "n": g.normal(size=n)})
    df = spark.createDataFrame(pdf).repartition(2)
    collected, driver_values = [], compute.driver_values

    def spy(*args, **kwargs):
        values = driver_values(*args, **kwargs)
        collected.append(values is not None)
        return values

    monkeypatch.setattr(compute, "driver_values", spy)
    got = {}
    for budget in (2_000, 20_000):
        monkeypatch.setattr(compute, "DRIVER_CELLS", budget)
        got[budget] = plot(df, "n", "text").intermediates
    assert collected == [False, True]
    _assert_num_cat_equal(got[20_000], got[2_000])


def _missing_both_paths(df, monkeypatch, *args):
    below = plot_missing(df, *args).intermediates
    with monkeypatch.context() as m:
        m.setattr(compute, "DRIVER_CELLS", 0)
        above = plot_missing(df, *args).intermediates
    return below, above


def _assert_counts_equal(got: dict, want: dict):
    """``plot_missing``'s before/after frames, their edges included."""
    assert list(got) == list(want)
    for c, frame in want.items():
        _assert_frames_equal(got[c], frame, c)
        np.testing.assert_array_equal(got[c].attrs.get("edges"), frame.attrs.get("edges"))


MISSING_COL = {"titanic": ["num_0", "cat_0"], "adversarial": ["x", "ties", "cat", "allnull"]}


@pytest.mark.parametrize("name, col", [(n, c) for n, cols in MISSING_COL.items() for c in cols])
def test_missing_col_driver_path_equals_distributed_path(request, monkeypatch, name, col):
    """``plot_missing(df, c1)``: rows, dropped rows, every before/after
    histogram and value count, and the shifts of both paths are equal."""
    df = request.getfixturevalue(name)
    below, above = _missing_both_paths(df, monkeypatch, col)
    assert (below["nrows"], below["n_dropped"]) == (above["nrows"], above["n_dropped"])
    assert below["n_dropped"] == int(df.select(col).toPandas()[col].isna().sum())
    _assert_counts_equal(below["numeric"], above["numeric"])
    _assert_counts_equal(below["categorical"], above["categorical"])
    assert _same(below["shift"], above["shift"])


MISSING_PAIR = {
    "titanic": [("num_0", "num_1"), ("num_0", "cat_0")],
    "adversarial": [("x", "far"), ("ties", "x"), ("x", "const"), ("x", "allnull"), ("x", "cat")],
}


@pytest.mark.parametrize("name, c1, c2", [(n, *p) for n, pairs in MISSING_PAIR.items() for p in pairs])
def test_missing_pair_driver_path_equals_distributed_path(request, monkeypatch, name, c1, c2):
    """``plot_missing(df, c1, c2)``, numeric and categorical ``c2``: the
    histogram, PDF, CDF, box (exact quartiles) or bar and the shift of both
    paths are equal."""
    df = request.getfixturevalue(name)
    below, above = _missing_both_paths(df, monkeypatch, c1, c2)
    assert below.keys() == above.keys()
    for k in ("hist", "bar"):
        if k in above:
            _assert_frames_equal(below[k], above[k], k)
            np.testing.assert_array_equal(below[k].attrs.get("edges"), above[k].attrs.get("edges"))
    for k in ("pdf", "cdf"):
        if k in above:
            for side in ("before", "after"):
                np.testing.assert_array_equal(below[k][side], above[k][side], err_msg=f"{k}.{side}")
    if "box" in above:
        assert _same(below["box"], above["box"])
    assert _same(below["shift"], above["shift"])


CORRELATION_PAIR = {
    "titanic": [("num_0", "num_1"), ("num_4", "num_6")],
    "adversarial": [("x", "far"), ("ties", "nan"), ("x", "const"), ("x", "allnull")],
}


@pytest.mark.parametrize(
    "name, a, b", [(n, *p) for n, pairs in CORRELATION_PAIR.items() for p in pairs]
)
def test_correlation_pair_driver_path_equals_distributed_path(request, monkeypatch, name, a, b):
    """The correlation pair: Pearson, Spearman and the line of both paths
    agree to 1e-12 (``far`` to its offset's tolerance); the scatter and
    Kendall are pandas' on the same draw of the collected rows."""
    df = request.getfixturevalue(name)
    below = plot_correlation(df, a, b).intermediates
    with monkeypatch.context() as m:
        m.setattr(compute, "DRIVER_CELLS", 0)
        above = plot_correlation(df, a, b).intermediates
    # Spearman reads ranks, which have no offset; the rest reads deviations
    tol = _tol(FAR) if "far" in (a, b) else ATOL
    for k, atol in (("pearson", tol), ("spearman", ATOL)):
        np.testing.assert_allclose(below[k], above[k], rtol=0, atol=atol, equal_nan=True, err_msg=k)
    for k in ("slope", "intercept"):
        np.testing.assert_allclose(
            below["regression"][k], above["regression"][k], rtol=tol, equal_nan=True, err_msg=k
        )
    rows = _complete(df, [a, b])
    np.testing.assert_array_equal(below["scatter"][[a, b]].to_numpy(), _scatter(rows).to_numpy())
    sample = _draw(rows, Config.from_user()["kendall.sample_size"]).dropna()
    if len(sample) >= 2:
        want = kendall_oracle(sample[a].to_numpy(), sample[b].to_numpy())
        assert below["kendall"] == pytest.approx(want, rel=0, abs=ATOL, nan_ok=True)
    else:
        assert np.isnan(below["kendall"])


def test_below_the_budget_the_pair_tasks_run_no_numeric_job(titanic, monkeypatch):
    """Below the budget no pair task runs a keyed ``groupBy``, a quartile
    sketch, a Spark sample, a binned count or a co-moment or rank scan over
    its numeric columns: the one collect replaces them. ``plot_missing(df,
    c1)``'s categorical value counts keep their ``groupBy``."""
    from pyspark.sql import DataFrame

    def fail(*args, **kwargs):
        raise AssertionError("a Spark pass the driver path replaces ran")

    for name in ("sample_pass", "finite_sample", "binned_counts"):
        monkeypatch.setattr(compute, name, fail)
    for name in ("comoment_scan", "rank_scan"):
        monkeypatch.setattr(correlation, name, fail)
    monkeypatch.setattr(F, "percentile_approx", fail)
    plot_missing(titanic, "num_0")
    group_by = DataFrame.groupBy

    def unkeyed(self, *cols):
        assert not cols, f"a groupBy over {cols} ran"
        return group_by(self)

    monkeypatch.setattr(DataFrame, "groupBy", unkeyed)
    plot(titanic, "num_0", "num_1")
    plot(titanic, "num_0", "cat_0")
    plot(titanic, "cat_0", "num_0")
    plot_missing(titanic, "num_0", "num_1")
    plot_correlation(titanic, "num_0", "num_1")
