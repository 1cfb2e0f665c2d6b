"""The report's phase boundary (paper §5.2).

Below the cell budget ``create_report`` collects the numeric values and
every column's missing flag once and runs the numeric stats, the co-moment
kernel, Spearman, the shared sample and the interactions on the driver;
above it (here a budget of 0) they run in Spark. Both paths must give the
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
driver path, checked against pandas on the same draw. ``plot(df)`` and
``plot(df, c)`` cross the same boundary and are held to the same rules.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import compute, correlation, create_report, plot, plot_correlation, report
from repro.core.config import Config
from repro.substrate import numutils

from .test_binning_scan import FRAMES, _mixed
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


CASES = {
    **{name: make for name, (make, _) in FRAMES.items()},
    "cached7": lambda s: s.createDataFrame(_mixed(1000)).repartition(7),
    "adversarial": _adversarial,
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
    moments and, in a numeric column, ``distinct``, checked against pandas'
    ``nunique`` of the column's ``finite`` values."""
    if "mean" not in want:  # categorical or datetime: the same Spark pass
        assert _same(got, want), c
        return
    assert list(got) == list(want), c
    assert got["distinct"] == finite.nunique(), c
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
    finite = df.toPandas().replace([np.inf, -np.inf], np.nan)
    for c, sub in above["variables"].items():
        _assert_stats_agree(c, below["variables"][c]["stats"], sub["stats"], finite[c])
        if "hist" in sub:
            for k in ("counts", "edges"):
                np.testing.assert_array_equal(
                    below["variables"][c]["hist"][k], sub["hist"][k], err_msg=c
                )
    assert below["dataset_stats"] == above["dataset_stats"]
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
    return request.getfixturevalue("titanic") if name == "titanic" else _adversarial(
        request.getfixturevalue("spark")
    )


@pytest.mark.parametrize("name", ["titanic", "adversarial"])
def test_overview_driver_path_equals_distributed_path(request, monkeypatch, name):
    """``plot(df)``: the stats, histograms and dataset statistics of both paths."""
    df = _frame(request, name)
    below, above = _plot_both_paths(df, monkeypatch)
    finite = df.toPandas().replace([np.inf, -np.inf], np.nan)
    assert list(below["col_stats"]) == list(above["col_stats"])
    for c, want in above["col_stats"].items():
        _assert_stats_agree(c, below["col_stats"][c], want, finite[c])
    assert list(below["hists"]) == list(above["hists"])
    for c, (counts, edges) in above["hists"].items():
        np.testing.assert_array_equal(below["hists"][c][0], counts, err_msg=c)
        np.testing.assert_array_equal(below["hists"][c][1], edges, err_msg=c)
    assert below["dataset_stats"] == above["dataset_stats"]
    assert below["value_counts"].keys() == above["value_counts"].keys()
    for c, counts in above["value_counts"].items():
        pd.testing.assert_series_equal(below["value_counts"][c], counts, check_exact=True)


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
    collect: 16 jobs where ``test_report_composition.PINNED_JOBS`` has 11
    below the budget."""
    monkeypatch.setattr(compute, "DRIVER_CELLS", 0)
    assert _jobs(spark, lambda: create_report(titanic)) == 16


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

    complete = draw.head(cfg["kendall.sample_size"]).dropna()
    kendall = got["correlations"]["kendall"]
    for a in rows.columns:
        for b in rows.columns:
            if a != b:
                want = numutils.kendall_tau(complete[a].to_numpy(), complete[b].to_numpy())
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
