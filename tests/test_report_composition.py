"""``create_report`` is composed from the task views.

A report's variables, insights and Kendall matrix equal what ``plot`` and
``plot_correlation`` give for the same frame; every insight appears once;
the shared pass plan runs a pinned number of Spark jobs; and every entry
point returns on frames with no rows or with ±inf values.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import create_report, plot, plot_correlation, plot_missing
from repro.core.config import Config
from repro.core.dtypes import EDAType, detect_types
from repro.core.intermediates import EDAResult
from repro.core.missing import spectrum_pass

from .test_scan_shape import _jobs

RTOL = 1e-9


def _assert_close(got, want, what):
    if isinstance(want, dict):
        assert set(got) == set(want), what
        for k in want:
            _assert_close(got[k], want[k], f"{what}[{k}]")
    elif want is None or isinstance(want, str):
        assert got == want, what
    else:
        np.testing.assert_allclose(
            np.asarray(got, dtype="float64"), np.asarray(want, dtype="float64"),
            rtol=RTOL, equal_nan=True, err_msg=what,
        )


@pytest.fixture(scope="module")
def univariate(titanic):
    return {c: plot(titanic, c) for c in titanic.columns}


def test_report_variables_equal_univariate_views(report_result, univariate):
    variables = report_result.intermediates["variables"]
    for c, res in univariate.items():
        want, got = res.intermediates, variables[c]
        assert set(got.keys()) == set(want.keys()) - {"words"}, c
        for key in ("stats", "hist", "qq", "box"):
            if key in want:
                _assert_close(got[key], want[key], f"{c}.{key}")


def test_univariate_insights_equal_the_reports(report_result, univariate):
    for c, res in univariate.items():
        got = [i for i in report_result.insights if i.subject == c]
        assert [(i.kind, i.subject) for i in got] == [(i.kind, i.subject) for i in res.insights], c
        for a, b in zip(got, res.insights):
            assert a.value == pytest.approx(b.value, rel=RTOL, nan_ok=True), (c, a.kind)


def test_report_insights_each_once(report_result):
    facts = [(i.kind, i.subject) for i in report_result.insights]
    assert facts
    assert len(set(facts)) == len(facts)


def test_uniform_verdict_reads_full_value_counts(spark):
    # ten equally frequent values, then a long tail of singletons: the top
    # ten alone look uniform, the full distribution does not
    values = [f"v{i}" for i in range(10) for _ in range(100)] + [f"t{i}" for i in range(200)]
    df = spark.createDataFrame(pd.DataFrame({"c": values}))

    def uniform(res):
        return any(i.kind == "uniform" and i.subject == "c" for i in res.insights)

    assert uniform(plot(df, "c")) == uniform(plot(df)) == uniform(create_report(df)) == False  # noqa: E712


@pytest.fixture(scope="module")
def with_infinity(spark):
    g = np.random.default_rng(7)
    n = 200
    x = g.normal(size=n)
    pdf = pd.DataFrame({
        "x": x,
        "y": 0.5 * x + g.normal(size=n),
        "z": g.normal(size=n),
        "g": g.choice(["p", "q", "r"], n).astype(object),
    })
    pdf.loc[[3, 50], "x"] = [np.inf, -np.inf]
    pdf.loc[[10], "y"] = np.inf
    pdf.loc[[20, 21], "z"] = np.nan
    return spark.createDataFrame(pdf)


def test_num_num_edges_finite_with_infinity(with_infinity):
    inter = plot(with_infinity, "x", "y").intermediates
    hexbin, box = inter["hexbin"], inter["binned_box"]
    for edges in (hexbin.attrs["x_edges"], hexbin.attrs["y_edges"], box.attrs["x_edges"]):
        assert np.isfinite(edges).all()
    assert hexbin["count"].sum() == 197  # the rows where both values are finite
    assert box["count"].sum() == 197
    assert np.isfinite(inter["scatter"].to_numpy()).all()


def test_num_cat_edges_finite_with_infinity(with_infinity):
    inter = plot(with_infinity, "x", "g").intermediates
    assert np.isfinite(inter["line_edges"]).all()
    assert np.isfinite(inter["cat_box"][["min", "max", "q1", "median", "q3"]].to_numpy()).all()
    assert sum(int(line.sum()) for line in inter["lines"].values()) == 198


def test_report_kendall_equals_plot_correlation_with_infinity(with_infinity):
    cfg = {"correlation.methods": ("kendall",)}
    assert with_infinity.count() < Config.from_user()["kendall.sample_size"]
    got = create_report(with_infinity, cfg).intermediates["correlations"]["kendall"]
    want = plot_correlation(with_infinity, config=cfg).intermediates["kendall"]
    pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_spectrum_counts_computed_nan_as_missing(spark):
    # pandas ingestion turns NaN into NULL; only a computed NaN is a NaN
    df = spark.sql("SELECT * FROM VALUES (CAST('NaN' AS DOUBLE)), (1.0), (NULL) AS t(a)")
    spectrum = spectrum_pass(df, 1)
    assert spectrum["missing_rate"].tolist() == [pytest.approx(2 / 3)]


ENTRY_POINTS = {
    "create_report": lambda df: create_report(df),
    "plot": lambda df: plot(df),
    "plot_num": lambda df: plot(df, "n"),
    "plot_cat": lambda df: plot(df, "c"),
    "plot_num_num": lambda df: plot(df, "n", "m"),
    "plot_num_cat": lambda df: plot(df, "n", "c"),
    "plot_cat_cat": lambda df: plot(df, "c", "d"),
    "plot_correlation": lambda df: plot_correlation(df),
    "plot_correlation_col": lambda df: plot_correlation(df, "n"),
    "plot_correlation_pair": lambda df: plot_correlation(df, "n", "m"),
    "plot_missing": lambda df: plot_missing(df),
    "plot_missing_col": lambda df: plot_missing(df, "n"),
    "plot_missing_pair": lambda df: plot_missing(df, "n", "c"),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_entry_points_on_zero_rows(spark, call):
    df = spark.createDataFrame([], "n DOUBLE, m INT, c STRING, d STRING")
    res = call(df)
    assert isinstance(res, EDAResult) and isinstance(res.html, str)
    if "dataset_stats" in res.intermediates:
        assert res.intermediates["dataset_stats"]["nrows"] == 0


def _numeric(df):
    """``df``'s numerical columns only."""
    return df.select(*[c for c, t in detect_types(df).items() if t is EDAType.NUMERICAL])


#: Spark jobs of the report's shared pass plan (on the frame and on its
#: numerical columns alone: below the cell budget each is the gate and the
#: one collect, as ``plot(df)``'s is), of the ``plot_missing``
#: variants, of the overview, two univariate and two bivariate calls and of
#: the correlation vector and pair on the cached 4-partition titanic frame.
#: Under adaptive execution a count or an aggregate is two jobs.
PINNED_JOBS = {
    "create_report": (lambda df: create_report(df), 3),
    "create_report_numeric": (lambda df: create_report(_numeric(df)), 3),
    "plot_missing": (lambda df: plot_missing(df), 3),
    "plot_missing_num_0": (lambda df: plot_missing(df, "num_0"), 6),
    "plot_missing_num_0_num_1": (lambda df: plot_missing(df, "num_0", "num_1"), 3),
    "plot_missing_num_0_cat_0": (lambda df: plot_missing(df, "num_0", "cat_0"), 3),
    "plot": (lambda df: plot(df), 3),
    "plot_num_0": (lambda df: plot(df, "num_0"), 3),
    "plot_cat_0": (lambda df: plot(df, "cat_0"), 8),
    "plot_num_0_num_1": (lambda df: plot(df, "num_0", "num_1"), 3),
    "plot_num_0_cat_0": (lambda df: plot(df, "num_0", "cat_0"), 3),
    "plot_correlation_num_0": (lambda df: plot_correlation(df, "num_0"), 5),
    "plot_correlation_num_0_num_1": (lambda df: plot_correlation(df, "num_0", "num_1"), 3),
}


@pytest.mark.parametrize("call, want", PINNED_JOBS.values(), ids=PINNED_JOBS.keys())
def test_job_counts_pinned(spark, titanic, call, want):
    assert _jobs(spark, lambda: call(titanic)) == want


#: the same at a cell budget of 0, for the calls whose phase the row count
#: picks: their Spark paths, after that count (``create_report``'s 16 are
#: ``test_phase_boundary``'s)
PINNED_JOBS_ABOVE_THE_BUDGET = {
    "create_report_numeric": 11,
    "plot": 14,
    "plot_cat_0": 12,
    "plot_missing_num_0": 9,
    "plot_missing_num_0_num_1": 6,
    "plot_num_0_num_1": 9,
    "plot_num_0_cat_0": 8,
    "plot_correlation_num_0_num_1": 9,
}


@pytest.mark.parametrize(
    "name, want", PINNED_JOBS_ABOVE_THE_BUDGET.items(), ids=PINNED_JOBS_ABOVE_THE_BUDGET.keys()
)
def test_job_counts_pinned_above_the_budget(spark, titanic, monkeypatch, name, want):
    from repro.core import compute

    monkeypatch.setattr(compute, "DRIVER_CELLS", 0)
    call = PINNED_JOBS[name][0]
    assert _jobs(spark, lambda: call(titanic)) == want


def test_report_on_awkward_column_names(spark):
    """Names holding ``.`` or a backtick are taken literally by every pass.

    The report equals the one on the same frame with plain names.
    """
    g = np.random.default_rng(5)
    n = 300
    pdf = pd.DataFrame({
        "a.b": g.normal(size=n),
        "c`d": g.normal(2.0, 3.0, n),
        "e": g.choice(["u", "v", "w"], n).astype(object),
    })
    pdf.loc[::7, "a.b"] = np.nan
    pdf.loc[::11, "e"] = None
    awkward = spark.createDataFrame(pdf).repartition(3)
    awkward.cache().count()
    rename = {"a.b": "x", "c`d": "y", "e": "z"}
    try:
        got = create_report(awkward).intermediates
        want = create_report(awkward.toDF(*rename.values())).intermediates
    finally:
        awkward.unpersist()
    for c, plain in rename.items():
        assert got["variables"][c]["stats"] == want["variables"][plain]["stats"], c
    for c in ("a.b", "c`d"):
        for k in ("counts", "edges"):
            np.testing.assert_array_equal(
                got["variables"][c]["hist"][k], want["variables"][rename[c]]["hist"][k]
            )
    pd.testing.assert_series_equal(
        got["value_counts"]["e"].rename("z"), want["value_counts"]["z"], check_exact=True
    )
    pd.testing.assert_frame_equal(
        got["correlations"]["pearson"].rename(index=rename, columns=rename),
        want["correlations"]["pearson"],
        check_exact=True,
    )
    pd.testing.assert_series_equal(
        got["missing"]["bar"].rename(rename), want["missing"]["bar"], check_exact=True
    )
