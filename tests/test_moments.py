"""Moments, Pearson, Spearman and the regression line against pandas on
data far from zero.

A column N(offset, spread) is where moments from raw power sums cancel: at
an offset of 1e6 they give a skew of -3374 (pandas: -0.009), at 1e9 a std
of 0 and a NaN Pearson. Float64 holds a value near ``offset`` only to about
eps·offset, so pandas itself drifts by ~1e-7 at 1e9; the tolerance grows
with the offset from 1e-9 at 1e-14 per unit of offset.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import compute, create_report, plot, plot_correlation
from repro.core.dtypes import detect_types

OFFSETS = (0.0, 1e6, 1e9)
PEARSON_ONLY = {"correlation.methods": ["pearson"]}
WITHOUT_KENDALL = {"correlation.methods": ["pearson", "spearman"]}


def _tol(offset: float) -> float:
    return 1e-9 + 1e-14 * offset


@pytest.fixture(scope="module")
def base_pdf():
    g = np.random.default_rng(7)
    n = 3000
    pdf = pd.DataFrame({"x": g.gamma(2.0, 1.0, n), "z": g.normal(0.0, 1.0, n)})
    pdf["y"] = 0.6 * pdf["x"] + g.normal(0.0, 1.0, n)
    pdf.loc[g.random(n) < 0.05, "y"] = np.nan
    return pdf


@pytest.fixture(scope="module", params=OFFSETS, ids=lambda o: f"offset={o:g}")
def shifted(request, spark, base_pdf):
    offset = request.param
    pdf = base_pdf + offset
    df = spark.createDataFrame(pdf).repartition(4)
    df.cache().count()
    yield offset, df, pdf
    df.unpersist()


def _population_moments(s: pd.Series) -> tuple[float, float]:
    """pandas' sample skew G1 and kurtosis G2 as population g1 and g2."""
    n = len(s)
    g1 = s.skew() * (n - 2) / np.sqrt(n * (n - 1))
    g2 = (s.kurt() * (n - 2) * (n - 3) / (n - 1) - 6) / (n + 1)
    return g1, g2


def _assert_moments(stats: dict, pdf: pd.DataFrame, offset: float) -> None:
    tol = _tol(offset)
    for c in pdf.columns:
        s = pdf[c].dropna()
        g1, g2 = _population_moments(s)
        assert stats[c]["std"] == pytest.approx(s.std(ddof=1), rel=tol)
        assert stats[c]["skew"] == pytest.approx(g1, abs=tol)
        assert stats[c]["kurt"] == pytest.approx(g2, abs=tol)


def test_stats_moments_match_pandas(shifted):
    offset, df, pdf = shifted
    _assert_moments(compute.basic_stats_pass(df, detect_types(df)), pdf, offset)


def _report_stats(df) -> dict:
    variables = create_report(df, PEARSON_ONLY).intermediates["variables"]
    return {c: sub["stats"] for c, sub in variables.items()}


#: the numeric stats of each task that shows them: below the cell budget
#: they come from the one collect (``compute.numeric_stats``)
TASK_STATS = {
    "create_report": _report_stats,
    "plot": lambda df: plot(df).intermediates["col_stats"],
    "plot_col": lambda df: {c: plot(df, c).intermediates["stats"] for c in df.columns},
}


@pytest.mark.parametrize("stats", TASK_STATS.values(), ids=TASK_STATS.keys())
def test_task_stats_moments_match_pandas(shifted, stats):
    offset, df, pdf = shifted
    _assert_moments(stats(df), pdf, offset)


def _assert_pearson(got: pd.DataFrame, pdf: pd.DataFrame, offset: float) -> None:
    want = pdf.corr(method="pearson")
    got = got.reindex_like(want).to_numpy(dtype="float64")
    assert np.isfinite(got).all()
    assert np.abs(got - want.to_numpy()).max() <= _tol(offset)


def test_report_pearson_matches_pandas(shifted):
    offset, df, pdf = shifted
    report = create_report(df, config=PEARSON_ONLY)
    _assert_pearson(report.intermediates["correlations"]["pearson"], pdf, offset)


def test_plot_correlation_pearson_matches_pandas(shifted):
    offset, df, pdf = shifted
    result = plot_correlation(df, config=PEARSON_ONLY)
    _assert_pearson(result.intermediates["pearson"], pdf, offset)


def _assert_vector(got: pd.Series, want: pd.Series, offset: float) -> None:
    got = got.reindex_like(want).to_numpy(dtype="float64")
    assert np.isfinite(got).all()
    assert np.abs(got - want.to_numpy()).max() <= _tol(offset)


def test_vector_matches_pandas(shifted):
    offset, df, pdf = shifted
    inter = plot_correlation(df, "x", config=WITHOUT_KENDALL).intermediates
    _assert_vector(inter["pearson"], pdf.corr(method="pearson")["x"].drop("x"), offset)
    spearman = pdf.rank(method="average").corr(method="pearson")
    _assert_vector(inter["spearman"], spearman["x"].drop("x"), offset)


def test_pair_matches_pandas_and_polyfit(shifted):
    offset, df, pdf = shifted
    inter = plot_correlation(df, "x", "y", config=WITHOUT_KENDALL).intermediates
    tol = _tol(offset)
    assert inter["pearson"] == pytest.approx(pdf["x"].corr(pdf["y"]), abs=tol)
    both = pdf[["x", "y"]].dropna()
    slope, intercept = np.polyfit(both["x"], both["y"], 1)
    assert inter["regression"]["slope"] == pytest.approx(slope, rel=tol, abs=tol)
    assert inter["regression"]["intercept"] == pytest.approx(intercept, rel=tol, abs=tol)
