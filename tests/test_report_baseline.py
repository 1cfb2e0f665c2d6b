"""Tests for create_report and the eager baseline — including the
apples-to-apples agreement check: both systems must produce the same
numbers (only the execution strategy differs), otherwise Table 2 would be
comparing different computations.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.config import Config


class TestReport:
    def test_sections_present(self, report_result):
        for section in ("Overview", "Variables", "Interactions", "Correlations", "Missing Values"):
            assert section in report_result.html

    def test_all_columns_profiled(self, report_result, titanic_pdf):
        variables = report_result.intermediates["variables"]
        assert set(variables) == set(titanic_pdf.columns)

    def test_numeric_variable_contents(self, report_result):
        v = report_result.intermediates["variables"]["num_0"]
        for key in ("stats", "hist", "kde", "qq", "box"):
            assert key in v, key

    def test_categorical_variable_contents(self, report_result):
        v = report_result.intermediates["variables"]["cat_0"]
        assert "stats" in v and "bar" in v

    def test_interactions_all_numeric_pairs(self, report_result):
        inter = report_result.intermediates["interactions"]
        assert len(inter) == 7 * 6 // 2

    def test_correlation_matrices_complete(self, report_result):
        corr = report_result.intermediates["correlations"]
        for m in ("pearson", "spearman", "kendall"):
            assert corr[m].shape == (7, 7)

    def test_missing_section(self, report_result, titanic_pdf):
        miss = report_result.intermediates["missing"]
        assert miss["bar"].sum() == titanic_pdf.isna().sum().sum()
        assert "dendrogram" in miss and "spectrum" in miss

    def test_quantiles_shared_with_box(self, report_result):
        # box geometry must be derived from the same quantile pass
        v = report_result.intermediates["variables"]["num_0"]
        q = v["stats"]["quantiles"]
        assert v["box"]["q1"] == q[0.25]
        assert v["box"]["q3"] == q[0.75]


class TestBaselineAgreement:
    """The eager profiler must agree with the fused pipeline."""

    def test_dataset_stats_agree(self, report_result, baseline_report):
        a = report_result.intermediates["dataset_stats"]
        b = baseline_report["dataset_stats"]
        for key in ("nrows", "ncols", "n_numerical", "n_categorical", "n_duplicate_rows"):
            assert a[key] == b[key], key

    @pytest.mark.parametrize("col", [f"num_{i}" for i in range(7)])
    def test_numeric_stats_agree(self, report_result, baseline_report, col):
        a = report_result.intermediates["variables"][col]["stats"]
        b = baseline_report["variables"][col]
        assert int(a["count"]) == int(b["count"])
        assert int(a["nmissing"]) == int(b["nmissing"])
        assert a["mean"] == pytest.approx(b["mean"], rel=1e-9)
        assert a["std"] == pytest.approx(b["std"], rel=1e-9)
        assert a["min"] == pytest.approx(b["min"])
        assert a["max"] == pytest.approx(b["max"])
        assert a["skew"] == pytest.approx(b["skew"], rel=1e-6)

    @pytest.mark.parametrize("col", [f"num_{i}" for i in range(7)])
    def test_histograms_agree(self, report_result, baseline_report, col):
        a_counts = report_result.intermediates["variables"][col]["hist"]["counts"]
        b_counts, _ = baseline_report["variables"][col]["hist"]
        assert (np.asarray(a_counts) == np.asarray(b_counts)).all()

    @pytest.mark.parametrize("col", [f"cat_{i}" for i in range(5)])
    def test_value_counts_agree(self, report_result, baseline_report, col):
        a = report_result.intermediates["value_counts"][col]
        b = baseline_report["variables"][col]["value_counts"]
        common = min(len(a), len(b), 20)
        assert a.head(common).to_dict() == b.head(common).to_dict()

    def test_pearson_agrees(self, report_result, baseline_report):
        a = report_result.intermediates["correlations"]["pearson"]
        b = baseline_report["correlations"]["pearson"]
        assert np.allclose(a.values, b.values, atol=1e-9, equal_nan=True)

    def test_spearman_agrees(self, report_result, baseline_report):
        a = report_result.intermediates["correlations"]["spearman"]
        b = baseline_report["correlations"]["spearman"]
        assert np.allclose(a.values, b.values, atol=1e-9, equal_nan=True)

    def test_kendall_close(self, report_result, baseline_report):
        # different seeded samples → close, not identical
        a = report_result.intermediates["correlations"]["kendall"]
        b = baseline_report["correlations"]["kendall"]
        assert np.allclose(a.values, b.values, atol=0.15, equal_nan=True)

    def test_missing_bars_agree(self, report_result, baseline_report):
        a = report_result.intermediates["missing"]["bar"]
        b = baseline_report["missing"]["bar"]
        assert a.sort_index().to_dict() == b.sort_index().to_dict()

    def test_nullity_corr_agrees(self, report_result, baseline_report):
        a = report_result.intermediates["missing"]["nullity_corr"]
        b = baseline_report["missing"]["nullity_corr"]
        assert list(a.index) == list(b.index)
        if len(a):
            assert np.allclose(
                a.values.astype(float), b.values.astype(float), atol=1e-9, equal_nan=True
            )


class TestReportConfig:
    def test_report_title_config(self, titanic):
        from repro.core import create_report

        r = create_report(titanic, config={"render.report_title": "My Report", "correlation.methods": ("pearson",)})
        assert "My Report" in r.html

    def test_report_insights_nonempty(self, report_result):
        assert len(report_result.insights) > 0

    def test_fewer_methods_fewer_work(self, titanic):
        from repro.core import create_report

        r = create_report(titanic, config={"correlation.methods": ()})
        assert r.intermediates["correlations"] == {}


def test_baseline_interactions_skip_non_finite_pairs(spark):
    """A pair with NaN or ±inf on either side is left out before binning.

    Values sit on odd quarters of [0, 10], so with 20 bins none is near a
    bin edge and numpy's half-open bins give the oracle.
    """
    from repro.baseline import eager_profile_report

    x = [0.0, 0.25, 1.75, np.inf, 3.25, 5.25, -np.inf, 7.75, np.nan, 10.0, 9.25, 4.75]
    y = [10.0, 2.25, np.inf, 3.75, 0.0, np.nan, 6.25, 8.75, 1.25, 4.25, -np.inf, 0.75]
    pdf = pd.DataFrame({"x": x, "y": y})
    grid = eager_profile_report(spark.createDataFrame(pdf))["interactions"][("x", "y")]

    gs = Config.from_user()["hexbin.gridsize"]
    ok = pdf[np.isfinite(pdf["x"]) & np.isfinite(pdf["y"])]
    want, _, _ = np.histogram2d(
        ok["x"], ok["y"], bins=gs,
        range=[[ok["x"].min(), ok["x"].max()], [ok["y"].min(), ok["y"].max()]],
    )
    got = np.zeros((gs, gs), dtype="int64")
    got[grid["xbin"].to_numpy(), grid["ybin"].to_numpy()] = grid["count"].to_numpy()
    assert got.sum() == len(ok) == 6
    np.testing.assert_array_equal(got, want.astype("int64"))


def test_baseline_kendall_drops_infinity(spark):
    """±inf is missing in the baseline's Kendall sample too, as in the report's.

    Both draw the same seeded rows through ``compute.finite_sample``, so the
    tau-b matrices are equal to the last bit.
    """
    from repro.baseline import eager_profile_report
    from repro.core import create_report

    g = np.random.default_rng(9)
    n = 60
    x = g.normal(size=n)
    pdf = pd.DataFrame({"x": x, "y": 0.5 * x + g.normal(size=n), "z": g.normal(size=n)})
    pdf.loc[[4, 17], "x"] = [np.inf, -np.inf]
    pdf.loc[[9], "y"] = -np.inf
    pdf.loc[[30], "z"] = np.nan
    df = spark.createDataFrame(pdf)
    cfg = {"correlation.methods": ("kendall",)}
    assert n <= Config.from_user()["kendall.sample_size"]
    got = eager_profile_report(df, cfg)["correlations"]["kendall"]
    want = create_report(df, cfg).intermediates["correlations"]["kendall"]
    pd.testing.assert_frame_equal(got, want, check_exact=True)
