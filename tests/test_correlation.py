"""Tests for correlation analysis — plot_correlation."""
import numpy as np
import pandas as pd
import pytest

from repro.core import plot_correlation
from repro.core.correlation import (
    kendall_matrix,
    pearson_matrix,
    ranked,
    spearman_matrix,
)
from repro.oracle import assert_equivalent
from repro.substrate import numutils


@pytest.fixture(scope="module")
def clean_pdf():
    g = np.random.default_rng(11)
    n = 400
    x = g.normal(0, 1, n)
    return pd.DataFrame(
        {
            "a": x,
            "b": x * 2 + g.normal(0, 0.3, n),      # strongly correlated with a
            "c": g.random(n),                       # independent
            "d": np.round(x * 3),                   # ties
        }
    )


@pytest.fixture(scope="module")
def clean_df(spark, clean_pdf):
    return spark.createDataFrame(clean_pdf)


class TestPearson:
    def test_matrix_vs_oracle(self, spark, clean_df, clean_pdf):
        mat = pearson_matrix(clean_df, ["a", "b", "c"])
        got = spark.createDataFrame(
            pd.DataFrame(
                {
                    "ab": [mat.loc["a", "b"]],
                    "ac": [mat.loc["a", "c"]],
                    "bc": [mat.loc["b", "c"]],
                }
            )
        )
        sql = "SELECT corr(a,b) AS ab, corr(a,c) AS ac, corr(b,c) AS bc FROM t"
        assert_equivalent(got, sql, t=clean_pdf)

    def test_matrix_symmetric_unit_diagonal(self, clean_df):
        mat = pearson_matrix(clean_df, ["a", "b", "c", "d"])
        assert np.allclose(mat.values, mat.values.T, equal_nan=True)
        assert np.allclose(np.diag(mat.values), 1.0)

    def test_pairwise_complete_with_nulls(self, spark):
        pdf = pd.DataFrame(
            {"x": [1.0, 2.0, 3.0, 4.0, np.nan], "y": [2.0, 4.0, 6.0, 8.0, 100.0]}
        )
        mat = pearson_matrix(spark.createDataFrame(pdf), ["x", "y"])
        assert mat.loc["x", "y"] == pytest.approx(1.0)

    def test_empty_and_single(self, clean_df):
        assert pearson_matrix(clean_df, []).empty
        one = pearson_matrix(clean_df, ["a"])
        assert one.loc["a", "a"] == 1.0


class TestSpearman:
    def test_matches_pandas(self, clean_df, clean_pdf):
        mat = spearman_matrix(clean_df, ["a", "b", "c", "d"])
        ref = clean_pdf[["a", "b", "c", "d"]].corr(method="spearman")
        assert np.allclose(mat.values, ref.values, atol=1e-9)

    def test_rank_transform_average_ties(self, spark):
        pdf = pd.DataFrame({"v": [10.0, 20.0, 20.0, 30.0]})
        out = ranked(spark.createDataFrame(pdf), ["v"]).toPandas()["v"]
        assert sorted(out) == [1.0, 2.5, 2.5, 4.0]

    def test_rank_keeps_nulls(self, spark):
        pdf = pd.DataFrame({"v": [10.0, None, 30.0]})
        out = ranked(spark.createDataFrame(pdf), ["v"]).toPandas()["v"]
        assert out.isna().sum() == 1
        assert sorted(out.dropna()) == [1.0, 2.0]

    def test_monotone_nonlinear_is_one(self, spark):
        pdf = pd.DataFrame({"x": np.arange(1.0, 50.0)})
        pdf["y"] = np.exp(pdf["x"] / 10)  # monotone, nonlinear
        mat = spearman_matrix(spark.createDataFrame(pdf), ["x", "y"])
        assert mat.loc["x", "y"] == pytest.approx(1.0)


def kendall_oracle(x, y) -> float:
    """Kendall's tau-b ``(C − D) / √((P − Tx)(P − Ty))`` of ``x`` and ``y``
    over the rows where both are finite, from every pair's signs: O(k²),
    the reference the O(k log k) kernel must equal (scipy is not installed)."""
    x = np.asarray(x, dtype="float64")
    y = np.asarray(y, dtype="float64")
    ok = np.isfinite(x) & np.isfinite(y)
    if ok.sum() < 2:
        return float("nan")
    upper = np.triu_indices(int(ok.sum()), k=1)
    sx = np.sign(x[ok][:, None] - x[ok][None, :])[upper].astype("int8")
    sy = np.sign(y[ok][:, None] - y[ok][None, :])[upper].astype("int8")
    concordant_minus_discordant = float((sx.astype("int32") * sy).sum())
    denom = np.sqrt(float(np.count_nonzero(sx)) * float(np.count_nonzero(sy)))
    return concordant_minus_discordant / denom if denom else float("nan")


def assert_kendall_matches_oracle(pdf: pd.DataFrame, cols: list[str]) -> None:
    """``kendall_matrix`` is 1 on the diagonal and the pairwise oracle off it, within 1e-12."""
    mat = kendall_matrix(pdf, cols)
    assert list(mat.index) == list(mat.columns) == cols
    for a in cols:
        for b in cols:
            want = 1.0 if a == b else kendall_oracle(pdf[a].to_numpy(), pdf[b].to_numpy())
            assert mat.loc[a, b] == pytest.approx(want, rel=0, abs=1e-12, nan_ok=True), (a, b)


class TestKendallMatrix:
    def test_matches_pairwise_kernel(self, clean_pdf):
        mat = kendall_matrix(clean_pdf, ["a", "b", "d"])
        for x, y in (("a", "b"), ("a", "d"), ("b", "d")):
            ref = kendall_oracle(clean_pdf[x].to_numpy(), clean_pdf[y].to_numpy())
            assert mat.loc[x, y] == pytest.approx(ref, abs=1e-12)

    def test_pairwise_complete_where_complete_case_differs(self):
        """Each pair reads every row where both of its values are finite, as
        pandas does, not only the rows complete in every column."""
        g = np.random.default_rng(7)
        n = 400
        x = g.normal(size=n)
        pdf = pd.DataFrame({"x": x, "y": x + g.normal(size=n), "z": g.normal(size=n)})
        pdf.loc[pdf["x"] > 0.5, "z"] = np.nan  # the complete rows lose x's top
        complete = pdf.dropna()
        gap = abs(kendall_oracle(complete["x"], complete["y"]) - kendall_oracle(pdf["x"], pdf["y"]))
        assert gap > 0.01
        assert_kendall_matches_oracle(pdf, ["x", "y", "z"])

    def test_fallback_pairwise_under_heavy_missingness(self):
        g = np.random.default_rng(2)
        n = 120
        pdf = pd.DataFrame({"x": g.random(n), "y": g.random(n)})
        # alternating missingness: almost no complete rows
        pdf.loc[::2, "x"] = np.nan
        pdf.loc[1::2, "y"] = np.nan
        pdf.loc[:20, ["x", "y"]] = g.random((21, 2))
        assert_kendall_matches_oracle(pdf, ["x", "y"])

    def test_perfect_orderings(self):
        pdf = pd.DataFrame({"x": np.arange(30.0), "y": np.arange(30.0) * 2})
        mat = kendall_matrix(pdf, ["x", "y"])
        assert mat.loc["x", "y"] == pytest.approx(1.0)

    def test_ties(self):
        g = np.random.default_rng(3)
        pdf = pd.DataFrame(g.integers(0, 4, size=(300, 3)).astype("float64"), columns=list("abc"))
        assert_kendall_matches_oracle(pdf, list("abc"))

    def test_nan_and_infinity_are_missing(self):
        g = np.random.default_rng(4)
        pdf = pd.DataFrame(np.round(g.normal(size=(200, 3)) * 3), columns=list("abc"))
        pdf.loc[g.random(200) < 0.2, "a"] = np.nan
        pdf.loc[[3, 50, 51], "b"] = [np.inf, -np.inf, np.inf]
        pdf.loc[[7, 9], "c"] = [-np.inf, np.nan]
        assert_kendall_matches_oracle(pdf, list("abc"))

    def test_constant_and_all_nan_columns(self):
        g = np.random.default_rng(5)
        pdf = pd.DataFrame({"x": g.normal(size=50), "k": 3.0, "e": np.nan})
        mat = kendall_matrix(pdf, ["x", "k", "e"])
        off = mat.to_numpy()[~np.eye(3, dtype=bool)]
        assert np.isnan(off).all() and (np.diag(mat.to_numpy()) == 1.0).all()
        assert_kendall_matches_oracle(pdf, ["x", "k", "e"])

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_rows(self, n):
        pdf = pd.DataFrame({"x": [1.0, 2.0][:n], "y": [4.0, 3.0][:n]})
        assert_kendall_matches_oracle(pdf, ["x", "y"])

    def test_one_column(self, clean_pdf):
        mat = kendall_matrix(clean_pdf, ["a"])
        assert mat.shape == (1, 1) and mat.loc["a", "a"] == 1.0

    def test_wider_than_one_chunk_of_pairs(self):
        """More pairs than one chunk holds: every chunk writes its own pairs."""
        n, m = 300, 12
        width = 512  # 300 rows padded to a power of two
        assert m * (m - 1) // 2 > numutils._KENDALL_CELLS // width
        g = np.random.default_rng(6)
        pdf = pd.DataFrame(np.round(g.normal(size=(n, m)) * 4), columns=[f"c{i}" for i in range(m)])
        pdf = pdf.mask(g.random((n, m)) < 0.1)
        assert_kendall_matches_oracle(pdf, list(pdf.columns))

    @pytest.mark.parametrize("m", [2, 20])
    def test_memory_is_bounded_by_the_chunk(self, m):
        """The tracemalloc peak of a 2,000-row sample's matrix stays under
        4 MB, where every pair's k² signs would take tens of MB."""
        import tracemalloc

        g = np.random.default_rng(8)
        pdf = pd.DataFrame(g.normal(size=(2_000, m)), columns=[f"c{i}" for i in range(m)])
        pdf = pdf.mask(g.random(pdf.shape) < 0.1)
        cols = list(pdf.columns)
        tracemalloc.start()
        try:
            kendall_matrix(pdf, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestAPI:
    def test_overview_matrices(self, correlation_result):
        inter = correlation_result.intermediates
        for m in ("pearson", "spearman", "kendall"):
            assert m in inter
            mat = inter[m]
            assert list(mat.index) == inter["columns"]
            assert np.allclose(np.diag(mat.values), 1.0)

    def test_methods_config(self, heart):
        r = plot_correlation(heart, config={"correlation.methods": ("pearson",)})
        inter = r.intermediates
        assert "pearson" in inter and "spearman" not in inter and "kendall" not in inter

    def test_vector_variant(self, heart, heart_pdf):
        r = plot_correlation(heart, "num_0")
        vec = r.intermediates["pearson"]
        assert "num_0" not in vec.index
        ref = heart_pdf.corr(numeric_only=True)["num_0"].drop("num_0")
        for c in vec.index:
            assert vec[c] == pytest.approx(ref[c], abs=1e-6)

    def test_pair_variant_regression(self, spark):
        g = np.random.default_rng(3)
        x = g.random(500) * 10
        pdf = pd.DataFrame({"x": x, "y": 3 * x + 5 + g.normal(0, 0.01, 500)})
        r = plot_correlation(spark.createDataFrame(pdf), "x", "y")
        reg = r.intermediates["regression"]
        assert reg["slope"] == pytest.approx(3.0, abs=0.01)
        assert reg["intercept"] == pytest.approx(5.0, abs=0.05)
        assert r.intermediates["pearson"] == pytest.approx(1.0, abs=1e-4)

    def test_pair_requires_numeric(self, titanic):
        with pytest.raises(TypeError):
            plot_correlation(titanic, "cat_0")
        with pytest.raises(TypeError):
            plot_correlation(titanic, "num_0", "cat_0")

    def test_insight_flags_correlated_pair(self, spark, clean_df):
        r = plot_correlation(clean_df)
        flagged = {i.subject for i in r.insights if i.kind.startswith("correlated")}
        assert any("a" in s and "b" in s for s in flagged)

    def test_html_method_tabs(self, correlation_result):
        for m in ("Pearson", "Spearman", "Kendall"):
            assert m in correlation_result.html


class TestRankedPath:
    """The distributed rank transform runs for ``plot_correlation(df, c)``
    and, on a small frame, nowhere else: the benchmark's traced runs check
    the same (``perfbench/run.py::path_guard``)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.core import correlation

        calls, original = [], correlation.ranked

        def spy(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(correlation, "ranked", spy)
        return calls

    def test_runs_for_the_vector(self, titanic, calls):
        plot_correlation(titanic, "num_0")
        assert len(calls) == 1 and calls[0][0] == "num_0"

    @pytest.mark.parametrize("args", [(), ("num_0", "num_1")], ids=["matrix", "pair"])
    def test_absent_elsewhere(self, titanic, calls, args):
        plot_correlation(titanic, *args)
        assert calls == []

    def test_absent_from_the_report(self, titanic, calls):
        from repro.core import create_report

        create_report(titanic)
        assert calls == []


def test_distributed_spearman_matches_pandas(spark, monkeypatch):
    """Above the cell budget (here 0) Spearman ranks in Spark; the answer
    is pandas' average-rank Pearson with ±inf nulled first."""
    from repro.core import compute

    g = np.random.default_rng(4)
    n = 120
    pdf = pd.DataFrame({
        "a": g.normal(size=n),
        "b": np.round(g.normal(size=n) * 2),          # ties
        "c": g.choice([1.0, 2.0, 3.0], n),            # heavy ties
    })
    pdf["d"] = pdf["a"] * 0.5 + g.normal(size=n)
    pdf.loc[::9, "a"] = np.nan                          # nulls after ingestion
    pdf.loc[[3, 40], "b"] = [np.inf, -np.inf]
    pdf.loc[[7], "d"] = np.inf
    df = spark.createDataFrame(pdf).selectExpr(
        # a computed NaN stays NaN in Spark
        "a", "b", "c", "CASE WHEN d > 1.5 THEN CAST('NaN' AS DOUBLE) ELSE d END AS d"
    ).repartition(3)
    ref_pdf = df.toPandas().replace([np.inf, -np.inf], np.nan)
    want = ref_pdf.rank(method="average").corr(method="pearson")
    cols = ["a", "b", "c", "d"]
    monkeypatch.setattr(compute, "DRIVER_CELLS", 0)
    got = spearman_matrix(df, cols)
    assert list(got.index) == list(got.columns) == cols
    np.testing.assert_allclose(got.to_numpy(), want.loc[cols, cols].to_numpy(), rtol=0, atol=1e-12)


def test_pair_above_the_cell_budget_matches_the_driver_path(spark, monkeypatch):
    """Above the cell budget (here 0) the pair reads the 2×2 scan and Spark's
    ranks instead of running the kernel and the ranks on its one collect;
    the answers agree."""
    from repro.core import compute

    g = np.random.default_rng(6)
    n = 150
    pdf = pd.DataFrame({"x": g.normal(size=n)})
    pdf["y"] = 0.3 * pdf["x"] + np.round(g.normal(size=n))  # ties
    pdf.loc[::8, "x"] = np.nan
    pdf.loc[[5, 9], "y"] = [np.inf, -np.inf]
    df = spark.createDataFrame(pdf).repartition(3)
    below = plot_correlation(df, "x", "y").intermediates
    monkeypatch.setattr(compute, "DRIVER_CELLS", 0)
    above = plot_correlation(df, "x", "y").intermediates
    for method in ("pearson", "spearman", "kendall"):
        assert above[method] == pytest.approx(below[method], rel=0, abs=1e-12), method
    for k in ("slope", "intercept"):
        assert above["regression"][k] == pytest.approx(below["regression"][k], rel=0, abs=1e-12), k
    pd.testing.assert_frame_equal(above["scatter"], below["scatter"], check_exact=True)


#: frames the vector and the pair have nothing to correlate on: no rows, one
#: row, an all-null numeric column, a constant column
DEGENERATE = {
    "zero_rows": lambda s: s.createDataFrame([], "x DOUBLE, y DOUBLE"),
    "one_row": lambda s: s.createDataFrame([(1.0, 2.0)], "x DOUBLE, y DOUBLE"),
    "all_null": lambda s: s.createDataFrame([(1.0, None), (2.0, None), (4.0, None)], "x DOUBLE, y DOUBLE"),
    "constant": lambda s: s.createDataFrame([(1.0, 3.0), (2.0, 3.0), (4.0, 3.0)], "x DOUBLE, y DOUBLE"),
}


@pytest.mark.parametrize("make", DEGENERATE.values(), ids=DEGENERATE.keys())
def test_vector_and_pair_on_degenerate_frames(spark, make):
    df = make(spark)
    vector = plot_correlation(df, "x").intermediates
    for method in ("pearson", "spearman", "kendall"):
        assert list(vector[method].index) == ["y"]
        assert np.isnan(vector[method]["y"]), method
    pair = plot_correlation(df, "y", "x").intermediates
    for method in ("pearson", "spearman", "kendall"):
        assert np.isnan(pair[method]), method
    assert np.isnan(pair["regression"]["slope"]) and np.isnan(pair["regression"]["intercept"])
    assert len(pair["scatter"]) == df.dropna().count()
