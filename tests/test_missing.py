"""Tests for missing-value analysis — plot_missing."""
import numpy as np
import pandas as pd
import pytest

from repro.core import compute, plot_missing
from repro.core.config import Config
from repro.core.correlation import comoment_scan
from repro.core.dtypes import EDAType, detect_types
from repro.core.missing import (
    nullity_correlation,
    nullity_dendrogram,
    spectrum_pass,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def md_pdf():
    """Frame with engineered missing structure: a,b co-missing; c random."""
    g = np.random.default_rng(4)
    n = 600
    pdf = pd.DataFrame(
        {
            "a": g.random(n),
            "b": g.random(n),
            "c": g.random(n),
            "k": g.choice(["u", "v", "w"], n).astype(object),
        }
    )
    comiss = g.random(n) < 0.2
    pdf.loc[comiss, "a"] = np.nan
    pdf.loc[comiss, "b"] = np.nan
    pdf.loc[g.random(n) < 0.1, "c"] = np.nan
    pdf.loc[g.random(n) < 0.1, "k"] = None
    return pdf


@pytest.fixture(scope="module")
def md(spark, md_pdf):
    df = spark.createDataFrame(md_pdf).repartition(4)
    df.cache().count()
    yield df
    df.unpersist()


class TestOverviewVariant:
    def test_panels(self, missing_result):
        # Figure 2 row 7: bar, spectrum, nullity heatmap, dendrogram
        inter = missing_result.intermediates
        for key in ("bar", "spectrum", "nullity_corr", "dendrogram"):
            assert key in inter

    def test_bar_vs_oracle(self, spark, md, md_pdf):
        moments = comoment_scan(md, [], md.columns)
        nrows, miss = moments.nrows, moments.missing()
        assert nrows == len(md_pdf)
        got = spark.createDataFrame(
            pd.DataFrame({"col": miss.index, "cnt": miss.to_numpy("int64")})
        )
        sql = """
            SELECT 'a' AS col, sum(CASE WHEN a IS NULL THEN 1 ELSE 0 END) AS cnt FROM t
            UNION ALL SELECT 'b', sum(CASE WHEN b IS NULL THEN 1 ELSE 0 END) FROM t
            UNION ALL SELECT 'c', sum(CASE WHEN c IS NULL THEN 1 ELSE 0 END) FROM t
            UNION ALL SELECT 'k', sum(CASE WHEN k IS NULL THEN 1 ELSE 0 END) FROM t
        """
        assert_equivalent(got, sql, t=md_pdf)

    def test_spectrum_shape_and_mass(self, md, md_pdf):
        spec = spectrum_pass(md, bins=10)
        assert set(spec["column"]) == {"a", "b", "c", "k"}
        assert spec["segment"].nunique() == 10
        # total missing mass across segments equals the column's missing count
        for col in ("a", "c"):
            total = (spec[spec["column"] == col]["missing_rate"] * spec[spec["column"] == col]["n"]).sum()
            assert total == pytest.approx(md_pdf[col].isna().sum())

    def test_spectrum_segments_cover_all_rows(self, md, md_pdf):
        spec = spectrum_pass(md, bins=7)
        # every column sees every row exactly once across its segments
        assert spec.groupby("column")["n"].sum().eq(len(md_pdf)).all()

    def test_nullity_corr_detects_comissing(self, md, md_pdf):
        corr = nullity_correlation(comoment_scan(md, [], md.columns))
        # a and b are missing together by construction → corr ≈ 1
        assert corr.loc["a", "b"] == pytest.approx(1.0, abs=1e-6)
        # c is independent → low correlation
        assert abs(corr.loc["a", "c"]) < 0.2

    def test_nullity_corr_matches_pandas(self, md, md_pdf):
        corr = nullity_correlation(comoment_scan(md, [], md.columns))
        ref = md_pdf.isna().astype(int).corr()
        for x in corr.index:
            for y in corr.columns:
                assert corr.loc[x, y] == pytest.approx(ref.loc[x, y], abs=1e-9)

    def test_dendrogram_merges_comissing_first(self, md, md_pdf):
        corr = nullity_correlation(comoment_scan(md, [], md.columns))
        dend = nullity_dendrogram(corr)
        cols = dend["columns"]
        Z = dend["linkage"]
        first = {cols[int(Z[0, 0])], cols[int(Z[0, 1])]}
        assert first == {"a", "b"}

    def test_insights_flag_missing_columns(self, md):
        r = plot_missing(md)
        flagged = {i.subject for i in r.insights if i.kind == "missing"}
        assert {"a", "b", "c"} <= flagged


class TestOneColumnVariant:
    @pytest.fixture(scope="class")
    def result(self, md):
        return plot_missing(md, "a")

    def test_before_after_mass_numeric(self, result, md_pdf):
        frame = result.intermediates["numeric"]["c"]
        kept = md_pdf[md_pdf["a"].notna()]
        assert frame["before"].sum() == md_pdf["c"].notna().sum()
        assert frame["after"].sum() == kept["c"].notna().sum()

    def test_before_after_vs_oracle(self, spark, result, md_pdf):
        frame = result.intermediates["categorical"]["k"]
        got = spark.createDataFrame(frame.astype({"before": "int64", "after": "int64"}))
        sql = """
            SELECT k AS value,
                   count(*) AS before,
                   sum(CASE WHEN a IS NOT NULL THEN 1 ELSE 0 END) AS after
            FROM t WHERE k IS NOT NULL GROUP BY 1
        """
        assert_equivalent(got, sql, t=md_pdf)

    def test_n_dropped(self, result, md_pdf):
        assert result.intermediates["n_dropped"] == md_pdf["a"].isna().sum()

    def test_comissing_column_shifts(self, result):
        # b is co-missing with a: dropping a-missing rows removes exactly
        # the b-missing rows, so b's before/after non-null mass is equal.
        frame = result.intermediates["numeric"]["b"]
        assert frame["before"].sum() == frame["after"].sum()

    def test_similar_distribution_insight(self, result):
        # c is missing independently of a → distribution barely changes
        shift = result.intermediates["shift"]
        assert shift["c"] < 0.1


class TestTwoColumnVariant:
    @pytest.fixture(scope="class")
    def result(self, md):
        return plot_missing(md, "a", "c")

    def test_panels(self, result):
        # Figure 2 row 9: histogram, PDF, CDF, box plot
        inter = result.intermediates
        for key in ("hist", "pdf", "cdf", "box"):
            assert key in inter

    def test_pdf_sums_to_one(self, result):
        pdf_ = result.intermediates["pdf"]
        assert pdf_["before"].sum() == pytest.approx(1.0)
        assert pdf_["after"].sum() == pytest.approx(1.0)

    def test_cdf_monotone_ends_at_one(self, result):
        cdf = result.intermediates["cdf"]
        for side in ("before", "after"):
            arr = cdf[side]
            assert (np.diff(arr) >= -1e-12).all()
            assert arr[-1] == pytest.approx(1.0)

    def test_box_quartiles_ordered(self, result):
        box = result.intermediates["box"]
        for side in ("before", "after"):
            b = box[side]
            assert b["q1"] <= b["median"] <= b["q3"]

    def test_categorical_target(self, md, md_pdf):
        r = plot_missing(md, "a", "k")
        bar = r.intermediates["bar"]
        assert bar["before"].sum() == md_pdf["k"].notna().sum()

    def test_datetime_target_rejected(self, spark):
        pdf = pd.DataFrame(
            {"a": [1.0, np.nan], "d": pd.to_datetime(["2020-01-01", "2020-01-02"])}
        )
        with pytest.raises(TypeError):
            plot_missing(spark.createDataFrame(pdf), "a", "d")


def test_col_errors(md):
    with pytest.raises(KeyError):
        plot_missing(md, "zzz")
    with pytest.raises(ValueError):
        plot_missing(md, None, "a")


def test_spectrum_bins_config(md):
    r = plot_missing(md, config={"spectrum.bins": 5})
    assert r.intermediates["spectrum"]["segment"].nunique() == 5


def test_infinite_values_are_not_binned(spark):
    # ±inf in another numeric column is counted by the stats pass, never
    # binned: its bin index would overflow the int cast
    pdf = pd.DataFrame({"a": [1.0, None, 3.0, 4.0], "x": [1.0, 2.0, float("inf"), 4.0]})
    frame = plot_missing(spark.createDataFrame(pdf), "a").intermediates["numeric"]["x"]
    assert frame["before"].sum() == 3
    assert frame["after"].sum() == 2


def test_pair_target_nan_keeps_finite_edges(spark):
    from pyspark.sql import functions as F

    pdf = pd.DataFrame({"a": [1.0, None, 3.0, 4.0, 5.0], "y": [1.0, 2.0, 3.0, 4.0, 5.0]})
    df = spark.createDataFrame(pdf)
    df = df.withColumn("y", F.when(F.col("y") == 3.0, F.lit(float("nan"))).otherwise(F.col("y")))
    hist = plot_missing(df, "a", "y", config={"hist.bins": 4}).intermediates["hist"]
    assert hist.attrs["edges"].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert hist["before"].sum() == 4
    assert hist["after"].sum() == 3


@pytest.fixture(scope="module")
def adversarial(spark):
    """NaN, null and ±inf in ``x``, a constant ``k``, an all-null categorical ``z``."""
    g = np.random.default_rng(9)
    special = [float("nan"), None, float("inf"), float("-inf")]
    rows = [
        (
            special[i % 4] if i % 7 == 0 else float(g.normal()),
            5.0,
            float(g.integers(0, 5)) if i % 5 else None,
            ["p", "q", "r", "s"][int(g.integers(0, 4))] if i % 6 else None,
            None,
        )
        for i in range(300)
    ]
    df = spark.createDataFrame(rows, "x DOUBLE, k DOUBLE, y DOUBLE, c STRING, z STRING")
    df = df.repartition(3)
    df.cache().count()
    yield df
    df.unpersist()


def _counting_passes(df, counted, col1):
    """``histogram_pass`` and ``value_counts_pass`` of ``counted`` for
    ``plot_missing(df, col1)``, binned over the edges of the whole ``df``."""
    cfg = Config.from_user()
    types = detect_types(df)
    num = [c for c in df.columns if c != col1 and types[c] is EDAType.NUMERICAL]
    cat = [c for c in df.columns if c != col1 and types[c] is EDAType.CATEGORICAL]
    stats = compute.basic_stats_pass(df, types)
    minmax = {c: (stats[c]["min"], stats[c]["max"]) for c in num}
    return (
        compute.histogram_pass(counted, num, minmax, cfg["hist.bins"]),
        compute.value_counts_pass(counted, cat, cfg["bar.top_n"] * 10),
    )


@pytest.mark.parametrize("col1", ["x", "c"])
def test_before_equals_the_counting_passes(adversarial, col1):
    inter = plot_missing(adversarial, col1).intermediates
    hists, value_counts = _counting_passes(adversarial, adversarial, col1)
    assert set(inter["numeric"]) == {c for c, (counts, _) in hists.items() if counts.size}
    for c, frame in inter["numeric"].items():
        counts, edges = hists[c]
        np.testing.assert_array_equal(frame["before"].to_numpy(), counts)
        np.testing.assert_array_equal(frame.attrs["edges"], edges)
        assert frame["bin"].tolist() == list(range(len(counts)))
    assert set(inter["categorical"]) == set(value_counts)
    for c, frame in inter["categorical"].items():
        vc = value_counts[c]
        assert frame["value"].tolist() == vc.index.tolist()
        np.testing.assert_array_equal(frame["before"].to_numpy(), vc.to_numpy())
    assert inter["categorical"]["z"].empty


@pytest.mark.parametrize("col1", ["x", "c"])
def test_after_equals_the_counting_passes_on_kept_rows(adversarial, col1):
    inter = plot_missing(adversarial, col1).intermediates
    kept = adversarial.where(compute.missing_expr(adversarial, col1) == 0)
    hists, value_counts = _counting_passes(adversarial, kept, col1)
    for c, frame in inter["numeric"].items():
        np.testing.assert_array_equal(frame["after"].to_numpy(), hists[c][0])
    for c, frame in inter["categorical"].items():
        after = value_counts[c].reindex(frame["value"], fill_value=0)
        np.testing.assert_array_equal(frame["after"].to_numpy(), after.to_numpy())
