"""Column names holding ``.`` or a backtick are taken literally by the task
functions and the baseline.

Each call on a frame with awkward names must equal the same call on the
same frame with plain names, up to the labels.
"""
import numpy as np
import pandas as pd
import pytest

from repro.baseline import eager_profile_report
from repro.core import plot, plot_correlation

RENAME = {"a.b": "ab", "c`d": "cd", "e.f": "ef", "g": "g"}


@pytest.fixture(scope="module")
def frames(spark):
    g = np.random.default_rng(11)
    n = 40
    pdf = pd.DataFrame({
        "a.b": g.normal(size=n),
        "c`d": np.round(g.normal(2.0, 3.0, n)),
        "e.f": g.choice(["u v", "v", "w"], n).astype(object),
        "g": g.normal(size=n),
    })
    pdf.loc[::7, "a.b"] = np.nan
    pdf.loc[[3, 8], "c`d"] = [np.inf, -np.inf]
    pdf.loc[::9, "e.f"] = None
    awkward = spark.createDataFrame(pdf).repartition(2)
    awkward.cache().count()
    plain = awkward.toDF(*RENAME.values())
    yield awkward, plain
    awkward.unpersist()


def _plain(name: str) -> str:
    return RENAME[name]


def test_univariate_categorical(frames):
    awkward, plain = frames
    got, want = plot(awkward, "e.f").intermediates, plot(plain, "ef").intermediates
    assert got["stats"] == want["stats"]
    pd.testing.assert_series_equal(got["bar"].rename("ef"), want["bar"], check_exact=True)
    pd.testing.assert_series_equal(
        got["words"]["word_counts"], want["words"]["word_counts"], check_exact=True
    )


@pytest.mark.parametrize("x, y", [("a.b", "e.f"), ("e.f", "c`d")])
def test_bivariate_numeric_categorical(frames, x, y):
    awkward, plain = frames
    got = plot(awkward, x, y).intermediates
    want = plot(plain, _plain(x), _plain(y)).intermediates
    pd.testing.assert_frame_equal(got["cat_box"], want["cat_box"], check_exact=True)
    assert got["lines"].keys() == want["lines"].keys()
    for k in want["lines"]:
        np.testing.assert_array_equal(got["lines"][k], want["lines"][k])


def test_bivariate_categorical_categorical(frames):
    awkward, plain = frames
    got, want = plot(awkward, "e.f", "e.f").intermediates, plot(plain, "ef", "ef").intermediates
    pd.testing.assert_frame_equal(got["nested_bar"], want["nested_bar"], check_exact=True)
    assert got["contingency_total"] == want["contingency_total"]


def test_correlation_pair(frames):
    awkward, plain = frames
    got = plot_correlation(awkward, "a.b", "c`d").intermediates
    want = plot_correlation(plain, "ab", "cd").intermediates
    for method in ("pearson", "spearman", "kendall"):
        assert got[method] == want[method], method
    assert got["regression"] == want["regression"]
    pd.testing.assert_frame_equal(
        got["scatter"].rename(columns=RENAME), want["scatter"], check_exact=True
    )


def test_baseline_report(frames):
    awkward, plain = frames
    got, want = eager_profile_report(awkward), eager_profile_report(plain)
    for c, p in RENAME.items():
        a, b = got["variables"][c], want["variables"][p]
        assert a.keys() == b.keys(), c
        for k in b:
            if k == "hist":
                for x, y in zip(a[k], b[k]):
                    np.testing.assert_array_equal(x, y, err_msg=c)
            elif isinstance(b[k], pd.Series):
                pd.testing.assert_series_equal(
                    a[k].rename(b[k].name), b[k], check_exact=True, obj=f"{c}.{k}"
                )
            else:
                assert a[k] == b[k] or (a[k] != a[k] and b[k] != b[k]), (c, k)
    pd.testing.assert_series_equal(
        got["missing"]["bar"].rename(RENAME), want["missing"]["bar"], check_exact=True
    )
    pd.testing.assert_frame_equal(
        got["correlations"]["pearson"].rename(index=RENAME, columns=RENAME),
        want["correlations"]["pearson"],
        check_exact=True,
    )
    assert [tuple(map(_plain, k)) for k in got["interactions"]] == list(want["interactions"])
