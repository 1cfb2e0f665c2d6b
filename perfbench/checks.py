"""Correctness checks of the library's outputs against pandas.

``Reference`` computes the pandas answers once per run, on the same
generated frame the Spark input was built from, before any timed call. The
``check_*`` functions compare one call's intermediates with it and return
a list of mismatches (empty when the output is correct). They run outside
the timed region.

Tolerances are fixed from float64 arithmetic, not tuned to the data:
sums over ~1e4–1e5 values in another order differ by far less than 1e-9
relative; the library's std comes from raw power sums, which lose about
log10(mean²/var) further digits, so std gets 1e-7.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

MEAN_RTOL = 1e-9
STD_RTOL = 1e-7
CORR_ATOL = 1e-9


class Reference:
    """pandas answers for one generated input frame."""

    def __init__(self, pdf: pd.DataFrame, top_n: int):
        self.top_n = top_n
        self.num = [c for c in pdf.columns if pd.api.types.is_numeric_dtype(pdf[c])]
        self.cat = [c for c in pdf.columns if c not in self.num]
        num = pdf[self.num].astype("float64")
        self.nrows = len(pdf)
        self.missing = pdf.isna().sum().astype("int64")
        self.duplicates = int(pdf.duplicated().sum())
        self.finite = np.isfinite(num).sum().astype("int64")
        self.mean = num.mean()
        self.std = num.std(ddof=1)
        self.value_counts = {c: pdf[c].value_counts() for c in self.cat}
        self.pearson = num.corr(method="pearson")
        # rank each column over its own non-nulls, then pairwise Pearson
        self.spearman = num.rank(method="average").corr(method="pearson")


def _eq(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _close(problems: list[str], what: str, got, want, rtol: float) -> None:
    if got is None or not np.isclose(float(got), float(want), rtol=rtol, atol=0.0):
        problems.append(f"{what}: got {got!r}, want {want!r} (rtol {rtol:g})")


def _matrix(problems: list[str], what: str, got: pd.DataFrame | pd.Series, want) -> None:
    got = got.reindex_like(want).astype("float64")
    g, w = got.to_numpy(), want.to_numpy()
    if (np.isnan(g) != np.isnan(w)).any():
        problems.append(f"{what}: NaN pattern differs")
        return
    diff = np.nanmax(np.abs(g - w)) if np.isfinite(w).any() else 0.0
    if diff > CORR_ATOL:
        problems.append(f"{what}: max |diff| {diff:.3g} > {CORR_ATOL:g}")


def _missing(problems: list[str], bar: pd.Series, ref: Reference) -> None:
    for c, want in ref.missing.items():
        _eq(problems, f"missing[{c}]", int(bar[c]), int(want))


def _numeric(problems: list[str], c: str, stats: dict, hist_counts, ref: Reference) -> None:
    _eq(problems, f"hist total[{c}]", int(np.sum(hist_counts)), int(ref.finite[c]))
    _close(problems, f"mean[{c}]", stats.get("mean"), ref.mean[c], MEAN_RTOL)
    _close(problems, f"std[{c}]", stats.get("std"), ref.std[c], STD_RTOL)


def _top_n(problems: list[str], c: str, bar: pd.Series, ref: Reference) -> None:
    """Exact top-N value counts; ties at the cut may pick either value."""
    want = ref.value_counts[c]
    _eq(problems, f"top-{ref.top_n} counts[{c}]",
        [int(v) for v in bar.to_numpy()], [int(v) for v in want.head(ref.top_n).to_numpy()])
    for value, count in bar.items():
        _eq(problems, f"count[{c}={value}]", int(count), int(want.get(value, 0)))


def check_report(inter, ref: Reference) -> list[str]:
    problems: list[str] = []
    ds = inter["dataset_stats"]
    _eq(problems, "nrows", int(ds["nrows"]), ref.nrows)
    _eq(problems, "duplicate rows", int(ds["n_duplicate_rows"]), ref.duplicates)
    _missing(problems, inter["missing"]["bar"], ref)
    for c, sub in inter["variables"].items():
        if c in ref.num:
            _numeric(problems, c, sub["stats"], sub["hist"]["counts"], ref)
        else:
            _top_n(problems, c, sub["bar"], ref)
    _matrix(problems, "pearson", inter["correlations"]["pearson"], ref.pearson)
    _matrix(problems, "spearman", inter["correlations"]["spearman"], ref.spearman)
    return problems


def check_overview(inter, ref: Reference) -> list[str]:
    problems: list[str] = []
    ds = inter["dataset_stats"]
    _eq(problems, "nrows", int(ds["nrows"]), ref.nrows)
    _eq(problems, "duplicate rows", int(ds["n_duplicate_rows"]), ref.duplicates)
    _missing(problems, pd.Series({c: s["nmissing"] for c, s in inter["col_stats"].items()}), ref)
    for c in ref.num:
        _numeric(problems, c, inter["col_stats"][c], inter["hists"][c][0], ref)
    for c in ref.cat:
        _top_n(problems, c, inter["bars"][c], ref)
    return problems


def check_univariate(inter, ref: Reference) -> list[str]:
    problems: list[str] = []
    c = inter["col"]
    if c in ref.num:
        _numeric(problems, c, inter["stats"], inter["hist"]["counts"], ref)
    else:
        _top_n(problems, c, inter["bar"], ref)
    return problems


def check_correlation_vector(inter, ref: Reference) -> list[str]:
    problems: list[str] = []
    c, others = inter["col"], inter["columns"]
    _matrix(problems, f"pearson[{c}]", inter["pearson"], ref.pearson.loc[c, others])
    _matrix(problems, f"spearman[{c}]", inter["spearman"], ref.spearman.loc[c, others])
    return problems


def check_correlation_pair(inter, ref: Reference) -> list[str]:
    problems: list[str] = []
    a, b = inter["cols"]
    for method, want in (("pearson", ref.pearson), ("spearman", ref.spearman)):
        _matrix(problems, f"{method}[{a},{b}]", pd.Series([inter[method]]),
                pd.Series([want.loc[a, b]]))
    return problems


def unchecked(inter, ref: Reference) -> list[str]:
    """Bivariate and missing-impact calls: no pandas reference here yet."""
    return []
