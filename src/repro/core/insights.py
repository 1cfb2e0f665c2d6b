"""Auto-insight component (paper §4.2.2).

"A data fact is classified as an insight if its value is above a threshold
(each insight has its own, user-definable threshold)." Thresholds live in
the Config under ``insight.*``. Supported families, as in the paper:
data-quality insights (missing, infinite values, duplicates, constants,
high cardinality, zeros, negatives), distribution-shape insights
(uniformity, skewness), and distribution-similarity insights.
"""
from __future__ import annotations

import numpy as np

from repro.core.config import Config
from repro.core.intermediates import Insight, Intermediates
from repro.substrate import numutils


def _pct(x: float) -> str:
    return f"{100 * x:.1f}%"


def column_insights(
    col: str,
    stats: dict[str, object],
    cfg: Config,
    nrows: int,
    hist_counts: np.ndarray | None = None,
    value_counts=None,
) -> list[Insight]:
    """Insights for one column from its fused-pass statistics."""
    out: list[Insight] = []
    n = max(nrows, 1)

    miss = int(stats.get("nmissing") or 0) / n
    thr = cfg["insight.missing.threshold"]
    if miss > thr:
        out.append(Insight("missing", col, miss, thr, f"{col} has {_pct(miss)} missing values"))

    distinct = stats.get("n_distinct_exact", stats.get("distinct"))
    if distinct is not None:
        cthr = cfg["insight.constant.threshold"]
        if int(distinct) <= cthr and int(stats.get("count") or 0) > 0:
            out.append(Insight("constant", col, float(distinct), cthr, f"{col} is constant"))

    skew = stats.get("skew")
    sthr = cfg["insight.skewed.threshold"]
    if skew is not None and skew == skew and abs(float(skew)) > sthr:
        out.append(Insight("skewed", col, float(skew), sthr, f"{col} is skewed (γ1={float(skew):.2f})"))

    ninf = stats.get("ninfinite")
    ithr = cfg["insight.infinity.threshold"]
    if ninf is not None and int(ninf) / n > ithr:
        out.append(Insight("infinity", col, int(ninf) / n, ithr, f"{col} has {int(ninf)} infinite values"))

    nzero = stats.get("nzero")
    zthr = cfg["insight.zeros.threshold"]
    if nzero is not None and int(nzero) / n > zthr:
        out.append(Insight("zeros", col, int(nzero) / n, zthr, f"{col} has {_pct(int(nzero) / n)} zeros"))

    nneg = stats.get("nnegative")
    nthr = cfg["insight.negatives.threshold"]
    if nneg is not None and int(nneg) / n > nthr:
        out.append(Insight("negatives", col, int(nneg) / n, nthr, f"{col} has {_pct(int(nneg) / n)} negative values"))

    counts = None
    if hist_counts is not None and len(hist_counts):
        counts = np.asarray(hist_counts, dtype="float64")
    elif value_counts is not None and len(value_counts):
        counts = value_counts.to_numpy(dtype="float64")
    if counts is not None and counts.sum() > 0:
        u = numutils.uniformity_pvalue_stat(counts)
        uthr = cfg["insight.uniform.threshold"]
        if u == u and u < uthr:
            out.append(Insight("uniform", col, u, uthr, f"{col} is uniformly distributed"))

    if value_counts is not None:
        hthr = cfg["insight.high_cardinality.threshold"]
        nd = value_counts.attrs.get("n_distinct", len(value_counts))
        if nd > hthr:
            out.append(Insight("high_cardinality", col, float(nd), hthr, f"{col} has a high cardinality: {nd} distinct values"))
    return out


def dataset_insights(dataset_stats: dict[str, object], cfg: Config) -> list[Insight]:
    """Dataset-level insights (duplicates, overall missing)."""
    out: list[Insight] = []
    nrows = max(int(dataset_stats.get("nrows") or 0), 1)
    dup = dataset_stats.get("n_duplicate_rows")
    dthr = cfg["insight.duplicates.threshold"]
    if dup is not None and dup / nrows > dthr:
        out.append(Insight("duplicates", "dataset", dup / nrows, dthr, f"dataset has {dup} ({_pct(dup / nrows)}) duplicate rows"))
    return out


def correlation_insights(inter: Intermediates, cfg: Config) -> list[Insight]:
    """Highly-correlated pairs across every computed method."""
    out: list[Insight] = []
    thr = cfg["insight.correlation.threshold"]
    for method in ("pearson", "spearman", "kendall"):
        if method not in inter:
            continue
        mat = inter[method]
        if getattr(mat, "ndim", 1) != 2:  # vector / scalar variants
            continue
        cols = list(mat.index)
        for i, a in enumerate(cols):
            for b in cols[i + 1:]:
                v = mat.loc[a, b]
                if v == v and abs(float(v)) > thr:
                    out.append(Insight(
                        f"correlated:{method}", f"{a}~{b}", float(v), thr,
                        f"{a} and {b} are highly correlated ({method} r={float(v):.2f})",
                    ))
    return out


def missing_insights(inter: Intermediates, cfg: Config) -> list[Insight]:
    """Missing-rate flags plus distribution-shift similarity insights."""
    out: list[Insight] = []
    thr = cfg["insight.missing.threshold"]
    if "missing_rate" in inter:
        for col, rate in inter["missing_rate"].items():
            if rate > thr:
                out.append(Insight("missing", col, float(rate), thr, f"{col} has {_pct(rate)} missing values"))
    sthr = cfg["insight.similar.threshold"]
    shift = inter.get("shift")
    if isinstance(shift, dict):
        for col, d in shift.items():
            if d == d and d < sthr:
                out.append(Insight("similar_distribution", col, float(d), sthr, f"dropping rows barely changes {col}'s distribution (Δ={d:.3f})"))
    elif isinstance(shift, float) and shift == shift and shift < sthr:
        c1, c2 = inter["cols"]
        out.append(Insight("similar_distribution", c2, float(shift), sthr, f"dropping {c1}-missing rows barely changes {c2} (Δ={shift:.3f})"))
    return out


def univariate_insights(inter: Intermediates, cfg: Config) -> list[Insight]:
    """Insights of one variable; a categorical's come from its full value counts."""
    hist = inter.get("hist")
    return column_insights(
        inter["col"], inter["stats"], cfg, inter["nrows"],
        hist_counts=hist["counts"] if hist else None,
        value_counts=inter.get("value_counts"),
    )


def overview_insights(inter: Intermediates, cfg: Config) -> list[Insight]:
    out = dataset_insights(inter["dataset_stats"], cfg)
    nrows = int(inter["dataset_stats"]["nrows"])
    for col, stats in inter["col_stats"].items():
        hist = inter["hists"].get(col)
        out += column_insights(
            col, stats, cfg, nrows,
            hist_counts=hist[0] if hist is not None else None,
            value_counts=inter["value_counts"].get(col),
        )
    return out


def bivariate_insights(inter: Intermediates, cfg: Config) -> list[Insight]:
    """Similarity of per-group distributions for NC pairs."""
    out: list[Insight] = []
    if inter.get("kind") == "NC" and inter.get("lines"):
        lines = inter["lines"]
        names = list(lines)
        sthr = cfg["insight.similar.threshold"]
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                d = numutils.ks_distance(lines[a], lines[b])
                if d < sthr:
                    out.append(Insight("similar_distribution", f"{a}~{b}", d, sthr, f"groups {a} and {b} have similar distributions (Δ={d:.3f})"))
    return out
