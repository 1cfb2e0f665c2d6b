"""Missing-value analysis — ``plot_missing`` (paper Figure 2, rows 7–9),
after the Missingno library the paper derives its mapping rules from.

* ``plot_missing(df)`` — missing bar chart, missing **spectrum** (per
  row-segment missing rate), **nullity correlation** heatmap, and a
  **dendrogram** of columns clustered by nullity similarity. All four come
  from one ``comoment_scan`` of the missing indicators, after
  ``compute.partition_rows`` has counted the rows per partition: the
  partition offsets number the rows the spectrum cuts into segments.
* ``plot_missing(df, c1)`` — for every other column, its distribution
  before vs after dropping the rows where ``c1`` is missing (the paper
  notes this is the most expensive task: two frequency distributions per
  column). The categorical columns reuse the overview's counting job,
  ``compute.category_counts``: both distributions come out of **one**
  melted shuffle, the *after* one as an extra sum. A row count picks the
  phase of the numeric ones (paper §5.2): below the cell budget
  (``compute.DRIVER_CELLS``) one collect of their finite values and
  ``c1``'s missing flag (``compute.driver_values``) gives both histograms
  on the driver (``compute.driver_binned_counts``); above it
  ``compute.binned_counts`` counts them in one shuffle the same way.
* ``plot_missing(df, c1, c2)`` — histogram, PDF, CDF and box plot of
  ``c2`` before/after dropping ``c1``-missing rows. A numeric ``c2``
  crosses the same boundary: below the budget all four come from one
  collect of ``c2`` and ``c1``'s flag, the box quartiles exact
  (``compute.exact_quantiles``); above it from ``binned_counts`` and a
  quartile sketch. A categorical ``c2`` takes one ``category_counts``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import compute
from repro.core.config import Config
from repro.core.correlation import CoMoments, comoment_scan
from repro.core.dtypes import EDAType, detect_types
from repro.core.insights import missing_insights
from repro.core.intermediates import EDAResult, Intermediates
from repro.core.render import render
from repro.substrate.cluster import cluster_order, linkage_average
from repro.substrate.numutils import ks_distance, total_variation


def spectrum_pass(df: DataFrame, bins: int, nrows: int | None = None) -> pd.DataFrame:
    """Missing rate per (row segment, column): the missing spectrum plot.

    ``compute.partition_rows`` plus one scan of the missing indicators
    (``comoment_scan``): row ``r`` of ``nrows`` (numbered in partition
    order, from the partition offsets) falls in segment
    ``min(r·bins // nrows, bins − 1)``. ``nrows``, when the caller has it,
    must equal the frame's row count.
    """
    moments = comoment_scan(df, [], df.columns, spectrum_bins=bins)
    if nrows is not None and nrows != moments.nrows:
        raise ValueError(f"nrows={nrows}, but the frame has {moments.nrows} rows")
    return moments.spectrum()


def nullity_correlation(moments: CoMoments) -> pd.DataFrame:
    """Pearson correlation of missingness indicators (Missingno heatmap).

    ``moments`` is a ``comoment_scan`` carrying the indicators. Only
    columns that are partially missing participate — constant indicators
    (never / always missing) have zero variance, exactly as Missingno
    excludes them.
    """
    miss = moments.missing()
    cols = [c for c in moments.indicators if 0 < miss[c] < moments.nrows]
    if len(cols) < 2:
        return pd.DataFrame(index=cols, columns=cols, dtype="float64")
    return moments.nullity(cols)


def nullity_dendrogram(corr: pd.DataFrame) -> dict[str, object]:
    """Average-linkage dendrogram over nullity distance 1 − |corr|."""
    cols = list(corr.index)
    m = len(cols)
    if m < 2:
        return {"columns": cols, "linkage": np.zeros((0, 4)), "leaf_order": list(range(m))}
    dist = 1.0 - corr.abs().fillna(0.0).to_numpy()
    np.fill_diagonal(dist, 0.0)
    Z = linkage_average(dist)
    return {"columns": cols, "linkage": Z, "leaf_order": cluster_order(Z, m)}


def missing_view(moments: CoMoments) -> Intermediates:
    """The ``plot_missing(df)`` intermediates from a co-moment scan.

    ``moments`` carries every column's missing indicator and their spectrum
    (``comoment_scan(..., spectrum_bins=...)``): the row count, the missing
    counts, the spectrum and the nullity correlation all come out of it.
    """
    nrows, miss = moments.nrows, moments.missing()
    corr = nullity_correlation(moments)
    inter = Intermediates(task="missing")
    inter["nrows"] = nrows
    inter["bar"] = miss
    inter["missing_rate"] = (miss / nrows) if nrows else miss.astype("float64")
    inter["spectrum"] = moments.spectrum()
    inter["nullity_corr"] = corr
    inter["dendrogram"] = nullity_dendrogram(corr)
    return inter


def compute_missing(df: DataFrame, cfg: Config) -> Intermediates:
    """Intermediates for ``plot_missing(df)``: ``compute.partition_rows`` and
    one scan of the missing indicators for counts, nullity and spectrum."""
    return missing_view(comoment_scan(df, [], df.columns, spectrum_bins=cfg["spectrum.bins"]))


def _before_after(counts: dict[str, pd.DataFrame]) -> dict[str, pd.DataFrame]:
    """``binned_counts`` / ``category_counts`` frames with ``count`` named ``before``."""
    return {c: frame.rename(columns={"count": "before"}) for c, frame in counts.items()}


def compute_missing_col(df: DataFrame, col1: str, cfg: Config) -> Intermediates:
    """``plot_missing(df, c1)`` — impact of dropping ``c1``-missing rows.

    Every other numeric column's histogram and every categorical column's
    value counts, each counted over all rows (*before*) and over the rows
    where ``c1`` is present (*after*). The value counts
    (``compute.category_counts``, the *after* counts as an extra sum in the
    same shuffle) run beside a row count, which picks the phase. Below the
    cell budget one collect of the numeric columns' finite values and
    ``c1``'s missing flag gives the edges (its min/max), both histograms
    and the dropped rows on the driver. Above it one aggregate of ``c1``'s
    missing cells and the numeric columns' finite min/max
    (``compute.finite_minmax``), then ``compute.binned_counts`` with the
    same extra sum.
    """
    types = detect_types(df)
    if col1 not in df.columns:
        raise KeyError(col1)
    others = [c for c in df.columns if c != col1]
    num_cols = [c for c in others if types[c] is EDAType.NUMERICAL]
    cat_cols = [c for c in others if types[c] is EDAType.CATEGORICAL]

    missing = compute.missing_conditions(df, [col1])[0]
    keep = f"NOT {missing}"
    bins = cfg["hist.bins"]
    with compute.in_flight(df.sparkSession) as submit:
        # the value counts need nothing; the histograms need the min/max
        counts_job = submit(compute.category_counts, df, cat_cols, cfg["bar.top_n"] * 10, keep)
        nrows = df.count()
        collected = compute.driver_values(df, num_cols, nrows, [col1])
        if collected is not None:  # below the cell budget: the histograms from the one collect
            values, dropped = collected.values, collected.flags[col1].to_numpy()
            edges = compute.histogram_edges(num_cols, compute.driver_minmax(values), bins)
            numeric = compute.driver_binned_counts(values, edges, ~dropped)
            n_dropped = int(dropped.sum())
        else:
            minmax, totals = compute.finite_minmax(df, num_cols, dropped=f"count_if({missing})")
            edges = compute.histogram_edges(num_cols, minmax, bins)
            numeric = compute.binned_counts(df, edges, keep)
            n_dropped = int(totals["dropped"])
        categorical = counts_job.result()[0]

    inter = Intermediates(task=f"missing:{col1}")
    inter["col"] = col1
    inter["nrows"] = nrows
    inter["n_dropped"] = n_dropped
    inter["numeric"] = _before_after(numeric)
    inter["categorical"] = _before_after(categorical)
    # Distribution-shift score per column (KS over binned histograms for
    # numeric, total-variation over value counts for categorical) feeds the
    # 'similar distribution' insight; a column with no values on either side
    # has none.
    shift = {c: ks_distance(f["before"], f["after"]) for c, f in inter["numeric"].items()}
    shift.update(
        {c: total_variation(f["before"], f["after"]) for c, f in inter["categorical"].items()}
    )
    inter["shift"] = {c: d for c, d in shift.items() if not np.isnan(d)}
    return inter


def _quartile_box(q) -> dict[str, float]:
    """``{q1, median, q3}`` from the quartiles ``q``; NaN when there are none."""
    return dict(zip(("q1", "median", "q3"), q if q and q[0] is not None else (np.nan,) * 3))


def compute_missing_pair(df: DataFrame, col1: str, col2: str, cfg: Config) -> Intermediates:
    """``plot_missing(df, c1, c2)`` — impact of dropping on one column.

    A numeric ``c2`` takes one aggregate of the row total (which picks the
    phase) and its finite min/max (the edges). Below the cell budget one
    collect of its finite values and ``c1``'s missing flag gives the
    histogram, PDF, CDF and the box with exact quartiles, before and after
    the drop, on the driver; above it ``compute.binned_counts`` with the
    *after* sum and one aggregate of the quartile sketches. A categorical
    ``c2`` takes one ``compute.category_counts`` at any size.
    """
    types = detect_types(df)
    keep = f"{compute.missing_exprs(df, [col1])[0]} = 0"
    inter = Intermediates(task=f"missing:{col1}:{col2}")
    inter["cols"] = (col1, col2)
    t2 = types[col2]
    if t2 is EDAType.NUMERICAL:
        minmax, totals = compute.finite_minmax(df, [col2], nrows="count(1)")
        edges = compute.histogram_edges([col2], minmax, cfg["hist.bins"])
        collected = compute.driver_values(df, [col2], totals["nrows"], [col1])
        if collected is not None:  # below the cell budget: every view from the one collect
            kept = ~collected.flags[col1].to_numpy()
            counts = compute.driver_binned_counts(collected.values, edges, kept)
            y = collected.values[col2].to_numpy("float64")
            finite = np.isfinite(y)
            q_before = compute.exact_quantiles(np.sort(y[finite]), compute.QUARTILES)
            q_after = compute.exact_quantiles(np.sort(y[finite & kept]), compute.QUARTILES)
        else:
            counts = compute.binned_counts(df, edges, keep)
            quartiles = list(compute.QUARTILES)
            box_row = df.selectExpr(
                f"{compute.finite(compute.quote(col2))} AS y", f"{keep} AS keep"
            ).agg(
                F.percentile_approx("y", quartiles).alias("q_before"),
                F.percentile_approx(F.when(F.col("keep"), F.col("y")), quartiles).alias("q_after"),
            ).collect()[0]
            q_before, q_after = box_row["q_before"], box_row["q_after"]
        frame = _before_after(counts).get(col2, pd.DataFrame(columns=["bin", "before", "after"]))
        inter["hist"] = frame
        b, a = frame["before"].to_numpy("float64"), frame["after"].to_numpy("float64")
        inter["pdf"] = {
            "before": b / b.sum() if b.sum() else b,
            "after": a / a.sum() if a.sum() else a,
        }
        inter["cdf"] = {
            "before": np.cumsum(inter["pdf"]["before"]),
            "after": np.cumsum(inter["pdf"]["after"]),
        }
        inter["box"] = {"before": _quartile_box(q_before), "after": _quartile_box(q_after)}
        inter["shift"] = ks_distance(b, a)
    elif t2 is EDAType.CATEGORICAL:
        frame = _before_after(
            compute.category_counts(df, [col2], cfg["bar.top_n"] * 10, keep)[0]
        )[col2]
        inter["bar"] = frame
        inter["shift"] = total_variation(frame["before"], frame["after"])
    else:
        raise TypeError("plot_missing on datetime target columns is out of scope")
    return inter


def plot_missing(
    df: DataFrame,
    col1: str | None = None,
    col2: str | None = None,
    config: dict | None = None,
) -> EDAResult:
    """Task-centric missing-value analysis (paper §3.2)."""
    cfg = Config.from_user(config)
    if col1 is None and col2 is not None:
        raise ValueError("col1 must be given when col2 is")
    if col1 is None:
        inter = compute_missing(df, cfg)
    elif col2 is None:
        inter = compute_missing_col(df, col1, cfg)
    else:
        inter = compute_missing_pair(df, col1, col2, cfg)
    insights = missing_insights(inter, cfg)
    return EDAResult(
        task=inter.task, intermediates=inter, insights=insights,
        html=render(inter, insights, cfg),
    )
