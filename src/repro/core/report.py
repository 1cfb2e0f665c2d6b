"""``create_report(df)`` — the profile-report functionality benchmarked in
the paper's §6 (Table 2, Figure 6).

The report covers the same five sections as Pandas-profiling (Overview,
Variables, Interactions, Correlations, Missing Values). It is composed
from the task functions' views: a shared pass plan computes every
intermediate exactly once, with a fixed, small number of Spark jobs
**independent of the column count**, and fans the results into the same
driver-side shapers ``plot`` and ``plot_missing`` use (paper §4.2:
intermediates computed once, distributed to each visualization).

The passes form a dependency graph, run like the paper's one Dask graph
per task: each pass is submitted to a driver thread (``compute.in_flight``)
as soon as what it waits for has returned, so independent Spark jobs are
in flight together and the report waits only for its longest chain,
stats → co-moment scan.

====================================  ======================================
pass                                  waits for
====================================  ======================================
``basic_stats_pass`` (every stat and  nothing (its type classes' aggregates
the stats+box+Q-Q quantile sketch,    run together too)
one melted aggregate per type class)
``compute.partition_rows`` (rows per  nothing
partition)
``value_counts_pass`` (all            nothing
categorical bars and their exact
totals, 1 melted shuffle, 1 action)
duplicate-row count (1 distinct       ``partition_rows``: the row total
count)
``finite_sample`` (one seeded         ``partition_rows``: the row total
sample of the numeric columns for     sizes the sampling fraction
KDE, Kendall and the interactions)
Spearman (a driver-side rank of the   ``partition_rows``: the row total
numeric projection, 1 collect, or a   picks the path
distributed rank + co-moment scan
above the cell budget)
``comoment_scan`` (1 Python scan:     ``basic_stats_pass`` (min/max give
Pearson, every numeric histogram,     the bin edges) and ``partition_rows``
nullity correlation, exact missing    (the offsets number the rows): the
spectrum)                             paper's precompute-metadata stage
Kendall and the interaction hexbins   the sample; they run on the driver
                                      while the scan is in flight
====================================  ======================================

The views then shape each section on the driver:
``univariate.numerical_view`` / ``categorical_view`` per variable,
``overview.dataset_stats`` for the overview and ``missing.missing_view``
for the missing values. Only the interactions (hexbins of the shared
sample) are the report's own.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core import compute
from repro.core.config import Config
from repro.core.correlation import comoment_scan, correlation_view, spearman_matrix
from repro.core.dtypes import EDAType, detect_types
from repro.core.insights import correlation_insights, dataset_insights, univariate_insights
from repro.core.intermediates import EDAResult, Insight, Intermediates
from repro.core.missing import missing_view
from repro.core.overview import dataset_stats, duplicate_rows_pass
from repro.core.render import render_report, stats_table, svg_bars, svg_line
from repro.core.univariate import categorical_view, numerical_view, quantile_probs


def _hexbins(sample: pd.DataFrame, num_cols: list[str], gs: int) -> dict[tuple[str, str], pd.DataFrame]:
    """Interactions: a hexbin grid per numeric pair, from the shared sample.

    A documented substitution: Pandas-profiling recomputes each pair from
    the full frame, and so does the baseline.
    """
    interactions: dict[tuple[str, str], pd.DataFrame] = {}
    for i, a in enumerate(num_cols):
        for b in num_cols[i + 1:]:
            xv = sample[a].to_numpy()
            yv = sample[b].to_numpy()
            ok = np.isfinite(xv) & np.isfinite(yv)
            xv, yv = xv[ok], yv[ok]
            if xv.size == 0:
                interactions[(a, b)] = pd.DataFrame(columns=["xbin", "ybin", "count"])
                continue
            xspan = (xv.max() - xv.min()) or 1.0
            yspan = (yv.max() - yv.min()) or 1.0
            xb = np.clip(((xv - xv.min()) / xspan * gs).astype(int), 0, gs - 1)
            yb = np.clip(((yv - yv.min()) / yspan * gs).astype(int), 0, gs - 1)
            flat = np.bincount(xb * gs + yb, minlength=gs * gs)
            nz = np.nonzero(flat)[0]
            interactions[(a, b)] = pd.DataFrame(
                {"xbin": nz // gs, "ybin": nz % gs, "count": flat[nz]}
            )
    return interactions


def compute_report(df: DataFrame, cfg: Config) -> Intermediates:
    """All report intermediates: the pass graph, then the views (see module doc)."""
    types = detect_types(df)
    num_cols = [c for c, t in types.items() if t is EDAType.NUMERICAL]
    cat_cols = [c for c, t in types.items() if t is EDAType.CATEGORICAL]
    methods = cfg["correlation.methods"]

    # -- Spark Computation phase: the pass graph -------------------------
    with compute.in_flight(df.sparkSession) as submit:
        # nothing to wait for
        stats_job = submit(compute.basic_stats_pass, df, types, quantile_probs=quantile_probs(cfg))
        layout_job = submit(compute.partition_rows, df)
        value_counts_job = submit(compute.value_counts_pass, df, cat_cols)
        # the row total sizes the duplicate count, the sample and the
        # Spearman collect
        layout = layout_job.result()
        nrows = sum(layout.values())
        duplicates_job = submit(duplicate_rows_pass, df, nrows)
        size = max(cfg["kde.sample_size"], cfg["kendall.sample_size"])
        sample_job = submit(compute.finite_sample, df, num_cols, size, cfg["compute.seed"], nrows)
        spearman = (
            submit(spearman_matrix, df, num_cols, nrows=nrows).result
            if "spearman" in methods else None
        )
        # min/max give the bin edges of the one co-moment scan: Pearson, the
        # histograms, the nullity heatmap and the missing spectrum
        stats = stats_job.result()
        del stats["__table__"]
        quantiles = {c: stats[c].pop("quantiles") for c in num_cols}
        minmax = {c: (stats[c]["min"], stats[c]["max"]) for c in num_cols}
        edges = compute.histogram_edges(num_cols, minmax, cfg["hist.bins"])
        scan_job = submit(
            comoment_scan, df, num_cols, df.columns, edges, cfg["spectrum.bins"], layout=layout
        )
        # driver side, while the scan runs: the hexbins and Kendall need
        # only the sample
        sample = sample_job.result()
        interactions = _hexbins(sample, num_cols, cfg["hexbin.gridsize"])
        corr = correlation_view(
            methods, num_cols, lambda: sample.head(cfg["kendall.sample_size"]),
            lambda: scan_job.result().pearson(), spearman,
        )
        moments = scan_job.result()
        value_counts = value_counts_job.result()
        n_dup = duplicates_job.result()
    hists = {c: moments.hists.get(c, compute.NO_HISTOGRAM) for c in num_cols}

    # -- pandas Computation phase (the task views) -----------------------
    variables: dict[str, Intermediates] = {}
    for c, t in types.items():
        if t is EDAType.NUMERICAL:
            variables[c] = numerical_view(c, stats[c], quantiles[c], hists[c], sample[c], cfg)
        elif t is EDAType.CATEGORICAL:
            variables[c] = categorical_view(c, stats[c], value_counts[c], cfg)
        else:  # datetime: the stats table only
            sub = variables[c] = Intermediates(task=f"univariate:{c}")
            sub["col"] = c
            sub["type"] = t.value
            sub["nrows"] = nrows
            sub["stats"] = stats[c]

    inter = Intermediates(task="report")
    inter["types"] = {c: t.value for c, t in types.items()}
    inter["dataset_stats"] = dataset_stats(types, stats, nrows, n_dup)
    inter["variables"] = variables
    inter["interactions"] = interactions
    inter["correlations"] = corr
    inter["missing"] = missing_view(moments)
    inter["value_counts"] = value_counts
    return inter


def report_insights(inter: Intermediates, cfg: Config) -> list[Insight]:
    """The overview's, every variable's and the correlations' insights, once each."""
    out = dataset_insights(inter["dataset_stats"], cfg)
    for sub in inter["variables"].values():
        out += univariate_insights(sub, cfg)
    out += correlation_insights(inter["correlations"], cfg)
    return out


def _render_sections(inter: Intermediates, cfg: Config) -> dict[str, str]:
    w, h = cfg["render.width"], cfg["render.height"]
    sections: dict[str, str] = {"Overview": stats_table(inter["dataset_stats"])}
    var_html = []
    for c, sub in inter["variables"].items():
        parts = [f"<h3>{c}</h3>", stats_table(sub["stats"])]
        if "hist" in sub:
            parts.append(svg_bars(sub["hist"]["counts"], w, h))
        if "kde" in sub:
            parts.append(svg_line(sub["kde"]["grid"], sub["kde"]["density"], w, h))
        if "bar" in sub:
            bar = sub["bar"]
            parts.append(svg_bars(bar, w, h, [str(i) for i in bar.index]))
        var_html.append("".join(parts))
    sections["Variables"] = "".join(var_html)
    sections["Interactions"] = "".join(
        f"<h3>{a} × {b}</h3>" + grid.head(20).to_html(border=0)
        for (a, b), grid in inter["interactions"].items()
    )
    sections["Correlations"] = "".join(
        f"<h3>{m}</h3>" + mat.to_html(border=0, float_format=lambda v: f"{v:.3f}")
        for m, mat in inter["correlations"].items()
    )
    miss = inter["missing"]
    sections["Missing Values"] = (
        svg_bars(miss["bar"], w, h, [str(i) for i in miss["bar"].index])
        + miss["spectrum"].head(40).to_html(border=0)
        + miss["nullity_corr"].to_html(border=0)
    )
    return sections


def create_report(df: DataFrame, config: dict | None = None) -> EDAResult:
    """Generate the full profile report (the Table-2 benchmark subject)."""
    cfg = Config.from_user(config)
    inter = compute_report(df, cfg)
    insights = report_insights(inter, cfg)
    html = render_report(_render_sections(inter, cfg), insights, cfg)
    return EDAResult(task="report", intermediates=inter, insights=insights, html=html)
