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
in flight together.

The row total picks the phase (paper §5.2: a big-data phase, then a
small-data pandas phase, with a heuristic boundary). Below the cell budget
(``compute.DRIVER_CELLS``; every Table-2 shape) the numeric passes run on
the driver over **one collect**, in place of the numeric stats aggregate,
a Spark sample, a Python-worker scan and a Spearman collect; above it they
run in Spark.

====================================  ======================================
pass                                  waits for
====================================  ======================================
``basic_stats_pass`` of the           nothing (its type classes' aggregates
categorical and datetime columns      run together too); none without such
(one melted aggregate per class)      columns
``compute.partition_rows`` (rows per  nothing
partition)
``value_counts_pass`` (all            nothing
categorical bars and their exact
totals, 1 melted shuffle, 1 action)
duplicate-row count (1 distinct       ``partition_rows``: the row total
count)
*below the budget:*
``driver_values`` (1 collect: the     ``partition_rows``: the row total
finite numeric values and every       picks the phase
column's missing flag)
on the driver, over that collect:     the collect only
``numeric_stats`` (every numeric
stat, exact quantiles and distinct
counts), then ``local_comoments``
(the co-moment kernel: Pearson,
every numeric histogram over the
stats' min/max, nullity
correlation, exact missing spectrum
in collect order), Spearman, a
seeded numpy sample (KDE, Kendall)
and the interactions over every row
*above the budget:*
``basic_stats_pass`` of the numeric   ``partition_rows``: the row total
columns (every stat and the           picks the phase
stats+box+Q-Q quantile sketch)
``finite_sample`` (one seeded         ``partition_rows``: the row total
Spark sample of the numeric columns   sizes the sampling fraction
for KDE, Kendall and the
interactions)
Spearman (distributed rank +          ``partition_rows``
co-moment scan)
``comoment_scan`` (the same kernel    the numeric stats (min/max give the
as 1 Python scan)                     bin edges) and ``partition_rows``
                                      (the offsets number the rows): the
                                      paper's precompute-metadata stage
Kendall and the interactions          the sample; they run on the driver
                                      while the scan is in flight
====================================  ======================================

The views then shape each section on the driver:
``univariate.numerical_view`` / ``categorical_view`` per variable,
``overview.dataset_stats`` for the overview and ``missing.missing_view``
for the missing values. Only the interactions are the report's own: a
hexbin grid per numeric pair, binned by the histograms' rule.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core import compute
from repro.core.config import Config
from repro.core.correlation import (
    comoment_scan, correlation_view, local_comoments, ranked_pearson, spearman_matrix,
)
from repro.core.dtypes import EDAType, detect_types
from repro.core.insights import correlation_insights, dataset_insights, univariate_insights
from repro.core.intermediates import EDAResult, Insight, Intermediates
from repro.core.missing import missing_view
from repro.core.overview import dataset_stats, duplicate_rows_pass
from repro.core.render import render_report, stats_table, svg_bars, svg_line
from repro.core.univariate import categorical_view, numerical_view, quantile_probs, sample_rows


def compute_report(df: DataFrame, cfg: Config) -> Intermediates:
    """All report intermediates: the pass graph, then the views (see module doc)."""
    types = detect_types(df)
    num_cols = [c for c, t in types.items() if t is EDAType.NUMERICAL]
    cat_cols = [c for c, t in types.items() if t is EDAType.CATEGORICAL]
    methods = cfg["correlation.methods"]
    seed, bins, segments = cfg["compute.seed"], cfg["hist.bins"], cfg["spectrum.bins"]
    size = sample_rows(cfg)

    # -- Spark Computation phase: the pass graph -------------------------
    others = [c for c in types if c not in num_cols]  # categorical and datetime
    probs = quantile_probs(cfg)
    with compute.in_flight(df.sparkSession) as submit:
        # nothing to wait for
        stats_job = submit(compute.basic_stats_pass, df, types, others) if others else None
        layout_job = submit(compute.partition_rows, df)
        value_counts_job = submit(compute.value_counts_pass, df, cat_cols)
        # the row total sizes the duplicate count and picks the phase
        layout = layout_job.result()
        nrows = sum(layout.values())
        duplicates_job = submit(duplicate_rows_pass, df, nrows)
        values = compute.driver_values(df, num_cols, nrows, df.columns)
        if values is not None:
            # below the cell budget: one collect, and the numeric stats, the
            # co-moment kernel (Pearson, histograms, nullity, missing
            # spectrum), Spearman, the sample and the interactions run on it
            # here while the Spark passes are in flight
            flags = compute.missing_flags(values, df.columns)
            stats = compute.numeric_stats(values[num_cols], flags[num_cols], nrows, probs)
            minmax = {c: (stats[c]["min"], stats[c]["max"]) for c in num_cols}
            edges = compute.histogram_edges(num_cols, minmax, bins)
            moments = local_comoments(values, num_cols, df.columns, edges, segments)
            scan = lambda: moments  # the co-moments; a Future's result above the budget
            spearman = lambda: ranked_pearson(values, num_cols)
            sample = compute.drawn(values, size, seed)[num_cols]
            rows = values  # the interactions bin every row
        else:
            # above it: the numeric stats aggregate, a seeded Spark sample,
            # the distributed rank and one co-moment scan, whose bin edges
            # wait for the stats' min/max
            sample_job = submit(compute.finite_sample, df, num_cols, size, seed, nrows)
            spearman = (
                submit(spearman_matrix, df, num_cols, nrows=nrows).result
                if "spearman" in methods else None
            )
            stats = compute.basic_stats_pass(df, types, num_cols, probs) if num_cols else {}
            minmax = {c: (stats[c]["min"], stats[c]["max"]) for c in num_cols}
            edges = compute.histogram_edges(num_cols, minmax, bins)
            scan = submit(
                comoment_scan, df, num_cols, df.columns, edges, segments, layout=layout
            ).result
            rows = sample = sample_job.result()
        # driver side, while Spark jobs are in flight
        interactions = compute.hexbins(rows, num_cols, minmax, cfg["hexbin.gridsize"])
        corr = correlation_view(
            methods, num_cols, lambda: sample.head(cfg["kendall.sample_size"]),
            lambda: scan().pearson(), spearman,
        )
        moments = scan()
        if stats_job is not None:
            stats.update(stats_job.result())
        stats = {c: stats[c] for c in types}
        value_counts = value_counts_job.result()
        n_dup = duplicates_job.result()
    quantiles = {c: stats[c].pop("quantiles") for c in num_cols}
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
