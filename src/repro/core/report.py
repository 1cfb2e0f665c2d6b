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

The gate picks the phase (paper §5.2: a big-data phase, then a small-data
pandas phase, with a heuristic boundary): one job gives the rows per
partition and the categorical columns' bytes, which price the collect.
Below the cell budget (``compute.DRIVER_CELLS``) the report makes **one
collect of every column** and computes everything on the driver but the
datetime stats; when the numeric values fit and the labels do not, the
categorical passes and the duplicate count stay in Spark; above the budget
every pass runs in Spark.

====================================  ======================================
pass                                  waits for
====================================  ======================================
``basic_stats_pass`` of the datetime  nothing; none without such columns
columns (one melted aggregate)
``compute.partition_sizes`` (the      nothing
gate: rows per partition and the
labels' UTF-8 bytes)
*below the budget:*
``driver_values`` (1 Arrow collect:   the gate: the row total and the
every column; the finite values,      bytes pick the phase
missing flags and duplicate count
derived on the driver)
on the driver, over that collect:     the collect only
``categorical_summaries`` (the
categorical stats, distinct exact,
and the value counts), the duplicate
count, ``numeric_stats`` (every
numeric stat, exact quantiles and
distinct counts), then
``local_comoments`` (the co-moment
kernel: Pearson, every numeric
histogram over the stats' min/max,
nullity correlation, exact missing
spectrum in collect order),
Spearman, a seeded numpy sample
(KDE, Kendall) and the interactions
over every row
*when only the labels do not fit,     the gate
also:* the categorical stats
aggregate, ``value_counts_pass`` (1
melted shuffle, 1 action) and the
duplicate-row count (1 distinct
count), in flight beside the
driver's work
*above the budget:*
the categorical stats aggregate,      the gate
``value_counts_pass`` and the
duplicate-row count, as above
``basic_stats_pass`` of the numeric   the gate: the row total picks the
columns (every stat and the           phase
stats+box+Q-Q quantile sketch)
``finite_sample`` (one seeded         the gate: the row total sizes the
Spark sample of the numeric columns   sampling fraction
for KDE, Kendall and the
interactions)
Spearman (distributed rank +          the gate
co-moment scan)
``comoment_scan`` (the same kernel    the numeric stats (min/max give the
as 1 Python scan)                     bin edges) and the gate (the offsets
                                      number the rows): the paper's
                                      precompute-metadata stage
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
from repro.core.overview import dataset_stats, frame_values, label_passes
from repro.core.render import html_table, render_report, stats_table, svg_bars, svg_line
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
    dt_cols = [c for c, t in types.items() if t is EDAType.DATETIME]
    probs = quantile_probs(cfg)
    with compute.in_flight(df.sparkSession) as submit:
        # nothing to wait for: the datetime stats, at any size
        dt_job = submit(compute.basic_stats_pass, df, types, dt_cols) if dt_cols else None
        # the gate: the row total and the labels' bytes pick the phase
        layout, label_bytes = compute.partition_sizes(df, cat_cols)
        nrows = sum(layout.values())
        values = frame_values(df, types, nrows, label_bytes, df.columns)
        # the categorical stats, value counts and duplicate count: from the
        # collect when it holds every column, else in flight in Spark
        categorical = label_passes(submit, df, types, nrows, values)
        if values is not None:
            # below the cell budget: one collect, and the numeric stats, the
            # co-moment kernel (Pearson, histograms, nullity, missing
            # spectrum), Spearman, the sample and the interactions run on it
            # here, while any Spark pass is in flight
            finite = values.values
            stats = compute.numeric_stats(finite, values.flags, nrows, probs)
            minmax = {c: (stats[c]["min"], stats[c]["max"]) for c in num_cols}
            edges = compute.histogram_edges(num_cols, minmax, bins)
            moments = local_comoments(finite, num_cols, values.flags, edges, segments)
            scan = lambda: moments  # the co-moments; a Future's result above the budget
            spearman = lambda: ranked_pearson(finite, num_cols)
            sample = compute.drawn(finite, size, seed)
            rows = finite  # the interactions bin every row
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
        cat_stats, value_counts, n_dup = categorical()
        stats.update(cat_stats)
        if dt_job is not None:
            stats.update(dt_job.result())
        stats = {c: stats[c] for c in types}
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
        f"<h3>{a} × {b}</h3>" + html_table(grid.head(20))
        for (a, b), grid in inter["interactions"].items()
    )
    sections["Correlations"] = "".join(
        f"<h3>{m}</h3>" + html_table(mat, lambda v: f"{v:.3f}")
        for m, mat in inter["correlations"].items()
    )
    miss = inter["missing"]
    sections["Missing Values"] = (
        svg_bars(miss["bar"], w, h, [str(i) for i in miss["bar"].index])
        + html_table(miss["spectrum"].head(40))
        + html_table(miss["nullity_corr"])
    )
    return sections


def create_report(df: DataFrame, config: dict | None = None) -> EDAResult:
    """Generate the full profile report (the Table-2 benchmark subject)."""
    cfg = Config.from_user(config)
    inter = compute_report(df, cfg)
    insights = report_insights(inter, cfg)
    html = render_report(_render_sections(inter, cfg), insights, cfg)
    return EDAResult(task="report", intermediates=inter, insights=insights, html=html)
