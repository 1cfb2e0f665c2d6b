"""``create_report(df)`` — the profile-report functionality benchmarked in
the paper's §6 (Table 2, Figure 6).

The report covers the same five sections as Pandas-profiling (Overview,
Variables, Interactions, Correlations, Missing Values) but computes them
through the fused pipeline: a fixed, small number of Spark jobs
**independent of the column count**, with every shared intermediate
computed exactly once:

1.  one ``basic_stats_pass``       (all stats and the stats+box+Q-Q quantile
                                    sketch, all columns — one melted
                                    aggregate per type class)
2.  one duplicate-row count        (1 scan)
3.  one ``histogram_pass``         (all numeric histograms — 1 melted shuffle;
                                    bin edges from pass 1, the paper's
                                    precompute-metadata stage)
4.  one ``value_counts_pass``      (all categorical bars — 1 melted shuffle)
5.  one ``sample_pass``            (one seeded numeric sample shared by KDE,
                                    Kendall, and sample-based interactions)
6.  one ``comoment_scan``          (Pearson of all numeric pairs and the
                                    nullity correlation of all columns —
                                    1 scan)
7.  Spearman: a driver-side rank of the numeric projection (1 collect), or
    a distributed rank transform + co-moment scan above the cell budget
8.  the spectrum jobs for the missing section

Everything else (Q-Q, box geometry, KDE, tau-b, linkage, insights,
rendering) is driver-side pandas/numpy over the reduced intermediates —
the paper's Dask-Computation / Pandas-Computation split (§5.2).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core import compute
from repro.core.config import Config
from repro.core.correlation import comoment_scan, kendall_matrix, spearman_matrix
from repro.core.dtypes import EDAType, detect_types
from repro.core.insights import (
    correlation_insights,
    dataset_insights,
    column_insights,
    missing_insights,
)
from repro.core.intermediates import EDAResult, Insight, Intermediates
from repro.core.missing import nullity_correlation, nullity_dendrogram, spectrum_pass
from repro.core.overview import duplicate_rows_pass
from repro.core.render import render_report, stats_table, svg_bars, svg_line
from repro.core.univariate import box_plot_stats
from repro.substrate import numutils


def compute_report(df: DataFrame, cfg: Config) -> Intermediates:
    """All report intermediates through the fused pipeline (see module doc)."""
    types = detect_types(df)
    num_cols = [c for c, t in types.items() if t is EDAType.NUMERICAL]
    cat_cols = [c for c, t in types.items() if t is EDAType.CATEGORICAL]

    # -- Spark Computation phase (fused passes) --------------------------
    qq_probs = tuple((i + 0.5) / cfg["qq.points"] for i in range(cfg["qq.points"]))
    all_probs = tuple(sorted(set(compute.STATS_QUANTILES) | set(qq_probs)))
    stats = compute.basic_stats_pass(df, types, quantile_probs=all_probs)
    nrows = int(stats["__table__"]["nrows"])
    col_stats = {c: s for c, s in stats.items() if c != "__table__"}

    n_dup = duplicate_rows_pass(df, nrows)

    quantiles = {
        c: stats[c].pop("quantiles") for c in num_cols
    }  # sketched inside the fused stats agg — no separate quantile scan

    minmax = {c: (col_stats[c].get("min"), col_stats[c].get("max")) for c in num_cols}
    hists = compute.histogram_pass(df, num_cols, types, minmax, cfg["hist.bins"])
    value_counts = compute.value_counts_pass(df, cat_cols)

    sample = (
        compute.sample_pass(
            df.select(num_cols), num_cols,
            max(cfg["kde.sample_size"], cfg["kendall.sample_size"]),
            cfg["compute.seed"], total_rows=nrows,
        ).astype("float64")
        if num_cols else pd.DataFrame()
    )

    # one scan for the Pearson matrix and the nullity heatmap
    moments = comoment_scan(df, num_cols, df.columns)
    corr: dict[str, pd.DataFrame] = {}
    methods = cfg["correlation.methods"]
    if "pearson" in methods:
        corr["pearson"] = moments.pearson()
    if "spearman" in methods:
        corr["spearman"] = spearman_matrix(df, num_cols, nrows=nrows)
    if "kendall" in methods:
        ksample = sample.head(cfg["kendall.sample_size"]) if len(sample) else sample
        corr["kendall"] = kendall_matrix(ksample, num_cols)

    miss_counts = pd.Series({c: int(s["nmissing"]) for c, s in col_stats.items()})
    spectrum = spectrum_pass(df, cfg["spectrum.bins"], nrows)
    nullity = nullity_correlation(moments)
    dendrogram = nullity_dendrogram(nullity)

    # -- pandas Computation phase (driver-side shaping) ------------------
    variables: dict[str, Intermediates] = {}
    for c in df.columns:
        sub = Intermediates(task=f"univariate:{c}")
        sub["col"] = c
        sub["type"] = types[c].value
        sub["nrows"] = nrows
        if types[c] is EDAType.NUMERICAL:
            q = quantiles.get(c, {})
            sub["stats"] = {
                **col_stats[c],
                "quantiles": {p: q.get(p) for p in compute.STATS_QUANTILES},
            }
            counts, edges = hists[c]
            sub["hist"] = {"counts": counts, "edges": edges}
            mn, mx = minmax[c]
            col_sample = sample[c].dropna().head(cfg["kde.sample_size"]) if c in sample else pd.Series(dtype="float64")
            if mn is not None and mx is not None and len(col_sample):
                grid = np.linspace(float(mn), float(mx), cfg["kde.grid_points"])
                sub["kde"] = {"grid": grid, "density": numutils.gaussian_kde(col_sample.to_numpy(), grid)}
            else:
                sub["kde"] = {"grid": np.zeros(0), "density": np.zeros(0)}
            mean, std = col_stats[c].get("mean"), col_stats[c].get("std")
            theo = numutils.norm_ppf(np.array(qq_probs))
            if mean is not None and std not in (None, 0) and std == std and all(p in q for p in qq_probs):
                sub["qq"] = {
                    "theoretical": float(mean) + float(std) * theo,
                    "sample": np.array([q[p] for p in qq_probs], dtype="float64"),
                }
            else:
                sub["qq"] = {"theoretical": np.full(len(qq_probs), np.nan), "sample": np.full(len(qq_probs), np.nan)}
            if all(p in q and q[p] is not None for p in (0.25, 0.5, 0.75)):
                sub["box"] = box_plot_stats(q, cfg["box.whisker"])
        elif types[c] is EDAType.CATEGORICAL:
            vc = value_counts[c]
            sub["stats"] = {
                **col_stats[c],
                "n_distinct_exact": vc.attrs.get("n_distinct", len(vc)),
                "n_total": vc.attrs.get("n_total", int(vc.sum())),
            }
            sub["bar"] = vc.head(cfg["bar.top_n"])
        else:
            sub["stats"] = dict(col_stats[c])
        variables[c] = sub

    # Interactions: hexbin per numeric pair, derived from the one shared
    # sample on the driver (documented substitution — PP recomputes each
    # pair from the full frame, our baseline does too).
    interactions: dict[tuple[str, str], pd.DataFrame] = {}
    gs = cfg["hexbin.gridsize"]
    for i, a in enumerate(num_cols):
        for b in num_cols[i + 1:]:
            if a not in sample or b not in sample:
                continue
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

    n_cells = nrows * len(df.columns)
    inter = Intermediates(task="report")
    inter["types"] = {c: t.value for c, t in types.items()}
    inter["dataset_stats"] = {
        "nrows": nrows,
        "ncols": len(df.columns),
        "n_numerical": len(num_cols),
        "n_categorical": len(cat_cols),
        "n_missing_cells": int(miss_counts.sum()),
        "missing_pct": (float(miss_counts.sum()) / n_cells) if n_cells else 0.0,
        "n_duplicate_rows": n_dup,
    }
    inter["variables"] = variables
    inter["interactions"] = interactions
    inter["correlations"] = corr
    inter["missing"] = {
        "bar": miss_counts,
        "missing_rate": (miss_counts / nrows) if nrows else miss_counts.astype("float64"),
        "spectrum": spectrum,
        "nullity_corr": nullity,
        "dendrogram": dendrogram,
    }
    inter["value_counts"] = value_counts
    return inter


def report_insights(inter: Intermediates, cfg: Config) -> list[Insight]:
    out = dataset_insights(inter["dataset_stats"], cfg)
    nrows = int(inter["dataset_stats"]["nrows"])
    for c, sub in inter["variables"].items():
        hist = sub.get("hist")
        out += column_insights(
            c, sub["stats"], cfg, nrows,
            hist_counts=hist["counts"] if hist else None,
            value_counts=inter["value_counts"].get(c),
        )
    corr_inter = Intermediates(task="correlation")
    for m, mat in inter["correlations"].items():
        corr_inter[m] = mat
    out += correlation_insights(corr_inter, cfg)
    miss_inter = Intermediates(task="missing")
    miss_inter["missing_rate"] = inter["missing"]["missing_rate"]
    out += missing_insights(miss_inter, cfg)
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
