"""Pandas-profiling-style **eager** profiler — the Table-2 comparator.

Pandas-profiling (paper §1, §5.1, §6.1) computes its report section by
section and column by column, each statistic family materialized eagerly
with no cross-operation optimization — the paper's explanation for why it
is 4–20× slower than the fused pipeline. This baseline reproduces that
*computation structure* over the same Spark substrate:

* one action per column per statistic family (count, missing, distinct,
  describe-moments, quantiles, histogram **with its own min/max pass**,
  value counts);
* one action per numeric **pair** for the Interactions section (as PP draws
  a scatter/hexbin per pair from the full frame);
* one full pass per correlation method (Pearson; Spearman with one extra
  eager rank job per column; Kendall per pair on its own sample);
* separate passes for each missing-value visualization.

PhiK / Recoded / Cramér's V are excluded, matching the paper's benchmark
configuration ("with PhiK, Recoded and Cramer's V correlations disabled").

The produced numbers are the *same intermediates* the fused system emits
(tests assert agreement); only the execution strategy differs. That makes
the Table-2 comparison an apples-to-apples measurement of fusion.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.compute import (
    bin_edges, bin_index, finite, finite_sample, finite_values, missing_expr, quote,
)
from repro.core.config import Config
from repro.core.correlation import comoment_scan, correlation_view, pearson_matrix, spearman_matrix
from repro.core.dtypes import EDAType, detect_types
from repro.core.intermediates import Intermediates


def _profile_numeric_column(df: DataFrame, col: str, cfg: Config) -> dict[str, object]:
    """Eager per-column profile: each family is its own Spark action."""
    # renamed: the Column API would parse a "." or backtick in ``col``
    proj = finite_values(df, [col]).toDF("v")
    stats: dict[str, object] = {}
    stats["count"] = proj.where(F.col("v").isNotNull()).count()                    # action 1
    stats["nmissing"] = df.select(missing_expr(df, col).alias("m")).agg(F.sum("m")).collect()[0][0]  # action 2
    stats["distinct"] = proj.select("v").distinct().count()                        # action 3
    row = proj.agg(F.min("v"), F.max("v")).collect()[0]                            # action 4
    stats["min"], stats["max"] = row[0], row[1]
    row = proj.agg(F.mean("v"), F.stddev("v"), F.sum("v")).collect()[0]            # action 5
    stats["mean"], stats["std"], stats["sum"] = row[0], row[1], row[2]
    row = proj.agg(F.skewness("v"), F.kurtosis("v")).collect()[0]                  # action 6
    stats["skew"], stats["kurt"] = row[0], row[1]
    row = proj.agg(
        F.sum((F.col("v") == 0).cast("long")), F.sum((F.col("v") < 0).cast("long"))
    ).collect()[0]                                                                 # action 7
    stats["nzero"], stats["nnegative"] = row[0], row[1]
    qs = proj.approxQuantile("v", [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99], 0.001)  # action 8
    stats["quantiles"] = dict(zip((0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99), qs))
    # PP's variables section also builds a "common values" table (value
    # counts of the *numeric* column) and "minimum/maximum 10 values"
    # tables — each its own eager computation in PP, hence own actions.
    common = (
        proj.where(F.col("v").isNotNull())
        .groupBy("v").count()
        .orderBy(F.desc("count"), F.asc("v")).limit(10).toPandas()            # action 9
    )
    stats["common_values"] = pd.Series(
        common["count"].to_numpy("int64"), index=common["v"].to_numpy(object)
    )
    nn = proj.where(F.col("v").isNotNull())
    stats["min_values"] = [r[0] for r in nn.orderBy(F.asc("v")).limit(10).collect()]   # action 10
    stats["max_values"] = [r[0] for r in nn.orderBy(F.desc("v")).limit(10).collect()]  # action 11
    # histogram: its own min/max pass then its own binning pass (PP's
    # numpy.histogram scans once for the range and once for the bins).
    mn, mx = stats["min"], stats["max"]
    bins = cfg["hist.bins"]
    if mn is not None and mx is not None and mx > mn:
        counts_pdf = (
            proj.where(F.col("v").isNotNull())
            .selectExpr(f"{bin_index('v', mn, mx, bins)} AS bin")
            .groupBy("bin")
            .count()
            .toPandas()                                                            # action 12
        )
        counts = np.zeros(bins, dtype="int64")
        counts[counts_pdf["bin"].to_numpy("int64")] = counts_pdf["count"].to_numpy("int64")
        stats["hist"] = (counts, bin_edges(mn, mx, bins))
    else:
        stats["hist"] = (np.zeros(0, dtype="int64"), np.zeros(0))
    return stats


def _profile_categorical_column(df: DataFrame, col: str, cfg: Config) -> dict[str, object]:
    proj = df.selectExpr(f"CAST({quote(col)} AS STRING) AS v")
    stats: dict[str, object] = {}
    stats["count"] = proj.where(F.col("v").isNotNull()).count()                    # action 1
    stats["nmissing"] = df.select(missing_expr(df, col).alias("m")).agg(F.sum("m")).collect()[0][0]  # action 2
    stats["distinct"] = proj.where(F.col("v").isNotNull()).distinct().count()      # action 3
    row = proj.agg(
        F.min(F.length("v")), F.max(F.length("v")), F.mean(F.length("v"))
    ).collect()[0]                                                                 # action 4
    stats["len_min"], stats["len_max"], stats["len_mean"] = row[0], row[1], row[2]
    vc = (
        proj.where(F.col("v").isNotNull())
        .groupBy("v")
        .count()
        .orderBy(F.desc("count"), F.asc("v"))
        .limit(1000)
        .toPandas()                                                                # action 5
    )
    stats["value_counts"] = pd.Series(
        vc["count"].to_numpy("int64"), index=vc["v"].to_numpy(object), name=col
    )
    return stats


def eager_profile_report(df: DataFrame, config: dict | None = None) -> Intermediates:
    """Full eager profile report (Pandas-profiling computation structure).

    Returns the same intermediates shape as ``core.report.compute_report``
    (modulo layout) so correctness can be cross-checked against the fused
    pipeline; wall-clock difference is the Table-2 measurement.
    """
    cfg = Config.from_user(config)
    types = detect_types(df)
    num_cols = [c for c, t in types.items() if t is EDAType.NUMERICAL]
    cat_cols = [c for c, t in types.items() if t is EDAType.CATEGORICAL]

    inter = Intermediates(task="baseline_report")
    nrows = df.count()                                                             # overview action
    n_dup = nrows - df.distinct().count()                                          # overview action
    inter["dataset_stats"] = {
        "nrows": nrows,
        "ncols": len(df.columns),
        "n_numerical": len(num_cols),
        "n_categorical": len(cat_cols),
        "n_duplicate_rows": n_dup,
    }

    variables: dict[str, dict[str, object]] = {}
    for c in num_cols:
        variables[c] = _profile_numeric_column(df, c, cfg)
    for c in cat_cols:
        variables[c] = _profile_categorical_column(df, c, cfg)
    for c in df.columns:
        if c not in variables:  # datetime columns: min/max only
            row = df.selectExpr(f"min({quote(c)})", f"max({quote(c)})").collect()[0]
            variables[c] = {"min": row[0], "max": row[1]}
    inter["variables"] = variables
    miss_bar = pd.Series({c: int(variables[c].get("nmissing") or 0) for c in df.columns})

    # Interactions: one sampled collect per numeric pair (PP draws a plot
    # per pair; each is its own eager computation), over the pairs where
    # both values are finite (``finite`` nulls NaN/±inf, ``dropna`` drops).
    interactions: dict[tuple[str, str], pd.DataFrame] = {}
    gs = cfg["hexbin.gridsize"]
    for i, a in enumerate(num_cols):
        for b in num_cols[i + 1:]:
            pair_pdf = (
                df.selectExpr(f"{finite(quote(a))} AS x", f"{finite(quote(b))} AS y")
                .dropna()
                .sample(fraction=min(1.0, 10_000 / max(nrows, 1)), seed=cfg["compute.seed"])
                .toPandas()                                                        # one action per pair
            )
            if pair_pdf.empty:
                interactions[(a, b)] = pd.DataFrame(columns=["xbin", "ybin", "count"])
                continue
            xs, ys = pair_pdf.iloc[:, 0], pair_pdf.iloc[:, 1]
            xb = np.clip(((xs - xs.min()) / ((xs.max() - xs.min()) or 1) * gs).astype(int), 0, gs - 1)
            yb = np.clip(((ys - ys.min()) / ((ys.max() - ys.min()) or 1) * gs).astype(int), 0, gs - 1)
            interactions[(a, b)] = (
                pd.DataFrame({"xbin": xb, "ybin": yb}).value_counts().rename("count").reset_index()
            )
    inter["interactions"] = interactions

    # Correlations: one full, *separate* pass per method (PP calls
    # pandas.corr once per method — three independent scans, none shared
    # with the per-column work above). Kendall runs the same exact tau-b
    # kernel as the fused system, on its own sampled collect.
    inter["correlations"] = correlation_view(
        cfg["correlation.methods"], num_cols,
        lambda: finite_sample(df, num_cols, cfg["kendall.sample_size"], cfg["compute.seed"], nrows),
        lambda: pearson_matrix(df, num_cols), lambda: spearman_matrix(df, num_cols),
    ) if num_cols else {}

    # Missing section: a separate pass per visualization (bar already
    # computed per column above; spectrum, heatmap, dendrogram each rescan).
    from repro.core.missing import (
        nullity_correlation,
        nullity_dendrogram,
        spectrum_pass,
    )

    inter["missing"] = {
        "bar": miss_bar,
        "spectrum": spectrum_pass(df, cfg["spectrum.bins"]),
        "nullity_corr": nullity_correlation(comoment_scan(df, [], df.columns)),
    }
    inter["missing"]["dendrogram"] = nullity_dendrogram(inter["missing"]["nullity_corr"])
    return inter
