"""Bivariate analysis — ``plot(df, col1, col2)`` (paper Figure 2, row 3).

Type-pair mapping rules:

* NN → scatter plot (seeded sample), hexbin plot (2-D binned groupBy),
  binned box plot (y-quantiles per x-bin).
* NC / CN → categorical box plot (y-quantiles per category), multi-line
  chart (histogram of the numeric per top category).
* CC → nested bar chart, stacked bar chart, heat map — all views of one
  contingency-table groupBy.

Every variant is one or two fused Spark jobs plus driver-side shaping.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import compute
from repro.core.config import Config
from repro.core.dtypes import EDAType, detect_type
from repro.core.intermediates import Intermediates


def compute_num_num(df: DataFrame, x: str, y: str, cfg: Config) -> Intermediates:
    """NN pair: scatter sample + hexbin grid + binned box plot."""
    qx, qy = compute.quote(x), compute.quote(y)
    proj = df.where(f"{compute.finite(qx)} IS NOT NULL AND {compute.finite(qy)} IS NOT NULL")
    mm = compute.finite_minmax(proj, [x, y])[0]
    (x_mn, x_mx), (y_mn, y_mx) = mm[x], mm[y]

    inter = Intermediates(task=f"bivariate:{x}:{y}")
    inter["cols"] = (x, y)
    inter["kind"] = "NN"
    if x_mn is None or y_mn is None:
        inter["scatter"] = pd.DataFrame({x: [], y: []})
        inter["hexbin"] = pd.DataFrame(columns=["xbin", "ybin", "count"])
        inter["binned_box"] = pd.DataFrame()
        return inter

    sample = compute.sample_pass(
        proj, [x, y], cfg["scatter.sample_size"], cfg["compute.seed"]
    )
    inter["scatter"] = sample

    gs = cfg["hexbin.gridsize"]
    xv, yv = f"CAST({qx} AS DOUBLE)", f"CAST({qy} AS DOUBLE)"
    hexbin = (
        proj.selectExpr(
            f"{compute.bin_index(xv, x_mn, x_mx, gs)} AS xbin",
            f"{compute.bin_index(yv, y_mn, y_mx, gs)} AS ybin",
        )
        .groupBy("xbin", "ybin")
        .count()
        .toPandas()
    )
    hexbin.attrs["x_edges"] = compute.bin_edges(x_mn, x_mx, gs)
    hexbin.attrs["y_edges"] = compute.bin_edges(y_mn, y_mx, gs)
    inter["hexbin"] = hexbin

    nb = cfg["boxnum.bins"]
    box = (
        proj.selectExpr(f"{compute.bin_index(xv, x_mn, x_mx, nb)} AS xbin", f"{yv} AS y")
        .groupBy("xbin")
        .agg(
            F.percentile_approx("y", [0.25, 0.5, 0.75]).alias("q"),
            F.min("y").alias("min"),
            F.max("y").alias("max"),
            F.count("y").alias("count"),
        )
        .orderBy("xbin")
        .toPandas()
    )
    if not box.empty:
        q = np.vstack(box["q"].to_numpy())
        box["q1"], box["median"], box["q3"] = q[:, 0], q[:, 1], q[:, 2]
        box = box.drop(columns=["q"])
    box.attrs["x_edges"] = compute.bin_edges(x_mn, x_mx, nb)
    inter["binned_box"] = box
    return inter


def compute_num_cat(df: DataFrame, num: str, cat: str, cfg: Config) -> Intermediates:
    """NC pair: per-category box plot + per-category histogram lines.

    The top ``line.ngroups`` categories (by frequency) are analyzed; the
    category ranking, box stats, and line histograms take three fused jobs.
    """
    proj = df.selectExpr(
        f"CAST({compute.quote(cat)} AS STRING) AS g", f"{compute.finite(compute.quote(num))} AS y"
    ).where("g IS NOT NULL AND y IS NOT NULL")

    ngroups = cfg["line.ngroups"]
    top_pdf = (
        proj.groupBy("g").count().orderBy(F.desc("count"), F.asc("g")).limit(ngroups).toPandas()
    )
    top = top_pdf["g"].tolist()
    inter = Intermediates(task=f"bivariate:{num}:{cat}")
    inter["cols"] = (num, cat)
    inter["kind"] = "NC"
    inter["groups"] = top
    if not top:
        inter["cat_box"] = pd.DataFrame()
        inter["lines"] = {}
        return inter

    sub = proj.where(F.col("g").isin(top))
    box = (
        sub.groupBy("g")
        .agg(
            F.percentile_approx("y", [0.25, 0.5, 0.75]).alias("q"),
            F.min("y").alias("min"),
            F.max("y").alias("max"),
            F.count("y").alias("count"),
        )
        .toPandas()
    )
    q = np.vstack(box["q"].to_numpy())
    box["q1"], box["median"], box["q3"] = q[:, 0], q[:, 1], q[:, 2]
    box = box.drop(columns=["q"]).set_index("g").loc[top].reset_index()
    inter["cat_box"] = box

    y_mn = float(box["min"].min())
    y_mx = float(box["max"].max())
    bins = cfg["hist.bins"]
    edges = compute.bin_edges(y_mn, y_mx, bins)
    counts = (
        sub.selectExpr("g", f"{compute.bin_index('y', y_mn, y_mx, bins)} AS bin")
        .groupBy("g", "bin")
        .count()
        .toPandas()
    )
    lines: dict[str, np.ndarray] = {}
    for g in top:
        arr = np.zeros(len(edges) - 1, dtype="int64")
        sel = counts[counts["g"] == g]
        arr[sel["bin"].to_numpy(dtype="int64")] = sel["count"].to_numpy(dtype="int64")
        lines[g] = arr
    inter["lines"] = lines
    inter["line_edges"] = edges
    return inter


def compute_cat_cat(df: DataFrame, x: str, y: str, cfg: Config) -> Intermediates:
    """CC pair: one contingency groupBy feeding nested/stacked/heatmap."""
    qx, qy = compute.quote(x), compute.quote(y)
    ct = (
        df.selectExpr(f"CAST({qx} AS STRING) AS x", f"CAST({qy} AS STRING) AS y")
        .where("x IS NOT NULL AND y IS NOT NULL")
        .groupBy("x", "y")
        .count()
        .toPandas()
    )
    inter = Intermediates(task=f"bivariate:{x}:{y}")
    inter["cols"] = (x, y)
    inter["kind"] = "CC"

    def _top(series_col: str, n: int) -> list[str]:
        return (
            ct.groupby(series_col)["count"].sum().sort_values(ascending=False).head(n).index.tolist()
        )

    n_nest, n_heat = cfg["nested.top_n"], cfg["heatmap.top_n"]
    tx, ty = _top("x", n_nest), _top("y", n_nest)
    nested = ct[ct["x"].isin(tx) & ct["y"].isin(ty)].copy()
    inter["nested_bar"] = nested.sort_values(["x", "y"]).reset_index(drop=True)
    inter["stacked_bar"] = (
        nested.pivot_table(index="x", columns="y", values="count", aggfunc="sum", fill_value=0)
        .loc[[v for v in tx if v in nested["x"].values]]
    )
    hx, hy = _top("x", n_heat), _top("y", n_heat)
    heat = ct[ct["x"].isin(hx) & ct["y"].isin(hy)]
    inter["heatmap"] = heat.pivot_table(
        index="x", columns="y", values="count", aggfunc="sum", fill_value=0
    )
    inter["contingency_total"] = int(ct["count"].sum())
    return inter


def compute_bivariate(df: DataFrame, col1: str, col2: str, cfg: Config) -> Intermediates:
    """Dispatch on the (type, type) pair per Figure 2; CN is swapped to NC."""
    t1, t2 = detect_type(df, col1), detect_type(df, col2)
    if EDAType.DATETIME in (t1, t2):
        raise TypeError("bivariate analysis with datetime columns is out of scope")
    if t1 is EDAType.NUMERICAL and t2 is EDAType.NUMERICAL:
        return compute_num_num(df, col1, col2, cfg)
    if t1 is EDAType.NUMERICAL and t2 is EDAType.CATEGORICAL:
        return compute_num_cat(df, col1, col2, cfg)
    if t1 is EDAType.CATEGORICAL and t2 is EDAType.NUMERICAL:
        return compute_num_cat(df, col2, col1, cfg)
    return compute_cat_cat(df, col1, col2, cfg)
