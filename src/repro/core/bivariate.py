"""Bivariate analysis — ``plot(df, col1, col2)`` (paper Figure 2, row 3).

Type-pair mapping rules:

* NN → scatter plot (seeded sample), hexbin plot (2-D binned groupBy),
  binned box plot (y-quantiles per x-bin).
* NC / CN → categorical box plot (y-quantiles per category), multi-line
  chart (histogram of the numeric per top category).
* CC → nested bar chart, stacked bar chart, heat map — all views of one
  contingency-table groupBy.

NN and NC pick the phase (paper §5.2) from one row count, of the rows
where both values are present. Below the cell budget
(``compute.DRIVER_CELLS``) they collect those rows once
(``compute.driver_values``) and compute every view on the driver in
numpy, their box quartiles exact (``compute.exact_quantiles``); above it
NN runs an aggregate then three Spark jobs (sample, hexbin, box) and NC
three fused ``groupBy`` jobs. CC is one contingency ``groupBy`` at any
size, shaped on the driver.
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
    """NN pair: scatter sample + hexbin grid + binned box plot.

    One aggregate over the rows where both values are finite gives their
    min/max (the bin edges) and their count, which picks the phase. Below
    the cell budget one collect of those pairs gives the three views on the
    driver: the scatter (``compute.scatter_points``), the hexbin
    (``compute.hexbins``) and the box per x-bin with exact quartiles
    (``compute.group_boxes``). Above it a seeded Spark sample sized by that
    count, the hexbin ``groupBy`` and the binned box ``groupBy`` with its
    quantile sketch.
    """
    qx, qy = compute.quote(x), compute.quote(y)
    proj = df.where(f"{compute.finite(qx)} IS NOT NULL AND {compute.finite(qy)} IS NOT NULL")
    mm, totals = compute.finite_minmax(proj, [x, y], nrows="count(1)")
    (x_mn, x_mx), (y_mn, y_mx) = mm[x], mm[y]

    inter = Intermediates(task=f"bivariate:{x}:{y}")
    inter["cols"] = (x, y)
    inter["kind"] = "NN"
    if x_mn is None or y_mn is None:
        inter["scatter"] = pd.DataFrame({x: [], y: []})
        inter["hexbin"] = pd.DataFrame(columns=["xbin", "ybin", "count"])
        inter["binned_box"] = pd.DataFrame()
        return inter

    gs, nb = cfg["hexbin.gridsize"], cfg["boxnum.bins"]
    size, seed = cfg["scatter.sample_size"], cfg["compute.seed"]
    cols = list(dict.fromkeys((x, y)))  # x may be y
    collected = compute.driver_values(proj, cols, totals["nrows"])
    if collected is not None:  # below the cell budget: the three views from the one collect
        pairs = collected.values
        inter["scatter"] = compute.scatter_points(pairs[[x, y]], size, seed)
        hexbin = compute.hexbins(pairs, [x, y], mm, gs)[(x, y)]
        xbin = compute.bin_of(pairs[x].to_numpy("float64"), x_mn, (x_mx - x_mn) / nb, nb)
        box = compute.group_boxes(xbin, pairs[y].to_numpy("float64")).rename(columns={"key": "xbin"})
    else:
        sample = compute.sample_pass(proj, [x, y], size, seed, totals["nrows"])
        inter["scatter"] = compute.point_order(sample)
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
        box = (
            proj.selectExpr(f"{compute.bin_index(xv, x_mn, x_mx, nb)} AS xbin", f"{yv} AS y")
            .groupBy("xbin")
            .agg(*_box_aggs())
            .orderBy("xbin")
            .toPandas()
        )
        if not box.empty:
            box = _quartile_columns(box)
    hexbin.attrs["x_edges"] = compute.bin_edges(x_mn, x_mx, gs)
    hexbin.attrs["y_edges"] = compute.bin_edges(y_mn, y_mx, gs)
    inter["hexbin"] = hexbin
    box.attrs["x_edges"] = compute.bin_edges(x_mn, x_mx, nb)
    inter["binned_box"] = box
    return inter


def _box_aggs() -> list:
    """The Spark path's box aggregates of ``y``: its quartile sketch ``q``,
    then ``min``, ``max`` and ``count``."""
    return [
        F.percentile_approx("y", list(compute.QUARTILES)).alias("q"),
        F.min("y").alias("min"),
        F.max("y").alias("max"),
        F.count("y").alias("count"),
    ]


def _quartile_columns(box: pd.DataFrame) -> pd.DataFrame:
    """``box`` with its sketch ``q`` split into ``q1``, ``median`` and ``q3``."""
    q = np.vstack(box["q"].to_numpy())
    box["q1"], box["median"], box["q3"] = q[:, 0], q[:, 1], q[:, 2]
    return box.drop(columns=["q"])


def compute_num_cat(df: DataFrame, num: str, cat: str, cfg: Config) -> Intermediates:
    """NC pair: per-category box plot + per-category histogram lines.

    The top ``line.ngroups`` categories (by frequency, then value) are
    analyzed over the rows where both values are present. One aggregate
    of their count and of the categories' bytes picks the phase. Below the
    cell budget one collect of the category (as a string) and the finite
    value gives the ranking, the box per group with exact quartiles
    (``compute.group_boxes``) and the lines on the driver. Above it the
    ranking, the box stats and the lines take three fused jobs.
    """
    proj = df.selectExpr(
        f"CAST({compute.quote(cat)} AS STRING) AS g", f"{compute.finite(compute.quote(num))} AS y"
    ).where("g IS NOT NULL AND y IS NOT NULL")
    nrows, nbytes = proj.agg(F.expr("count(1)"), F.expr("sum(octet_length(g))")).collect()[0]
    rows = compute.driver_values(proj, ["y"], nrows, labels={"g": nbytes or 0})

    ngroups, bins = cfg["line.ngroups"], cfg["hist.bins"]
    if rows is not None:  # below the cell budget: everything from the one collect
        values, code = rows.labels["g"]
        ranked = compute.top_labels(values, np.bincount(code, minlength=len(values)), ngroups)
        top = values.take(ranked).to_pylist()
    else:
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

    if rows is not None:
        place = np.full(len(values), -1)
        place[ranked] = np.arange(ranked.size)  # a top value's position in ``top``
        group = place[code]
        kept = group >= 0
        group, y = group[kept], rows.values["y"].to_numpy("float64")[kept]
        box = compute.group_boxes(group, y)
        box.insert(0, "g", np.array(top, dtype=object)[box.pop("key").to_numpy()])
    else:
        sub = proj.where(F.col("g").isin(top))
        box = _quartile_columns(sub.groupBy("g").agg(*_box_aggs()).toPandas())
        box = box.set_index("g").loc[top].reset_index()
    inter["cat_box"] = box

    y_mn = float(box["min"].min())
    y_mx = float(box["max"].max())
    edges = compute.bin_edges(y_mn, y_mx, bins)
    nbins = len(edges) - 1
    if rows is not None:
        ybin = compute.bin_of(y, y_mn, (y_mx - y_mn) / bins, bins)
        grid = np.bincount(group * nbins + ybin, minlength=len(top) * nbins).reshape(-1, nbins)
    else:
        counts = (
            sub.selectExpr("g", f"{compute.bin_index('y', y_mn, y_mx, bins)} AS bin")
            .groupBy("g", "bin")
            .count()
            .toPandas()
        )
        grid = np.zeros((len(top), nbins), dtype="int64")
        for line, g in zip(grid, top):
            sel = counts[counts["g"] == g]
            line[sel["bin"].to_numpy(dtype="int64")] = sel["count"].to_numpy(dtype="int64")
    inter["lines"] = dict(zip(top, grid))
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
