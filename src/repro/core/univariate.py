"""Univariate analysis — ``plot(df, col)`` (paper Figure 2, row 2).

Numerical column → column statistics, histogram, KDE plot, normal Q-Q
plot, box plot. Categorical column → column statistics, bar chart, pie
chart, word cloud (word frequencies) and word-frequency table.

All distributed work is funneled through the fused kernels in
``core.compute``. The driver-side shaping (KDE, Q-Q, box, bar and pie) is
in ``numerical_view`` and ``categorical_view``, plain functions of the
reduced intermediates (§5.2 two-phase split) that ``create_report`` feeds
from its own shared passes.
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
from repro.substrate import numutils


def _qq_probs(cfg: Config) -> tuple[float, ...]:
    return tuple((i + 0.5) / cfg["qq.points"] for i in range(cfg["qq.points"]))


def quantile_probs(cfg: Config) -> tuple[float, ...]:
    """The stats-table quantiles plus the Q-Q plot's, for one sketch.

    One ``percentile_approx`` in the stats pass serves the stats table, box
    plot and Q-Q plot (paper §4.2: quantiles computed once, distributed to
    each visualization).
    """
    return tuple(sorted(set(compute.STATS_QUANTILES) | set(_qq_probs(cfg))))


def sample_rows(cfg: Config) -> int:
    """Rows of the driver path's numeric sample (``compute.drawn``).

    The report draws one sample for the KDE and Kendall; ``plot(df, c)``
    draws as many rows, so its KDE reads the report's.
    """
    return max(cfg["kde.sample_size"], cfg["kendall.sample_size"])


def box_plot_stats(q: dict[float, float], whisker: float) -> dict[str, float]:
    """Box-plot geometry from the shared quantile dict (no extra pass)."""
    q1, q2, q3 = q[0.25], q[0.5], q[0.75]
    iqr = q3 - q1
    return {
        "q1": q1,
        "median": q2,
        "q3": q3,
        "iqr": iqr,
        "lower_whisker": q1 - whisker * iqr,
        "upper_whisker": q3 + whisker * iqr,
    }


def numerical_view(
    col: str,
    stats: dict[str, object],
    quantiles: dict[float, float],
    hist: tuple[np.ndarray, np.ndarray],
    sample: pd.Series,
    cfg: Config,
) -> Intermediates:
    """Univariate intermediates of a numerical column from its reduced inputs.

    ``stats`` is the column's ``basic_stats_pass`` entry without its
    ``quantiles``, which come separately as ``{p: value}`` over
    ``quantile_probs(cfg)``; ``hist`` is its ``histogram_pass`` entry and
    ``sample`` a sample of its values (missing and ±inf values are dropped
    here). Driver-only: KDE, Q-Q and box geometry (the pandas phase of the
    paper's §5.2 split).
    """
    qq_probs = _qq_probs(cfg)
    sv = sample.to_numpy(dtype="float64")
    sv = sv[np.isfinite(sv)][: cfg["kde.sample_size"]]

    mn, mx = stats["min"], stats["max"]
    if mn is not None and mx is not None:
        grid = np.linspace(float(mn), float(mx), cfg["kde.grid_points"])
        kde = numutils.gaussian_kde(sv, grid)
    else:
        grid = np.zeros(0)
        kde = np.zeros(0)

    mean = stats.get("mean")
    std = stats.get("std")
    theo = numutils.norm_ppf(np.array(qq_probs))
    if mean is not None and std not in (None, 0) and std == std:
        theoretical = float(mean) + float(std) * theo
    else:
        theoretical = np.full(len(qq_probs), np.nan)
    sample_q = np.array([quantiles[p] for p in qq_probs], dtype="float64")

    if all(quantiles.get(p) is not None for p in (0.25, 0.5, 0.75)):
        box = box_plot_stats(quantiles, cfg["box.whisker"])
    else:  # all-null column: no quartiles to build the box from
        box = {k: float("nan") for k in ("q1", "median", "q3", "iqr", "lower_whisker", "upper_whisker")}
    n_out = int(((sv < box["lower_whisker"]) | (sv > box["upper_whisker"])).sum())
    # outlier count estimated from the sample, scaled to the column size —
    # keeps univariate analysis at one scan + one sample like the paper's
    # interactive target; the histogram shows exact tail mass anyway.
    scale = max(int(stats["count"]), 1) / max(len(sv), 1)
    box["n_outliers_est"] = int(round(n_out * scale))

    counts, edges = hist
    inter = Intermediates(task=f"univariate:{col}")
    inter["col"] = col
    inter["type"] = EDAType.NUMERICAL.value
    # every row is missing, ±inf or finite (``count``)
    inter["nrows"] = int(stats["count"]) + int(stats["nmissing"]) + int(stats["ninfinite"] or 0)
    inter["stats"] = {**stats, "quantiles": {p: quantiles[p] for p in compute.STATS_QUANTILES}}
    inter["hist"] = {"counts": counts, "edges": edges}
    inter["kde"] = {"grid": grid, "density": kde}
    inter["qq"] = {"theoretical": theoretical, "sample": sample_q}
    inter["box"] = box
    return inter


def compute_numerical(df: DataFrame, col: str, cfg: Config) -> Intermediates:
    """Intermediates for univariate analysis of a numerical column.

    The row total picks the phase (``compute.DRIVER_CELLS``). Below the
    budget one collect of the column's finite values and missing flag
    gives the stats (``compute.numeric_stats``), the histogram (the
    report's binning rule, ``compute.driver_histograms``) and the KDE's
    sample (``compute.drawn``): the report's rules over the report's rows.
    Above it the stats pass (its quantile sketch included), then the
    histogram and a sample for the KDE together. Then ``numerical_view``.
    """
    probs, bins = quantile_probs(cfg), cfg["hist.bins"]
    nrows = df.count()
    collected = compute.driver_values(df, [col], nrows, [col])
    if collected is not None:
        values = collected.values
        stats = compute.numeric_stats(values, collected.flags, nrows, probs)[col]
        edges = compute.histogram_edges([col], {col: (stats["min"], stats["max"])}, bins)
        hist = compute.driver_histograms(values, [col], edges)[col]
        sample = compute.drawn(values, sample_rows(cfg), cfg["compute.seed"])[col]
    else:
        stats = compute.basic_stats_pass(df, {col: EDAType.NUMERICAL}, [col], probs)[col]
        with compute.in_flight(df.sparkSession) as submit:  # both need the stats only
            hist_job = submit(
                compute.histogram_pass, df, [col], {col: (stats["min"], stats["max"])}, bins
            )
            sample = compute.sample_pass(
                df.where(f"{compute.missing_exprs(df, [col])[0]} = 0"),
                [col],
                cfg["kde.sample_size"],
                cfg["compute.seed"],
                total_rows=int(stats["count"]),
            )[col]
            hist = hist_job.result()[col]
    quantiles = stats.pop("quantiles")
    return numerical_view(col, stats, quantiles, hist, sample, cfg)


def word_frequency_pass(df: DataFrame, col: str, top_n: int) -> Intermediates:
    """Word tokenization + counts for the word cloud / frequency table.

    Lower-cases, splits on non-alphanumerics, explodes, and aggregates in
    one shuffle; totals are computed from the persisted aggregate so the
    raw column is scanned once.
    """
    words = (
        df.select(
            F.explode(
                F.split(F.lower(F.col(compute.quote(col)).cast("string")), r"[^0-9a-zA-Z]+")
            ).alias("word")
        )
        .where(F.col("word") != "")
    )
    counts = words.groupBy("word").count()
    counts.persist()
    try:
        top = (
            counts.orderBy(F.desc("count"), F.asc("word")).limit(top_n).toPandas()
        )
        totals = counts.agg(
            F.count(F.lit(1)).alias("n_distinct_words"),
            F.sum("count").alias("n_words"),
            (F.sum(F.length("word") * F.col("count")) / F.sum("count")).alias(
                "mean_word_length"
            ),
        ).collect()[0]
    finally:
        counts.unpersist()
    inter = Intermediates(task=f"words:{col}")
    inter["word_counts"] = pd.Series(
        top["count"].to_numpy(dtype="int64"), index=top["word"].to_numpy(object)
    )
    inter["n_words"] = int(totals["n_words"] or 0)
    inter["n_distinct_words"] = int(totals["n_distinct_words"] or 0)
    inter["mean_word_length"] = float(totals["mean_word_length"] or 0.0)
    return inter


def categorical_view(
    col: str,
    stats: dict[str, object],
    value_counts: pd.Series,
    cfg: Config,
    words: Intermediates | None = None,
) -> Intermediates:
    """Univariate intermediates of a categorical column from its reduced inputs.

    ``stats`` is the column's ``basic_stats_pass`` entry, ``value_counts``
    its ``value_counts_pass`` entry and ``words`` a ``word_frequency_pass``.
    """
    n_total = value_counts.attrs.get("n_total", int(value_counts.sum()))
    inter = Intermediates(task=f"univariate:{col}")
    inter["col"] = col
    inter["type"] = EDAType.CATEGORICAL.value
    inter["nrows"] = int(stats["count"]) + int(stats["nmissing"])
    inter["stats"] = {
        **stats,
        "n_distinct_exact": value_counts.attrs.get("n_distinct", len(value_counts)),
        "n_total": n_total,
    }
    inter["value_counts"] = value_counts
    inter["bar"] = value_counts.head(cfg["bar.top_n"])
    pie = value_counts.head(cfg["pie.top_n"]).astype("float64")
    other = float(n_total - pie.sum())
    if other > 0:
        pie = pd.concat([pie, pd.Series({"(other)": other})])
    inter["pie"] = pie
    if words is not None:
        inter["words"] = {
            "word_counts": words["word_counts"],
            "n_words": words["n_words"],
            "n_distinct_words": words["n_distinct_words"],
            "mean_word_length": words["mean_word_length"],
        }
    return inter


def compute_categorical(df: DataFrame, col: str, cfg: Config) -> Intermediates:
    """Intermediates for univariate analysis of a categorical column.

    The word counts run in Spark beside the gate (``compute.partition_sizes``:
    the row total and the column's bytes), which picks the phase. Below the
    cell budget one collect of the column gives the stats and the value
    counts on the driver (``compute.categorical_summaries``, the report's);
    above it the stats pass and the value counts run in Spark.
    """
    with compute.in_flight(df.sparkSession) as submit:
        words_job = submit(word_frequency_pass, df, col, cfg["wordfreq.top_n"])
        layout, nbytes = compute.partition_sizes(df, [col])
        values = compute.driver_values(df, [], sum(layout.values()), labels=nbytes)
        if values is not None:
            stats, counts = compute.categorical_summaries(values, [col])
        else:
            counts_job = submit(compute.value_counts_pass, df, [col])
            stats = compute.basic_stats_pass(df, {col: EDAType.CATEGORICAL})
            counts = counts_job.result()
        words = words_job.result()
    return categorical_view(col, stats[col], counts[col], cfg, words)


def compute_univariate(df: DataFrame, col: str, cfg: Config) -> Intermediates:
    """Dispatch on the detected EDA type (paper Figure 2 mapping rules)."""
    t = detect_type(df, col)
    if t is EDAType.NUMERICAL:
        return compute_numerical(df, col, cfg)
    if t is EDAType.CATEGORICAL:
        return compute_categorical(df, col, cfg)
    raise TypeError(
        f"univariate analysis of {t.value} column {col!r} is out of scope "
        "(the paper lists time-series analysis as future work)"
    )
