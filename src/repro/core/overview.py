"""Overview analysis — ``plot(df)`` (paper Figure 2, row 1).

Dataset statistics plus a histogram per numerical column and a bar chart
per categorical column, from a fixed number of passes whatever the
column count, each started as soon as what it needs has returned
(``compute.in_flight``):

1. the gate (``compute.partition_sizes``: the row total and the
   categorical columns' bytes), beside ``basic_stats_pass`` of the
   datetime columns; the gate picks the phase (``compute.DRIVER_CELLS``);
2. below the budget one Arrow collect of every column (``frame_values``):
   the numeric stats (``compute.numeric_stats``) and histograms
   (``compute.bin_of``'s), the categorical stats and bar charts
   (``compute.categorical_summaries``) and the duplicate count, all the
   report's, on the driver;
3. when the labels do not fit the budget, the categorical stats aggregate,
   ``value_counts_pass`` (one melted shuffle and one action) and the
   duplicate-row count (one distinct-count job) in Spark, beside the
   numeric collect (``label_passes``);
4. above the budget those three, and the numeric stats aggregate, then
   ``histogram_pass`` over its min/max (the "precompute metadata" stage).
"""
from __future__ import annotations

from concurrent.futures import Future
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame

from repro.core import compute
from repro.core.config import Config
from repro.core.dtypes import EDAType, detect_types
from repro.core.intermediates import Intermediates


def duplicate_rows_pass(df: DataFrame, nrows: int | None = None) -> int:
    """Number of rows minus number of distinct rows, with pandas ``duplicated`` semantics.

    Uses ``distinct().count()`` rather than ``count_distinct(*cols)``: the
    aggregate form drops any tuple containing a NULL (SQL semantics) and
    would wildly overcount duplicates on holey data, while ``distinct``
    treats NULLs as equal. It keeps NaN apart from NULL, where pandas takes
    both as missing, so each float column goes through ``nanvl(c, NULL)``
    first; ``distinct`` already takes −0.0 as 0.0, as pandas does. The
    driver path counts the same (``compute.duplicate_rows``). ``nrows``
    (when known from a stats pass) avoids a second count job.
    """
    if nrows is None:
        nrows = df.count()
    names = [(compute.quote(c), t) for c, t in df.dtypes]
    rows = df.selectExpr(
        *[f"nanvl({q}, NULL) AS {q}" if t in ("double", "float") else q for q, t in names]
    )
    return int(nrows) - rows.distinct().count()


def label_passes(
    submit: Callable[..., Future],
    df: DataFrame,
    types: dict[str, EDAType],
    nrows: int,
    values: compute.Collected | None,
) -> Callable[[], tuple[dict[str, dict[str, object]], dict[str, pd.Series], int]]:
    """The categorical stats, the value counts and the duplicate count, when called.

    From the collect ``values`` when it holds every column
    (``compute.categorical_summaries``, ``Collected.duplicates``); else the
    categorical stats aggregate, ``value_counts_pass`` and
    ``duplicate_rows_pass`` are submitted now, to run in Spark while the
    caller goes on.
    """
    cat_cols = [c for c, t in types.items() if t is EDAType.CATEGORICAL]
    if values is not None and values.duplicates is not None:
        stats, counts = compute.categorical_summaries(values, cat_cols)
        return lambda: (stats, counts, values.duplicates)
    stats_job = submit(compute.basic_stats_pass, df, types, cat_cols) if cat_cols else None
    counts_job = submit(compute.value_counts_pass, df, cat_cols)
    dup_job = submit(duplicate_rows_pass, df, nrows)
    return lambda: (
        stats_job.result() if stats_job else {}, counts_job.result(), dup_job.result()
    )


def frame_values(
    df: DataFrame, types: dict[str, EDAType], nrows: int, label_bytes: dict[str, int],
    indicators: list[str],
) -> compute.Collected | None:
    """The one collect of ``create_report`` and ``plot(df)`` below the cell budget.

    Every column when the labels fit (``label_bytes`` from
    ``compute.partition_sizes``), the duplicate count with it; else the
    numeric values and the missing flags of ``indicators`` when those fit
    and there are any; else None.
    """
    num_cols = [c for c, t in types.items() if t is EDAType.NUMERICAL]
    whole = compute.driver_values(df, num_cols, nrows, indicators, label_bytes, duplicates=True)
    if whole is not None or not (num_cols or indicators):
        return whole
    return compute.driver_values(df, num_cols, nrows, indicators)


def dataset_stats(
    types: dict[str, EDAType],
    col_stats: dict[str, dict[str, object]],
    nrows: int,
    n_duplicates: int,
) -> dict[str, object]:
    """The dataset statistics table from the stats pass and the duplicate count."""
    n_cells = nrows * len(types)
    n_missing = sum(int(s["nmissing"]) for s in col_stats.values())
    return {
        "nrows": nrows,
        "ncols": len(types),
        "n_numerical": sum(1 for t in types.values() if t is EDAType.NUMERICAL),
        "n_categorical": sum(1 for t in types.values() if t is EDAType.CATEGORICAL),
        "n_datetime": sum(1 for t in types.values() if t is EDAType.DATETIME),
        "n_missing_cells": n_missing,
        "missing_pct": (n_missing / n_cells) if n_cells else 0.0,
        "n_duplicate_rows": n_duplicates,
    }


def compute_overview(df: DataFrame, cfg: Config) -> Intermediates:
    """Intermediates for the dataset overview."""
    types = detect_types(df)
    num_cols = [c for c, t in types.items() if t is EDAType.NUMERICAL]
    cat_cols = [c for c, t in types.items() if t is EDAType.CATEGORICAL]
    dt_cols = [c for c, t in types.items() if t is EDAType.DATETIME]

    with compute.in_flight(df.sparkSession) as submit:
        dt_job = submit(compute.basic_stats_pass, df, types, dt_cols) if dt_cols else None
        # the gate: the row total and the labels' bytes pick the phase
        layout, label_bytes = compute.partition_sizes(df, cat_cols)
        nrows = sum(layout.values())
        values = frame_values(df, types, nrows, label_bytes, num_cols)
        categorical = label_passes(submit, df, types, nrows, values)
        if values is not None:
            # below the cell budget: the report's numeric stats and
            # histograms, over the one collect
            stats = compute.numeric_stats(values.values, values.flags, nrows)
            minmax = {c: (stats[c]["min"], stats[c]["max"]) for c in num_cols}
            edges = compute.histogram_edges(num_cols, minmax, cfg["hist.bins"])
            hists = compute.driver_histograms(values.values, num_cols, edges)
        elif num_cols:
            # above it: the numeric stats aggregate, whose min/max give the
            # histogram job's bin edges
            stats = compute.basic_stats_pass(df, types, num_cols)
            minmax = {c: (stats[c]["min"], stats[c]["max"]) for c in num_cols}
            hists = compute.histogram_pass(df, num_cols, minmax, cfg["hist.bins"])
        else:
            stats, hists = {}, {}
        cat_stats, bars, n_dup = categorical()
        stats.update(cat_stats)
        if dt_job is not None:
            stats.update(dt_job.result())
        stats = {c: stats[c] for c in types}

    inter = Intermediates(task="overview")
    inter["types"] = {c: t.value for c, t in types.items()}
    inter["dataset_stats"] = dataset_stats(types, stats, nrows, n_dup)
    inter["col_stats"] = stats
    inter["hists"] = hists
    inter["bars"] = {c: s.head(cfg["bar.top_n"]) for c, s in bars.items()}
    inter["value_counts"] = bars
    return inter
