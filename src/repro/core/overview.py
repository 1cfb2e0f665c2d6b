"""Overview analysis — ``plot(df)`` (paper Figure 2, row 1).

Dataset statistics plus a histogram per numerical column and a bar chart
per categorical column, from a fixed number of passes whatever the
column count, each started as soon as what it needs has returned
(``compute.in_flight``):

1. ``basic_stats_pass`` of the categorical and datetime columns, one
   melted aggregate per type class, and ``value_counts_pass`` — all
   categorical bar charts, one melted shuffle and one action — both at
   once, beside
2. a row count, which picks the phase (``compute.DRIVER_CELLS``) and
   sizes
3. the duplicate-row count — one distinct-count job (dataset statistic);
4. the numeric columns: below the budget one collect of their finite
   values and missing flags, whose stats (``compute.numeric_stats``) and
   histograms (``compute.bin_of``'s) are the report's; above it the
   numeric stats aggregate, then ``histogram_pass`` over its min/max (the
   "precompute metadata" stage).
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core import compute
from repro.core.config import Config
from repro.core.dtypes import EDAType, detect_types
from repro.core.intermediates import Intermediates


def duplicate_rows_pass(df: DataFrame, nrows: int | None = None) -> int:
    """Number of rows minus number of distinct rows.

    Uses ``distinct().count()`` rather than ``count_distinct(*cols)``: the
    aggregate form drops any tuple containing a NULL (SQL semantics) and
    would wildly overcount duplicates on holey data, while ``distinct``
    treats NULLs as equal — the pandas ``duplicated`` semantics profiling
    tools report. ``nrows`` (when known from a stats pass) avoids a second
    count job.
    """
    if nrows is None:
        nrows = df.count()
    return int(nrows) - df.distinct().count()


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
    others = [c for c in types if c not in num_cols]  # categorical and datetime

    with compute.in_flight(df.sparkSession) as submit:
        stats_job = submit(compute.basic_stats_pass, df, types, others) if others else None
        bars_job = submit(compute.value_counts_pass, df, cat_cols) if cat_cols else None
        # the row total sizes the duplicate count and picks the phase
        nrows = df.count()
        dup_job = submit(duplicate_rows_pass, df, nrows)
        values = compute.driver_values(df, num_cols, nrows, num_cols) if num_cols else None
        if values is not None:
            # below the cell budget: the report's numeric stats and
            # histograms, over one collect
            flags = compute.missing_flags(values, num_cols)
            stats = compute.numeric_stats(values[num_cols], flags, nrows)
            minmax = {c: (stats[c]["min"], stats[c]["max"]) for c in num_cols}
            edges = compute.histogram_edges(num_cols, minmax, cfg["hist.bins"])
            hists = compute.driver_histograms(values, num_cols, edges)
        elif num_cols:
            # above it: the numeric stats aggregate, whose min/max give the
            # histogram job's bin edges
            stats = compute.basic_stats_pass(df, types, num_cols)
            minmax = {c: (stats[c]["min"], stats[c]["max"]) for c in num_cols}
            hists = compute.histogram_pass(df, num_cols, minmax, cfg["hist.bins"])
        else:
            stats, hists = {}, {}
        if stats_job is not None:
            stats.update(stats_job.result())
        stats = {c: stats[c] for c in types}
        n_dup = dup_job.result()
        bars = bars_job.result() if bars_job else {}

    inter = Intermediates(task="overview")
    inter["types"] = {c: t.value for c, t in types.items()}
    inter["dataset_stats"] = dataset_stats(types, stats, nrows, n_dup)
    inter["col_stats"] = stats
    inter["hists"] = hists
    inter["bars"] = {c: s.head(cfg["bar.top_n"]) for c, s in bars.items()}
    inter["value_counts"] = bars
    return inter
