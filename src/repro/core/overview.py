"""Overview analysis — ``plot(df)`` (paper Figure 2, row 1).

Dataset statistics plus a histogram per numerical column and a bar chart
per categorical column — computed with four fused passes regardless of
column count, each started as soon as what it needs has returned
(``compute.in_flight``: passes 1 and 3 together, then 2 and 4 together):

1. ``basic_stats_pass``  — every per-column aggregate, one melted
   aggregate per type class;
2. ``histogram_pass``    — all numeric histograms, one melted shuffle
   (bin edges taken from pass 1, the "precompute metadata" stage);
3. ``value_counts_pass`` — all categorical bar charts, one melted shuffle
   and one action (the top values and the exact totals are windowed over
   the same aggregate);
4. duplicate-row count   — one distinct-count job (dataset statistic).
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

    with compute.in_flight(df.sparkSession) as submit:
        stats_job = submit(compute.basic_stats_pass, df, types)
        bars_job = submit(compute.value_counts_pass, df, cat_cols) if cat_cols else None
        # the stats give the bin edges and the row total
        stats = stats_job.result()
        nrows = int(stats.pop("__table__")["nrows"])
        minmax = {c: (stats[c]["min"], stats[c]["max"]) for c in num_cols}
        hists_job = (
            submit(compute.histogram_pass, df, num_cols, minmax, cfg["hist.bins"])
            if num_cols else None
        )
        n_dup = duplicate_rows_pass(df, nrows)
        hists = hists_job.result() if hists_job else {}
        bars = bars_job.result() if bars_job else {}

    inter = Intermediates(task="overview")
    inter["types"] = {c: t.value for c, t in types.items()}
    inter["dataset_stats"] = dataset_stats(types, stats, nrows, n_dup)
    inter["col_stats"] = stats
    inter["hists"] = hists
    inter["bars"] = {c: s.head(cfg["bar.top_n"]) for c, s in bars.items()}
    inter["value_counts"] = bars
    return inter
