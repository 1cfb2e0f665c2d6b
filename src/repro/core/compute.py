"""Fused Compute-module kernels (paper §4.2.2 / §5.2).

The paper's key optimization is expressing *all* computations of a task in
one lazy Dask graph so shared work is computed once. The Spark analogue
implemented here:

* ``basic_stats_pass``   — every per-column statistic through one melted
  ``unpivot → groupBy(column)`` aggregate per type class (numerical,
  categorical, datetime). The aggregate list (~15 expressions) and the
  job count do not grow with the number of columns. Moments come from
  Spark's centred-moment aggregates, which stay exact at large offsets,
  and the quantile sketch rides in the same aggregate.
* ``binned_counts``      — the one histogram count: all numeric columns
  binned, melted and counted by one ``unpivot → groupBy(column, bin)``
  (one shuffle for all columns). Bin edges need min/max *before* the job
  can be built — the Spark analogue of the paper's "precompute chunk sizes
  before constructing the graph" — and are baked into the job as literals
  (``bin_index``). Above the cell budget ``create_report`` counts the
  same histograms in its co-moment scan instead
  (``correlation.comoment_scan``), with the same edges and the same rule
  in numpy (``bin_of``); below it the report runs that kernel on the
  driver, and ``plot(df)`` and ``plot(df, c)`` count with ``bin_of``
  alone (``driver_histograms``).
* ``category_counts``    — the one value count: all categorical columns
  melted and counted by one ``unpivot → groupBy(column, value)``, cut to
  the top values per column with their exact totals in the same action.
* ``histogram_pass`` / ``value_counts_pass`` — those counts shaped for
  ``plot(df)``, ``plot(df, c)`` and ``create_report``; ``plot_missing(df,
  c)`` runs the same two counts with one extra "after the drop" sum.
* ``partition_sizes`` / ``partition_rows`` — rows per partition and the
  labels' bytes, one job: the gate that prices a collect, and the offsets
  the scan numbers rows with for the missing spectrum.
* ``driver_values`` / ``numeric_stats`` / ``categorical_summaries`` — the
  phase boundary (paper §5.2): below ``DRIVER_CELLS`` a task collects its
  columns once, in one Arrow collect: numeric values raw (numpy derives
  the finite values and missing flags), labels reduced by
  ``pyarrow.compute`` to a dictionary and codes. ``numeric_stats`` gives
  ``basic_stats_pass``' numerical entries from them on the driver, its
  quantiles and distinct counts exact where the aggregate sketches them
  (``exact_quantiles``, the one exact-quantile rule);
  ``categorical_summaries`` its categorical entries (distinct exact) and
  ``value_counts_pass``' series; ``duplicate_rows`` the duplicate count.
  The other passes have driver twins over the same collect:
  ``driver_histograms`` and ``driver_binned_counts`` count
  ``binned_counts``' bins, ``hexbins`` the pair grids, ``group_boxes`` the
  box plots' ``groupBy``, ``top_labels`` ranks a column's values and
  ``drawn`` / ``scatter_points`` draw the samples (``point_order`` orders a
  scatter on both paths).

Each pass reduces the distributed frame to a tiny pandas object; everything
downstream (KDE, Q-Q, box stats, insights) is driver-side pandas/numpy —
the paper's Dask-Computation / Pandas-Computation split.

Passes that do not depend on each other run at the same time: ``in_flight``
submits each to a driver thread, as Dask's scheduler runs a graph's
independent branches together (Spark runs one action per thread). The
shared rules (``finite``, ``missing_exprs``, ``bin_index``) are SQL-text
templates over ``quote``d names: a plan built from SQL text costs a few
py4j round trips where the Column API costs dozens per expression.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark import inheritable_thread_target
from pyspark.sql import Column, DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.dtypes import EDAType

#: quantile probabilities shared by the stats table, box plot, and Q-Q plot
#: (paper §4.2: "the quantiles are computed once and distributed to each
#: visualization").
STATS_QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
#: the quartiles of the bivariate and missing-value box plots
QUARTILES = (0.25, 0.5, 0.75)

_INF = "CAST('Infinity' AS DOUBLE), CAST('-Infinity' AS DOUBLE)"


@contextmanager
def in_flight(session: SparkSession) -> Iterator[Callable[..., Future]]:
    """``submit(fn, *args, **kwargs)``: run ``fn`` on a driver thread, return its Future.

    Spark runs one action per thread, so independent passes submitted here
    run their jobs at the same time. Each task is wrapped by
    ``inheritable_thread_target(session)`` when it is submitted, so its
    jobs carry the submitting thread's job group, description and tags. The
    pool belongs to the block: leaving it waits for every task and joins
    the threads. A task's exception reaches whoever takes its ``result()``.
    """
    with ThreadPoolExecutor() as pool:

        def submit(fn: Callable, *args, **kwargs) -> Future:
            inherit = inheritable_thread_target(session)
            # with pinned threads off (PYSPARK_PIN_THREAD=false) pyspark hands
            # the session back: threads then share the JVM's local properties
            return pool.submit(inherit(fn) if callable(inherit) else fn, *args, **kwargs)

        yield submit


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """``(get, set)`` of the thread count of the OpenBLAS numpy ships with, or None.

    Looked up in the ``numpy.libs`` directory of numpy's wheels, among the
    libraries already loaded; the symbols may carry the 64-bit-integer
    build's ``64_`` suffix. Any other BLAS gives None.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libopenblas*")):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not loaded by this process
            continue
        for suffix in ("", "64_"):
            get = getattr(lib, f"openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


_BLAS_LOCK = threading.Lock()


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Run the block's numpy matrix products on one BLAS thread.

    While passes are in flight Spark's task threads hold every core, and a
    BLAS call split over several threads waits for cores its other threads
    do not get: the report's driver-side kernel ran 5× slower so. Spark
    gives its Python workers one thread each (``OMP_NUM_THREADS``); this
    does the same for the driver's kernel, then restores the count. Blocks
    on several threads take turns. Without numpy's own OpenBLAS it does
    nothing.
    """
    openblas = _openblas_threads()
    if openblas is None:
        yield
        return
    get, put = openblas
    with _BLAS_LOCK:
        threads = get()
        put(1)
        try:
            yield
        finally:
            put(threads)


def quote(name: str) -> str:
    """``name`` as a SQL identifier: in backticks, any backtick inside doubled.

    A name holding ``.`` or a backtick is then taken literally. Every name
    put into SQL text needs it; the report's passes also put every name
    they give ``F.col``, ``unpivot``, ``select`` or ``groupBy`` through it.
    """
    return "`" + name.replace("`", "``") + "`"


def _double(x: float) -> str:
    """``x`` as an exact SQL double literal (``repr`` round-trips)."""
    return f"{float(x)!r}D"


def finite(x: str) -> str:
    """SQL text: ``x`` as double with NaN/±inf nulled, the values moments and bins use.

    Mirrors pandas semantics (NaN is missing) that Pandas-profiling and
    Missingno assume; infinity is counted separately by the stats pass.
    ``x`` is SQL text, e.g. ``quote(name)``; wrap the result in ``F.expr``
    where a Column is needed.
    """
    raw = f"CAST({x} AS DOUBLE)"
    return f"CASE WHEN isnan({raw}) OR {raw} IN ({_INF}) THEN NULL ELSE {raw} END"


def missing_conditions(df: DataFrame, cols: list[str]) -> list[str]:
    """Per column, SQL text of a BOOLEAN true when the cell is missing
    (null, or NaN for float columns).

    The dtypes are resolved once for all ``cols``.
    """
    dtypes = dict(df.dtypes)
    out = []
    for col in cols:
        c = quote(col)
        nan = f" OR isnan({c})" if dtypes[col] in ("double", "float") else ""
        out.append(f"({c} IS NULL{nan})")
    return out


def missing_exprs(df: DataFrame, cols: list[str]) -> list[str]:
    """Per column, SQL text that is 1 when the cell is missing (``missing_conditions``), else 0."""
    return [f"CAST({m} AS BIGINT)" for m in missing_conditions(df, cols)]


def missing_expr(df: DataFrame, col: str) -> Column:
    """1 when the cell is missing (null, or NaN for float columns), as a Column."""
    return F.expr(missing_exprs(df, [col])[0])


def _melted_stats(df: DataFrame, cols: list[str], cast: str, aggs: dict[str, str]) -> list:
    """One ``unpivot → groupBy(column).agg(aggs)`` over ``cols`` cast to ``cast``.

    The melted frame has columns ``column`` and ``raw``; ``aggs`` maps each
    statistic to its SQL text over ``raw``. The projection is one
    ``selectExpr`` and each statistic one ``F.expr``: the aggregate list is
    the same whatever the number of columns, so the codegen unit and the
    py4j expression building stay fixed as the table widens.
    """
    names = [quote(c) for c in cols]
    melted = df.selectExpr(*[f"CAST({c} AS {cast}) AS {c}" for c in names]).unpivot(
        [], names, "column", "raw"
    )
    exprs = [F.expr(f"{e} AS {quote(k)}") for k, e in {"nrows": "count(1)", **aggs}.items()]
    return melted.groupBy("column").agg(*exprs).collect()


def _numeric_aggs(quantile_probs: tuple[float, ...] | None) -> dict[str, str]:
    v = finite("raw")
    aggs = {
        "count": f"count({v})",
        "nmissing": "sum(CAST((raw IS NULL OR isnan(raw)) AS BIGINT))",
        # rsd=0.05 (engine default): tighter precisions blow up the HLL++
        # register buffers (~2^18 longs per column) and turn the stats pass
        # into minutes on small data. Exact distinct counts for categoricals
        # come from value_counts_pass anyway.
        "distinct": f"approx_count_distinct({v})",
        "min": f"min({v})",
        "max": f"max({v})",
        "nzero": f"sum(CAST(({v} = 0) AS BIGINT))",
        "nnegative": f"sum(CAST(({v} < 0) AS BIGINT))",
        # NaN is missing here too, so a column of missing values gets None
        "ninfinite": f"sum(CAST((nanvl(raw, NULL) IN ({_INF})) AS BIGINT))",
        "sum": f"sum({v})",
        "mean": f"avg({v})",
        # Spark's central-moment aggregates update and merge centred
        # moments, so they stay exact at any offset (a mean of 1e9 with a
        # std of 1 included), where raw power sums cancel catastrophically.
        "std": f"stddev_samp({v})",
        "skew": f"skewness({v})",
        "kurt": f"kurtosis({v})",
    }
    if quantile_probs:
        # The quantile sketch shared by the stats table, box plot and Q-Q
        # plot (the paper's sharing example) rides in the same aggregate.
        probs = ", ".join(_double(p) for p in quantile_probs)
        aggs["quantiles"] = f"percentile_approx({v}, array({probs}), 10000)"
    return aggs


def _categorical_aggs() -> dict[str, str]:
    return {
        "count": "count(raw)",
        "nmissing": "sum(CAST((raw IS NULL) AS BIGINT))",
        "distinct": "approx_count_distinct(raw)",
        "len_min": "CAST(min(length(raw)) AS DOUBLE)",
        "len_max": "CAST(max(length(raw)) AS DOUBLE)",
        "len_mean": "avg(length(raw))",
    }


def _datetime_aggs() -> dict[str, str]:
    return {
        "count": "count(raw)",
        "nmissing": "sum(CAST((raw IS NULL) AS BIGINT))",
        "distinct": "approx_count_distinct(raw)",
        "min_ts": "date_format(min(raw), 'yyyy-MM-dd HH:mm:ss')",
        "max_ts": "date_format(max(raw), 'yyyy-MM-dd HH:mm:ss')",
    }


def basic_stats_pass(
    df: DataFrame,
    types: Mapping[str, EDAType],
    cols: list[str] | None = None,
    quantile_probs: tuple[float, ...] | None = None,
) -> dict[str, dict[str, object]]:
    """Every basic statistic of every column, one melted aggregate per type class.

    Each type class (numerical, categorical, datetime) is cast to one type,
    unpivoted to ``(column, raw)`` and aggregated by ``column``. The number
    of aggregate expressions (~15) and of Spark jobs depends on the type
    classes present, not on the number of columns; the classes' aggregates
    run at the same time (``in_flight``).

    Returns ``{column: {stat: value}}`` in ``cols`` order plus the dataset
    row count under the pseudo-column ``__table__``. Numerical columns carry
    ``count, nmissing, distinct, min, max, nzero, nnegative, ninfinite, sum,
    mean, std, skew, kurt`` (std is the sample stddev, skew and kurt the
    population g1 and excess g2, both NaN when the column is constant) and,
    with ``quantile_probs``, ``quantiles`` as ``{p: value}``. Categorical
    columns carry ``count, nmissing, distinct, len_min, len_max, len_mean``;
    datetime columns ``count, nmissing, distinct, min_ts, max_ts``. A
    statistic over no values is None.
    """
    cols = list(cols) if cols is not None else list(types)
    classes = (
        (EDAType.NUMERICAL, "double", _numeric_aggs(quantile_probs)),
        (EDAType.CATEGORICAL, "string", _categorical_aggs()),
        (EDAType.DATETIME, "timestamp", _datetime_aggs()),
    )
    rows: dict[str, dict[str, object]] = {}
    empty: dict[str, dict[str, object]] = {}
    nrows = None
    with in_flight(df.sparkSession) as submit:  # the type classes' aggregates together
        passes = []
        for eda_type, cast, aggs in classes:
            members = [c for c in cols if types[c] is eda_type]
            if members:
                passes.append((members, aggs, submit(_melted_stats, df, members, cast, aggs)))
        for members, aggs, result in passes:
            for row in result.result():
                stats = row.asDict()
                nrows = stats.pop("nrows")
                rows[stats.pop("column")] = stats
            # what a column without rows gets: counts 0, every other stat None
            none = {**dict.fromkeys(aggs), "count": 0, "nmissing": 0, "distinct": 0}
            empty.update({c: dict(none) for c in members})
    if nrows is None:  # no columns, or no rows: the groupBy returned nothing
        nrows = df.count() if not cols else 0
    out: dict[str, dict[str, object]] = {"__table__": {"nrows": nrows}}
    for col in cols:
        stats = rows.get(col, empty[col])
        if types[col] is EDAType.NUMERICAL:
            if stats["count"] and stats["min"] == stats["max"]:
                # one value or a constant column: its value is the mean, and
                # there is no spread, skew or kurtosis. Spark's merged
                # streaming moments can leave a residue here (999 rows of 0.1
                # in 3 partitions read std 6e-18, skew 0 and kurt -1.5)
                stats.update(mean=stats["min"], skew=float("nan"), kurt=float("nan"))
                if stats["count"] > 1:
                    stats["std"] = 0.0
            if quantile_probs:
                sketch = stats["quantiles"] or [None] * len(quantile_probs)
                stats["quantiles"] = dict(zip(quantile_probs, sketch))
        out[col] = stats
    return out


def bin_index(value: str, mn: float, mx: float, bins: int) -> str:
    """SQL text: the equi-width bin of ``value`` over ``[mn, mx]``, edges as literals.

    A constant column (``mn == mx``) has the single bin 0; the last bin is
    closed on the right. ``least`` skips nulls, so a missing value is kept
    null here rather than landing in the last bin. ``value`` is SQL text
    (e.g. ``finite(quote(name))``); wrap the result in ``F.expr`` where a
    Column is needed.
    """
    if mx == mn:
        return f"CASE WHEN {value} IS NOT NULL THEN 0 END"
    width = (mx - mn) / bins
    index = f"least(CAST(floor(({value} - {_double(mn)}) / {_double(width)}) AS INT), {bins - 1})"
    return f"CASE WHEN {value} IS NOT NULL THEN {index} END"


def _numpy_bin_rule() -> Callable[[np.ndarray, float, float, int], np.ndarray]:
    """``bin_index``'s rule over numpy arrays, built in a closure.

    cloudpickle ships a function it cannot import by name (this one's
    qualified name holds ``<locals>``) by value, so the co-moment kernel can
    carry it to executors that do not have this package.
    """

    def bin_of(v: np.ndarray, mn: float, width: float, nbins: int) -> np.ndarray:
        """The bins of the finite values ``v``: ``floor((v − mn) / width)``
        capped at ``nbins − 1``, all 0 when ``width`` is 0 (a constant column)."""
        if width == 0:
            return np.zeros(v.size, dtype="int64")
        return np.minimum(np.floor((v - mn) / width), nbins - 1).astype("int64")

    return bin_of


#: ``bin_index``'s rule in numpy: the report's histograms and interactions
bin_of = _numpy_bin_rule()


def bin_edges(mn: float, mx: float, bins: int) -> np.ndarray:
    """The edges ``bin_index`` bins over: ``bins + 1`` of them, or ``[mn, mn]``."""
    return np.linspace(mn, mx, bins + 1) if mx > mn else np.array([mn, mn])


def histogram_edges(
    num_cols: list[str], minmax: Mapping[str, tuple[float | None, float | None]], bins: int
) -> dict[str, np.ndarray]:
    """``bin_edges`` of each of ``num_cols`` that has finite values.

    ``minmax`` comes from a previous pass (``basic_stats_pass``): the edges
    are needed to *construct* the histogram job, mirroring the paper's
    precompute-chunk-size stage.
    """
    edges = {}
    for c in num_cols:
        mn, mx = minmax.get(c, (None, None))
        if mn is not None and mx is not None:
            edges[c] = bin_edges(float(mn), float(mx), bins)
    return edges


#: the histogram of a column with no finite values
NO_HISTOGRAM = (np.zeros(0, dtype="int64"), np.zeros(0, dtype="float64"))


def driver_histograms(
    values: pd.DataFrame, cols: list[str], edges: Mapping[str, np.ndarray]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The histograms of ``cols`` in the driver-side ``values`` over ``edges``.

    ``(counts, edges)`` per column, ``NO_HISTOGRAM`` for one without edges:
    the co-moment kernel's counts (``bin_of`` over the finite values) with
    none of its products, for the calls that need only the histograms.
    """
    out = {}
    for c in cols:
        if c not in edges:
            out[c] = NO_HISTOGRAM
            continue
        bins, _ = _finite_bins(values[c], edges[c])
        out[c] = (np.bincount(bins, minlength=len(edges[c]) - 1), edges[c])
    return out


def _finite_bins(column: pd.Series, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``bin_of`` of the finite values of ``column`` over the edges ``e``,
    and the mask of those values in ``column``."""
    nbins = len(e) - 1
    v = column.to_numpy(dtype="float64", na_value=np.nan)
    ok = np.isfinite(v)
    return bin_of(v[ok], e[0], (e[-1] - e[0]) / nbins, nbins), ok


def hexbins(
    rows: pd.DataFrame,
    cols: list[str],
    minmax: Mapping[str, tuple[float | None, float | None]],
    gs: int,
) -> dict[tuple[str, str], pd.DataFrame]:
    """A hexbin grid per pair of ``cols`` over the finite pairs of ``rows``.

    Each column is binned by ``bin_of`` into ``gs`` bins over its
    ``minmax``, the histograms' rule over the same min/max, and each pair
    counted by one ``np.bincount``. A grid is a frame of the non-empty
    cells, ``xbin``, ``ybin`` and ``count``, in cell order.
    """
    cells = gs * gs
    # per column, x's cell offset and y's bin; a value that is not finite
    # maps past the grid, so every pair holding it falls outside it too
    xcell, ybin = {}, {}
    for c in cols:
        v = rows[c].to_numpy(dtype="float64", na_value=np.nan)
        ok = np.isfinite(v)
        b = np.full(v.size, cells)
        if ok.any():
            mn, mx = minmax[c]
            b[ok] = bin_of(v[ok], mn, (mx - mn) / gs, gs)
        xcell[c], ybin[c] = np.where(ok, b * gs, cells), b
    grids: dict[tuple[str, str], pd.DataFrame] = {}
    for i, a in enumerate(cols):
        for b in cols[i + 1:]:
            flat = np.bincount(xcell[a] + ybin[b], minlength=cells)[:cells]
            nz = np.flatnonzero(flat)
            grids[(a, b)] = pd.DataFrame({"xbin": nz // gs, "ybin": nz % gs, "count": flat[nz]})
    return grids


def driver_binned_counts(
    values: pd.DataFrame, edges: Mapping[str, np.ndarray], keep: np.ndarray | None = None
) -> dict[str, pd.DataFrame]:
    """``binned_counts`` of the driver-side ``values``: the same frames, each
    column binned as ``driver_histograms`` bins it. ``keep`` is a boolean
    array over the rows of ``values``, true on the rows that survive a
    drop; with it each frame also has ``after``, the counts over those rows."""
    out = {}
    for c, e in edges.items():
        bins, ok = _finite_bins(values[c], e)
        frame = {"bin": np.arange(len(e) - 1), "count": np.bincount(bins, minlength=len(e) - 1)}
        if keep is not None:
            frame["after"] = np.bincount(bins[keep[ok]], minlength=len(e) - 1)
        out[c] = pd.DataFrame(frame)
        out[c].attrs["edges"] = e
    return out


def partition_rows(df: DataFrame) -> dict[int, int]:
    """Rows per non-empty partition of ``df``: ``{partition id: rows}``, in id order.

    ``partition_sizes`` without labels: the offsets a scan numbers rows
    with (global row = offset of its partition + position in it), the
    paper's chunk sizes, precomputed before the graph that needs them is
    built.
    """
    return partition_sizes(df)[0]


def partition_sizes(
    df: DataFrame, labels: list[str] = ()
) -> tuple[dict[int, int], dict[str, int]]:
    """Rows per non-empty partition of ``df``, and the UTF-8 bytes of each of ``labels``.

    One ``groupBy(spark_partition_id())`` of the row count and, per label
    column, ``sum(octet_length(CAST(c AS STRING)))``: the gate of the phase
    boundary. The row total and the bytes price a collect
    (``driver_values``); above the budget the rows per partition, in id
    order, are the offsets the co-moment scan numbers rows with.
    """
    aggs = [F.expr("count(1)")]
    aggs += [F.expr(f"sum(octet_length(CAST({quote(c)} AS STRING)))") for c in labels]
    # SQL text: a Column method called on the main thread captures its call
    # site, and pyspark imports IPython (when installed) to do so
    rows = df.groupBy(F.expr("spark_partition_id()")).agg(*aggs).collect()
    layout = dict(sorted((int(r[0]), int(r[1])) for r in rows))
    return layout, {c: sum(int(r[2 + i] or 0) for r in rows) for i, c in enumerate(labels)}


def finite_minmax(
    df: DataFrame, cols: list[str], **totals: str
) -> tuple[dict[str, tuple[float | None, float | None]], dict[str, object]]:
    """Min and max of each column's finite values, one aggregate for all ``cols``.

    The bin-edge metadata of the calls that run no stats pass; None when a
    column has no finite values. ``totals`` maps names to SQL text of
    further aggregates taken in the same job (the row total ``count(1)``,
    say); the second result maps each name to its value.
    """
    aggs = [F.expr(f"{f}({finite(quote(c))})") for c in cols for f in ("min", "max")]
    aggs += [F.expr(e) for e in totals.values()]
    row = df.agg(*aggs).collect()[0]
    minmax = {c: (row[2 * i], row[2 * i + 1]) for i, c in enumerate(cols)}
    return minmax, dict(zip(totals, row[2 * len(cols):]))


def _melted_counts(
    df: DataFrame, values: Mapping[str, str], key: str, keep: str | None
) -> DataFrame:
    """Rows per ``(column, key)``: ``values`` unpivoted, null keys dropped, grouped once.

    ``values`` maps each column to the SQL text of its key. The counts are
    ``count``; with ``keep`` (SQL text of a boolean) also ``after``, the
    rows of the group that ``keep`` holds.
    """
    names = [quote(c) for c in values]
    projection = [f"{v} AS {c}" for c, v in zip(names, values.values())]
    ids, aggs = [], [F.count(F.lit(1)).alias("count")]
    if keep is not None:
        projection.append(f"CAST(({keep}) AS BIGINT) AS __keep")
        ids.append("__keep")
        aggs.append(F.sum("__keep").alias("after"))
    return (
        df.selectExpr(*projection)
        .unpivot(ids, names, "column", key)
        .where(F.col(key).isNotNull())
        .groupBy("column", key)
        .agg(*aggs)
    )


def binned_counts(
    df: DataFrame, edges: Mapping[str, np.ndarray], keep: str | None = None
) -> dict[str, pd.DataFrame]:
    """Rows per bin of each column's finite values: one melted ``groupBy(column, bin)``.

    Each column of ``edges`` is binned by ``bin_index`` with its edges baked
    in as literals; missing and infinite values fall in no bin. Returns
    ``{col: frame}`` with int64 columns ``bin`` (every bin, in order) and
    ``count``, and the edges in ``frame.attrs["edges"]``. With ``keep``,
    SQL text of a boolean true on the rows that survive a drop, the frame
    also has ``after``: the bin's rows that ``keep`` holds, summed in the
    same shuffle.
    """
    if not edges:
        return {}
    binned = {c: bin_index(finite(quote(c)), e[0], e[-1], len(e) - 1) for c, e in edges.items()}
    pdf = _melted_counts(df, binned, "bin", keep).toPandas()
    names = list(pdf.columns[2:])
    out = {}
    for c, e in edges.items():
        sub = pdf[pdf["column"] == c]
        dense = np.zeros((len(e) - 1, len(names)), dtype="int64")
        dense[sub["bin"].to_numpy(dtype="int64")] = sub[names].to_numpy(dtype="int64")
        out[c] = pd.DataFrame({"bin": np.arange(len(e) - 1), **dict(zip(names, dense.T))})
        out[c].attrs["edges"] = e
    return out


def category_counts(
    df: DataFrame, cols: list[str], limit: int, keep: str | None = None
) -> tuple[dict[str, pd.DataFrame], dict[str, tuple[int, int]]]:
    """Exact value counts of ``cols`` as strings: one melted ``groupBy(column, value)``, one action.

    Each column keeps its top ``limit`` values (``row_number`` over count
    descending, value ascending) as a frame with columns ``value`` and int64
    ``count``, in that order. The second result maps each column to its
    exact ``(n_distinct, n_total)`` (distinct and non-null values), windowed
    over the whole column before the cut; ``(0, 0)`` for an all-null column.
    With ``keep`` (as in ``binned_counts``) each frame also has ``after``.
    """
    if not cols:
        return {}, {}
    ranked = Window.partitionBy("column").orderBy(F.desc("count"), F.asc("value"))
    column = Window.partitionBy("column")
    top = (
        _melted_counts(df, {c: f"CAST({quote(c)} AS STRING)" for c in cols}, "value", keep)
        .select(
            "*",
            F.row_number().over(ranked).alias("rank"),
            F.count(F.lit(1)).over(column).alias("n_distinct"),
            F.sum("count").over(column).alias("n_total"),
        )
        .where(F.col("rank") <= limit)
        .toPandas()
    )
    names = ["value", "count"] + (["after"] if keep is not None else [])
    frames, totals = {}, {}
    for c in cols:
        sub = top[top["column"] == c].sort_values(["count", "value"], ascending=[False, True])
        frames[c] = sub[names].reset_index(drop=True)
        totals[c] = (
            (int(sub["n_distinct"].iloc[0]), int(sub["n_total"].iloc[0])) if len(sub) else (0, 0)
        )
    return frames, totals


def histogram_pass(
    df: DataFrame,
    num_cols: list[str],
    minmax: Mapping[str, tuple[float | None, float | None]],
    bins: int,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Equi-width histograms of all numeric columns: ``binned_counts`` over ``histogram_edges``.

    Returns ``{col: (counts, edges)}`` with ``len(edges) == bins + 1`` (2
    for a constant column); columns with no finite values map to
    ``NO_HISTOGRAM``.
    """
    edges = histogram_edges(num_cols, minmax, bins)
    counts = binned_counts(df, edges)
    return {
        c: (counts[c]["count"].to_numpy(), edges[c]) if c in edges else NO_HISTOGRAM
        for c in num_cols
    }


def value_counts_pass(
    df: DataFrame, cat_cols: list[str], limit: int = 1000
) -> dict[str, pd.Series]:
    """Exact value counts of all categorical columns: ``category_counts`` as Series.

    Each column's series is capped at ``limit`` values (descending count,
    ascending value tie-break) and carries exact ``n_distinct`` / ``n_total``
    (non-null) in ``series.attrs`` so overview stats stay exact even when
    the head is truncated.
    """
    frames, totals = category_counts(df, cat_cols, limit)
    out: dict[str, pd.Series] = {}
    for c, frame in frames.items():
        s = pd.Series(
            frame["count"].to_numpy(dtype="int64"),
            index=frame["value"].to_numpy(dtype=object),
            name=c,
        )
        s.attrs["n_distinct"], s.attrs["n_total"] = totals[c]
        out[c] = s
    return out


def sample_pass(
    df: DataFrame, cols: list[str], n: int, seed: int, total_rows: int | None = None
) -> pd.DataFrame:
    """Seeded row sample of ``cols``, capped at ``n`` rows, as pandas.

    Used for the driver-side kernels that need raw values (KDE, scatter,
    Kendall). ``total_rows`` (if already known from a stats pass) avoids a
    count job. Oversamples by 10% then truncates, so the cap is respected
    without a second pass.
    """
    if total_rows is None:
        total_rows = df.count()
    proj = df.selectExpr(*[quote(c) for c in cols])
    if total_rows <= n:
        return proj.toPandas()
    frac = min(1.0, (n / total_rows) * 1.1)
    return proj.sample(fraction=frac, seed=seed).limit(n).toPandas()


def finite_values(df: DataFrame, cols: list[str], *extra: str) -> DataFrame:
    """``cols`` as doubles with NaN/±inf nulled (``finite``), under their own
    names, then the SQL expressions ``extra``, in one ``selectExpr``."""
    names = [quote(c) for c in cols]
    return df.selectExpr(*[f"{finite(c)} AS {c}" for c in names], *extra)


def finite_sample(
    df: DataFrame, cols: list[str], n: int, seed: int, total_rows: int | None = None
) -> pd.DataFrame:
    """``sample_pass`` over ``finite_values`` as float64: NaN/±inf come back missing."""
    if not cols:
        return pd.DataFrame()
    return sample_pass(finite_values(df, cols), cols, n, seed, total_rows).astype("float64")


def drawn(values: pd.DataFrame, n: int, seed: int) -> pd.DataFrame:
    """At most ``n`` rows of the driver-side ``values``, drawn without replacement.

    The driver path's one numeric sample: the first ``n`` rows of a seeded
    permutation, so a smaller draw is the head of a larger one.
    """
    rows = np.random.default_rng(seed).permutation(len(values))[:n]
    return values.iloc[rows].reset_index(drop=True)


def scatter_points(values: pd.DataFrame, n: int, seed: int) -> pd.DataFrame:
    """A scatter plot's points: the rows of ``values`` with no missing value,
    all of them when they are at most ``n`` (as ``sample_pass`` returns
    them), else ``drawn`` from them; in ``point_order``."""
    pairs = values.dropna().reset_index(drop=True)
    return point_order(pairs if len(pairs) <= n else drawn(pairs, n, seed))


def point_order(points: pd.DataFrame) -> pd.DataFrame:
    """``points`` sorted by their values, first column first: a scatter's
    one order, whatever order the scan that made it gave its rows."""
    keys = [points.iloc[:, i].to_numpy("float64") for i in range(points.shape[1])]
    return points.iloc[np.lexsort(keys[::-1])].reset_index(drop=True)


#: Cell budget of the phase boundary (paper §5.2). Below it a caller
#: collects the finite numeric values once (``driver_values``) and runs its
#: numeric passes on the driver: the report, ``plot(df)``, ``plot(df, c)``
#: and ``plot_correlation(df)`` all of them (stats, quantiles, histograms,
#: co-moments, ranks, the sample); the pair tasks (``plot(df, x, y)``,
#: ``plot_missing(df, c1[, c2])`` and the correlation pair) theirs too
#: (hexbins, box plots, before/after histograms, samples). When the labels
#: fit as well (``LABEL_CELLS``), the report, ``plot(df)`` and a categorical
#: ``plot(df, c)`` collect every column and take the categorical stats,
#: value counts and duplicate count on the driver too: on a 20-numeric +
#: 12-categorical frame of 50k rows the report took 1.2 s against 11.5 s in
#: Spark, with 5 MB more driver RSS.
#: Above it they run in Spark, and Spearman ranks with the distributed
#: window path. Ranking is the one correlation step that does not *reduce*
#: data (every rank column is as big as its input), and each distributed
#: global-order window re-sorts the full row — O(m²·n) movement; on small
#: data a Python-worker job's fixed launch cost dominates besides. So the
#: budget bounds the driver's memory, not its time: ``create_report`` on
#: the driver path was 3–6× faster than in Spark at every measured size up
#: to 7.2M cells, and its driver peak RSS grew about 33 MB per million
#: cells, 100–165 MB above the Spark path's at the budget; ``plot(df)`` and
#: ``plot(df, c)`` 2–3× faster up to 7.9M cells, 123 and 257 MB above it;
#: the pair tasks 1.1–4.7× faster at 2.4M and 4.8M cells, 180–210 MB above
#: it at the budget (DESIGN.md §4b).
DRIVER_CELLS = 5_000_000

#: Cells a collected label (a string) costs beside one per 8 of its bytes.
#: A label stays in Arrow (its bytes and an offset, then a dictionary and a
#: code per row), never a Python object per cell. Collecting 500k rows of 8
#: doubles with the duplicate count raised the driver's peak RSS by 169 B a
#: row, 21 B a cell; a distinct label of 20 / 100 bytes beside them by 108 /
#: 351 B a row more, 5.1 / 16.5 cells: 4 cells and a cell per 8 bytes give
#: 6.5 / 16.5. A label repeated across rows is stored once, in the
#: dictionary (5 B a row more for one of 20 categories), so for a category
#: the budget errs high. (Python string labels, ``toPandas``, had cost 8
#: cells and a cell per 8 bytes.)
LABEL_CELLS = 4


def fresh_names(columns: list[str], k: int) -> list[str]:
    """``k`` names longer than any of ``columns``, so none of them collides."""
    return [f"{'_' * max(map(len, columns), default=0)}_{i}" for i in range(k)]


@dataclass
class Collected:
    """What ``driver_values`` brought to the driver, rows in partition order.

    ``values`` holds the finite values of the numeric columns (float64, NaN
    where a value is missing or ±inf) and ``flags`` the missing flags
    (bool) of the indicators. ``labels`` maps each collected label column
    to its distinct non-null values as an Arrow array (the dictionary) and
    each row's position in it (int32, −1 where null): a value becomes a
    Python object only when a caller takes it. ``duplicates`` counts the
    rows equal to an earlier one when the collect held every column.
    """

    values: pd.DataFrame
    flags: pd.DataFrame
    labels: dict[str, tuple[pa.Array, np.ndarray]] = field(default_factory=dict)
    duplicates: int | None = None


def driver_values(
    df: DataFrame,
    cols: list[str],
    nrows: int | None = None,
    indicators: list[str] = (),
    labels: Mapping[str, int] = {},
    duplicates: bool = False,
) -> Collected | None:
    """``cols``' values, ``labels`` and missing flags, collected once; None above ``DRIVER_CELLS``.

    One ``toArrow`` collect. The columns of ``cols`` come as raw doubles
    (``CAST AS DOUBLE``; integers as they are, converted here alike); numpy
    then derives their finite values and their missing flags (NaN: null or
    NaN), so no flag is collected for them.
    The columns of ``labels`` come as strings (``CAST AS STRING``), reduced
    with ``pyarrow.compute`` to a dictionary and codes; ``labels`` maps
    each to the UTF-8 bytes of its values (``partition_sizes``), and in the
    budget a label costs ``LABEL_CELLS`` plus a cell per 8 of its bytes.
    With ``duplicates`` every other column of ``df`` (datetime) comes too,
    raw, a cell each, and ``Collected.duplicates`` is counted over all of
    them (``duplicate_rows``). An indicator of none of these is collected
    as a BOOLEAN flag (``missing_conditions``), in the budget an eighth of
    a cell. ``nrows`` (if already known) avoids a count job.
    """
    if nrows is None:
        nrows = df.count()
    cols = list(cols)
    rest = [c for c in df.columns if c not in cols and c not in labels] if duplicates else []
    coded = [*labels, *rest]
    flagged = [c for c in indicators if c not in cols and c not in coded]
    cells = nrows * (len(cols) + len(rest) + len(labels) * LABEL_CELLS + len(flagged) / 8)
    if cells + sum(labels.values()) / 8 > DRIVER_CELLS:
        return None
    names = fresh_names(df.columns, len(flagged))
    # an integer beyond 2**53 is not exact as a double: the duplicate count
    # reads integers as collected
    dtypes = dict(df.dtypes)
    exact = [c for c in cols if dtypes[c] in ("tinyint", "smallint", "int", "bigint")]
    table = df.selectExpr(
        *[quote(c) if c in exact else f"CAST({quote(c)} AS DOUBLE) AS {quote(c)}" for c in cols],
        *[f"CAST({quote(c)} AS STRING) AS {quote(c)}" for c in labels],
        *map(quote, rest),
        *[f"{m} AS {quote(n)}" for m, n in zip(missing_conditions(df, flagged), names)],
    ).toArrow()
    n = table.num_rows
    # one (columns × rows) block: the values frame below is a view of it
    raw = np.empty((len(cols), n))
    for i in range(len(cols)):
        raw[i] = table.column(i).to_numpy()  # a null comes as NaN
    codes = {c: _dictionary_codes(table.column(len(cols) + i)) for i, c in enumerate(coded)}
    flags = np.empty((len(indicators), n), dtype=bool)
    for i, c in enumerate(indicators):
        if c in cols:
            flags[i] = np.isnan(raw[cols.index(c)])
        elif c in codes:
            flags[i] = codes[c][1] < 0
        else:
            flags[i] = table.column(len(cols) + len(coded) + flagged.index(c)).to_numpy()
    count = None
    if duplicates:
        keys = [_dictionary_codes(table.column(cols.index(c)))[1] for c in exact]
        keys += [v for c, v in zip(cols, raw) if c not in exact]
        count = duplicate_rows([*keys, *(k for _, k in codes.values())], n)
    del table
    raw[np.isinf(raw)] = np.nan
    return Collected(
        pd.DataFrame(raw.T, columns=cols, copy=False),
        pd.DataFrame(flags.T, columns=list(indicators), copy=False),
        {c: codes[c] for c in labels},
        count,
    )


def _dictionary_codes(column: pa.ChunkedArray) -> tuple[pa.Array, np.ndarray]:
    """``column``'s distinct non-null values and each row's position among them
    (int32, −1 where null): one ``dictionary_encode``, whose chunks share one
    dictionary."""
    encoded = column.dictionary_encode()
    dictionary = encoded.chunk(0).dictionary if encoded.num_chunks else pa.array([], column.type)
    positions = pa.chunked_array([c.indices for c in encoded.chunks], pa.int32())
    return dictionary, pc.fill_null(positions, -1).to_numpy()


def duplicate_rows(columns: list[np.ndarray], nrows: int) -> int:
    """Rows equal to an earlier row, each row the tuple of its values in ``columns``.

    pandas ``duplicated`` semantics, by pandas' own method: each column is
    factorized (NaN is one value, −0.0 equals 0.0, ±inf are values) and
    the codes are combined row by row into one key, re-factorized before
    the key could overflow.
    """
    key, size = np.zeros(nrows, dtype="int64"), 1
    for v in columns:
        codes, uniques = pd.factorize(v, use_na_sentinel=False)
        if size * len(uniques) >= 2**62:
            key, kept = pd.factorize(key)
            size = len(kept)
        key = key * len(uniques) + codes
        size *= len(uniques)
    return nrows - len(pd.unique(key)) if nrows else 0


def top_labels(dictionary: pa.Array, counts: np.ndarray, limit: int) -> np.ndarray:
    """The positions in ``dictionary`` of its ``limit`` most frequent values.

    By ``counts`` descending, then value ascending: Arrow compares strings
    byte by byte, which is Spark's UTF-8 order.
    """
    order = pc.sort_indices(
        pa.table({"count": counts, "value": dictionary}),
        sort_keys=[("count", "descending"), ("value", "ascending")],
    )
    return order.to_numpy()[:limit]


def categorical_summaries(
    collected: Collected, cols: list[str], limit: int = 1000
) -> tuple[dict[str, dict[str, object]], dict[str, pd.Series]]:
    """``basic_stats_pass``' categorical entries and ``value_counts_pass``' series
    of the collected labels ``cols``.

    The same keys, order and conventions: ``count``, ``nmissing``, exact
    ``distinct``, ``len_min``, ``len_max`` and ``len_mean`` in code points
    (``utf8_length``, Spark's ``length``), None over no value. Each series
    holds the top ``limit`` values (``top_labels``) with exact
    ``n_distinct`` / ``n_total`` in its attrs. The lengths and counts are
    taken per distinct value; only the top values become Python objects.
    """
    stats, series = {}, {}
    for c in cols:
        dictionary, codes = collected.labels[c]
        counts = np.bincount(codes[codes >= 0], minlength=len(dictionary))
        total = int(counts.sum())
        lengths = pc.utf8_length(dictionary).to_numpy(zero_copy_only=False)
        stats[c] = {
            "count": total,
            "nmissing": codes.size - total,
            "distinct": len(dictionary),
            "len_min": float(lengths.min()) if total else None,
            "len_max": float(lengths.max()) if total else None,
            "len_mean": int(lengths.astype("int64") @ counts) / total if total else None,
        }
        top = top_labels(dictionary, counts, limit)
        s = pd.Series(
            counts[top].astype("int64"),
            index=pd.Index(dictionary.take(top).to_pylist(), dtype=object),
            name=c,
        )
        s.attrs["n_distinct"], s.attrs["n_total"] = len(dictionary), total
        series[c] = s
    return stats, series


def driver_minmax(values: pd.DataFrame) -> dict[str, tuple[float | None, float | None]]:
    """``finite_minmax`` of the driver-side finite ``values``, per column."""
    return {
        c: (float(v.min()), float(v.max())) if v.notna().any() else (None, None)
        for c, v in values.items()
    }


def numeric_stats(
    values: pd.DataFrame,
    flags: pd.DataFrame,
    nrows: int,
    quantile_probs: tuple[float, ...] | None = None,
) -> dict[str, dict[str, object]]:
    """``basic_stats_pass``' numerical entries, from the driver-side values.

    ``values`` holds the finite values of some columns (NaN where a value is
    missing or ±inf) and ``flags`` the same columns' missing flags, as
    ``driver_values`` collects them (``Collected.values``, ``.flags``);
    ``nrows`` is the frame's row total. Returns ``{column: stats}`` with the
    stats pass's keys and conventions: ``ninfinite`` is what is neither
    finite nor missing, None when every value is missing; a statistic over no finite
    value is None, skew and kurt of one value or a constant column NaN.
    ``distinct`` and the quantiles are exact where the stats pass sketches
    them: the quantile at ``p`` is ``sorted[ceil(p·n) − 1]``, the value
    ``percentile_approx`` approximates. Mean, std, skew and kurt take two
    passes over values centred on their least, so a constant column centres
    to exact zeros and a large offset cancels before any power is formed.
    """
    out: dict[str, dict[str, object]] = {}
    for c in values.columns:
        v = values[c].to_numpy(dtype="float64", na_value=np.nan)
        v = np.sort(v[~np.isnan(v)])
        n = v.size
        nmissing = int(flags[c].sum())
        ninfinite = nrows - n - nmissing
        stats: dict[str, object] = {
            "count": n,
            "nmissing": nmissing,
            "distinct": int(np.count_nonzero(np.diff(v))) + 1 if n else 0,
            **dict.fromkeys(("min", "max", "nzero", "nnegative")),
            "ninfinite": ninfinite if n or ninfinite else None,
            **dict.fromkeys(("sum", "mean", "std", "skew", "kurt")),
        }
        if n:
            mean = v[0] + (v - v[0]).sum() / n
            d = v - mean
            d2 = d * d
            m2, m3, m4 = d2.sum(), (d2 * d).sum(), (d2 * d2).sum()
            with np.errstate(divide="ignore", invalid="ignore"):
                skew = np.sqrt(n) * m3 / np.sqrt(m2 * m2 * m2) if m2 else np.nan
                kurt = n * m4 / (m2 * m2) - 3.0 if m2 else np.nan
            stats.update(
                min=float(v[0]), max=float(v[-1]),
                nzero=int(np.count_nonzero(v == 0)), nnegative=int(np.count_nonzero(v < 0)),
                sum=float(v.sum()), mean=float(mean),
                std=float(np.sqrt(m2 / (n - 1))) if n > 1 else None,
                skew=float(skew), kurt=float(kurt),
            )
        if quantile_probs:
            stats["quantiles"] = dict(zip(quantile_probs, exact_quantiles(v, quantile_probs)))
        out[c] = stats
    return out


def exact_quantiles(v: np.ndarray, probs: tuple[float, ...]) -> list[float | None]:
    """The quantile at each of ``probs`` of the sorted finite values ``v``.

    The quantile at ``p`` is ``v[ceil(p·n) − 1]``: the least value with at
    least a share ``p`` of the values at or below it, the value
    ``percentile_approx`` approximates. None for each when ``v`` is empty.
    Every exact quantile (the stats table's and the box plots') is this one.
    """
    n = v.size
    return [float(v[max(math.ceil(p * n), 1) - 1]) if n else None for p in probs]


def group_boxes(keys: np.ndarray, y: np.ndarray) -> pd.DataFrame:
    """Box statistics of the finite values ``y`` grouped by the non-negative integer ``keys``.

    One row per key that has values, in key order: ``key``, ``min``,
    ``max``, ``count`` (int64) and the ``exact_quantiles`` at
    ``QUARTILES`` as ``q1``, ``median`` and ``q3``. The driver-side
    ``groupBy(key)`` of ``min``, ``max``, ``count`` and ``percentile_approx``.
    Each group is selected by a mask and sorted alone: the keys are few
    (bins or top groups), and on 2.4M rows in 10 bins that took 0.12 s
    where one ``np.lexsort`` of every row by key and value took 0.92 s.
    """
    boxes = []
    for k in np.flatnonzero(np.bincount(keys)) if keys.size else ():
        v = np.sort(y[keys == k])
        boxes.append((k, v[0], v[-1], v.size, *exact_quantiles(v, QUARTILES)))
    names = ["key", "min", "max", "count", "q1", "median", "q3"]
    return pd.DataFrame(boxes, columns=names).astype(
        {c: "int64" if c in ("key", "count") else "float64" for c in names}
    )
