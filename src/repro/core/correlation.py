"""Correlation analysis — ``plot_correlation`` (paper Figure 2, rows 4–6).

Methods reproduced: **Pearson**, **Spearman**, **KendallTau** (the three
the paper computes; PhiK/Cramér's V were disabled in the paper's
benchmark and are likewise absent here).

Fusion strategy:

* Pearson — one kernel for every form: a ``mapInPandas`` co-moment scan
  (``comoment_scan``) whose partitions emit centred m×m co-moment
  matrices, merged pairwise on the driver (pairwise-complete like
  ``pandas.DataFrame.corr``). The scan also carries the missing
  indicators the nullity heatmap needs, and can count histograms and the
  missing spectrum on the way, so a report gets all of them from one pass.
  The pair's regression line comes from the same moments.
* The phase boundary (paper §5.2) — below ``compute.DRIVER_CELLS`` a
  caller collects the finite values once (``compute.driver_values``) and
  runs the same kernel on the driver (``local_comoments``):
  ``plot_correlation(df)`` and the pair for every method (the pair's
  scatter too), ``create_report`` for every numeric pass. A Python-worker
  job's fixed launch cost is several times such a collect.
* Spearman — average ranks with tie correction, per column, then the
  same Pearson on ranks: ranked by pandas on the driver below the budget,
  else by ``ranked`` and read by the co-moment scan (``rank_scan``). The
  vector's Spearman shares its Pearson's scan. Columns are ranked once
  over their own non-nulls; under missing data this approximates pandas'
  per-pair re-ranking (documented in DESIGN.md).
* Kendall — exact tau-b on a seeded, size-capped sample (a numpy draw
  from the collect below the budget, ``compute.drawn``; a Spark sample
  above it) via the ``substrate.numutils`` kernel (scipy-free): Knight's
  O(k log k) tau-b, each pair over its own finite rows (pairwise-complete
  like ``pandas.DataFrame.corr``), the m×m matrix's pairs batched in
  chunks so the driver holds one chunk, not k² signs.

Every caller maps methods to matrices through ``correlation_view``.
"""
from __future__ import annotations

import functools
import pickle
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F

from repro.core import compute
from repro.core.config import Config
from repro.core.dtypes import EDAType, detect_type, detect_types
from repro.core.insights import correlation_insights
from repro.core.intermediates import EDAResult, Intermediates
from repro.core.render import render
from repro.substrate import numutils


def ranked(df: DataFrame, cols: list[str]) -> DataFrame:
    """Average-rank transform of ``cols`` (ties share the mean rank), under their names.

    Each column is ranked over its finite values: ``rank()`` gives the min
    rank; adding ``(ties−1)/2`` (ties counted per value) yields the average
    rank, matching ``pandas.rank(method='average')`` on the non-null values.
    Nulls stay null, so a Pearson of the ranks stays pairwise-complete. The
    other columns of ``df`` pass through, so values can ride beside ranks.
    """
    quoted = dict(zip(df.columns, map(compute.quote, df.columns)))
    clean = df.selectExpr(
        *[f"{compute.finite(q)} AS {q}" if c in cols else q for c, q in quoted.items()]
    )

    def rank(c: str) -> Column:
        v = F.col(quoted[c])
        avg_rank = (
            F.rank().over(Window.orderBy(v.asc_nulls_last())).cast("double")
            + (F.count(v).over(Window.partitionBy(v)).cast("double") - 1) / 2
        )
        return F.when(v.isNull(), None).otherwise(avg_rank).alias(c)

    return clean.select([rank(c) if c in cols else F.col(q) for c, q in quoted.items()])


def _comoment_kernel(m: int, bins=(), spectrum=None):
    """The co-moment ``mapInPandas`` kernel over ``m`` double columns, and its merge.

    Returns ``(kernel, merge)``. A partial is ``(rows, N, MU, M2, C)``; for
    columns i, j over the rows where both are finite (pandas'
    pairwise-complete semantics):

    * ``N[i, j]``  — the number of such rows;
    * ``MU[i, j]`` — the mean of column i over them;
    * ``M2[i, j]`` — Σ (x_i − MU[i, j])² over them;
    * ``C[i, j]``  — Σ (x_i − MU[i, j])·(x_j − MU[j, i]) over them.

    Each Arrow batch is centred per column before any product is formed,
    and batches and partitions are combined with the pairwise updates of
    Chan, Golub & LeVeque (1983) for M2 and Pébay (SAND2008-6212) for C, so
    no raw power sum ever cancels. Numpy matmuls replace m² Catalyst
    aggregates whose generated code would exhaust the JVM code cache.

    ``bins`` holds ``(position, mn, width, nbins)`` per histogram: the
    finite values of column ``position`` are counted into ``nbins`` bins by
    ``compute.bin_of``, ``compute.bin_index``'s rule in numpy. The
    partition's counts travel in an extra ``hist`` column.

    ``spectrum`` is ``(offsets, nrows, nseg, first)``: batch column ``m``
    is ``monotonically_increasing_id()``, whose high bits are the partition
    id ``pid`` and low 33 bits the row's position ``i`` in the partition.
    The row is global row ``offsets[pid] + i``, in segment
    ``min(row·nseg // nrows, nseg − 1)``; columns ``first … m−1`` are 0/1
    missing indicators. The rows per segment and the indicators' sums per
    (segment, column) travel in an extra ``spectrum`` column, beside the
    partition id in ``pid``.

    Everything the kernel calls is defined in here or held in a closure
    cell (``compute.bin_of``): cloudpickle ships those by value but a
    module-level function by reference, and the executors need not have
    this package installed.
    """

    def moments(X):
        mask = np.isfinite(X)
        Mf = mask.astype("float64")
        cnt = Mf.sum(axis=0)
        with np.errstate(invalid="ignore"):
            # centre on the first finite value plus the mean offset from
            # it: a constant column centres to exact zeros
            first = np.where(cnt > 0, X[mask.argmax(axis=0), np.arange(m)], 0.0)
            centre = first + np.where(mask, X - first, 0.0).sum(axis=0) / np.maximum(cnt, 1)
            Z = np.where(mask, X - centre, 0.0)
        N = Mf.T @ Mf
        S = Z.T @ Mf  # S[i, j]: Σ z_i over the rows where j is finite too
        d = np.divide(S, N, out=np.zeros_like(S), where=N > 0)
        return X.shape[0], N, centre[:, None] + d, (Z * Z).T @ Mf - S * d, Z.T @ Z - S * d.T

    def merge(a, b):
        rows_a, Na, MUa, M2a, Ca = a
        rows_b, Nb, MUb, M2b, Cb = b
        N = Na + Nb
        fb = np.divide(Nb, N, out=np.zeros_like(N), where=N > 0)
        D = MUb - MUa
        W = Na * fb  # Na·Nb / N
        MU = np.where(Na > 0, MUa + D * fb, MUb)
        return rows_a + rows_b, N, MU, M2a + M2b + D * D * W, Ca + Cb + D * D.T * W

    bin_of = compute.bin_of  # a closure cell: shipped by value

    def histogram(v, mn, width, nbins):
        v = v[np.isfinite(v)]
        return np.bincount(bin_of(v, mn, width, nbins), minlength=nbins)

    def kernel(batches):
        acc, pid = None, None
        hist = [np.zeros(nbins, dtype="int64") for _, _, _, nbins in bins]
        if spectrum is not None:
            offsets, nrows, nseg, first = spectrum
            k = m - first
            seg_rows = np.zeros(nseg, dtype="int64")
            seg_missing = np.zeros((nseg, k), dtype="int64")
        for pdf in batches:
            if len(pdf) == 0:
                continue
            X = pdf.iloc[:, :m].to_numpy(dtype="float64", na_value=np.nan)
            if spectrum is not None:
                rowid = pdf.iloc[:, m].to_numpy(dtype="int64")
                pid = int(rowid[0] >> 33)
                row = offsets.get(pid, 0) + (rowid & ((1 << 33) - 1))
                seg = np.minimum(row * nseg // nrows, nseg - 1)
                seg_rows += np.bincount(seg, minlength=nseg)
                flat = (seg[:, None] * k + np.arange(k)).ravel()
                sums = np.bincount(flat, weights=X[:, first:].ravel(), minlength=nseg * k)
                seg_missing += sums.reshape(nseg, k).astype("int64")
            for h, (pos, mn, width, nbins) in zip(hist, bins):
                h += histogram(X[:, pos], mn, width, nbins)
            part = moments(X)
            acc = part if acc is None else merge(acc, part)
        if acc is not None:
            out = {"payload": [pickle.dumps(acc)]}
            if bins:
                out["hist"] = [pickle.dumps(hist)]
            if spectrum is not None:
                out["pid"] = [pid]
                out["spectrum"] = [pickle.dumps((seg_rows, seg_missing))]
            yield pd.DataFrame(out)

    return kernel, merge


@dataclass
class CoMoments:
    """Merged pairwise co-moments of value columns and missing indicators.

    Positions ``0 … len(cols)-1`` of the m×m arrays are the value columns,
    the rest the 0/1 missing indicators of ``indicators``; see
    ``_comoment_kernel`` for what ``n``, ``mean``, ``m2`` and ``c`` hold.
    ``hists`` maps each binned column to ``(counts, edges)``; ``segments``
    holds the spectrum's rows per segment and missing cells per (segment,
    indicator), when the scan counted them.
    """

    cols: list[str]
    indicators: list[str]
    nrows: int
    n: np.ndarray
    mean: np.ndarray
    m2: np.ndarray
    c: np.ndarray
    hists: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    segments: tuple[np.ndarray, np.ndarray] | None = None

    def _corr(self, pos: list[int], labels: list[str]) -> pd.DataFrame:
        ix = np.ix_(pos, pos)
        n, m2, c = self.n[ix], self.m2[ix], self.c[ix]
        ok = (n >= 2) & (m2 > 0) & (m2.T > 0)
        corr = np.full(n.shape, np.nan)
        corr[ok] = c[ok] / np.sqrt(m2[ok] * m2.T[ok])
        np.fill_diagonal(corr, 1.0)
        return pd.DataFrame(np.clip(corr, -1.0, 1.0), index=labels, columns=labels)

    def pearson(self, cols: list[str] | None = None, labels: list[str] | None = None) -> pd.DataFrame:
        """Pairwise-complete Pearson matrix of value columns ``cols`` (default all),
        labelled ``labels`` (default ``cols``)."""
        cols = self.cols if cols is None else cols
        return self._corr([self.cols.index(c) for c in cols], cols if labels is None else labels)

    def regression(self, x: str, y: str) -> dict[str, float]:
        """Least-squares line of ``y`` on ``x`` from the complete-pair moments:
        ``slope = c[x, y] / m2[x, y]``, ``intercept = mean[y, x] − slope·mean[x, y]``,
        both NaN where ``m2`` or ``n`` is 0."""
        i, j = self.cols.index(x), self.cols.index(y)
        if self.n[i, j] == 0 or self.m2[i, j] == 0:
            return {"slope": float("nan"), "intercept": float("nan")}
        slope = float(self.c[i, j] / self.m2[i, j])
        return {"slope": slope, "intercept": float(self.mean[j, i] - slope * self.mean[i, j])}

    def missing(self) -> pd.Series:
        """Missing cells per indicator column: its indicator's mean × rows."""
        k = len(self.cols) + np.arange(len(self.indicators))
        counts = np.rint(self.mean[k, k] * self.n[k, k]).astype("int64")
        return pd.Series(counts, index=self.indicators)

    def nullity(self, cols: list[str]) -> pd.DataFrame:
        """Pearson matrix of the missing indicators of ``cols``."""
        pos = {c: len(self.cols) + i for i, c in enumerate(self.indicators)}
        return self._corr([pos[c] for c in cols], cols)

    def spectrum(self) -> pd.DataFrame:
        """The missing spectrum: one row per (segment holding rows, indicator).

        Columns ``segment`` (int32), ``column``, ``missing_rate`` (missing
        cells / rows) and ``n`` (rows, int64), sorted by segment then column.
        """
        rows, missing = self.segments
        seg = np.flatnonzero(rows)
        order = sorted(range(len(self.indicators)), key=self.indicators.__getitem__)
        k = len(order)
        return pd.DataFrame({
            "segment": np.repeat(seg, k).astype("int32"),
            "column": np.tile(np.array(self.indicators, dtype=object)[order], seg.size),
            "missing_rate": (missing[np.ix_(seg, order)] / rows[seg, None]).ravel(),
            "n": np.repeat(rows[seg], k).astype("int64"),
        })


def comoment_scan(
    df: DataFrame,
    cols: list[str],
    indicators: list[str] = (),
    edges: Mapping[str, np.ndarray] | None = None,
    spectrum_bins: int | None = None,
    layout: Mapping[int, int] | None = None,
) -> CoMoments:
    """Co-moments of ``cols`` and of the missing indicators of ``indicators``.

    One ``mapInPandas`` scan whatever the number of columns: Pearson and
    nullity correlation, the row count and the missing counts all come out
    of it. NaN/±inf values are left out pairwise; an indicator is 1 where
    the cell is null, or NaN in a float column.

    The same scan also counts, when asked:

    * ``edges`` — ``{col: compute.bin_edges(...)}`` for columns of ``cols``:
      the histograms ``compute.histogram_pass`` would count, in ``hists``;
    * ``spectrum_bins`` — the missing spectrum of ``indicators`` over that
      many row segments (``CoMoments.spectrum``). Rows are numbered in
      partition order from ``layout``, the ``compute.partition_rows`` of
      ``df`` (counted here when not given): its cumulative sums, the
      partition offsets, are baked into the kernel. That relies on the
      frame having the same partition layout in both jobs; a scan whose
      rows per partition differ raises ``RuntimeError``.

    The projection is one ``selectExpr`` of SQL text.
    """
    cols, indicators = list(cols), list(indicators)
    exprs = [f"CAST({compute.quote(c)} AS DOUBLE)" for c in cols]
    exprs += [f"CAST({e} AS DOUBLE)" for e in compute.missing_exprs(df, indicators)]
    m = len(exprs)
    bins = _kernel_bins(cols, edges)
    schema = "payload BINARY" + (", hist BINARY" if bins else "")
    spectrum = None
    if spectrum_bins is not None:
        if layout is None:
            layout = compute.partition_rows(df)
        offsets = dict(zip(layout, np.cumsum([0, *layout.values()])[:-1].tolist()))
        spectrum = (offsets, max(sum(layout.values()), 1), spectrum_bins, len(cols))
        # not spark_partition_id(): Catalyst folds a projection over a local
        # relation on the driver as partition 0, then scans its rows in
        # several tasks; the id's low bits still number them in order
        exprs.append("monotonically_increasing_id()")
        schema += ", pid INT, spectrum BINARY"
    kernel, merge = _comoment_kernel(m, bins, spectrum)
    rows = (
        df.selectExpr(*[f"{e} AS _{i}" for i, e in enumerate(exprs)])
        .mapInPandas(kernel, schema)
        .collect()
    )
    out, scanned = _unpacked(rows, cols, indicators, merge, edges, spectrum_bins)
    if spectrum is not None:
        moved = {
            pid: (layout.get(pid, 0), scanned.get(pid, 0))
            for pid in sorted(layout.keys() | scanned.keys())
            if layout.get(pid, 0) != scanned.get(pid, 0)
        }
        if moved:
            raise RuntimeError(
                "the partition layout changed between compute.partition_rows and the "
                f"scan; (counted, scanned) rows per partition: {moved}"
            )
    return out


def _kernel_bins(cols: list[str], edges: Mapping[str, np.ndarray] | None) -> list[tuple]:
    """The kernel's ``(position, mn, width, nbins)`` of each histogram in ``edges``;
    a constant column's edges ``[mn, mn]`` give width 0."""
    return [
        (cols.index(c), e[0], (e[-1] - e[0]) / (len(e) - 1), len(e) - 1)
        for c, e in (edges or {}).items()
    ]


def _unpacked(
    parts: list, cols: list[str], indicators: list[str], merge,
    edges: Mapping[str, np.ndarray] | None, spectrum_bins: int | None,
) -> tuple[CoMoments, dict[int, int]]:
    """The kernel's outputs ``parts`` (its rows, read by column name) as ``CoMoments``.

    The partials are merged, the histograms of ``edges`` and the spectrum
    over ``spectrum_bins`` segments summed. The second result maps each
    partition id to the rows the kernel numbered in it (empty without a
    spectrum). Every caller of the kernel reads its outputs here.
    """
    partials = [pickle.loads(bytes(p["payload"])) for p in parts]
    out = _merged(cols, indicators, partials, merge)
    edges = edges or {}
    counts = [pickle.loads(bytes(p["hist"])) for p in parts] if edges else []
    for i, col in enumerate(edges):
        zeros = np.zeros(len(edges[col]) - 1, dtype="int64")
        out.hists[col] = (sum((h[i] for h in counts), zeros), edges[col])
    scanned: dict[int, int] = {}
    if spectrum_bins is not None:
        for p, partial in zip(parts, partials):
            scanned[int(p["pid"])] = scanned.get(int(p["pid"]), 0) + partial[0]
        spectra = [pickle.loads(bytes(p["spectrum"])) for p in parts]
        out.segments = (
            sum((s[0] for s in spectra), np.zeros(spectrum_bins, dtype="int64")),
            sum((s[1] for s in spectra), np.zeros((spectrum_bins, len(indicators)), dtype="int64")),
        )
    return out, scanned


def _merged(cols: list[str], indicators: list[str], partials: list[tuple], merge) -> CoMoments:
    """The kernel's partials merged into ``CoMoments`` (all zero without any)."""
    zero = np.zeros((len(cols) + len(indicators),) * 2)
    nrows, n, mean, m2, c = functools.reduce(merge, partials, (0, zero, zero, zero, zero))
    return CoMoments(cols, indicators, int(nrows), n, mean, m2, c)


#: rows per batch the driver feeds the kernel: each batch's float copy and
#: m×m products stay a few MB however many rows were collected
_DRIVER_BATCH = 2048


def local_comoments(
    values: pd.DataFrame,
    cols: list[str],
    flags: pd.DataFrame | None = None,
    edges: Mapping[str, np.ndarray] | None = None,
    spectrum_bins: int | None = None,
) -> CoMoments:
    """``comoment_scan`` of the driver-side frame ``values``: the same kernel, run here.

    ``values`` holds the finite values of ``cols`` and ``flags`` the missing
    flags of the indicators (its columns), as ``compute.driver_values``
    collects them. The kernel takes them in batches of ``_DRIVER_BATCH``
    rows, each batch's values and flags side by side; the spectrum numbers
    rows in collect order, which is partition order, as one partition.
    """
    cols = list(cols)
    indicators = [] if flags is None else list(flags.columns)
    bins = _kernel_bins(cols, edges)
    spectrum = None
    if spectrum_bins is not None:
        spectrum = ({0: 0}, max(len(values), 1), spectrum_bins, len(cols))
    m = len(cols) + len(indicators)
    kernel, merge = _comoment_kernel(m, bins, spectrum)
    X = values.to_numpy("float64")  # the collect's block itself, no copy
    pos = [values.columns.get_loc(c) for c in cols]
    flagged = flags.to_numpy() if indicators else np.empty((len(X), 0))

    def batches():
        for start in range(0, len(X), _DRIVER_BATCH):
            stop = min(start + _DRIVER_BATCH, len(X))
            block = np.hstack([X[start:stop, pos], flagged[start:stop]], dtype="float64")
            batch = pd.DataFrame(block)
            if spectrum is not None:  # a row id as the kernel reads it: position in partition 0
                batch[m] = np.arange(start, stop)
            yield batch

    with compute.single_threaded_blas():
        parts = [out.iloc[0] for out in kernel(batches())]
    return _unpacked(parts, cols, indicators, merge, edges, spectrum_bins)[0]


def pearson_matrix(df: DataFrame, cols: list[str]) -> pd.DataFrame:
    """m×m pairwise-complete Pearson matrix in one distributed scan.

    The Spark phase reduces the frame to per-partition co-moment matrices
    (numpy, no Catalyst codegen); the driver phase merges them and finishes
    the correlations — the paper's two-phase split.
    """
    if len(cols) == 0:
        return pd.DataFrame()
    if len(cols) == 1:
        return pd.DataFrame(np.eye(1), index=cols, columns=cols)
    return comoment_scan(df, cols).pearson()


def rank_scan(
    df: DataFrame, cols: list[str], values: list[str] = ()
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Pearson of ``values`` and Spearman of ``cols`` from one co-moment scan, no cache between.

    The scan reads the ranks of ``cols`` (``ranked``) under their names,
    beside the finite ``values`` under names longer than any column's.
    """
    names = compute.fresh_names(df.columns, len(values))
    frame = df.selectExpr(
        *map(compute.quote, cols),
        *[f"{compute.finite(compute.quote(v))} AS {n}" for v, n in zip(values, names)],
    )
    moments = comoment_scan(ranked(frame, cols), [*names, *cols])
    return moments.pearson(names, labels=values), moments.pearson(cols)


def spearman_matrix(df: DataFrame, cols: list[str], nrows: int | None = None) -> pd.DataFrame:
    """Spearman = Pearson over the average-rank transform.

    Semantics are identical on both paths: each column ranked once over its
    finite values (ties get the mean rank), then pairwise-complete Pearson
    of the ranks. Above the cell budget the ranks come from ``rank_scan``.
    """
    if len(cols) == 0:
        return pd.DataFrame()
    collected = compute.driver_values(df, cols, nrows)
    return rank_scan(df, cols)[1] if collected is None else ranked_pearson(collected.values, cols)


def ranked_pearson(pdf: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Spearman of ``cols`` from the driver-side finite values ``pdf``: the
    co-moment kernel's Pearson of pandas' average ranks, as above the budget.

    Ranked a column at a time into one block, so the driver holds one copy
    of the values beside the ranks' temporaries of a single column."""
    ranks = np.empty((len(cols), len(pdf)))
    for i, c in enumerate(cols):
        ranks[i] = pdf[c].rank(method="average").to_numpy()
    return local_comoments(pd.DataFrame(ranks.T, columns=cols, copy=False), cols).pearson()


def kendall_matrix(pdf: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Exact tau-b matrix over a (sampled) pandas frame: ``numutils.kendall_taus``,
    each pair over its own finite rows (pairwise-complete)."""
    taus = numutils.kendall_taus(pdf[cols].astype("float64").to_numpy())
    return pd.DataFrame(taus, index=cols, columns=cols)


Frame = Callable[[], pd.DataFrame]


def correlation_view(
    methods: tuple[str, ...], cols: list[str],
    sample: Frame | None, pearson: Frame | None, spearman: Frame | None,
) -> dict[str, pd.DataFrame]:
    """``{method: matrix over cols}`` for each of ``methods``: every caller's one map.

    ``pearson()``, ``spearman()`` and Kendall's finite ``sample()`` are
    called only when their method is configured (else they may be None),
    Kendall first: a caller passing Futures' ``result`` has the driver-side
    tau-b run while its Spark jobs are in flight.
    """
    kendall = kendall_matrix(sample(), cols) if "kendall" in methods else None
    matrices = {"pearson": pearson, "spearman": spearman, "kendall": lambda: kendall}
    return {m: matrix() for m, matrix in matrices.items() if m in methods}


def _kendall_sample(
    submit: Callable, df: DataFrame, cols: list[str], cfg: Config, nrows: int | None = None
) -> Frame | None:
    """Submit Kendall's sample of ``cols`` when Kendall is configured: its
    ``result``, else None. ``nrows`` (if already known) avoids a count job."""
    if "kendall" in cfg["correlation.methods"]:
        size, seed = cfg["kendall.sample_size"], cfg["compute.seed"]
        return submit(compute.finite_sample, df, cols, size, seed, nrows).result
    return None


def compute_correlation(df: DataFrame, cfg: Config) -> Intermediates:
    """``plot_correlation(df)`` — matrices for every configured method."""
    types = detect_types(df)
    cols = [c for c, t in types.items() if t is EDAType.NUMERICAL]
    methods = cfg["correlation.methods"]
    inter = Intermediates(task="correlation")
    inter["columns"] = cols
    collected = compute.driver_values(df, cols) if cols else None
    # below the cell budget: every method on the driver, over one collect
    if collected is not None or not cols:
        pdf = collected.values if cols else pd.DataFrame()
        size, seed = cfg["kendall.sample_size"], cfg["compute.seed"]
        inter.data.update(correlation_view(
            methods, cols, lambda: compute.drawn(pdf, size, seed),
            lambda: local_comoments(pdf, cols).pearson(), lambda: ranked_pearson(pdf, cols),
        ))
        return inter
    with compute.in_flight(df.sparkSession) as submit:
        pearson = submit(pearson_matrix, df, cols).result if "pearson" in methods else None
        spearman = submit(spearman_matrix, df, cols).result if "spearman" in methods else None
        sample = _kendall_sample(submit, df, cols, cfg)
        inter.data.update(correlation_view(methods, cols, sample, pearson, spearman))
    return inter


def compute_correlation_vector(df: DataFrame, col: str, cfg: Config) -> Intermediates:
    """``plot_correlation(df, col)`` — ``col`` against every other numeric (rows ``col``)."""
    if detect_type(df, col) is not EDAType.NUMERICAL:
        raise TypeError(f"plot_correlation requires a numerical column, got {col!r}")
    types = detect_types(df)
    others = [c for c, t in types.items() if t is EDAType.NUMERICAL and c != col]
    cols = [col] + others
    methods = cfg["correlation.methods"]
    inter = Intermediates(task=f"correlation:{col}")
    inter["col"] = col
    inter["columns"] = others
    with compute.in_flight(df.sparkSession) as submit:
        if "pearson" in methods or "spearman" in methods:
            scan = submit(rank_scan, df, cols, cols)
        sample = _kendall_sample(submit, df, cols, cfg)
        mats = correlation_view(
            methods, cols, sample, lambda: scan.result()[0], lambda: scan.result()[1]
        )
    inter.data.update({m: mat.loc[col, others] for m, mat in mats.items()})
    return inter


def compute_correlation_pair(df: DataFrame, c1: str, c2: str, cfg: Config) -> Intermediates:
    """``plot_correlation(df, c1, c2)`` — scatter + least-squares line.

    The row count picks the phase. Below the cell budget one collect of the
    pair's finite values gives every output on the driver: the 2×2
    co-moments (Pearson and the line), Spearman, the scatter (the complete
    pairs, ``compute.scatter_points``) and Kendall's sample (``compute.drawn``,
    as ``plot_correlation(df)`` draws it); a ``mapInPandas`` job's fixed
    cost is several times a collect of two columns. Above it the 2×2 scan,
    ``rank_scan`` and two seeded Spark samples, in flight together.
    """
    for c in (c1, c2):
        if detect_type(df, c) is not EDAType.NUMERICAL:
            raise TypeError(f"plot_correlation requires numerical columns, got {c!r}")
    cols = [c1, c2]
    methods = cfg["correlation.methods"]
    size, seed = cfg["scatter.sample_size"], cfg["compute.seed"]
    inter = Intermediates(task=f"correlation:{c1}:{c2}")
    inter["cols"] = (c1, c2)
    nrows = df.count()
    collected = compute.driver_values(df, cols, nrows)
    if collected is not None:  # below the cell budget: every output from the one collect
        pdf = collected.values
        moments = local_comoments(pdf, cols)
        mats = correlation_view(
            methods, cols, lambda: compute.drawn(pdf, cfg["kendall.sample_size"], seed),
            moments.pearson, lambda: ranked_pearson(pdf, cols),
        )
        inter["scatter"] = compute.scatter_points(pdf, size, seed)
    else:
        with compute.in_flight(df.sparkSession) as submit:
            scan = submit(comoment_scan, df, cols)
            ranks = submit(rank_scan, df, cols) if "spearman" in methods else None
            complete = " AND ".join(f"{compute.quote(c)} IS NOT NULL" for c in cols)
            pairs = compute.finite_values(df, cols).where(complete)
            scatter = submit(compute.sample_pass, pairs, cols, size, seed)
            sample = _kendall_sample(submit, df, cols, cfg, nrows)
            mats = correlation_view(
                methods, cols, sample,
                lambda: scan.result().pearson(), lambda: ranks.result()[1],
            )
            moments = scan.result()
            inter["scatter"] = compute.point_order(scatter.result())
    inter["regression"] = moments.regression(c1, c2)
    inter.data.update({m: float(mat.iloc[0, 1]) for m, mat in mats.items()})
    return inter


def plot_correlation(
    df: DataFrame,
    col1: str | None = None,
    col2: str | None = None,
    config: dict | None = None,
) -> EDAResult:
    """Task-centric correlation analysis (paper §3.2).

    * ``plot_correlation(df)`` — correlation matrices of the dataset.
    * ``plot_correlation(df, c1)`` — correlation of ``c1`` vs the others.
    * ``plot_correlation(df, c1, c2)`` — scatter with a regression line.
    """
    cfg = Config.from_user(config)
    if col1 is None and col2 is not None:
        raise ValueError("col1 must be given when col2 is")
    if col1 is None:
        inter = compute_correlation(df, cfg)
    elif col2 is None:
        inter = compute_correlation_vector(df, col1, cfg)
    else:
        inter = compute_correlation_pair(df, col1, col2, cfg)
    insights = correlation_insights(inter, cfg)
    return EDAResult(
        task=inter.task, intermediates=inter, insights=insights,
        html=render(inter, insights, cfg),
    )
