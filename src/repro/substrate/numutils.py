"""Numeric kernels replacing scipy/statsmodels (not installed here).

All kernels are pure numpy, deterministic, and operate on *small* driver-side
arrays — they belong to the "pandas Computation" phase of the pipeline
(paper §5.2), never to the distributed phase.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "norm_ppf",
    "norm_pdf",
    "gaussian_kde",
    "kendall_tau",
    "kendall_taus",
    "ks_distance",
    "total_variation",
    "uniformity_pvalue_stat",
]


def norm_pdf(x: np.ndarray | float) -> np.ndarray | float:
    """Standard normal density."""
    return np.exp(-0.5 * np.asarray(x, dtype="float64") ** 2) / np.sqrt(2 * np.pi)


def norm_ppf(p: np.ndarray | float) -> np.ndarray | float:
    """Inverse standard-normal CDF via Acklam's rational approximation.

    Absolute error < 1.15e-9 over (0, 1) — more than enough for Q-Q plots.
    Replaces ``scipy.stats.norm.ppf``. Returns ±inf at 0/1 and nan outside.
    """
    p = np.asarray(p, dtype="float64")
    scalar = p.ndim == 0
    p = np.atleast_1d(p).copy()

    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    p_low, p_high = 0.02425, 1 - 0.02425

    out = np.full_like(p, np.nan)
    out[p == 0] = -np.inf
    out[p == 1] = np.inf

    lo = (0 < p) & (p < p_low)
    if lo.any():
        q = np.sqrt(-2 * np.log(p[lo]))
        out[lo] = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    mid = (p_low <= p) & (p <= p_high)
    if mid.any():
        q = p[mid] - 0.5
        r = q * q
        out[mid] = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    hi = (p_high < p) & (p < 1)
    if hi.any():
        q = np.sqrt(-2 * np.log(1 - p[hi]))
        out[hi] = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    return out[0] if scalar else out


#: grid × sample cells one block of ``gaussian_kde`` holds per array
_KDE_CELLS = 1 << 15


def gaussian_kde(samples: np.ndarray, grid: np.ndarray, bandwidth: float | None = None) -> np.ndarray:
    """Gaussian kernel density estimate of ``samples`` evaluated on ``grid``.

    Bandwidth defaults to Scott's rule (``n**(-1/5) * std``), matching the
    scipy default the paper's KDE plot relies on. Vectorized O(n·g) —
    intended for sampled/driver-side data only. The grid runs in blocks of
    rows of about ``_KDE_CELLS`` grid × sample cells; each grid point's mean
    is the same as over the whole matrix at once.
    """
    x = np.asarray(samples, dtype="float64")
    x = x[np.isfinite(x)]
    if x.size == 0:
        return np.zeros_like(grid, dtype="float64")
    std = x.std(ddof=1) if x.size > 1 else 1.0
    if std == 0 or not np.isfinite(std):
        std = 1.0
    h = bandwidth if bandwidth is not None else std * x.size ** (-1 / 5)
    if h <= 0 or not np.isfinite(h):
        h = 1.0
    grid = np.asarray(grid, dtype="float64")
    blocks = np.array_split(grid, max(1, min(grid.size, grid.size * x.size // _KDE_CELLS)))
    return np.concatenate([norm_pdf((g[:, None] - x[None, :]) / h).mean(axis=1) for g in blocks]) / h


#: rows × pairs one chunk of ``kendall_taus`` holds per array: its memory bound
_KENDALL_CELLS = 1 << 14


def kendall_taus(values: np.ndarray) -> np.ndarray:
    """Kendall's tau-b of every pair of columns of ``values`` (rows × columns),
    as a matrix with a unit diagonal. Each pair reads the rows where both
    values are finite (pairwise-complete, as ``pandas.DataFrame.corr``); it
    is NaN under two such rows or when a side is constant.

    Knight's O(n log n) method (JASA 61(314), 1966): sort a pair's rows by
    (x, y), count the pairs tied in x (n1), in y (n2) and in both (n3) from
    run lengths, and the discordant pairs as the inversions of y; then
    ``tau-b = (n0 − n1 − n2 + n3 − 2·inversions) / √((n0 − n1)(n0 − n2))``.
    The pairs run in chunks of about ``_KENDALL_CELLS`` rows × pairs, so
    memory is bounded by the chunk, not by n².
    """
    v = np.asarray(values, dtype="float64")
    n, finite = len(v), np.isfinite(v)
    left, right = np.triu_indices(v.shape[1], k=1)
    # dense ranks: the order of the finite values, each below n
    ranks = np.zeros(v.shape, dtype="int64")
    for j, column in enumerate(v.T):
        ranks[:, j] = np.unique(column, return_inverse=True)[1]
    taus = np.eye(v.shape[1])
    width = 1 << (n - 1).bit_length()
    step = max(1, _KENDALL_CELLS // width)
    for s in range(0, left.size, step):
        a, b = left[s:s + step], right[s:s + step]
        ok = (finite[:, a] & finite[:, b]).T
        # a row with a missing value sorts last, as (n, n); so does the padding
        key = np.where(ok, ranks[:, a].T * (n + 1) + ranks[:, b].T, (n + 1) ** 2 - 1)
        key = np.pad(key, ((0, 0), (0, width - n)), constant_values=(n + 1) ** 2 - 1)
        key.sort(axis=1)
        x, y = np.divmod(key, n + 1)
        inversions, y = _merge_count(y)
        k = ok.sum(axis=1)
        n0 = k * (k - 1) // 2
        n1, n2, n3 = (_tied_pairs(t, k) for t in (x, y, key))
        denom = np.sqrt((n0 - n1).astype("float64") * (n0 - n2))
        with np.errstate(invalid="ignore", divide="ignore"):
            tau = np.where(denom > 0, (n0 - n1 - n2 + n3 - 2 * inversions) / denom, np.nan)
        taus[a, b] = taus[b, a] = tau
    return taus


def _tied_pairs(s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Σ t(t − 1)/2 over the runs of equal values in the first ``k[r]`` of
    each sorted row ``s[r]``: each value counts the equal ones before it."""
    pos = np.arange(s.shape[1])
    first = np.maximum.accumulate(np.where(np.diff(s, prepend=-1) != 0, pos, 0), axis=1)
    return np.where(pos < k[:, None], pos - first, 0).sum(axis=1)


def _merge_count(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``y`` (rows × a power of two), the count of ``i < j`` with
    ``y[i] > y[j]``, and the rows sorted: a bottom-up merge sort.

    Each level merges adjacent sorted runs of width ``w`` with one stable
    argsort (a timsort, so one merge per pair of runs) over every row at
    once. A right-run value that lands at ``p`` from index ``w + j`` has
    ``p − j`` left values before it, so ``order[p] − p`` above it.
    """
    rows, width = y.shape
    count = np.zeros(rows, dtype="int64")
    w = 1
    while w < width:
        runs = y.reshape(-1, 2 * w)
        order = runs.argsort(axis=1, kind="stable")
        count += np.where(order >= w, order - np.arange(2 * w), 0).reshape(rows, -1).sum(axis=1)
        y = np.take_along_axis(runs, order, axis=1).reshape(rows, width)
        w *= 2
    return count, y


def kendall_tau(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b of ``x`` and ``y``: ``kendall_taus`` of the one pair."""
    return float(kendall_taus(np.column_stack([x, y]))[0, 1])


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest gap between the CDFs of two count vectors over the same bins.

    ``max |cumsum(a)/Σa − cumsum(b)/Σb|``; NaN when either side is empty.
    """
    a, b = np.asarray(a, dtype="float64"), np.asarray(b, dtype="float64")
    if not (a.sum() and b.sum()):
        return float("nan")
    return float(np.abs(np.cumsum(a) / a.sum() - np.cumsum(b) / b.sum()).max())


def total_variation(a: np.ndarray, b: np.ndarray) -> float:
    """Total-variation distance ``½·Σ|a/Σa − b/Σb|`` of two count vectors; NaN
    when either side is empty."""
    a, b = np.asarray(a, dtype="float64"), np.asarray(b, dtype="float64")
    if not (a.sum() and b.sum()):
        return float("nan")
    return float(0.5 * np.abs(a / a.sum() - b / b.sum()).sum())


def uniformity_pvalue_stat(counts: np.ndarray) -> float:
    """Normalized chi-square statistic against the uniform distribution.

    Returns chi²/(N·(k-1)) ∈ [0, 1]-ish (Cramér's-V²-style normalization);
    small values ⇒ near-uniform. Drives the 'uniform' insight without
    needing a chi-square CDF (scipy-free).
    """
    c = np.asarray(counts, dtype="float64")
    c = c[np.isfinite(c)]
    k, total = c.size, c.sum()
    if k < 2 or total == 0:
        return float("nan")
    expected = total / k
    with np.errstate(invalid="ignore", over="ignore"):
        chi2 = float(((c - expected) ** 2 / expected).sum())
    return chi2 / (total * (k - 1))

