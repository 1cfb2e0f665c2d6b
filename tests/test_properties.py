"""Property-based tests (hypothesis) for the numeric substrate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.substrate import numutils

from .test_correlation import kendall_oracle

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=50, deadline=None)
def test_ppf_is_inverse_monotone(p):
    x = numutils.norm_ppf(p)
    assert np.isfinite(x)
    # monotone: a slightly larger p gives a larger quantile
    assert numutils.norm_ppf(min(p + 1e-7, 1 - 1e-9)) >= x - 1e-6


@given(arrays(np.float64, st.integers(2, 30), elements=finite_floats))
@settings(max_examples=30, deadline=None)
def test_kendall_bounded_and_self_tau(x):
    tau = numutils.kendall_tau(x, x)
    if np.unique(x).size > 1:
        assert tau == 1.0
    t2 = numutils.kendall_tau(x, x[::-1].copy())
    assert np.isnan(t2) or -1.0 - 1e-9 <= t2 <= 1.0 + 1e-9


tie_heavy = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([np.nan, np.inf, -np.inf]))


@given(arrays(np.float64, st.tuples(st.integers(0, 60), st.integers(1, 4)), elements=tie_heavy))
@settings(max_examples=60, deadline=None)
def test_kendall_kernel_equals_the_pairwise_oracle(values):
    """Every pair's tau-b equals the O(k²) oracle on tie-heavy columns with
    missing values, each pair over its own finite rows."""
    got = numutils.kendall_taus(values)
    for a, b in zip(*np.triu_indices(values.shape[1], k=1)):
        want = kendall_oracle(values[:, a], values[:, b])
        for tau in (got[a, b], got[b, a]):
            assert tau == pytest.approx(want, rel=0, abs=1e-12, nan_ok=True)


@given(arrays(np.float64, st.integers(2, 20), elements=st.floats(0, 1e6, allow_nan=False)))
@settings(max_examples=30, deadline=None)
def test_uniformity_nonnegative(counts):
    u = numutils.uniformity_pvalue_stat(counts)
    assert np.isnan(u) or u >= 0


@given(arrays(np.float64, st.integers(5, 50), elements=finite_floats), st.floats(0.1, 10))
@settings(max_examples=30, deadline=None)
def test_kde_nonnegative_everywhere(x, bw):
    grid = np.linspace(-10, 10, 30)
    dens = numutils.gaussian_kde(x, grid, bandwidth=bw)
    assert (dens >= 0).all()
    assert np.isfinite(dens).all()
