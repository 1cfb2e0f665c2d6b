"""Unit tests for the numeric substrate (scipy replacements)."""
import numpy as np
import pytest

from repro.substrate import numutils

# Reference values from the standard normal table / scipy (precomputed).
PPF_CASES = [
    (0.5, 0.0),
    (0.841344746, 1.0),
    (0.158655254, -1.0),
    (0.975, 1.959963985),
    (0.025, -1.959963985),
    (0.99, 2.326347874),
    (0.01, -2.326347874),
    (0.999, 3.090232306),
    (0.001, -3.090232306),
    (0.9, 1.281551566),
    (0.1, -1.281551566),
    (0.7, 0.524400513),
    (0.3, -0.524400513),
    (0.6, 0.253347103),
    (0.0001, -3.719016485),
    (0.9999, 3.719016485),
]


@pytest.mark.parametrize("p,expected", PPF_CASES)
def test_norm_ppf_reference(p, expected):
    assert numutils.norm_ppf(p) == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("p", [0.001, 0.01, 0.1, 0.25, 0.4, 0.49])
def test_norm_ppf_symmetry(p):
    assert numutils.norm_ppf(p) == pytest.approx(-numutils.norm_ppf(1 - p), abs=1e-9)


def test_norm_ppf_extremes_and_vector():
    assert numutils.norm_ppf(0.0) == -np.inf
    assert numutils.norm_ppf(1.0) == np.inf
    assert np.isnan(numutils.norm_ppf(-0.1))
    out = numutils.norm_ppf(np.array([0.25, 0.5, 0.75]))
    assert out.shape == (3,)
    assert out[1] == pytest.approx(0.0, abs=1e-12)


def test_norm_ppf_roundtrip_with_pdf_derivative():
    # d/dp ppf(p) = 1/pdf(ppf(p)); check numerically at a few points
    for p in (0.2, 0.5, 0.8):
        eps = 1e-6
        num_deriv = (numutils.norm_ppf(p + eps) - numutils.norm_ppf(p - eps)) / (2 * eps)
        assert num_deriv == pytest.approx(1 / numutils.norm_pdf(numutils.norm_ppf(p)), rel=1e-4)


def test_norm_pdf_known():
    assert numutils.norm_pdf(0.0) == pytest.approx(0.3989422804, abs=1e-9)
    assert numutils.norm_pdf(1.0) == pytest.approx(0.2419707245, abs=1e-9)


class TestKDE:
    def test_integrates_to_one(self):
        g = np.random.default_rng(0)
        x = g.normal(0, 1, 500)
        grid = np.linspace(-6, 6, 400)
        dens = numutils.gaussian_kde(x, grid)
        assert np.trapz(dens, grid) == pytest.approx(1.0, abs=0.02)

    def test_peak_near_mode(self):
        g = np.random.default_rng(1)
        x = g.normal(5, 0.5, 1000)
        grid = np.linspace(0, 10, 200)
        dens = numutils.gaussian_kde(x, grid)
        assert abs(grid[np.argmax(dens)] - 5) < 0.5

    def test_empty_and_constant_inputs(self):
        grid = np.linspace(0, 1, 10)
        assert (numutils.gaussian_kde(np.array([]), grid) == 0).all()
        dens = numutils.gaussian_kde(np.full(50, 3.0), np.array([3.0]))
        assert np.isfinite(dens).all()

    def test_nan_filtered(self):
        x = np.array([1.0, np.nan, 2.0, np.inf, 3.0])
        dens = numutils.gaussian_kde(x, np.linspace(0, 4, 50))
        assert np.isfinite(dens).all()

    @pytest.mark.parametrize("n", [1, 7, 5_000, 40_000])
    def test_grid_blocks_equal_the_one_block_formula(self, n):
        """Each grid point's mean is the same, bit for bit, as over the whole
        grid × sample matrix at once, for one block and for many."""
        x = np.random.default_rng(n).normal(size=n)
        grid = np.linspace(-4, 4, 100)
        h = x.std(ddof=1) * n ** (-1 / 5) if n > 1 else 1.0
        want = numutils.norm_pdf((grid[:, None] - x[None, :]) / h).mean(axis=1) / h
        np.testing.assert_array_equal(numutils.gaussian_kde(x, grid), want)

    def test_memory_is_bounded_by_the_block(self):
        """100 grid points over 5,000 values peak under 2 MB, where the
        whole matrix and its temporaries take 12 MB."""
        import tracemalloc

        x = np.random.default_rng(0).normal(size=5_000)
        grid = np.linspace(-4, 4, 100)
        tracemalloc.start()
        try:
            numutils.gaussian_kde(x, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestKendall:
    def test_perfect_concordance(self):
        x = np.arange(10, dtype="float64")
        assert numutils.kendall_tau(x, x * 2 + 1) == pytest.approx(1.0)

    def test_perfect_discordance(self):
        x = np.arange(10, dtype="float64")
        assert numutils.kendall_tau(x, -x) == pytest.approx(-1.0)

    def test_hand_computed_no_ties(self):
        # pairs: (1,2),(2,1),(3,4),(4,3): C=4, D=2 -> tau = 2/6
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([2.0, 1.0, 4.0, 3.0])
        assert numutils.kendall_tau(x, y) == pytest.approx(2 / 6)

    def test_hand_computed_with_ties(self):
        # scipy.stats.kendalltau([1,2,2,3], [1,2,3,4]) = 0.912870929
        x = np.array([1.0, 2.0, 2.0, 3.0])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert numutils.kendall_tau(x, y) == pytest.approx(0.9128709, abs=1e-6)

    def test_nan_pairs_dropped(self):
        x = np.array([1.0, 2.0, np.nan, 3.0, 4.0])
        y = np.array([1.0, 2.0, 5.0, 3.0, np.nan])
        assert numutils.kendall_tau(x, y) == pytest.approx(1.0)

    def test_degenerate(self):
        assert np.isnan(numutils.kendall_tau(np.array([1.0]), np.array([2.0])))
        assert np.isnan(numutils.kendall_tau(np.full(5, 1.0), np.arange(5.0)))

    def test_symmetry(self):
        g = np.random.default_rng(3)
        x, y = g.random(40), g.random(40)
        assert numutils.kendall_tau(x, y) == pytest.approx(numutils.kendall_tau(y, x))


class TestUniformity:
    def test_uniform_counts_score_zero(self):
        assert numutils.uniformity_pvalue_stat(np.full(10, 100)) == pytest.approx(0.0)

    def test_concentrated_counts_score_one(self):
        c = np.zeros(10)
        c[0] = 1000
        assert numutils.uniformity_pvalue_stat(c) == pytest.approx(1.0)

    def test_monotone_in_concentration(self):
        near = numutils.uniformity_pvalue_stat(np.array([100, 110, 90, 105, 95]))
        far = numutils.uniformity_pvalue_stat(np.array([300, 50, 50, 50, 50]))
        assert near < far

    def test_degenerate(self):
        assert np.isnan(numutils.uniformity_pvalue_stat(np.array([5])))
        assert np.isnan(numutils.uniformity_pvalue_stat(np.zeros(4)))
