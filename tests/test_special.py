"""ethikit.special against scipy.special, which serves here as the oracle only."""

import warnings

import numpy as np
import pytest
from scipy import special as oracle

from ethikit.special import erf, expit


def ulps(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Distance in units of the expected value's last place."""
    return np.abs(actual - expected) / np.spacing(np.abs(expected))


class TestErfFloat32:
    grid = np.linspace(-10.0, 10.0, 2_000_001, dtype=np.float32)

    def test_max_abs_error_on_dense_grid(self):
        exact = oracle.erf(self.grid.astype(np.float64))
        assert np.abs(erf(self.grid).astype(np.float64) - exact).max() <= 5e-7

    def test_odd_and_bounded(self):
        y = erf(self.grid)
        assert y.dtype == np.float32
        assert np.array_equal(erf(-self.grid), -y)
        assert np.abs(y).max() <= 1.0

    def test_saturates_warning_free_and_propagates_nan(self):
        x = np.array([np.inf, -np.inf, 1e30, -1e30, np.nan], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = erf(x)
        assert y[:4].tolist() == [1.0, -1.0, 1.0, -1.0]
        assert np.isnan(y[4])


class TestErfFloat64:
    def test_within_2_ulp_of_scipy(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([
            np.linspace(-8.0, 8.0, 400_001),
            rng.uniform(-1.5, 1.5, 200_000),
            np.geomspace(1e-300, 1.0, 10_000),
            -np.geomspace(1e-300, 1.0, 10_000),
        ])
        exact = oracle.erf(x)
        close = ulps(erf(x), exact) <= 2
        assert close.all(), x[~close][:5]

    def test_ends_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = erf(np.array([0.0, -0.0, 6.0, 1e300, -np.inf, np.nan]))
        assert y[:5].tolist() == [0.0, 0.0, 1.0, 1.0, -1.0]
        assert np.signbit(y[1])
        assert np.isnan(y[5])


class TestExpit:
    def test_near_scipy_and_warning_free(self):
        z = np.linspace(-800.0, 800.0, 1_600_001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = expit(z)
        # scipy calls the C library's exp, while numpy's float64 exp has its
        # own SIMD kernel on some x86 CPUs. Each sigmoid is then within 2 ulp
        # of the exact value, so the two agree within 4 ulp, not 1.
        assert ulps(y, oracle.expit(z)).max() <= 4

    def test_exact_points(self):
        y = expit(np.array([0.0, -800.0, 800.0, -np.inf, np.inf]))
        assert y.tolist() == [0.5, 0.0, 1.0, 0.0, 1.0]
