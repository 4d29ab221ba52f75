"""Normal special functions against independent library implementations."""

import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from epcovar.normal import bvn_cdf, norm_cdf, norm_pdf


class TestUnivariate:
    def test_cdf_and_pdf_match_reference(self):
        for z in np.linspace(-8, 8, 100):
            assert abs(norm_cdf(z) - ndtr(z)) < 1e-15
            assert abs(norm_pdf(z) - math.exp(-z * z / 2) / math.sqrt(2 * math.pi)) < 1e-16


class TestBivariateCdf:
    def test_independence(self):
        assert abs(bvn_cdf(0.0, 0.0, 0.0) - 0.25) < 1e-12

    def test_median_orthant_identity(self):
        # Pr(Z1 <= 0, Z2 <= 0) = 1/4 + arcsin(rho) / (2 pi)
        for rho in np.arange(-0.9, 0.91, 0.1):
            want = 0.25 + math.asin(rho) / (2 * math.pi)
            assert abs(bvn_cdf(0.0, 0.0, float(rho)) - want) < 1e-10, rho

    def test_saturation(self):
        assert abs(bvn_cdf(8.0, 8.0, 0.5) - 1.0) < 1e-12

    def test_degenerate_correlations(self):
        assert bvn_cdf(0.3, 1.0, 1.0) == norm_cdf(0.3)
        assert bvn_cdf(1.0, 0.3, 1.0) == norm_cdf(0.3)
        want = norm_cdf(0.5) - norm_cdf(-0.25)
        assert abs(bvn_cdf(0.5, 0.25, -1.0) - want) < 1e-15
        assert bvn_cdf(-1.0, 0.5, -1.0) == 0.0

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b = rng.uniform(-3, 3, 2)
            rho = float(rng.uniform(-0.95, 0.95))
            assert abs(bvn_cdf(a, b, rho) - bvn_cdf(b, a, rho)) < 1e-12

    def test_against_library_integrator(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a, b = rng.uniform(-3.5, 3.5, 2)
            rho = float(rng.uniform(-0.99, 0.99))
            ref = multivariate_normal(cov=[[1.0, rho], [rho, 1.0]]).cdf([a, b])
            assert abs(bvn_cdf(a, b, rho) - ref) < 1e-7, (a, b, rho)

    def test_marginal_consistency(self):
        # letting one argument saturate recovers the other margin
        for rho in (-0.8, 0.0, 0.6):
            for z in (-1.5, 0.0, 2.0):
                assert abs(bvn_cdf(z, 9.5, rho) - norm_cdf(z)) < 1e-10
                assert abs(bvn_cdf(9.5, z, rho) - norm_cdf(z)) < 1e-10

    def test_monotone_in_each_argument(self):
        zs = np.linspace(-3, 3, 25)
        for rho in (-0.7, 0.2, 0.9):
            vals = [bvn_cdf(float(z), 0.7, rho) for z in zs]
            assert all(a <= b + 1e-13 for a, b in zip(vals, vals[1:]))

    def test_rho_guard(self):
        with pytest.raises(ValueError):
            bvn_cdf(0.0, 0.0, 1.5)
