"""Closed-form risk expressions: frozen values, branch logic, and oracles.

Frozen expected values were computed from independent sources (the inverse
normal CDF from scipy, hand-evaluated arithmetic) and are asserted at 1e-12.
The parameter-space minimizer ``numeric_posterior_params`` (in ``_oracles``)
serves as the independent oracle for every closed form, and
``paper_spillover`` holds the paper's spillover expressions; Monte-Carlo
conditional quantiles back the value-view root finder.
"""

import math
import zlib
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import ndtri

from _oracles import numeric_posterior_params, paper_spillover
from epcovar import analytics
from epcovar.analytics import (
    _CLOSED_FORMS,
    BivariateNormalParams,
    covar_for_view,
    delta_covar_view,
    kl_bivariate_normal,
    posterior_y_cdf,
    var_normal,
    var_normal_x,
)
from epcovar.errors import NumericDomainError
from epcovar.views import (
    KINDS,
    correlation_view,
    distribution_view,
    expectation_view,
    mean_variance_view,
    no_view,
    quantile_view,
    relative_view,
    value_view,
    variance_view,
)

Z95 = 1.6448536269514722  # inverse normal CDF at 0.95, cross-checked below

# sensitivity-figure parameter sets used throughout
P_WIDE = BivariateNormalParams(0.10, 0.02, 0.10, 0.08, 0.5)      # mu/sigma set A
P_WIDE8 = BivariateNormalParams(0.10, 0.02, 0.10, 0.08, 0.8)
P_QUANT = BivariateNormalParams(0.30, 0.02, 0.08, 0.05, 0.6)     # mu/sigma set B
P_CORR = BivariateNormalParams(0.10, 0.02, 0.05, 0.01, 0.6)      # mu/sigma set C


def random_params(rng, rho=None):
    return BivariateNormalParams(
        mu_x=float(rng.normal(0.0, 0.2)),
        mu_y=float(rng.normal(0.0, 0.2)),
        sigma_x=float(rng.uniform(0.02, 0.4)),
        sigma_y=float(rng.uniform(0.02, 0.4)),
        rho=float(rng.uniform(-0.95, 0.95)) if rho is None else rho,
    )


class TestVarNormal:
    def test_median_is_the_mean(self):
        assert var_normal(P_WIDE, 0.5) == pytest.approx(0.02, abs=1e-15)

    def test_frozen_value(self):
        assert abs(Z95 - ndtri(0.95)) < 1e-14
        assert abs(var_normal(P_WIDE, 0.95) - 0.15158829015611778) < 1e-12

    def test_alpha_guards(self):
        for bad in (0.0, 1.0, 1.2):
            with pytest.raises(ValueError):
                var_normal(P_WIDE, bad)


class TestKlBivariateNormal:
    def test_zero_at_identity(self):
        assert kl_bivariate_normal(P_WIDE, P_WIDE) == pytest.approx(0.0, abs=1e-14)

    def test_pure_mean_shift(self):
        prior = BivariateNormalParams(0.0, 0.0, 0.3, 0.2, 0.0)
        post = replace(prior, mu_x=0.3)  # one prior standard deviation
        assert abs(kl_bivariate_normal(post, prior) - 0.5) < 1e-12

    def test_asymmetry(self):
        a = BivariateNormalParams(0.0, 0.0, 1.0, 1.0, 0.2)
        b = BivariateNormalParams(0.3, -0.1, 1.4, 0.8, -0.4)
        assert kl_bivariate_normal(a, b) != kl_bivariate_normal(b, a)

    def test_matches_matrix_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            prior = random_params(rng)
            post = random_params(rng)
            got = kl_bivariate_normal(post, prior)
            s = np.array(
                [
                    [prior.sigma_x**2, prior.rho * prior.sigma_x * prior.sigma_y],
                    [prior.rho * prior.sigma_x * prior.sigma_y, prior.sigma_y**2],
                ]
            )
            st = np.array(
                [
                    [post.sigma_x**2, post.rho * post.sigma_x * post.sigma_y],
                    [post.rho * post.sigma_x * post.sigma_y, post.sigma_y**2],
                ]
            )
            dm = np.array([post.mu_x - prior.mu_x, post.mu_y - prior.mu_y])
            si = np.linalg.inv(s)
            want = 0.5 * (
                np.trace(si @ st) - 2.0 + dm @ si @ dm
                + math.log(np.linalg.det(s) / np.linalg.det(st))
            )
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_singular_prior_rejected(self):
        singular = BivariateNormalParams(0.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(NumericDomainError):
            kl_bivariate_normal(P_WIDE, singular)

    def test_singular_posterior_diverges(self):
        post = BivariateNormalParams(0.0, 0.0, 1.0, 1.0, 1.0)
        prior = BivariateNormalParams(0.0, 0.0, 1.0, 1.0, 0.0)
        assert kl_bivariate_normal(post, prior) == math.inf


class TestExpectationView:
    def test_no_new_information_at_prior_mean(self):
        out = covar_for_view(P_WIDE, expectation_view(P_WIDE.mu_x), 0.95)
        assert out.collapsed_to_var
        assert out.covar == var_normal(P_WIDE, 0.95)

    def test_uncorrelated_assets_are_unaffected(self):
        p0 = replace(P_WIDE, rho=0.0)
        out = covar_for_view(p0, expectation_view(0.7), 0.95)
        assert out.collapsed_to_var
        assert out.covar == var_normal(p0, 0.95)

    def test_frozen_value(self):
        out = covar_for_view(P_WIDE, expectation_view(0.20), 0.95)
        # 0.02 + 0.5 * 0.10 * (0.08 / 0.10) + 0.08 * z95
        assert abs(out.covar - 0.19158829015611778) < 1e-12
        assert out.posterior == BivariateNormalParams(0.20, 0.06, 0.10, 0.08, 0.5)

    def test_affine_in_view_mean(self):
        mus = np.linspace(-0.3, 0.5, 41)
        covars = [covar_for_view(P_WIDE, expectation_view(float(m)), 0.95).covar for m in mus]
        diffs = np.diff(covars)
        assert np.all(np.abs(diffs - diffs[0]) < 1e-10)
        slope = diffs[0] / (mus[1] - mus[0])
        assert abs(slope - P_WIDE.rho * P_WIDE.sigma_y / P_WIDE.sigma_x) < 1e-9

    def test_inequality_branches(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = random_params(rng)
            m1 = float(rng.normal(0.0, 0.3))
            expect_eq = covar_for_view(p, expectation_view(m1), 0.95).covar
            le = covar_for_view(p, expectation_view(m1, "le"), 0.95)
            ge = covar_for_view(p, expectation_view(m1, "ge"), 0.95)
            if p.mu_x <= m1:
                assert le.collapsed_to_var and le.covar == var_normal(p, 0.95)
                assert ge.covar == expect_eq
            else:
                assert le.covar == expect_eq
                assert ge.collapsed_to_var and ge.covar == var_normal(p, 0.95)


class TestVarianceView:
    def test_no_new_information_at_prior_variance(self):
        out = covar_for_view(P_WIDE, variance_view(P_WIDE.sigma_x**2), 0.95)
        assert out.collapsed_to_var and out.covar == var_normal(P_WIDE, 0.95)

    def test_uncorrelated_assets_unaffected(self):
        p0 = replace(P_WIDE, rho=0.0)
        out = covar_for_view(p0, variance_view(5.0), 0.95)
        assert out.collapsed_to_var and out.covar == var_normal(p0, 0.95)

    def test_frozen_value(self):
        out = covar_for_view(P_WIDE8, variance_view(0.02), 0.95)
        # 0.02 + 0.08 * sqrt(0.36 + 0.64 * 2) * z95
        assert abs(out.covar - 0.18851523401219683) < 1e-12

    def test_monotone_in_view_variance(self):
        for rho in (-0.8, -0.3, 0.4, 0.9):
            p = replace(P_WIDE, rho=rho)
            levels = np.linspace(0.002, 0.05, 30)
            covars = [covar_for_view(p, variance_view(float(s)), 0.95).covar for s in levels]
            assert all(a <= b + 1e-15 for a, b in zip(covars, covars[1:]))

    def test_inequality_branches(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = random_params(rng)
            s1 = float(rng.uniform(0.0004, 0.2))
            eq = covar_for_view(p, variance_view(s1), 0.95).covar
            le = covar_for_view(p, variance_view(s1, "le"), 0.95)
            ge = covar_for_view(p, variance_view(s1, "ge"), 0.95)
            if p.sigma_x**2 <= s1:
                assert le.collapsed_to_var and le.covar == var_normal(p, 0.95)
                assert ge.covar == eq
            else:
                assert le.covar == eq
                assert ge.collapsed_to_var and ge.covar == var_normal(p, 0.95)

    def test_guard(self):
        with pytest.raises(ValueError):
            covar_for_view(P_WIDE, variance_view(-0.1), 0.95)


class TestMeanVarianceView:
    def test_no_information(self):
        out = covar_for_view(P_WIDE, mean_variance_view(P_WIDE.mu_x, P_WIDE.sigma_x**2), 0.95)
        assert out.collapsed_to_var and out.covar == var_normal(P_WIDE, 0.95)

    def test_frozen_value(self):
        out = covar_for_view(P_WIDE, mean_variance_view(0.20, 0.02), 0.95)
        # 0.06 + 0.08 * sqrt(0.75 + 0.25 * 2) * z95
        assert abs(out.covar - 0.2071201809160229) < 1e-12

    def test_decomposition_identity(self):
        # combined + VaR = expectation-only + variance-only, exactly
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(1000):
            p = random_params(rng)
            m1 = float(rng.normal(0.0, 0.3))
            s1 = float(rng.uniform(0.0004, 0.2))
            lhs = covar_for_view(p, mean_variance_view(m1, s1), 0.95).covar + var_normal(p, 0.95)
            rhs = (
                covar_for_view(p, expectation_view(m1), 0.95).covar
                + covar_for_view(p, variance_view(s1), 0.95).covar
            )
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12


class TestQuantileView:
    def test_uncorrelated_assets_unaffected(self):
        p0 = replace(P_QUANT, rho=0.0)
        out = covar_for_view(p0, quantile_view(0.9, 0.95), 0.95)
        assert out.collapsed_to_var and out.covar == var_normal(p0, 0.95)

    def test_perfect_correlation_is_linear(self):
        p1 = replace(P_QUANT, rho=1.0)
        for q1 in (0.35, 0.45, 0.55):
            got = covar_for_view(p1, quantile_view(q1, 0.95), 0.95).covar
            want = p1.mu_y + (q1 - p1.mu_x) * p1.sigma_y / p1.sigma_x
            assert abs(got - want) < 1e-12

    def test_posterior_reproduces_the_value(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = random_params(rng)
            q1 = float(p.mu_x + p.sigma_x * rng.uniform(-1.0, 4.0))
            out = covar_for_view(p, quantile_view(q1, 0.95), 0.95)
            rebuilt = out.posterior.mu_y + out.posterior.sigma_y * ndtri(0.95)
            assert abs(rebuilt - out.covar) < 1e-12
            assert abs(out.posterior.mu_x + out.posterior.sigma_x * ndtri(0.95) - q1) < 1e-10

    def test_matches_a_50_digit_evaluation_of_the_paper_expression(self):
        # the paper's quantile-view CoVaR, evaluated from the same float
        # inputs and z(alpha) in 50-digit decimal arithmetic
        rng = np.random.default_rng(24)
        c = Decimal(float(ndtri(0.95)))
        worst = Decimal(0)
        with localcontext() as ctx:
            ctx.prec = 50
            for _ in range(200):
                p = random_params(rng, rho=float(rng.uniform(-0.99, 0.99)))
                q1 = float(var_normal_x(p, 0.95) + p.sigma_x * rng.uniform(-1.0, 4.0))
                mx, my, sx, sy, r, q = map(
                    Decimal, (p.mu_x, p.mu_y, p.sigma_x, p.sigma_y, p.rho, q1)
                )
                q_x = mx + sx * c
                t = ((q - q_x) / sx + c) * c
                k = 1 + c * c
                sy_post = sy * (
                    (1 + (1 - r * r) * c * c) / k
                    + r * r * t * (t + (t * t + 4 * k).sqrt()) / (2 * k * k)
                ).sqrt()
                root = (sy_post * sy_post - (1 - r * r) * sy * sy).sqrt()
                sign = -1 if r >= 0 else 1
                want = my + r * (q - q_x) * sy / sx + (sy_post + sign * root + r * sy) * c
                got = covar_for_view(p, quantile_view(q1, 0.95), 0.95).covar
                worst = max(worst, abs(Decimal(got) - want) / sy)
        assert worst <= Decimal("4e-15"), worst

    def test_spread_far_below_the_prior_quantile_matches_50_digits(self):
        # below mu_X the paper's t + sqrt(t^2 + 4k) cancels; the posterior
        # sigma_X against its 50-digit evaluation from the same float inputs
        p = BivariateNormalParams(0.0, 0.0, 1.0, 1.0, 0.5)
        worst = Decimal(0)
        with localcontext() as ctx:
            ctx.prec = 50
            for alpha in (0.9, 0.95, 0.99):
                c = Decimal(float(ndtri(alpha)))
                for below in (2.0, 10.0, 30.0, 100.0, 1e4):
                    q1 = var_normal_x(p, alpha) - p.sigma_x * below
                    mx, sx, q = map(Decimal, (p.mu_x, p.sigma_x, q1))
                    t = ((q - (mx + sx * c)) / sx + c) * c
                    k = 1 + c * c
                    want = sx * (1 / k + t * (t + (t * t + 4 * k).sqrt()) / (2 * k * k)).sqrt()
                    got = covar_for_view(p, quantile_view(q1, alpha), alpha).posterior.sigma_x
                    worst = max(worst, abs(Decimal(got) - want) / want)
        assert worst <= Decimal("4e-15"), worst

    def test_frozen_value_and_oracle(self):
        out = covar_for_view(P_QUANT, quantile_view(0.45, 0.95), 0.95)
        assert abs(out.covar - 0.10759472844572057) < 1e-12
        orc = numeric_posterior_params(P_QUANT, quantile_view(0.45, 0.95), 0.95)
        assert abs(orc.mu_y + orc.sigma_y * Z95 - out.covar) <= 1e-3 * P_QUANT.sigma_y

    def test_inequality_branches(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            p = random_params(rng)
            q_x = var_normal_x(p, 0.95)
            q1 = float(q_x + p.sigma_x * rng.normal())
            eq = covar_for_view(p, quantile_view(q1, 0.95), 0.95).covar
            le = covar_for_view(p, quantile_view(q1, 0.95, "le"), 0.95)
            ge = covar_for_view(p, quantile_view(q1, 0.95, "ge"), 0.95)
            if q_x <= q1:
                assert le.collapsed_to_var and le.covar == var_normal(p, 0.95)
                assert ge.covar == eq
            else:
                assert le.covar == eq
                assert ge.collapsed_to_var and ge.covar == var_normal(p, 0.95)


class TestCorrelationView:
    def test_no_new_information(self):
        out = covar_for_view(P_CORR, correlation_view(P_CORR.rho), 0.95)
        assert out.collapsed_to_var and out.covar == var_normal(P_CORR, 0.95)

    def test_independent_prior_unaffected(self):
        p0 = replace(P_CORR, rho=0.0)
        for r1 in (-0.9, 0.2, 0.99):
            out = covar_for_view(p0, correlation_view(r1), 0.95)
            assert out.collapsed_to_var and out.covar == var_normal(p0, 0.95)

    def test_frozen_value(self):
        out = covar_for_view(P_CORR, correlation_view(0.9), 0.95)
        # 0.02 + 0.01 * sqrt(0.64 / 0.46) * z95
        assert abs(out.covar - 0.0394016349076962) < 1e-12

    def test_boundary_conventions(self):
        both_one = BivariateNormalParams(0.0, 0.0, 1.0, 0.5, 1.0)
        out = covar_for_view(both_one, correlation_view(1.0), 0.95)
        assert out.collapsed_to_var and out.covar == var_normal(both_one, 0.95)
        # prior at the boundary, view elsewhere: spread collapses to zero
        out = covar_for_view(both_one, correlation_view(0.5), 0.95)
        assert out.covar == both_one.mu_y and out.posterior is None
        # view at the boundary, prior interior: the continuity value
        out = covar_for_view(P_CORR, correlation_view(1.0), 0.95)
        want = P_CORR.mu_y + P_CORR.sigma_y * math.sqrt(
            (1 - P_CORR.rho**2) / (1 - P_CORR.rho)
        ) * Z95
        assert abs(out.covar - want) < 1e-14
        opposite = BivariateNormalParams(0.0, 0.0, 1.0, 0.5, -1.0)
        out = covar_for_view(opposite, correlation_view(1.0), 0.95)
        assert out.covar == opposite.mu_y

    def test_monotone_direction_switches_with_prior_sign(self):
        grid = np.linspace(-0.95, 0.95, 39)
        pos = [covar_for_view(replace(P_CORR, rho=0.6), correlation_view(float(r)), 0.95).covar
               for r in grid]
        assert all(a <= b + 1e-14 for a, b in zip(pos, pos[1:]))
        neg = [covar_for_view(replace(P_CORR, rho=-0.6), correlation_view(float(r)), 0.95).covar
               for r in grid]
        assert all(a >= b - 1e-14 for a, b in zip(neg, neg[1:]))

    def test_inequality_branches(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            p = random_params(rng)
            r1 = float(rng.uniform(-0.95, 0.95))
            eq = covar_for_view(p, correlation_view(r1), 0.95).covar
            le = covar_for_view(p, correlation_view(r1, "le"), 0.95)
            ge = covar_for_view(p, correlation_view(r1, "ge"), 0.95)
            if p.rho <= r1:
                assert le.collapsed_to_var and le.covar == var_normal(p, 0.95)
                assert ge.covar == eq
            else:
                assert le.covar == eq
                assert ge.collapsed_to_var and ge.covar == var_normal(p, 0.95)

    def test_inequality_at_unit_prior_correlation(self):
        # binding a "le" view against a prior at the +1 boundary collapses
        # the posterior spread entirely
        unit = BivariateNormalParams(0.0, 0.01, 1.0, 0.5, 1.0)
        out = covar_for_view(unit, correlation_view(0.5, "le"), 0.95)
        assert out.covar == unit.mu_y
        assert out.posterior is None
        assert out.branch == "le-binding"
        ge = covar_for_view(unit, correlation_view(0.5, "ge"), 0.95)
        assert ge.collapsed_to_var and ge.covar == var_normal(unit, 0.95)


class TestValueView:
    def test_saturated_half_line_collapses(self):
        out = covar_for_view(P_WIDE, value_view(P_WIDE.mu_x + 10 * P_WIDE.sigma_x, "le"), 0.95)
        assert out.collapsed_to_var and out.covar == var_normal(P_WIDE, 0.95)
        out = covar_for_view(P_WIDE, value_view(P_WIDE.mu_x - 10 * P_WIDE.sigma_x, "ge"), 0.95)
        assert out.collapsed_to_var and out.covar == var_normal(P_WIDE, 0.95)

    def test_traditional_conditioning_reduces_to_var_when_independent(self):
        p0 = replace(P_WIDE, rho=0.0)
        out = covar_for_view(p0, value_view(var_normal_x(p0, 0.95)), 0.95)
        assert abs(out.covar - var_normal(p0, 0.95)) < 1e-15

    def test_half_line_roots_match_monte_carlo(self):
        rng = np.random.default_rng(17)
        n = 2_000_000
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        p = P_WIDE
        x = p.mu_x + p.sigma_x * z1
        y = p.mu_y + p.sigma_y * (p.rho * z1 + math.sqrt(1 - p.rho**2) * z2)
        for relation, mask in (("ge", x >= p.mu_x), ("le", x <= p.mu_x)):
            got = covar_for_view(p, value_view(p.mu_x, relation), 0.95).covar
            sample = np.sort(y[mask])
            m = sample.size
            band = 3.0 * math.sqrt(0.95 * 0.05 / m)
            lo = sample[int(math.floor((0.95 - band) * m))]
            hi = sample[int(math.ceil((0.95 + band) * m))]
            assert lo <= got <= hi, (relation, lo, got, hi)

    def test_point_conditioning_never_exceeds_mean_view(self):
        # conditioning on X = m kills X's spread, so the implied risk is
        # below the mean-view risk, with equality only when uncorrelated
        m1 = 0.25
        gaps = []
        for rho in (0.0, 0.2, 0.5, 0.7, 0.9):
            p = replace(P_WIDE, rho=rho)
            point = covar_for_view(p, value_view(m1), 0.95).covar
            mean = covar_for_view(p, expectation_view(m1), 0.95).covar
            assert point <= mean + 1e-15
            gaps.append(mean - point)
            if rho == 0.0:
                assert abs(mean - point) < 1e-15
        assert all(a <= b + 1e-15 for a, b in zip(gaps, gaps[1:]))
        mirror = [
            covar_for_view(replace(P_WIDE, rho=-r), expectation_view(m1), 0.95).covar
            - covar_for_view(replace(P_WIDE, rho=-r), value_view(m1), 0.95).covar
            for r in (0.0, 0.2, 0.5, 0.7, 0.9)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(mirror, mirror[1:]))

    def test_domain_errors(self):
        with pytest.raises(NumericDomainError, match="at or below"):
            covar_for_view(P_WIDE, value_view(P_WIDE.mu_x - 10 * P_WIDE.sigma_x, "le"), 0.95)
        with pytest.raises(NumericDomainError, match="at or above"):
            covar_for_view(P_WIDE, value_view(P_WIDE.mu_x + 10 * P_WIDE.sigma_x, "ge"), 0.95)


class TestRelativeView:
    def test_volatility_ratio_collapse(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            sx = float(rng.uniform(0.05, 0.4))
            rho = float(rng.uniform(0.1, 0.9))
            p = BivariateNormalParams(0.1, 0.05, sx, rho * sx, rho)
            d = float(rng.normal(0.0, 0.2))
            s_sq = float(rng.uniform(0.001, 0.1))
            out = covar_for_view(p, relative_view(d, s_sq), 0.95)
            assert out.collapsed_to_var
            assert out.covar == var_normal(p, 0.95)

    def test_prior_law_restatement_collapses(self):
        p = P_WIDE
        v = p.sigma_x**2 - 2 * p.rho * p.sigma_x * p.sigma_y + p.sigma_y**2
        out = covar_for_view(p, relative_view(p.mu_x - p.mu_y, v), 0.95)
        assert out.collapsed_to_var and out.covar == var_normal(p, 0.95)

    def test_monotone_in_mean_difference(self):
        p = BivariateNormalParams(0.1, 0.05, 0.1, 0.05, 0.9)  # rho > sy/sx
        ds = np.linspace(-0.3, 0.3, 50)
        covars = [covar_for_view(p, relative_view(float(d), 0.01), 0.95).covar for d in ds]
        assert all(a < b for a, b in zip(covars, covars[1:]))
        p2 = BivariateNormalParams(0.1, 0.05, 0.1, 0.08, 0.2)  # rho < sy/sx
        covars = [covar_for_view(p2, relative_view(float(d), 0.01), 0.95).covar for d in ds]
        assert all(a > b for a, b in zip(covars, covars[1:]))

    def test_degenerate_difference_guard(self):
        p = BivariateNormalParams(0.0, 0.0, 0.1, 0.1, 1.0)
        with pytest.raises(NumericDomainError):
            covar_for_view(p, relative_view(0.0, 0.01), 0.95)

    def test_guard_on_view_variance(self):
        with pytest.raises(ValueError):
            covar_for_view(P_WIDE, relative_view(0.0, 0.0), 0.95)


class TestDeltaCovar:
    def test_no_spillover_without_correlation(self):
        p0 = replace(P_WIDE, rho=0.0)
        assert delta_covar_view(p0, expectation_view(0.7), 0.95) == 0.0

    def test_combined_view_splits_exactly(self):
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(1000):
            p = random_params(rng)
            m1 = float(rng.normal(0.0, 0.3))
            s1 = float(rng.uniform(0.0004, 0.2))
            combined = delta_covar_view(p, mean_variance_view(m1, s1), 0.95)
            split = delta_covar_view(p, expectation_view(m1), 0.95) + delta_covar_view(
                p, variance_view(s1), 0.95
            )
            worst = max(worst, abs(combined - split))
        assert worst <= 1e-12

    def test_traditional_condition_frozen_value_and_bound(self):
        level = var_normal_x(P_WIDE, 0.95)
        got = delta_covar_view(P_WIDE, value_view(level), 0.95)
        # 0.08 * (sqrt(0.75) - 0.5) * z95
        assert abs(got - 0.04816465703769687) < 1e-12
        assert got < P_WIDE.rho * P_WIDE.sigma_y * Z95  # below the mean-shift spillover

    def test_bound_holds_across_positive_correlations(self):
        for rho in np.linspace(0.01, 0.99, 99):
            p = replace(P_WIDE, rho=float(rho))
            got = delta_covar_view(p, value_view(var_normal_x(p, 0.95)), 0.95)
            assert got < p.rho * p.sigma_y * Z95

    def test_matches_paper_expressions(self):
        # every kind and relation, collapsing and binding, on X and on Y
        rng = np.random.default_rng(20)
        kinds = set()
        for _ in range(60):
            p = random_params(rng)
            views = [no_view(), relative_view(
                float(p.mu_x - p.mu_y + rng.normal(0.0, 0.1)),
                float((p.sigma_x**2 + p.sigma_y**2) * rng.uniform(0.5, 1.5)),
            )]
            for rel in ("eq", "le", "ge"):
                views.append(correlation_view(float(rng.uniform(-0.9, 0.9)), rel))
            for target in ("x", "y"):
                mu, sd = (p.mu_x, p.sigma_x) if target == "x" else (p.mu_y, p.sigma_y)
                views.append(mean_variance_view(
                    float(mu + sd * rng.uniform(-2, 2)),
                    float(sd**2 * rng.uniform(0.3, 3.0)), target,
                ))
                for rel in ("eq", "le", "ge"):
                    views += [
                        expectation_view(float(mu + sd * rng.uniform(-2, 2)), rel, target),
                        variance_view(float(sd**2 * rng.uniform(0.3, 3.0)), rel, target),
                        quantile_view(
                            float(mu + sd * (Z95 + rng.uniform(-1, 1))), 0.95, rel, target
                        ),
                        value_view(float(mu + sd * rng.uniform(-2, 2)), rel, target),
                    ]
            for view in views:
                want = paper_spillover(p, view, 0.95)
                got = delta_covar_view(p, view, 0.95)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (p, view)
                kinds.add((view.kind, view.relation, view.target, want == 0.0))
        # both branches of every one-sided kind were drawn
        for kind in ("expectation", "variance", "quantile", "correlation"):
            for rel in ("le", "ge"):
                assert {(kind, rel, "x", True), (kind, rel, "x", False)} <= kinds

    def test_distribution_views_have_no_closed_form(self):
        with pytest.raises(ValueError, match="scenario mode"):
            delta_covar_view(P_WIDE, distribution_view([0, 1], [1.0]), 0.95)


class TestCollapseEquivalences:
    """One-sided views: prior-satisfied means VaR exactly, otherwise the
    equality value exactly."""

    def test_all_four_view_families(self):
        rng = np.random.default_rng(22)
        cases = 0
        for _ in range(125):
            p = random_params(rng)
            var = var_normal(p, 0.95)
            configs = [
                ("expectation", p.mu_x, float(rng.normal(0.0, 0.3)),
                 lambda v, r: covar_for_view(p, expectation_view(v, r), 0.95)),
                ("variance", p.sigma_x**2, float(rng.uniform(0.0004, 0.2)),
                 lambda v, r: covar_for_view(p, variance_view(v, r), 0.95)),
                ("quantile", var_normal_x(p, 0.95),
                 float(var_normal_x(p, 0.95) + p.sigma_x * rng.normal()),
                 lambda v, r: covar_for_view(p, quantile_view(v, 0.95, r), 0.95)),
                ("correlation", p.rho, float(rng.uniform(-0.95, 0.95)),
                 lambda v, r: covar_for_view(p, correlation_view(v, r), 0.95)),
            ]
            for _, prior_value, view_value, op in configs:
                eq_value = op(view_value, "eq").covar
                for relation in ("le", "ge"):
                    satisfied = (
                        prior_value <= view_value
                        if relation == "le"
                        else prior_value >= view_value
                    )
                    out = op(view_value, relation)
                    if satisfied:
                        assert out.collapsed_to_var
                        assert out.covar == var
                    else:
                        assert out.covar == eq_value
                    cases += 1
        assert cases == 125 * 4 * 2


class TestFixedPointsAndShapes:
    def test_view_at_prior_parameter_gives_var_exactly(self):
        for rho in (-0.5, 0.3, 0.8):
            p = replace(P_WIDE, rho=rho)
            var = var_normal(p, 0.95)
            assert covar_for_view(p, variance_view(p.sigma_x**2), 0.95).covar == var
            assert covar_for_view(p, quantile_view(var_normal_x(p, 0.95), 0.95), 0.95).covar == var
            assert covar_for_view(p, correlation_view(p.rho), 0.95).covar == var

    def test_variance_scan_monotone_for_nonzero_rho(self):
        for rho in (-0.5, 0.3, 0.8):
            p = replace(P_WIDE, rho=rho)
            scan = np.linspace(0.001, 0.05, 25)
            values = [covar_for_view(p, variance_view(float(s)), 0.95).covar for s in scan]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestPerfectCorrelationReduction:
    def test_x_views_equal_mapped_y_views(self):
        p = BivariateNormalParams(0.10, 0.02, 0.10, 0.08, 1.0)
        slope = p.sigma_y / p.sigma_x
        intercept = p.mu_y - slope * p.mu_x
        m1 = 0.25
        x_out = covar_for_view(p, expectation_view(m1), 0.95).covar
        y_out = covar_for_view(p, expectation_view(slope * m1 + intercept, target="y"), 0.95).covar
        assert abs(x_out - y_out) < 1e-14
        s1 = 0.02
        x_out = covar_for_view(p, variance_view(s1), 0.95).covar
        y_out = covar_for_view(p, variance_view(slope**2 * s1, target="y"), 0.95).covar
        assert abs(x_out - y_out) < 1e-14
        q1 = 0.35
        x_out = covar_for_view(p, quantile_view(q1, 0.95), 0.95).covar
        y_out = covar_for_view(p, quantile_view(slope * q1 + intercept, 0.95, target="y"), 0.95).covar
        assert abs(x_out - y_out) < 1e-13

    def test_negative_unit_correlation_flips_the_map(self):
        p = BivariateNormalParams(0.10, 0.02, 0.10, 0.08, -1.0)
        slope = -p.sigma_y / p.sigma_x
        intercept = p.mu_y - slope * p.mu_x
        m1 = 0.25
        x_out = covar_for_view(p, expectation_view(m1), 0.95).covar
        y_out = covar_for_view(p, expectation_view(slope * m1 + intercept, target="y"), 0.95).covar
        assert abs(x_out - y_out) < 1e-14


class TestDispatch:
    def test_views_on_y_condition_its_own_marginal(self):
        out = covar_for_view(P_WIDE, expectation_view(0.05, target="y"), 0.95)
        assert abs(out.covar - (0.05 + P_WIDE.sigma_y * Z95)) < 1e-14
        assert out.posterior.mu_y == pytest.approx(0.05)
        out = covar_for_view(P_WIDE, variance_view(0.0025, target="y"), 0.95)
        assert abs(out.covar - (P_WIDE.mu_y + 0.05 * Z95)) < 1e-14
        out = covar_for_view(P_WIDE, quantile_view(0.3, 0.95, target="y"), 0.95)
        assert abs(out.covar - 0.3) < 1e-12

    def test_y_view_posterior_lifts_back_to_the_pair(self):
        out = covar_for_view(P_WIDE, expectation_view(0.05, target="y"), 0.95)
        shift = 0.05 - P_WIDE.mu_y
        beta = P_WIDE.rho * P_WIDE.sigma_x / P_WIDE.sigma_y
        assert out.posterior.mu_x == pytest.approx(P_WIDE.mu_x + beta * shift)
        assert out.posterior.sigma_y == pytest.approx(P_WIDE.sigma_y)

    def test_y_equality_views_read_their_closed_forms_exactly(self):
        # a view on Y sets the law of Y itself, so CoVaR is the view's own
        # mean and spread at z(alpha), to the last bit, whatever rho (0 too)
        rng = np.random.default_rng(2028)
        for i in range(2000):
            p = random_params(rng, rho=0.0 if i % 10 == 0 else None)
            m = float(rng.normal(p.mu_y, p.sigma_y))
            v = float(p.sigma_y**2 * rng.uniform(0.2, 3.0))
            cases = (
                (expectation_view(m, target="y"), m + p.sigma_y * Z95),
                (variance_view(v, target="y"), p.mu_y + math.sqrt(v) * Z95),
                (mean_variance_view(m, v, target="y"), m + math.sqrt(v) * Z95),
            )
            for view, want in cases:
                assert covar_for_view(p, view, 0.95).covar == want

    def test_y_equality_value_view_lands_on_its_level(self):
        # Y given Y = level is the level itself: CoVaR and the pooled CDF's
        # step sit on it to the last bit
        rng = np.random.default_rng(2029)
        for _ in range(2000):
            p = random_params(rng)
            level = float(rng.normal(p.mu_y, p.sigma_y))
            view = value_view(level, target="y")
            out = covar_for_view(p, view, 0.95)
            assert out.covar == level
            cdf = posterior_y_cdf(p, view, out)
            assert cdf(level) == 1.0 and cdf(math.nextafter(level, -math.inf)) == 0.0

    def test_y_views_make_one_update(self, monkeypatch):
        calls = []
        keep = analytics._keep_conditional
        monkeypatch.setattr(
            analytics, "_keep_conditional", lambda *args: calls.append(args) or keep(*args)
        )
        views = [mean_variance_view(0.05, 0.0025, target="y")]
        for relation in ("eq", "le", "ge"):
            views += [
                expectation_view(0.05, relation, target="y"),
                variance_view(0.0025, relation, target="y"),
                quantile_view(0.3, 0.95, relation, target="y"),
            ]
        for view in views:
            calls.clear()
            covar_for_view(P_WIDE, view, 0.95)
            assert len(calls) == 1, view

    def test_saturated_y_value_view_returns_the_prior(self):
        var = var_normal(P_WIDE, 0.95)
        for relation, sign in (("le", 1.0), ("ge", -1.0)):
            level = P_WIDE.mu_y + sign * 12.0 * P_WIDE.sigma_y
            out = covar_for_view(P_WIDE, value_view(level, relation, target="y"), 0.95)
            assert out.posterior is P_WIDE
            assert out.covar == var
            assert out.collapsed_to_var and out.branch == f"{relation}-saturated"

    def test_quantile_level_must_match_alpha(self):
        with pytest.raises(ValueError, match="report level"):
            covar_for_view(P_WIDE, quantile_view(0.3, level=0.9), 0.95)

    def test_distribution_views_rejected(self):
        with pytest.raises(ValueError, match="scenario mode"):
            covar_for_view(P_WIDE, distribution_view([0, 1], [1.0]), 0.95)

    def test_no_view_sentinel(self):
        out = covar_for_view(P_WIDE, no_view(), 0.95)
        assert out.collapsed_to_var and out.covar == var_normal(P_WIDE, 0.95)

    def test_closed_form_table_covers_every_other_kind(self):
        assert set(_CLOSED_FORMS) == set(KINDS) - {"none", "distribution"}


class TestQuantileMarginalReduction:
    def test_posterior_x_marginal_is_the_pinned_minimum(self):
        # pinning a marginal quantile reduces to a one-dimensional marginal
        # problem whose solution is shared by every correlation; the closed
        # form's X marginal must match the independent 1-D minimizer
        from _oracles import quantile_pinned_marginal

        for rho in (-0.7, 0.0, 0.5, 0.9):
            p = BivariateNormalParams(0.30, 0.02, 0.08, 0.05, rho)
            for q1 in (0.35, 0.45, 0.55):
                out = covar_for_view(p, quantile_view(q1, 0.95), 0.95)
                m, s = quantile_pinned_marginal(p.mu_x, p.sigma_x, q1, ndtri(0.95))
                assert abs(out.posterior.mu_x - m) < 1e-6
                assert abs(out.posterior.sigma_x - s) < 1e-6


class TestNumericOracle:
    def test_expectation_structure(self):
        orc = numeric_posterior_params(P_WIDE, expectation_view(0.20), 0.95)
        want = covar_for_view(P_WIDE, expectation_view(0.20), 0.95).posterior
        for name in ("mu_x", "mu_y", "sigma_x", "sigma_y", "rho"):
            assert abs(getattr(orc, name) - getattr(want, name)) < 1e-4, name

    def test_variance_structure(self):
        orc = numeric_posterior_params(P_WIDE, variance_view(0.02), 0.95)
        want = covar_for_view(P_WIDE, variance_view(0.02), 0.95).posterior
        assert abs(orc.sigma_y - want.sigma_y) < 1e-4
        assert abs(orc.sigma_x - want.sigma_x) < 1e-4

    def test_noop_view_returns_prior(self):
        orc = numeric_posterior_params(P_WIDE, expectation_view(P_WIDE.mu_x), 0.95)
        assert kl_bivariate_normal(orc, P_WIDE) <= 1e-10

    def test_prior_satisfied_inequalities_return_prior(self):
        view = expectation_view(P_WIDE.mu_x + 1.0, relation="le")
        assert numeric_posterior_params(P_WIDE, view, 0.95) == P_WIDE
        view = correlation_view(P_WIDE.rho - 0.3, relation="ge")
        assert numeric_posterior_params(P_WIDE, view, 0.95) == P_WIDE

    def test_unsupported_kinds_rejected(self):
        for view in (value_view(0.3), distribution_view([0, 1], [1.0]), no_view()):
            with pytest.raises(ValueError):
                numeric_posterior_params(P_WIDE, view, 0.95)

    @pytest.mark.parametrize(
        "kind", ["expectation", "variance", "mean_and_variance", "quantile",
                 "correlation", "relative"]
    )
    def test_oracle_agreement_random_instances(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        for _ in range(50):
            p = random_params(rng)
            if kind == "expectation":
                view = expectation_view(float(p.mu_x + p.sigma_x * rng.uniform(-2, 2)))
                closed = covar_for_view(p, view, 0.95).covar
            elif kind == "variance":
                view = variance_view(float(p.sigma_x**2 * rng.uniform(0.3, 3.0)))
                closed = covar_for_view(p, view, 0.95).covar
            elif kind == "mean_and_variance":
                view = mean_variance_view(
                    float(p.mu_x + p.sigma_x * rng.uniform(-2, 2)),
                    float(p.sigma_x**2 * rng.uniform(0.3, 3.0)),
                )
                closed = covar_for_view(p, view, 0.95).covar
            elif kind == "quantile":
                view = quantile_view(
                    float(var_normal_x(p, 0.95) + p.sigma_x * rng.uniform(-1, 1)), 0.95
                )
                closed = covar_for_view(p, view, 0.95).covar
            elif kind == "correlation":
                view = correlation_view(float(rng.uniform(-0.9, 0.9)))
                closed = covar_for_view(p, view, 0.95).covar
            else:
                v = p.sigma_x**2 - 2 * p.rho * p.sigma_x * p.sigma_y + p.sigma_y**2
                view = relative_view(
                    float((p.mu_x - p.mu_y) + rng.normal(0.0, 0.1)),
                    float(v * rng.uniform(0.5, 2.0)),
                )
                closed = covar_for_view(p, view, 0.95).covar
            orc = numeric_posterior_params(p, view, 0.95)
            rebuilt = orc.mu_y + orc.sigma_y * Z95
            assert abs(rebuilt - closed) <= 1e-3 * p.sigma_y, (kind, p, view)
