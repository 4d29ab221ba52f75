"""Prior estimation: synthetic-recovery oracles and the exact QR baseline."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from _oracles import (
    loop_location_scale,
    pair_candidate_minimum,
    per_dof_t_copula,
    per_dof_t_marginal,
)
from scipy.special import stdtr, stdtrit
from scipy.stats import kendalltau
from scipy.stats import t as student_t

from epcovar import estimation
from epcovar.estimation import (
    QRFit,
    TCopulaParams,
    TMarginal,
    _fit_location_scale,
    _fit_location_scale_rows,
    fit_t_copula,
    fit_t_marginal,
    generate_scenarios,
    pinball_loss,
    pseudo_observations,
    quantile_regression_covar,
)

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def sample_t_copula(rho, dof, n, rng):
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    zc = rho * z1 + math.sqrt(1.0 - rho * rho) * z2
    w = rng.chisquare(dof, n) / dof
    return stdtr(dof, z1 / np.sqrt(w)), stdtr(dof, zc / np.sqrt(w))


class TestTQuantile:
    """The Student-t quantile the copula fit and the sampler call:
    ``scipy.special.stdtrit``."""

    def test_frozen_high_precision_values(self):
        # references computed with 50-digit arithmetic (regularized
        # incomplete-beta tail inverted by root finding)
        cases = [
            (1e-8, 5.0, -62.40450611096729),
            (1e-4, 2.1, -59.58788564633043),
            (0.01, 3.0, -4.5407028585681335),
            (0.99999999, 100.0, 6.101573470927392),
        ]
        for p, dof, truth in cases:
            assert abs(float(stdtrit(dof, p)) - truth) < 1e-10, (p, dof)


class TestMarginalTypes:
    def test_guards(self):
        with pytest.raises(ValueError):
            TMarginal(0.0, -1.0, 5.0)
        with pytest.raises(ValueError):
            TMarginal(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            TCopulaParams(1.0, 5.0)

    def test_implied_moments(self):
        m = TMarginal(0.5, 2.0, 8.0)
        assert m.mean == 0.5
        assert m.std == pytest.approx(2.0 * math.sqrt(8.0 / 6.0))
        assert not m.effectively_normal
        assert TMarginal(0.0, 1.0, 100.0).effectively_normal


class TestFitTMarginal:
    def test_recovers_heavy_tailed_parameters(self):
        rng = np.random.default_rng(314)
        data = 0.0 + 1.0 * rng.standard_t(5.0, 50_000)
        fit = fit_t_marginal(data)
        assert abs(fit.location - 0.0) <= 0.02
        assert abs(fit.scale - 1.0) <= 0.02
        assert abs(fit.dof - 5.0) <= 0.6

    def test_shifted_scaled_recovery(self):
        rng = np.random.default_rng(2718)
        data = -0.4 + 0.05 * rng.standard_t(4.0, 50_000)
        fit = fit_t_marginal(data)
        assert abs(fit.location + 0.4) <= 0.02 * 0.05 / 0.02  # scale-relative
        assert abs(fit.scale - 0.05) <= 0.002
        assert abs(fit.dof - 4.0) <= 0.6

    def test_normal_data_pushes_dof_high(self):
        rng = np.random.default_rng(99)
        fit = fit_t_marginal(rng.standard_normal(50_000))
        assert fit.dof >= 30.0

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError, match="zero spread"):
            fit_t_marginal(np.full(100, 3.14))

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 30"):
            fit_t_marginal(np.arange(10.0))

    def test_reuses_the_searched_location_scale_fit(self, tmp_path, monkeypatch):
        # the fit equals one more EM run at the chosen dof, on the benchmark's
        # datasets and on a sample whose fit hits the dof cap
        monkeypatch.syspath_prepend(str(_BENCH))
        workloads = importlib.import_module("workloads")
        samples = [np.random.default_rng(99).standard_normal(2_000)]
        for seed in (1, 2, 3):
            for workload_id in (1, 2):
                ds = workloads.make_dataset(tmp_path, seed, workload_id, 0)
                samples += [ds.x, ds.y]
        capped = 0
        for x in samples:
            fit = fit_t_marginal(x)
            loc0 = float(np.median(x))
            scale0 = float(np.median(np.abs(x - loc0))) * 1.4826
            loc, scale = _fit_location_scale(x, fit.dof, loc0, scale0)
            assert repr(fit) == repr(TMarginal(loc, scale, fit.dof))
            capped += fit.effectively_normal
        assert capped >= 1


class TestFitTCopula:
    def test_independent_inputs_give_tiny_rho(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(size=10_000)
        v = rng.uniform(size=10_000)
        fit = fit_t_copula(u, v)
        assert abs(fit.rho) <= 0.03

    def test_comonotone_inputs_rejected(self):
        u = np.linspace(0.01, 0.99, 500)
        with pytest.raises(ValueError, match="boundary"):
            fit_t_copula(u, u)

    def test_recovers_synthetic_parameters(self):
        rng = np.random.default_rng(6)
        u, v = sample_t_copula(0.7, 4.0, 50_000, rng)
        eps = 1e-9
        fit = fit_t_copula(np.clip(u, eps, 1 - eps), np.clip(v, eps, 1 - eps))
        assert abs(fit.rho - 0.7) <= 0.02
        assert abs(fit.dof - 4.0) <= 1.0

    def test_tie_degeneracy_rejected(self):
        u = np.concatenate([np.full(60, 0.5), np.linspace(0.1, 0.9, 40)])
        v = np.linspace(0.01, 0.99, 100)
        with pytest.raises(ValueError, match="tied"):
            fit_t_copula(u, v)

    def test_interval_guard(self):
        with pytest.raises(ValueError, match="inside"):
            fit_t_copula(np.linspace(0.0, 0.9, 50), np.linspace(0.1, 0.9, 50))

    def test_pseudo_observations_stay_interior(self):
        x = np.random.default_rng(7).normal(size=500)
        u = pseudo_observations(x)
        assert u.min() > 0.0 and u.max() < 1.0
        # rank transform preserves order
        assert np.all(np.argsort(u) == np.argsort(x))


class TestDofSearchMatchesPerDofOracle:
    """The lockstep grid, the lean EM and the shared search give fits
    ``repr``-identical to the search that fits one dof at a time."""

    GRID = np.geomspace(estimation.DOF_MIN, estimation.DOF_MAX, estimation._DOF_GRID_SIZE)

    @staticmethod
    def assert_same_fits(x, y):
        for sample in (x, y):
            assert repr(fit_t_marginal(sample)) == repr(per_dof_t_marginal(sample))
        u, v = pseudo_observations(x), pseudo_observations(y)
        assert repr(fit_t_copula(u, v)) == repr(per_dof_t_copula(u, v))

    @pytest.mark.parametrize("workload_id", [1, 2])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_datasets(self, tmp_path, monkeypatch, seed, workload_id):
        monkeypatch.syspath_prepend(str(_BENCH))
        workloads = importlib.import_module("workloads")
        ds = workloads.make_dataset(tmp_path, seed, workload_id, 0)
        self.assert_same_fits(ds.x, ds.y)

    def test_thirty_observations(self):
        rng = np.random.default_rng(30)
        x = rng.standard_t(4.0, 30)
        self.assert_same_fits(x, 0.5 * x + rng.standard_t(4.0, 30))

    def test_fits_at_the_dof_cap(self):
        rng = np.random.default_rng(104)
        x, y = rng.standard_normal(2_000), rng.standard_normal(2_000)
        assert fit_t_marginal(x).effectively_normal and fit_t_marginal(y).effectively_normal
        assert fit_t_copula(pseudo_observations(x), pseudo_observations(y)).dof == 100.0
        self.assert_same_fits(x, y)

    def test_heavy_tails_near_the_dof_floor(self):
        u, v = sample_t_copula(0.5, 2.2, 2_000, np.random.default_rng(22))
        x, y = stdtrit(2.2, u), stdtrit(2.2, v)
        assert max(fit_t_marginal(x).dof, fit_t_marginal(y).dof) < 2.5
        assert fit_t_copula(pseudo_observations(x), pseudo_observations(y)).dof < 2.5
        self.assert_same_fits(x, y)

    @pytest.mark.parametrize("n", [5_000, 50_000])
    def test_samples_spanning_several_row_blocks(self, n):
        # n = 5,000 puts six grid rows in a block, n = 50,000 one
        rng = np.random.default_rng(50)
        x = rng.standard_t(4.0, n)
        y = 0.6 * x + rng.standard_t(4.0, n)
        assert estimation._DOF_GRID_SIZE * n > 2 * estimation._BLOCK_ELEMENTS
        self.assert_same_fits(x, y)

    def test_lockstep_em_equals_the_one_dof_loop_on_every_grid_dof(self):
        rng = np.random.default_rng(2024)
        for trial in range(24):
            n = int(rng.integers(30, 3_000))
            dof = float(rng.uniform(2.2, 40.0))
            x = float(rng.normal()) + float(rng.uniform(0.01, 3.0)) * rng.standard_t(dof, n)
            loc0 = float(np.median(x))
            scale0 = float(np.median(np.abs(x - loc0))) * 1.4826
            locs, scales = _fit_location_scale_rows(x, self.GRID, loc0, scale0)
            for i, g in enumerate(self.GRID.tolist()):
                want = loop_location_scale(x, g, loc0, scale0)
                assert _fit_location_scale(x, g, loc0, scale0) == want, (trial, g)
                assert (locs[i], scales[i]) == want, (trial, g)

    def test_rows_stopped_by_the_iteration_cap(self):
        # from a start scale of 1e-140 the scale grows by about sqrt(dof + 1)
        # a step, so the lowest grid dofs run out of their 500 steps
        x = np.random.default_rng(1).standard_t(4.0, 200)
        loc0 = float(np.median(x))
        locs, scales = _fit_location_scale_rows(x, self.GRID, loc0, 1e-140)
        assert scales[0] < 1e-10 < 0.5 < scales[-1]
        for i, g in enumerate(self.GRID.tolist()):
            want = loop_location_scale(x, g, loc0, 1e-140)
            assert _fit_location_scale(x, g, loc0, 1e-140) == want, g
            assert (locs[i], scales[i]) == want, g


class TestGenerateScenarios:
    MX = TMarginal(0.01, 0.02, 5.0)
    MY = TMarginal(0.005, 0.015, 7.0)
    COP = TCopulaParams(0.7, 4.0)

    def test_rank_correlation_matches_theory(self):
        panel = generate_scenarios(self.MX, self.MY, self.COP, 100_000, seed=31)
        tau = kendalltau(panel.x, panel.y).statistic
        assert abs(tau - 2.0 / math.pi * math.asin(0.7)) <= 0.02

    def test_marginal_quantiles_match_the_t_law(self):
        panel = generate_scenarios(self.MX, self.MY, self.COP, 100_000, seed=31)
        want = self.MX.location + self.MX.scale * float(student_t.ppf(0.95, self.MX.dof))
        got = float(np.quantile(panel.x, 0.95))
        assert abs(got - want) <= 0.03 * self.MX.scale

    def test_same_seed_identical_panels(self):
        a = generate_scenarios(self.MX, self.MY, self.COP, 5_000, seed=42)
        b = generate_scenarios(self.MX, self.MY, self.COP, 5_000, seed=42)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        c = generate_scenarios(self.MX, self.MY, self.COP, 5_000, seed=43)
        assert not np.array_equal(a.x, c.x)

    @pytest.mark.parametrize("n", [100, 5_000])
    def test_threaded_sampler_equals_serial_reference(self, n):
        rng = np.random.default_rng(42)
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        w = rng.chisquare(self.COP.dof, n) / self.COP.dof
        scale = 1.0 / np.sqrt(w)
        zc = self.COP.rho * z1 + math.sqrt(1.0 - self.COP.rho**2) * z2
        eps = 1e-12
        u = np.clip(stdtr(self.COP.dof, z1 * scale), eps, 1.0 - eps)
        v = np.clip(stdtr(self.COP.dof, zc * scale), eps, 1.0 - eps)
        x = self.MX.location + self.MX.scale * stdtrit(self.MX.dof, u)
        y = self.MY.location + self.MY.scale * stdtrit(self.MY.dof, v)
        panel = generate_scenarios(self.MX, self.MY, self.COP, n, seed=42)
        assert panel.x.tobytes() == x.tobytes()
        assert panel.y.tobytes() == y.tobytes()

    def test_panel_invariants_hold(self):
        panel = generate_scenarios(self.MX, self.MY, self.COP, 500, seed=1)
        assert panel.size == 500
        assert np.all(panel.prior > 0)
        assert abs(panel.prior.sum() - 1.0) < 1e-12

    def test_size_guard(self):
        with pytest.raises(ValueError, match="at least 100"):
            generate_scenarios(self.MX, self.MY, self.COP, 50, seed=0)


class TestQuantileRegression:
    def test_exact_interpolation(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=40)
        y = 2.0 * x
        for alpha in (0.1, 0.5, 0.95):
            fit, covar = quantile_regression_covar(x, y, alpha, 1.5)
            assert abs(fit.slope - 2.0) < 1e-12
            assert abs(fit.intercept) < 1e-12
            assert abs(covar - 3.0) < 1e-12

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            n = int(rng.integers(10, 40))
            x = rng.normal(size=n)
            y = 0.5 * x + rng.standard_t(4, n)
            alpha = float(rng.uniform(0.1, 0.9))
            fit, _ = quantile_regression_covar(x, y, alpha, 0.0)
            got = pinball_loss(y - fit.intercept - fit.slope * x, alpha)
            oracle, _ = pair_candidate_minimum(x, y, alpha)
            assert abs(got - oracle) <= 1e-12, trial

    def test_never_beaten_by_random_lines(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=50)
        y = 1.0 + 0.8 * x + rng.normal(0, 0.4, 50)
        fit, _ = quantile_regression_covar(x, y, 0.5, 0.0)
        base = pinball_loss(y - fit.intercept - fit.slope * x, 0.5)
        for _ in range(1000):
            b0, b1 = rng.normal(0, 3, 2)
            assert base <= pinball_loss(y - b0 - b1 * x, 0.5) + 1e-12

    def test_median_fit_beats_least_squares_on_pinball(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=80)
        y = 0.3 + 1.2 * x + rng.normal(0, 0.5, 80)
        fit, _ = quantile_regression_covar(x, y, 0.5, 0.0)
        slope_ls, intercept_ls = np.polyfit(x, y, 1)
        ours = pinball_loss(y - fit.intercept - fit.slope * x, 0.5)
        theirs = pinball_loss(y - intercept_ls - slope_ls * x, 0.5)
        assert ours <= theirs + 1e-15

    def test_local_optimality_certificate(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=30)
        y = -0.2 + 0.6 * x + rng.standard_t(5, 30)
        fit, _ = quantile_regression_covar(x, y, 0.75, 0.0)
        base = pinball_loss(y - fit.intercept - fit.slope * x, 0.75)
        for db, ds in ((1e-6, 0), (-1e-6, 0), (0, 1e-6), (0, -1e-6)):
            perturbed = pinball_loss(y - (fit.intercept + db) - (fit.slope + ds) * x, 0.75)
            assert base <= perturbed + 1e-15

    def test_guards(self):
        with pytest.raises(ValueError, match="identical"):
            quantile_regression_covar(np.ones(20), np.arange(20.0), 0.5, 1.0)
        with pytest.raises(ValueError, match="at least 10"):
            quantile_regression_covar(np.arange(5.0), np.arange(5.0), 0.5, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            quantile_regression_covar(np.arange(10.0), np.arange(10.0), 1.5, 1.0)

    def test_fit_carries_level(self):
        fit = QRFit(0.0, 1.0, 0.9)
        assert fit.alpha == 0.9
