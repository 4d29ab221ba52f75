"""Prior estimation: synthetic-recovery oracles and the exact QR baseline."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from _oracles import (
    copula_draws,
    exact_unit_map,
    pair_candidate_minimum,
    per_dof_t_copula,
    per_dof_t_marginal,
    pinball_loss,
    t_marginal_loglik,
    t_marginal_score,
)
from scipy.special import stdtr, stdtrit
from scipy.stats import kendalltau
from scipy.stats import t as student_t

from epcovar import estimation
from epcovar.estimation import (
    QRFit,
    TCopulaParams,
    TMarginal,
    fit_t_copula,
    fit_t_marginal,
    generate_scenarios,
    pseudo_observations,
    quantile_regression_covar,
)

_BENCH = Path(__file__).resolve().parent.parent / "bench"
MAP_TOL = 1e-10  # the sampler's map against the exact map, relative to max(1, |exact|)


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

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: TMarginal(math.nan, 1.0, 5.0), "location must be finite"),
            (lambda: TMarginal(math.inf, 1.0, 5.0), "location must be finite"),
            (lambda: TMarginal(0.0, math.nan, 5.0), "scale must be positive and finite"),
            (lambda: TMarginal(0.0, math.inf, 5.0), "scale must be positive and finite"),
            (lambda: TMarginal(0.0, 1.0, math.nan), "dof must be finite"),
            (lambda: TMarginal(0.0, 1.0, math.inf), "dof must be finite"),
            (lambda: TCopulaParams(math.nan, 5.0), "copula rho must lie"),
            (lambda: TCopulaParams(0.5, math.nan), "dof must be finite"),
            (lambda: TCopulaParams(0.5, math.inf), "dof must be finite"),
        ],
        ids=["loc-nan", "loc-inf", "scale-nan", "scale-inf", "dof-nan", "dof-inf",
             "rho-nan", "copula-dof-nan", "copula-dof-inf"],
    )
    def test_non_finite_parameters_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

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

    def test_stationary_at_the_fit(self, tmp_path, monkeypatch):
        # the score in (location, log scale) is about 0 at every fit, the dof
        # score too at an interior dof, and it points outward at a capped
        # fit; on the benchmark's datasets and a sample whose fit hits the cap
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
            loc, log_scale, log_dof = t_marginal_score(x, fit)
            assert abs(loc) <= 1e-8 * x.size and abs(log_scale) <= 1e-8 * x.size, fit
            if fit.effectively_normal:
                capped += 1
                assert fit.dof == estimation.DOF_MAX and log_dof > 0.0, (fit, log_dof)
            else:
                assert abs(log_dof) <= 1e-8 * x.size, (fit, log_dof)
        assert capped >= 1

    @pytest.mark.parametrize("b", [1e-200, 1e-150, 1e-6, 1e6, 1e150, 1e200])
    def test_affine_equivariance(self, b):
        # fit(a + b x) = (a + b location, b scale, dof), without a numeric
        # warning at any loss scale
        x = np.random.default_rng(5).standard_t(5.0, 500)
        fit, a = fit_t_marginal(x), 3.0 * b
        moved = fit_t_marginal(a + b * x)
        assert moved.location == pytest.approx(a + b * fit.location, rel=1e-9)
        assert moved.scale == pytest.approx(b * fit.scale, rel=1e-9)
        assert moved.dof == pytest.approx(fit.dof, rel=1e-9)

    @pytest.mark.parametrize("n, ties", [(100, 70), (500, 350), (500, 450), (31, 22)])
    def test_unbounded_likelihood_rejected(self, n, ties):
        # a value repeated more than 2.1/3.1 of the time sends the
        # likelihood to +inf as the scale shrinks to 0
        rng = np.random.default_rng(ties)
        x = rng.permutation(np.concatenate([np.full(ties, 0.25), rng.standard_t(5.0, n - ties)]))
        message = (f"unbounded t likelihood: the value 0.25 repeats {ties} times in {n} "
                   "samples, more than 2.1/3.1 of them")
        with pytest.raises(ValueError) as err:
            fit_t_marginal(x)
        assert str(err.value) == message

    @pytest.mark.parametrize("n, ties", [(100, 55), (100, 67), (500, 338), (31, 21)])
    def test_ties_below_the_bound_fit(self, n, ties):
        # over half the sample tied (a MAD of 0) but at most 2.1/3.1 of it: the
        # likelihood is bounded and the fit is a stationary point
        rng = np.random.default_rng(ties)
        x = rng.permutation(np.concatenate([np.full(ties, 0.25), rng.standard_t(5.0, n - ties)]))
        fit = fit_t_marginal(x)
        loc, log_scale, _ = t_marginal_score(x, fit)
        assert abs(loc) <= 1e-8 * n and abs(log_scale) <= 1e-8 * n, fit


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

    def test_tie_guard_counts_the_largest_group(self):
        # many small tie groups (one value in ten is distinct) pass; one value
        # in 150 of 300 entries passes, in 151 it is refused
        rng = np.random.default_rng(57)
        x = rng.standard_t(5.0, 300)
        y = 0.5 * x + rng.standard_t(5.0, 300)
        v = pseudo_observations(y)
        fit_t_copula(pseudo_observations(np.repeat(x[:30], 10)), v)
        for tied, refused in ((150, False), (151, True)):
            x[:tied] = 0.0
            u = pseudo_observations(x)
            if refused:
                message = f"^rank degeneracy: {tied} of 300 entries are tied at one value"
                with pytest.raises(ValueError, match=message + ", more than half$"):
                    fit_t_copula(u, v)
            else:
                fit_t_copula(u, v)

    def test_interval_guard(self):
        with pytest.raises(ValueError, match="inside"):
            fit_t_copula(np.linspace(0.0, 0.9, 50), np.linspace(0.1, 0.9, 50))

    def test_ties_share_their_mean_rank(self):
        u = pseudo_observations([0.3, 0.1, 0.3, 0.2, 0.3, 0.1])
        assert u.tolist() == [r / 7.0 for r in (5.0, 1.5, 5.0, 3.0, 5.0, 1.5)]

    def test_fit_ignores_the_order_of_tied_rows(self):
        # 40% of X is one value: with mean ranks, reordering the rows that
        # share it moves neither rho nor, beyond Brent's xatol, the dof
        rng = np.random.default_rng(40)
        x = rng.standard_t(5.0, 400)
        y = 0.5 * x + rng.standard_t(5.0, 400)
        tied = rng.permutation(400)[:160]
        x[tied] = 0.0
        fits = []
        for _ in range(3):
            rows = np.arange(400)
            rows[tied] = rng.permutation(tied)
            fits.append(fit_t_copula(pseudo_observations(x[rows]), pseudo_observations(y[rows])))
        for fit in fits[1:]:
            assert fit.rho == fits[0].rho
            assert fit.dof == pytest.approx(fits[0].dof, rel=1e-6)

    def test_pseudo_observations_stay_interior(self):
        x = np.random.default_rng(7).normal(size=500)
        u = pseudo_observations(x)
        assert u.min() > 0.0 and u.max() < 1.0
        # rank transform preserves order
        assert np.all(np.argsort(u) == np.argsort(x))


class TestDofSearchMatchesPerDofOracle:
    """The marginal's Newton fit reaches at least the likelihood of the
    search that fits one dof at a time, less 1e-9 of its size; the copula's
    shared search gives fits ``repr``-identical to it."""

    @staticmethod
    def assert_marginal_at_least_the_oracle(x):
        want = t_marginal_loglik(x, per_dof_t_marginal(x))
        assert t_marginal_loglik(x, fit_t_marginal(x)) >= want - 1e-9 * abs(want)

    @classmethod
    def assert_same_fits(cls, x, y):
        for sample in (x, y):
            cls.assert_marginal_at_least_the_oracle(sample)
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
        # for the copula, n = 5,000 puts six grid rows in a block, n = 50,000 one
        rng = np.random.default_rng(50)
        x = rng.standard_t(4.0, n)
        y = 0.6 * x + rng.standard_t(4.0, n)
        assert estimation._DOF_GRID_SIZE * n > 2 * estimation._BLOCK_ELEMENTS
        self.assert_same_fits(x, y)

    @pytest.mark.parametrize("n", [30, 500, 2_000])
    def test_copula_sweep(self, n):
        # the two-pass grid search against the oracle's full grid, copula dof
        # 2.2 to normal, unequal marginal dofs
        rng = np.random.default_rng(n + 1)
        for dof in (2.2, 3.0, 5.0, 10.0, 30.0, 60.0, math.inf):
            z = rng.standard_normal((2, n))
            z[1] = 0.5 * z[0] + math.sqrt(0.75) * z[1]
            if dof < math.inf:
                z /= np.sqrt(rng.chisquare(dof, n) / dof)
            x, y = stdtrit(3.0, stdtr(dof, z[0])), stdtrit(8.0, stdtr(dof, z[1]))
            u, v = pseudo_observations(x), pseudo_observations(y)
            assert repr(fit_t_copula(u, v)) == repr(per_dof_t_copula(u, v)), (n, dof)

    @pytest.mark.parametrize("n", [30, 100, 500, 3_000])
    def test_hard_sweep(self, n):
        # true dof 2.2 to normal, ten samples each, the last with three gross
        # outliers: fits at both dof bounds and far inside them
        rng = np.random.default_rng(n)
        for dof in (2.2, 3.0, 5.0, 10.0, 30.0, math.inf):
            for i in range(10):
                x = rng.standard_normal(n) if dof == math.inf else rng.standard_t(dof, n)
                if i == 9:
                    x[:3] = (40.0, -55.0, 120.0)
                self.assert_marginal_at_least_the_oracle(x)


class TestDofSearchBudget:
    """The copula's grid search reads at most 21 grid dofs in its two passes
    and Brent's search makes at most 30 single-dof evaluations per fit; the
    marginal's Newton search makes at most 20 likelihood evaluations, so at
    most 20 iterations, cap refit included."""

    def test_at_most_30_single_dof_evaluations_per_fit(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(_BENCH))
        workloads = importlib.import_module("workloads")
        real_logliks = estimation._t_copula_logliks
        sizes = []

        def logliks(levels, iu, iv, rho, dofs):
            sizes.append(dofs.size)
            return real_logliks(levels, iu, iv, rho, dofs)

        monkeypatch.setattr(estimation, "_t_copula_logliks", logliks)
        for seed in (1, 2, 3):
            for workload_id in (1, 2):
                ds = workloads.make_dataset(tmp_path, seed, workload_id, 0)
                sizes.clear()
                fit_t_copula(pseudo_observations(ds.x), pseudo_observations(ds.y))
                # at n = 500 each grid pass is one block: 11 dofs, then at most 10
                passes, brent = sizes[:2], sizes[2:]
                assert passes[0] == 11 and sum(passes) <= 21, (seed, workload_id, sizes)
                assert brent.count(1) == len(brent) <= 30, (seed, workload_id, sizes)

    def test_marginal_takes_at_most_20_newton_iterations(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(_BENCH))
        workloads = importlib.import_module("workloads")
        real_terms = estimation._t_terms
        calls = []

        def terms(u, theta):
            calls.append(1)
            return real_terms(u, theta)

        monkeypatch.setattr(estimation, "_t_terms", terms)
        for seed in (1, 2, 3):
            for workload_id in (1, 2):
                ds = workloads.make_dataset(tmp_path, seed, workload_id, 0)
                for x in (ds.x, ds.y):
                    calls.clear()
                    fit_t_marginal(x)
                    assert len(calls) <= 20, (seed, workload_id, len(calls))


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
    def test_same_seed_gives_the_same_bytes(self, n):
        a = generate_scenarios(self.MX, self.MY, self.COP, n, seed=42)
        b = generate_scenarios(self.MX, self.MY, self.COP, n, seed=42)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    @pytest.mark.parametrize("n", [100, 5_000])
    def test_panel_within_the_map_bound_of_the_exact_map(self, n):
        panel = generate_scenarios(self.MX, self.MY, self.COP, n, seed=42)
        draws = copula_draws(self.COP, n, 42)
        for m, losses, z in zip((self.MX, self.MY), (panel.x, panel.y), draws):
            exact = exact_unit_map(self.COP.dof, m.dof, z)
            unit = (losses - m.location) / m.scale
            assert np.all(np.abs(unit - exact) <= MAP_TOL * np.maximum(1.0, np.abs(exact)))

    def test_panel_invariants_hold(self):
        panel = generate_scenarios(self.MX, self.MY, self.COP, 500, seed=1)
        assert panel.size == 500
        assert np.all(panel.prior > 0)
        assert abs(panel.prior.sum() - 1.0) < 1e-12

    def test_size_guard(self):
        with pytest.raises(ValueError, match="at least 100"):
            generate_scenarios(self.MX, self.MY, self.COP, 50, seed=0)


class TestUnitMap:
    """The sampler's map from t-copula draws to unit marginal quantiles, an
    interpolant, against the exact map (``_oracles.exact_unit_map``): within
    ``MAP_TOL`` max(1, |exact|), and bitwise equal where the clip binds."""

    DOFS = (2.1, 6.0, 100.0)

    def _mapped(self, copula_dof, dof, z):
        got = z.copy()
        estimation._unit_map_inplace(copula_dof, dof, got)
        return got

    @pytest.mark.parametrize("n", [100, 20_000, 200_000])
    @pytest.mark.parametrize("copula_dof", DOFS)
    def test_within_the_bound_of_the_exact_map(self, copula_dof, n):
        for seed in (1, 2, 3):
            z = copula_draws(TCopulaParams(0.5, copula_dof), n, seed)[0]
            for dof in self.DOFS:
                exact = exact_unit_map(copula_dof, dof, z)
                err = np.abs(self._mapped(copula_dof, dof, z) - exact)
                assert np.all(err <= MAP_TOL * np.maximum(1.0, np.abs(exact))), (seed, dof)

    def test_exact_where_the_clip_binds(self):
        tail = np.logspace(-3.0, 8.0, 300)
        for copula_dof in self.DOFS:
            # dense draws on both sides of each clip edge, out to |z| = 1e8
            edge = -float(stdtrit(copula_dof, 1e-12)) * np.linspace(0.98, 1.02, 401)
            z = np.concatenate([-tail, -edge, [0.0], edge, tail])
            cdf = stdtr(copula_dof, z)
            binds = (cdf < 1e-12) | (cdf > 1.0 - 1e-12)
            assert 300 < binds.sum() < z.size - 300
            for dof in self.DOFS:
                got = self._mapped(copula_dof, dof, z)[binds]
                assert got.tobytes() == exact_unit_map(copula_dof, dof, z[binds]).tobytes()

    def test_upper_tail_mirrors_the_lower_tail(self):
        # both t laws are symmetric, so g(z) = -g(-z), bitwise where the
        # copula's tail probability runs from 1e-6 to 1e-12
        p = np.logspace(-6.0, -12.0, 61)
        for copula_dof in self.DOFS:
            z = -stdtrit(copula_dof, p)
            for dof in self.DOFS:
                upper, _ = estimation._exact_unit_map(copula_dof, dof, z)
                lower, _ = estimation._exact_unit_map(copula_dof, dof, -z)
                assert upper.tobytes() == (-lower).tobytes(), (copula_dof, dof)

    def test_draws_of_one_sign(self):
        # the nodes are still counted from s = 0, and the map is evaluated
        # only at those in use: wide spans on each side, a span 1e-6 wide and
        # one an ulp wide in asinh(z), too narrow for the nodes (and their
        # int64 indices), which takes the exact map
        z = np.abs(copula_draws(TCopulaParams(0.5, 6.0), 20_000, 4)[0]) + 0.5
        s = np.arcsinh(3.0)
        ulps = np.sinh(s + np.array([0.0, 1.0, 1.0]) * np.spacing(s))
        for draws in (z, -z, 1e3 * (1.0 + np.linspace(0.0, 1e-6, 500)), -1e3 - z[:500], ulps):
            for dof in self.DOFS:
                exact = exact_unit_map(6.0, dof, draws)
                err = np.abs(self._mapped(6.0, dof, draws) - exact)
                assert np.all(err <= MAP_TOL * np.maximum(1.0, np.abs(exact))), dof

    @pytest.mark.parametrize("value", [0.0, -1.5, 1e8])
    def test_one_distinct_draw(self, value):
        z = np.full(100, value)
        for copula_dof in self.DOFS:
            for dof in self.DOFS:
                exact = exact_unit_map(copula_dof, dof, z)
                assert self._mapped(copula_dof, dof, z).tobytes() == exact.tobytes()


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

    @pytest.mark.parametrize(
        "seed,alpha,tied_x", [(13, 0.05, False), (14, 0.5, False), (15, 0.95, False),
                              (16, 0.75, True)]
    )
    def test_matches_pair_enumeration_oracle_at_n_200(self, seed, alpha, tied_x):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=200)
        if tied_x:
            x = np.round(x, 1)
        y = 0.5 * x + rng.standard_t(4, 200)
        fit, _ = quantile_regression_covar(x, y, alpha, 0.0)
        got = pinball_loss(y - fit.intercept - fit.slope * x, alpha)
        oracle, _ = pair_candidate_minimum(x, y, alpha)
        assert abs(got - oracle) <= 1e-12

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

    @pytest.mark.parametrize("where", ["y", "x", "q_x"])
    def test_non_finite_input_rejected(self, where):
        rng = np.random.default_rng(0)
        x = rng.normal(size=30)
        y = 0.5 * x + rng.normal(size=30)
        q_x = 1.0
        if where == "y":
            y[4] = np.nan
        elif where == "x":
            x[7] = np.inf
        else:
            q_x = -np.inf
        with pytest.raises(ValueError, match="finite"):
            quantile_regression_covar(x, y, 0.5, q_x)

    def test_fit_carries_level(self):
        fit = QRFit(0.0, 1.0, 0.9)
        assert fit.alpha == 0.9
