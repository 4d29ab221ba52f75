"""Pipeline, report formats, sensitivity scans, and the CLI."""

import io
import json
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from _oracles import serial_scenario_rows
from epcovar import analytics, cli, engine
from epcovar.analytics import (
    BivariateNormalParams,
    covar_expectation_view,
    covar_quantile_view,
    var_normal,
    var_normal_x,
)
from epcovar.engine import (
    ReportRow,
    RiskReport,
    RunConfig,
    analytic_prior,
    config_from_dict,
    ep_covar_on_panel,
    ingest_csv,
    load_views_file,
    render_report,
    run_pipeline,
    sensitivity_scan,
)
from epcovar.errors import (
    ConfigError,
    DataError,
    InfeasibleError,
    InfeasibleViewError,
    NumericDomainError,
)
from epcovar.normal import bvn_cdf
from epcovar.scenario import build_panel
from epcovar.views import (
    correlation_view,
    distribution_view,
    expectation_view,
    mean_variance_view,
    no_view,
    quantile_view,
    relative_view,
    value_view,
    variance_view,
    view_from_dict,
)


@pytest.fixture(scope="module")
def losses_csv(tmp_path_factory):
    rng = np.random.default_rng(21)
    n = 1200
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    x = 0.003 + 0.02 * z1
    y = 0.002 + 0.015 * (0.6 * z1 + 0.8 * z2)
    path = tmp_path_factory.mktemp("data") / "losses.csv"
    lines = ["date,SVB,NBI\n"]
    lines += [
        f"2021-{i % 12 + 1:02d}-{i % 28 + 1:02d},{x[i]:.8f},{y[i]:.8f}\n"
        for i in range(n)
    ]
    path.write_text("".join(lines))
    return str(path)


@pytest.fixture(scope="module")
def colinear_csv(tmp_path_factory):
    """Y = 2X exactly, so the sample correlation is exactly 1."""
    x = np.random.default_rng(22).standard_normal(60) * 0.02
    path = tmp_path_factory.mktemp("data") / "colinear.csv"
    path.write_text("X,Y\n" + "".join(f"{v!r},{2 * v!r}\n" for v in x.tolist()))
    return str(path)


def normal_grid_panel(p: BivariateNormalParams, n=201, span=6.0):
    """Density-weighted grid discretization of a bivariate normal prior."""
    gx = np.linspace(p.mu_x - span * p.sigma_x, p.mu_x + span * p.sigma_x, n)
    gy = np.linspace(p.mu_y - span * p.sigma_y, p.mu_y + span * p.sigma_y, n)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    zx = (mx - p.mu_x) / p.sigma_x
    zy = (my - p.mu_y) / p.sigma_y
    dens = np.exp(
        -(zx**2 - 2 * p.rho * zx * zy + zy**2) / (2 * (1 - p.rho**2))
    )
    return build_panel(mx.ravel(), my.ravel(), dens.ravel())


class TestIngest:
    def test_three_row_file(self):
        buf = io.StringIO("date,SVB,NBI\n1,0.1,0.2\n2,0.3,0.4\n3,0.5,0.6\n")
        res = ingest_csv(buf, ["SVB", "NBI"])
        assert res.n_rows == 3 and res.n_dropped == 0
        np.testing.assert_allclose(res.series["SVB"], [0.1, 0.3, 0.5])

    def test_missing_column_names_available(self, losses_csv):
        with pytest.raises(DataError, match=r"\['FRB'\].*available.*SVB"):
            ingest_csv(losses_csv, ["FRB"])

    def test_blank_cell_dropped_pairwise(self):
        buf = io.StringIO("date,SVB,NBI\n1,0.1,0.2\n2,,0.3\n3,0.4,0.5\n")
        res = ingest_csv(buf, ["SVB", "NBI"])
        assert res.n_rows == 2 and res.n_dropped == 1
        np.testing.assert_allclose(res.series["SVB"], [0.1, 0.4])
        np.testing.assert_allclose(res.series["NBI"], [0.2, 0.5])

    def test_unparseable_selected_cell_raises(self):
        buf = io.StringIO("A,B\n0.1,0.2\noops,0.3\n")
        with pytest.raises(DataError, match="unparseable"):
            ingest_csv(buf, ["A", "B"])

    def test_auto_columns_skip_dates(self):
        buf = io.StringIO("date,A,B\n2021-01-01,0.1,0.2\n2021-01-02,0.3,0.4\n")
        res = ingest_csv(buf)
        assert set(res.series) == {"A", "B"}

    def test_min_rows_enforced_when_requested(self):
        buf = io.StringIO("A,B\n0.1,0.2\n0.3,0.4\n")
        with pytest.raises(DataError, match="need at least 30"):
            ingest_csv(buf, ["A", "B"], min_rows=30)

    def test_empty_file(self):
        with pytest.raises(DataError, match="header"):
            ingest_csv(io.StringIO(""))


class TestAnalyticPipeline:
    def test_no_view_row_collapses(self, losses_csv):
        config = RunConfig(data=losses_csv, x="SVB", y="NBI", views=(no_view(),))
        report = run_pipeline(config)
        row = report.rows[0]
        assert row.covar == row.var
        assert row.delta_covar == 0.0
        assert row.collapsed_to_var

    def test_rows_follow_configuration_order(self, losses_csv):
        views = (expectation_view(0.05), no_view(), expectation_view(0.02))
        config = RunConfig(data=losses_csv, x="SVB", y="NBI", views=views)
        report = run_pipeline(config)
        assert [r.label for r in report.rows] == [
            "mu~_X = 0.05", "none (CoVaR = VaR)", "mu~_X = 0.02",
        ]

    def test_delta_definition_holds_per_row(self, losses_csv):
        views = (
            no_view(),
            expectation_view(0.05),
            quantile_view(0.05, 0.95),
            value_view(0.03, relation="ge"),
        )
        config = RunConfig(data=losses_csv, x="SVB", y="NBI", views=views)
        report = run_pipeline(config)
        for row in report.rows:
            assert abs(row.delta_covar - (row.covar - row.var)) <= 1e-12

    def test_spillover_is_exact_and_each_view_evaluated_once(self, losses_csv, monkeypatch):
        views = (
            no_view(),
            expectation_view(0.013),
            expectation_view(0.013, "le"),
            expectation_view(0.013, "ge"),
            variance_view(6e-4),
            variance_view(6e-4, "le"),
            variance_view(6e-4, "ge"),
            mean_variance_view(0.008, 5e-4),
            quantile_view(0.04, 0.95),
            quantile_view(0.04, 0.95, "le"),
            value_view(0.036),
            value_view(0.036, "ge"),
            value_view(0.003, "le"),
            correlation_view(0.8),
            relative_view(0.006, 4e-4),
            expectation_view(0.01, target="y"),
            value_view(0.027, "ge", target="y"),
        )
        pooled = (
            expectation_view(0.013, confidence=0.5),
            value_view(0.036, "ge", confidence=0.3),
            value_view(0.036, confidence=0.2),
        )
        calls = []
        real = analytics.bvn_cdf

        def counting(*args):
            calls.append(args)
            return real(*args)

        mixture_evaluations = []
        real_root = engine._bracketed_root

        def counting_root(f, lo, hi):
            def counted(y):
                mixture_evaluations.append(y)
                return f(y)

            return real_root(counted, lo, hi)

        monkeypatch.setattr(analytics, "bvn_cdf", counting)
        monkeypatch.setattr(engine, "_bracketed_root", counting_root)
        series = ingest_csv(losses_csv, ["SVB", "NBI"]).series
        prior = analytic_prior(series["SVB"], series["NBI"])
        for chosen in (views, pooled):
            calls.clear()
            mixture_evaluations.clear()
            report = run_pipeline(RunConfig(data=losses_csv, x="SVB", y="NBI", views=chosen))
            for row in report.rows:
                assert row.delta_covar == row.covar - row.var, row.label
            report_calls = len(calls)
            calls.clear()
            for view in chosen:
                analytics.covar_for_view(prior, view, 0.95)
            assert len(calls) > 0
            # each view is evaluated once; the pooled mixture adds one call per
            # evaluation for its one half-line value view, and nothing else
            assert report_calls == len(calls) + len(mixture_evaluations)
        assert len(mixture_evaluations) > 0

    def test_pooling_a_degenerate_posterior_is_a_numeric_domain_error(self, colinear_csv):
        # Y = 2X gives a sample correlation of exactly 1, where a correlation
        # view leaves the bivariate-normal family and has no law to pool
        series = ingest_csv(colinear_csv, ["X", "Y"]).series
        assert analytic_prior(series["X"], series["Y"]).rho == 1.0
        views = (correlation_view(0.5, confidence=0.5), expectation_view(0.1, confidence=0.5))
        config = RunConfig(data=colinear_csv, x="X", y="Y", views=views)
        with pytest.raises(NumericDomainError, match=r"cannot pool rho~ = 0\.5"):
            run_pipeline(config)

    def test_distribution_view_needs_scenario_mode(self, losses_csv):
        view = view_from_dict(
            {"kind": "distribution", "bin_edges": [0, 1], "bin_probs": [1.0]}
        )
        config = RunConfig(data=losses_csv, x="SVB", y="NBI", views=(view,))
        with pytest.raises(ConfigError, match="scenario"):
            run_pipeline(config)


class TestScenarioPipeline:
    def test_no_view_equals_var_and_determinism(self, losses_csv):
        config = RunConfig(
            data=losses_csv, x="SVB", y="NBI", mode="scenario",
            scenarios=5000, seed=9, views=(no_view(), expectation_view(0.04)),
        )
        first = run_pipeline(config)
        second = run_pipeline(config)
        assert render_report(first, "csv") == render_report(second, "csv")
        assert first.rows[0].covar == first.rows[0].var
        assert first.rows[1].residual <= 1e-8
        assert first.rows[1].entropy > 0.0

    def test_both_fitted_priors_call_the_fits_through_engine(self, losses_csv, monkeypatch):
        # per-layer tracing rebinds these engine attributes, so both priors
        # must look them up there at call time
        calls = []
        for name in ("fit_t_marginal", "fit_t_copula", "pseudo_observations",
                     "generate_scenarios"):
            real = getattr(engine, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(engine, name, counted)
        series = ingest_csv(losses_csv, ["SVB", "NBI"]).series
        x, y = series["SVB"], series["NBI"]
        engine.fitted_prior(x, y)
        fit_calls = ["fit_t_marginal"] * 2 + ["pseudo_observations"] * 2 + ["fit_t_copula"]
        assert sorted(calls) == sorted(fit_calls)
        calls.clear()
        config = RunConfig(data=losses_csv, x="SVB", y="NBI", mode="scenario",
                           scenarios=500, seed=9)
        engine.scenario_prior(config, x, y)
        assert sorted(calls) == sorted(fit_calls + ["generate_scenarios"])

    def test_grid_discretized_mean_view_matches_closed_form(self):
        prior = BivariateNormalParams(0.10, 0.02, 0.10, 0.08, 0.5)
        panel = normal_grid_panel(prior)
        covar, rep = ep_covar_on_panel(panel, expectation_view(0.16), 0.95)
        closed = covar_expectation_view(prior, 0.16, "eq", 0.95).covar
        assert abs(covar - closed) <= 0.01 * prior.sigma_y
        assert rep.residual <= 1e-8

    def test_pooling_idempotence(self, losses_csv):
        config = RunConfig(
            data=losses_csv, x="SVB", y="NBI", mode="scenario",
            scenarios=5000, seed=9,
            views=(
                expectation_view(0.05, confidence=0.5),
                expectation_view(0.05, confidence=0.5),
            ),
        )
        report = run_pipeline(config)
        assert [r.method for r in report.rows] == ["scenario-EP", "scenario-EP", "pooled"]
        assert abs(report.rows[2].covar - report.rows[0].covar) <= 1e-12
        # identical views: their mixture still satisfies the shared constraint
        assert report.rows[2].residual <= 1e-8

    def test_pooled_row_reports_mixture_violation(self, losses_csv):
        config = RunConfig(
            data=losses_csv, x="SVB", y="NBI", mode="scenario",
            scenarios=5000, seed=9,
            views=(
                expectation_view(0.05, confidence=0.5),
                expectation_view(-0.03, confidence=0.5),
            ),
        )
        report = run_pipeline(config)
        pooled = report.rows[-1]
        # a mixture of two different mean views satisfies neither exactly
        assert pooled.residual > 1e-4
        assert pooled.entropy >= 0.0

    def test_analytic_normal_mode_spelling(self, losses_csv):
        config = RunConfig(data=losses_csv, x="SVB", y="NBI", mode="analytic-normal")
        assert config.mode == "analytic"
        assert run_pipeline(config).rows[0].collapsed_to_var

    def test_mixed_confidences_rejected(self, losses_csv):
        config = RunConfig(
            data=losses_csv, x="SVB", y="NBI", mode="scenario", scenarios=5000,
            views=(
                expectation_view(0.05, confidence=1.0),
                expectation_view(0.02, confidence=0.5),
            ),
        )
        with pytest.raises(ConfigError, match="ambiguous"):
            run_pipeline(config)

    def test_quantile_level_free_in_scenario_mode(self, losses_csv):
        config = RunConfig(
            data=losses_csv, x="SVB", y="NBI", mode="scenario",
            scenarios=5000, seed=9,
            views=(quantile_view(0.02, level=0.8),),  # level differs from alpha
        )
        report = run_pipeline(config)
        assert report.rows[0].residual <= 1e-8

    def test_confidences_must_sum_to_one(self, losses_csv):
        config = RunConfig(
            data=losses_csv, x="SVB", y="NBI", mode="scenario", scenarios=5000,
            views=(
                expectation_view(0.05, confidence=0.5),
                expectation_view(0.02, confidence=0.3),
            ),
        )
        with pytest.raises(ConfigError, match="sum"):
            run_pipeline(config)


def _every_scenario_kind(confidence=1.0):
    views = (
        expectation_view(0.01),
        variance_view(5e-4),
        variance_view(3e-4, "le"),
        mean_variance_view(0.005, 4.5e-4),
        quantile_view(0.03, level=0.9),
        value_view(0.03),
        value_view(0.03, "ge"),
        value_view(0.0, "le"),
        value_view(0.02, "ge", target="y"),
        correlation_view(0.7),
        relative_view(0.002, 3e-4),
        distribution_view([-1.0, -0.01, 0.0, 0.01, 1.0], [0.2, 0.25, 0.25, 0.3]),
        no_view(),
    )
    return tuple(replace(v, confidence=confidence) for v in views)


class TestThreadedViews:
    """The view stage runs on two threads from ``_THREADED_MIN_SCENARIOS``
    scenarios; reports and errors are the serial loop's
    (``_oracles.serial_scenario_rows``). Most tests lower the cut-over to
    their J = 5,000 panels, so that the threaded path runs."""

    def _config(self, losses_csv, views, scenarios=5000):
        return RunConfig(data=losses_csv, x="SVB", y="NBI", mode="scenario",
                         scenarios=scenarios, seed=9, views=views)

    def _serial(self, monkeypatch, config):
        with monkeypatch.context() as m:
            m.setattr(engine, "_scenario_rows", serial_scenario_rows)
            try:
                return run_pipeline(config)
            except Exception as exc:  # compared with the threaded run's error
                return exc

    def _thread_counts(self, monkeypatch):
        """``threading.active_count()`` at each view evaluation."""
        seen = []
        real = engine.ep_covar_on_panel

        def counting(*args):
            seen.append(threading.active_count())
            return real(*args)

        monkeypatch.setattr(engine, "ep_covar_on_panel", counting)
        return seen

    def _assert_matches_serial(self, monkeypatch, config):
        report = run_pipeline(config)
        serial = self._serial(monkeypatch, config)
        assert repr(report.rows) == repr(serial.rows)
        for fmt in ("table", "csv", "json"):
            assert render_report(report, fmt) == render_report(serial, fmt)
        return report

    def test_reports_match_the_serial_oracle(self, losses_csv, monkeypatch):
        monkeypatch.setattr(engine, "_THREADED_MIN_SCENARIOS", 5000)
        views = _every_scenario_kind()
        self._assert_matches_serial(monkeypatch, self._config(losses_csv, views))
        pooled = _every_scenario_kind(1.0 / len(views))
        report = self._assert_matches_serial(monkeypatch, self._config(losses_csv, pooled))
        assert [r.method for r in report.rows][-2:] == ["scenario-EP", "pooled"]

    def test_threads_from_the_cut_over_and_not_below(self, losses_csv, monkeypatch):
        before = threading.active_count()
        views = _every_scenario_kind(1.0 / 13)
        seen = self._thread_counts(monkeypatch)
        config = self._config(losses_csv, views, scenarios=engine._THREADED_MIN_SCENARIOS)
        self._assert_matches_serial(monkeypatch, config)
        assert max(seen[:13]) == before + 1
        seen.clear()
        run_pipeline(self._config(losses_csv, views, scenarios=engine._THREADED_MIN_SCENARIOS - 1))
        assert seen == [before] * 13

    @pytest.mark.parametrize(
        "views, error",
        [
            # view 0 fails at compile, view 2 in the solve
            ((value_view(99.0, "ge"), expectation_view(0.01), expectation_view(1000.0)),
             InfeasibleViewError),
            # view 0 fails in the solve, view 2 at compile
            ((expectation_view(1000.0), expectation_view(0.01), value_view(99.0, "ge")),
             InfeasibleError),
            # only the last view fails
            ((expectation_view(0.01), variance_view(5e-4), mean_variance_view(0.005, 4.5e-4),
              expectation_view(-1000.0)), InfeasibleError),
        ],
    )
    def test_first_failing_view_in_order_raises(self, losses_csv, monkeypatch, views, error):
        monkeypatch.setattr(engine, "_THREADED_MIN_SCENARIOS", 5000)
        config = self._config(losses_csv, views)
        with pytest.raises(error) as err:
            run_pipeline(config)
        serial = self._serial(monkeypatch, config)
        assert type(serial) is error and str(err.value) == str(serial)
        assert str(err.value).startswith("solver: ")
        assert getattr(err.value, "residual", None) == getattr(serial, "residual", None)

    def test_at_most_one_worker_and_none_left(self, losses_csv, monkeypatch):
        monkeypatch.setattr(engine, "_THREADED_MIN_SCENARIOS", 5000)
        before = threading.active_count()
        seen = self._thread_counts(monkeypatch)
        run_pipeline(self._config(losses_csv, _every_scenario_kind(1.0 / 13)))
        assert threading.active_count() == before
        assert len(seen) == 13 and max(seen) == before + 1
        failing = (expectation_view(0.01), expectation_view(1000.0), variance_view(5e-4))
        with pytest.raises(InfeasibleError):
            run_pipeline(self._config(losses_csv, failing))
        assert threading.active_count() == before

    def test_each_item_once_in_order_under_fast_switching(self):
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                calls = []

                def square(i):
                    calls.append(i)
                    return i * i

                assert engine._on_two_threads(square, range(200)) == [i * i for i in range(200)]
                assert sorted(calls) == list(range(200))
        finally:
            sys.setswitchinterval(switch)


class TestAnalyticPooling:
    def test_two_equal_views_match_the_single_view(self, losses_csv):
        single = RunConfig(
            data=losses_csv, x="SVB", y="NBI", views=(expectation_view(0.05),)
        )
        double = RunConfig(
            data=losses_csv, x="SVB", y="NBI",
            views=(
                expectation_view(0.05, confidence=0.5),
                expectation_view(0.05, confidence=0.5),
            ),
        )
        want = run_pipeline(single).rows[0].covar
        got = run_pipeline(double).rows[-1]
        assert got.method == "pooled"
        assert abs(got.covar - want) <= 1e-9

    def test_mixture_quantile_lies_between_components(self, losses_csv):
        config = RunConfig(
            data=losses_csv, x="SVB", y="NBI",
            views=(
                expectation_view(0.06, confidence=0.7),
                value_view(0.03, relation="ge", confidence=0.3),
            ),
        )
        report = run_pipeline(config)
        lo, hi = sorted(r.covar for r in report.rows[:2])
        assert lo - 1e-12 <= report.rows[-1].covar <= hi + 1e-12


class TestQuantileViewPosteriorType:
    """The scenario engine reweights scenarios freely, so a raw quantile-mass
    constraint yields the two-piece reweighted posterior, not the posterior of
    the normal-family closed form. Both behaviors are pinned here."""

    PRIOR = BivariateNormalParams(0.10, 0.02, 0.10, 0.08, 0.8)
    ALPHA = 0.95

    def _type_free_covar(self, p, q1, alpha):
        # independent closed form of the reweighted posterior: mass alpha on
        # {X <= q1}, 1 - alpha above, conditional shapes unchanged
        zq = (q1 - p.mu_x) / p.sigma_x
        beta = ndtr(zq)

        def posterior_cdf(y):
            zy = (y - p.mu_y) / p.sigma_y
            joint = bvn_cdf(zq, zy, p.rho)
            return alpha / beta * joint + (1 - alpha) / (1 - beta) * (ndtr(zy) - joint)

        lo, hi = p.mu_y - 12 * p.sigma_y, p.mu_y + 12 * p.sigma_y
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if posterior_cdf(mid) < alpha:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_indicator_constraint_reproduces_the_reweighted_posterior(self):
        p = self.PRIOR
        panel = normal_grid_panel(p, n=241)
        q_x = var_normal_x(p, self.ALPHA)
        q1 = q_x + 0.5 * p.sigma_x
        covar, _ = ep_covar_on_panel(panel, quantile_view(q1, self.ALPHA), self.ALPHA)
        want = self._type_free_covar(p, q1, self.ALPHA)
        assert abs(covar - want) <= 0.01 * p.sigma_y

    def test_reweighted_posterior_departs_from_the_normal_family_value(self):
        # the same constraint solved without a posterior-type restriction
        # sits visibly below the normal-family value: conditioning type
        # matters for quantile views
        p = self.PRIOR
        q1 = var_normal_x(p, self.ALPHA) + 0.5 * p.sigma_x
        free = self._type_free_covar(p, q1, self.ALPHA)
        typed = covar_quantile_view(p, q1, "eq", self.ALPHA).covar
        assert typed - free > 0.05 * p.sigma_y

    def test_split_posterior_mass_structure(self):
        # reweighting drains the band just above the threshold and piles
        # mass below it: the hallmark of the unrestricted posterior
        p = self.PRIOR
        panel = normal_grid_panel(p, n=121)
        q_x = var_normal_x(p, self.ALPHA)
        q1 = q_x - 2.0 * p.sigma_x
        _, rep = ep_covar_on_panel(panel, quantile_view(q1, self.ALPHA), self.ALPHA)
        ratio = rep.posterior.weights / panel.prior
        below = panel.x <= q1
        assert ratio[below].mean() > 5.0 * ratio[~below].mean()


class TestDistributionExpressedViews:
    def test_binned_expression_of_a_mean_view_converges_to_its_closed_form(self):
        # expressing a mean view through bin probabilities of its posterior
        # X marginal reproduces the closed form as the bins refine (the
        # piecewise-constant tilt converges to the smooth exponential tilt)
        p = BivariateNormalParams(0.10, 0.02, 0.10, 0.08, 0.5)
        panel = normal_grid_panel(p, n=241)
        closed = covar_expectation_view(p, 0.15, "eq", 0.95).covar
        post_mu, post_sd = 0.15, p.sigma_x
        gaps = []
        for n_bins in (16, 32, 64):
            edges = np.linspace(p.mu_x - 6 * p.sigma_x, p.mu_x + 6 * p.sigma_x, n_bins + 1)
            probs = np.diff(ndtr((edges - post_mu) / post_sd))
            probs = probs / probs.sum()
            view = view_from_dict(
                {"kind": "distribution", "bin_edges": list(edges), "bin_probs": list(probs)}
            )
            got, rep = ep_covar_on_panel(panel, view, 0.95)
            assert rep.residual <= 1e-8
            gaps.append(abs(got - closed) / p.sigma_y)
        assert gaps[1] <= 0.01 and gaps[2] <= 0.01
        assert gaps[0] > gaps[1] > gaps[2]  # refinement helps monotonically


class TestEmit:
    def _report(self, rows):
        return RiskReport(
            rows=tuple(rows), alpha=0.95, x_name="SVB", y_name="NBI",
            unit="percent", mode="analytic",
        )

    def test_empty_report_is_header_only_csv(self):
        text = render_report(self._report([]), "csv")
        assert text == "view,method,var,covar,delta_covar,collapsed_to_var,diagnostics\n"

    def test_single_row_has_seven_fields(self):
        row = ReportRow("mu~_X = 0.1", "analytic", 0.1, 0.2, 0.1, False)
        lines = render_report(self._report([row]), "csv").splitlines()
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 7

    def test_byte_identical_rendering(self):
        row = ReportRow(
            "q~_X(0.95) = 0.6", "scenario-EP", 0.1, 0.2, 0.1,
            residual=1e-12, iterations=7, entropy=0.25,
        )
        report = self._report([row, row])
        for fmt in ("table", "csv", "json"):
            assert render_report(report, fmt) == render_report(report, fmt)
            assert render_report(report, fmt).endswith("\n")

    def test_json_shape(self):
        row = ReportRow("none (CoVaR = VaR)", "analytic", 0.1, 0.1, 0.0, True)
        doc = json.loads(render_report(self._report([row]), "json"))
        assert doc["unit"] == "percent"
        assert doc["rows"][0]["collapsed_to_var"] is True

    def test_table_echoes_unit_and_diagnostics(self):
        row = ReportRow(
            "mu~_X = 0.1", "scenario-EP", 0.1, 0.2, 0.1,
            residual=2e-11, iterations=12, entropy=0.5,
        )
        text = render_report(self._report([row]), "table")
        assert "unit=percent" in text
        assert "iterations=12" in text


class TestSensitivityScan:
    PRIOR = BivariateNormalParams(0.10, 0.02, 0.10, 0.08, 0.5)

    def test_variance_scan_hits_var_at_the_prior_point(self):
        var = var_normal(self.PRIOR, 0.95)
        rows = sensitivity_scan(self.PRIOR, "variance", 0.005, self.PRIOR.sigma_x**2, 7)
        assert rows[-1][1] == var
        values = [c for _, c in rows]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_correlation_scan_hits_var_at_the_prior_point(self):
        # the scan endpoint coincides with the prior correlation exactly
        var = var_normal(self.PRIOR, 0.95)
        rows = sensitivity_scan(self.PRIOR, "correlation", self.PRIOR.rho, 0.9, 5)
        assert rows[0][1] == var

    def test_expectation_scan_is_affine(self):
        rows = sensitivity_scan(self.PRIOR, "expectation", -0.2, 0.4, 25)
        diffs = np.diff([c for _, c in rows])
        assert np.all(np.abs(diffs - diffs[0]) < 1e-10)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ConfigError, match="degenerate"):
            sensitivity_scan(self.PRIOR, "variance", 0.01, 0.01, 5)
        with pytest.raises(ConfigError, match="degenerate"):
            sensitivity_scan(self.PRIOR, "variance", 0.01, 0.02, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="scan kind"):
            sensitivity_scan(self.PRIOR, "skew", 0.0, 1.0, 5)

    def test_config_input_resolves_prior_from_data(self, losses_csv):
        config = RunConfig(data=losses_csv, x="SVB", y="NBI")
        rows = sensitivity_scan(config, "expectation", 0.0, 0.1, 5)
        assert len(rows) == 5

    def test_scenario_mode_config_rejected(self, losses_csv):
        # a scan is closed-form; scanning a scenario config would silently
        # use the sample-moment normal prior instead of the scenario panel
        config = RunConfig(data=losses_csv, x="SVB", y="NBI", mode="scenario")
        with pytest.raises(ConfigError, match="scenario mode"):
            sensitivity_scan(config, "expectation", 0.0, 1.0, 3)


class TestConfig:
    def test_from_dict_round_trip(self, losses_csv):
        config = config_from_dict(
            {
                "data": losses_csv, "x": "SVB", "y": "NBI", "alpha": 0.9,
                "mode": "scenario", "scenarios": 500, "seed": 3,
                "views": [{"kind": "expectation", "mean": 0.05}],
            }
        )
        assert config.alpha == 0.9
        assert config.views[0].mean == 0.05

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"data": "x.csv", "x": "A", "y": "B", "zzz": 1})

    def test_validation(self, losses_csv):
        with pytest.raises(ConfigError, match="alpha"):
            RunConfig(data=losses_csv, x="A", y="B", alpha=1.5)
        with pytest.raises(ConfigError, match="mode"):
            RunConfig(data=losses_csv, x="A", y="B", mode="mc")
        with pytest.raises(ConfigError, match="at least one view"):
            RunConfig(data=losses_csv, x="A", y="B", views=())
        with pytest.raises(ConfigError, match="100"):
            RunConfig(data=losses_csv, x="A", y="B", mode="scenario", scenarios=10)

    @pytest.mark.parametrize(
        "key,value",
        [("scenarios", 1e4), ("scenarios", 20000.0), ("scenarios", True),
         ("seed", 1.5), ("seed", "7"), ("seed", False), ("seed", -1)],
    )
    def test_scenarios_and_seed_must_be_integers(self, key, value):
        base = {"data": "x.csv", "x": "A", "y": "B", "mode": "scenario"}
        with pytest.raises(ConfigError, match=key):
            config_from_dict({**base, key: value})

    def test_views_file_accepts_bare_list(self, tmp_path):
        path = tmp_path / "views.json"
        path.write_text('[{"kind": "none"}]')
        views = load_views_file(path)
        assert views[0].kind == "none"


class TestCli:
    def _run(self, args):
        return cli.main(args)

    def test_success_with_output_file(self, losses_csv, tmp_path):
        out = tmp_path / "report.csv"
        rc = self._run(
            ["--data", losses_csv, "--x", "SVB", "--y", "NBI",
             "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("view,method")
        assert len(lines) == 2

    def test_config_file_with_flag_override(self, losses_csv, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {"data": losses_csv, "x": "SVB", "y": "NBI", "alpha": 0.9,
                 "views": [{"kind": "none"}]}
            )
        )
        rc = self._run([str(config), "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] == 0.9

    def test_missing_required_flags(self, capsys):
        assert self._run(["--x", "SVB"]) == 2

    def test_config_error_exit(self, losses_csv):
        assert self._run(
            ["--data", losses_csv, "--x", "SVB", "--y", "NBI", "--alpha", "2"]
        ) == 2

    @pytest.mark.parametrize(
        "key,value", [("scenarios", 1e4), ("seed", 1.5), ("seed", "7"), ("seed", -1)]
    )
    def test_non_integer_or_negative_scenarios_and_seed_exit_config(
        self, losses_csv, tmp_path, capsys, key, value
    ):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"data": losses_csv, "x": "SVB", "y": "NBI", "mode": "scenario",
                        key: value})
        )
        assert self._run([str(config)]) == 2
        assert f"config error: {key} must be" in capsys.readouterr().err

    def test_negative_seed_flag_exits_config(self, losses_csv, capsys):
        rc = self._run(
            ["--data", losses_csv, "--x", "SVB", "--y", "NBI", "--mode", "scenario",
             "--scenarios", "500", "--seed", "-1"]
        )
        assert rc == 2
        assert "config error: seed must be non-negative" in capsys.readouterr().err

    def test_data_error_exit(self, losses_csv):
        assert self._run(["--data", losses_csv, "--x", "WAL", "--y", "NBI"]) == 3

    def test_infeasible_exit(self, losses_csv, tmp_path):
        views = tmp_path / "views.json"
        views.write_text('[{"kind": "expectation", "mean": 1000000.0}]')
        rc = self._run(
            ["--data", losses_csv, "--x", "SVB", "--y", "NBI",
             "--mode", "scenario", "--scenarios", "500", "--views", str(views)]
        )
        assert rc == 4

    def test_numeric_domain_exit(self, losses_csv, tmp_path):
        views = tmp_path / "views.json"
        views.write_text('[{"kind": "value", "relation": "le", "value": -99.0}]')
        rc = self._run(
            ["--data", losses_csv, "--x", "SVB", "--y", "NBI", "--views", str(views)]
        )
        assert rc == 5

    def test_pooled_degenerate_posterior_exits_numeric_domain(self, colinear_csv, tmp_path, capsys):
        views = tmp_path / "views.json"
        views.write_text(
            '[{"kind": "correlation", "correlation": 0.5, "confidence": 0.5},'
            ' {"kind": "expectation", "mean": 0.1, "confidence": 0.5}]'
        )
        rc = self._run(["--data", colinear_csv, "--x", "X", "--y", "Y", "--views", str(views)])
        assert rc == 5
        assert "numeric-domain error" in capsys.readouterr().err

    def test_scan_tsv(self, losses_csv, capsys):
        rc = self._run(
            ["--data", losses_csv, "--x", "SVB", "--y", "NBI",
             "--scan", "expectation:0.0:0.1:4"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(len(line.split("\t")) == 2 for line in lines)

    def test_scan_in_scenario_mode_is_a_config_error(self, losses_csv, capsys):
        rc = self._run(
            ["--data", losses_csv, "--x", "SVB", "--y", "NBI",
             "--mode", "scenario", "--scan", "expectation:0:1:3"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scenario mode" in captured.err

    def test_analytic_from_fit_mode(self, losses_csv, capsys):
        rc = self._run(
            ["--data", losses_csv, "--x", "SVB", "--y", "NBI", "--mode", "analytic-from-fit"]
        )
        assert rc == 0
        report = run_pipeline(
            RunConfig(data=losses_csv, x="SVB", y="NBI", mode="analytic-from-fit")
        )
        assert report.mode == "analytic-from-fit"
        assert capsys.readouterr().out == render_report(report, "table")

    def test_bad_scan_spec(self, losses_csv):
        rc = self._run(
            ["--data", losses_csv, "--x", "SVB", "--y", "NBI", "--scan", "variance:1"]
        )
        assert rc == 2

    def test_module_entry_point(self, losses_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "epcovar.cli", "--data", losses_csv,
             "--x", "SVB", "--y", "NBI"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert proc.returncode == 0
        assert "none (CoVaR = VaR)" in proc.stdout


class TestBacktestStats:
    def test_hand_values(self):
        from epcovar.engine import backtest_stats

        mean, var = backtest_stats([7.1, 7.0, 7.3], [6.96, 7.00, 7.33])
        diffs = np.abs(np.array([7.1, 7.0, 7.3]) - np.array([6.96, 7.00, 7.33]))
        assert mean == pytest.approx(diffs.mean())
        assert var == pytest.approx(((diffs - diffs.mean()) ** 2).mean())

    def test_guards(self):
        from epcovar.engine import backtest_stats

        with pytest.raises(ValueError, match="length mismatch"):
            backtest_stats([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least one"):
            backtest_stats([], [])


class TestEndToEndDeterminism:
    def test_scenario_report_bytes_are_stable(self, losses_csv):
        config = RunConfig(
            data=losses_csv, x="SVB", y="NBI", mode="scenario",
            scenarios=2000, seed=123,
            views=(no_view(), expectation_view(0.05), quantile_view(0.05, 0.95)),
        )
        a = render_report(run_pipeline(config), "json")
        b = render_report(run_pipeline(config), "json")
        assert a == b

    def test_prior_moments_match_sample(self, losses_csv):
        res = ingest_csv(losses_csv, ["SVB", "NBI"])
        prior = analytic_prior(res.series["SVB"], res.series["NBI"])
        assert prior.mu_x == pytest.approx(res.series["SVB"].mean())
        assert prior.sigma_y == pytest.approx(res.series["NBI"].std(ddof=1))
