"""Pipeline, report formats, sensitivity scans, and the CLI."""

import importlib
import io
import json
import math
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri, stdtrit

from _oracles import bivariate_t_conditional_quantile, serial_scenario_rows
from epcovar import analytics, cli, engine, estimation, scenario, solver
from epcovar.analytics import (
    BivariateNormalParams,
    covar_for_view,
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
    emit_report,
    ingest_csv,
    load_config,
    load_views_file,
    render_report,
    run_pipeline,
    sensitivity_scan,
)
from epcovar.estimation import TCopulaParams, TMarginal, generate_scenarios
from epcovar.errors import (
    ConfigError,
    DataError,
    InfeasibleError,
    NumericDomainError,
)
from epcovar.normal import bvn_cdf
from epcovar.scenario import build_panel, interpolated_quantile
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

_BENCH = Path(__file__).resolve().parent.parent / "bench"


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


class TestNonFiniteLosses:
    """``ingest_csv`` parses an ``inf`` cell; the pipeline refuses it at ingest,
    naming the column and the value, before any prior is built."""

    @pytest.fixture(scope="class")
    def inf_csv(self, tmp_path_factory):
        rng = np.random.default_rng(24)
        x, y = rng.standard_normal(40).tolist(), rng.standard_normal(40).tolist()
        x[5], y[12] = math.inf, -math.inf
        path = tmp_path_factory.mktemp("data") / "inf.csv"
        path.write_text("X,Y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x, y)))
        return str(path)

    # the X column is checked first, so swapping the columns names the other one
    CASES = [("X", "Y", "non-finite loss inf in column 'X'"),
             ("Y", "X", "non-finite loss -inf in column 'Y'")]

    @pytest.mark.parametrize("mode", ["analytic", "analytic-from-fit", "scenario"])
    @pytest.mark.parametrize("x, y, message", CASES)
    def test_every_mode_refuses_at_ingest(self, inf_csv, mode, x, y, message):
        config = RunConfig(data=inf_csv, x=x, y=y, mode=mode, scenarios=500)
        with pytest.raises(DataError) as err:
            run_pipeline(config)
        assert str(err.value) == f"ingest: {message}"

    @pytest.mark.parametrize("mode, extra", [
        ("analytic", []), ("analytic-from-fit", []), ("scenario", []),
        ("analytic", ["--scan", "expectation:0:1:3"]),
        ("analytic-from-fit", ["--scan", "expectation:0:1:3"]),
    ], ids=["analytic", "analytic-from-fit", "scenario", "analytic-scan", "fit-scan"])
    def test_cli_exits_3(self, inf_csv, capsys, mode, extra):
        rc = cli.main(["--data", inf_csv, "--x", "X", "--y", "Y", "--mode", mode, *extra])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "data error: ingest: non-finite loss inf in column 'X'\n"


class TestUnboundedLikelihood:
    """An X column that is 70% one value has no t fit: its likelihood grows
    without bound as the scale shrinks to 0. Both fitted modes refuse it as
    an estimation error; the analytic mode fits no t law and reports."""

    MESSAGE = ("estimation: unbounded t likelihood: the value 0.0 repeats 350 times in "
               "500 samples, more than 2.1/3.1 of them")

    @pytest.fixture(scope="class")
    def tied_csv(self, tmp_path_factory):
        rng = np.random.default_rng(70)
        x = 0.01 * rng.standard_t(5.0, 500)
        x[rng.permutation(500)[:350]] = 0.0
        y = 0.5 * x + 0.01 * rng.standard_t(5.0, 500)
        path = tmp_path_factory.mktemp("data") / "tied.csv"
        rows = zip(x.tolist(), y.tolist())
        path.write_text("X,Y\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
        return str(path)

    @pytest.mark.parametrize("mode", ["analytic-from-fit", "scenario"])
    def test_fitted_modes_refuse(self, tied_csv, mode):
        config = RunConfig(data=tied_csv, x="X", y="Y", mode=mode, scenarios=500,
                           views=(expectation_view(0.01),))
        with pytest.raises(DataError) as err:
            run_pipeline(config)
        assert str(err.value) == self.MESSAGE

    @pytest.mark.parametrize("mode", ["analytic-from-fit", "scenario"])
    def test_cli_exits_3(self, tied_csv, capsys, mode):
        rc = cli.main(["--data", tied_csv, "--x", "X", "--y", "Y", "--mode", mode])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: {self.MESSAGE}\n"

    def test_analytic_mode_reports(self, tied_csv, capsys):
        assert cli.main(["--data", tied_csv, "--x", "X", "--y", "Y"]) == 0


class TestRankDegeneracy:
    """An X column that is 55% one value has a bounded t likelihood, but its
    tied values share one mean rank, so the copula's tie guard refuses it in
    both fitted modes; the analytic mode fits no copula and reports. Losses
    quoted to two decimals tie in many small groups, none over half, and
    get a report in every mode."""

    MESSAGE = ("estimation: rank degeneracy: 165 of 300 entries are tied at one value, "
               "more than half")

    @pytest.fixture(scope="class")
    def tied_csv(self, tmp_path_factory):
        rng = np.random.default_rng(55)
        x = 0.01 * rng.standard_t(5.0, 300)
        x[rng.permutation(300)[:165]] = 0.0
        y = 0.5 * x + 0.01 * rng.standard_t(5.0, 300)
        path = tmp_path_factory.mktemp("data") / "tied.csv"
        rows = zip(x.tolist(), y.tolist())
        path.write_text("X,Y\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
        return str(path)

    @pytest.mark.parametrize("mode", ["analytic-from-fit", "scenario"])
    def test_fitted_modes_refuse(self, tied_csv, mode):
        config = RunConfig(data=tied_csv, x="X", y="Y", mode=mode, scenarios=500,
                           views=(expectation_view(0.01),))
        with pytest.raises(DataError) as err:
            run_pipeline(config)
        assert str(err.value) == self.MESSAGE

    @pytest.mark.parametrize("mode", ["analytic-from-fit", "scenario"])
    def test_cli_exits_3(self, tied_csv, capsys, mode):
        rc = cli.main(["--data", tied_csv, "--x", "X", "--y", "Y", "--mode", mode])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: {self.MESSAGE}\n"

    def test_analytic_mode_reports(self, tied_csv):
        assert cli.main(["--data", tied_csv, "--x", "X", "--y", "Y"]) == 0

    @pytest.fixture(scope="class")
    def rounded_csv(self, tmp_path_factory):
        # 1,000 daily percent losses to two decimals: 418 distinct values in
        # X, the commonest in 10 rows
        rng = np.random.default_rng(56)
        x = rng.standard_t(5.0, 1000)
        y = 0.5 * x + rng.standard_t(5.0, 1000)
        path = tmp_path_factory.mktemp("data") / "rounded.csv"
        path.write_text("X,Y\n" + "".join(f"{a:.2f},{b:.2f}\n" for a, b in zip(x, y)))
        return str(path)

    @pytest.mark.parametrize("mode", ["analytic", "analytic-from-fit", "scenario"])
    def test_rounded_losses_report(self, rounded_csv, capsys, mode):
        x = np.loadtxt(rounded_csv, delimiter=",", skiprows=1)[:, 0]
        counts = np.unique(x, return_counts=True)[1]
        assert counts.size < 500 and counts.max() < 50
        rc = cli.main(["--data", rounded_csv, "--x", "X", "--y", "Y", "--mode", mode])
        assert rc == 0
        assert capsys.readouterr().err == ""


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

    def test_pooled_value_view_at_unit_correlation_is_a_point_law(self, colinear_csv):
        # Y = 2X: the value view X = v puts all of Y's mass at 2v, far below the
        # mean view's law, so the mixture's 0.95-quantile is that law's
        # 0.9-quantile
        series = ingest_csv(colinear_csv, ["X", "Y"]).series
        prior = analytic_prior(series["X"], series["Y"])
        level = prior.mu_x - 3.0 * prior.sigma_x
        views = (value_view(level, confidence=0.5), expectation_view(0.01, confidence=0.5))
        report = run_pipeline(RunConfig(data=colinear_csv, x="X", y="Y", views=views))
        point, mean_view, pooled = report.rows
        assert point.covar == pytest.approx(prior.mu_y + 2.0 * (level - prior.mu_x), abs=1e-15)
        z90, z95 = ndtri(0.9), ndtri(0.95)
        want = mean_view.covar - prior.sigma_y * (z95 - z90)
        assert pooled.method == "pooled"
        assert pooled.covar == pytest.approx(want, rel=0, abs=1e-12)

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
        engine._prior(RunConfig(data=losses_csv, x="SVB", y="NBI", mode="analytic-from-fit"))
        fit_calls = ["fit_t_marginal"] * 2 + ["pseudo_observations"] * 2 + ["fit_t_copula"]
        assert sorted(calls) == sorted(fit_calls)
        calls.clear()
        config = RunConfig(data=losses_csv, x="SVB", y="NBI", mode="scenario",
                           scenarios=500, seed=9)
        engine._prior(config)
        assert sorted(calls) == sorted(fit_calls + ["generate_scenarios"])

    @pytest.mark.parametrize(
        "view", [quantile_view(-10.0, relation="ge"), quantile_view(10.0, relation="le"),
                 value_view(99.0, relation="le")],
        ids=["quantile-ge", "quantile-le", "value-le"],
    )
    def test_a_view_every_posterior_meets_leaves_var(self, view):
        # no scenario lies at or below -10 (every one at or below 10 and 99): the
        # prior meets the view, which compiles to the normalization row alone
        rng = np.random.default_rng(0)
        panel = build_panel(rng.standard_normal(2000), rng.standard_normal(2000))
        covar, rep = ep_covar_on_panel(panel, view, 0.95)
        assert covar == interpolated_quantile(panel.sorted_y, panel.prior, 0.95)
        assert rep.iterations == 0
        if view.kind == "quantile":  # as the closed form has it
            prior = BivariateNormalParams(0.0, 0.0, 1.0, 1.0, 0.0)
            assert covar_for_view(prior, view, 0.95).branch == f"{view.relation}-collapse"

    def test_value_views_condition_as_the_tilt_would_on_the_benchmark_panels(
            self, tmp_path, monkeypatch):
        # conditioning on the region is the limit the tilt approaches: on the
        # seed-1 scenario_conditioning panels the CoVaRs agree within 1e-10
        # relative, with no Newton step against the tilt's several
        monkeypatch.syspath_prepend(str(_BENCH))
        workloads = importlib.import_module("workloads")
        for op in workloads.ScenarioConditioning(tmp_path, 1).round_ops():
            panel = workloads.build_scenario_panel(op.dataset, op.config.scenarios)
            for view in op.config.views:
                covar, rep = ep_covar_on_panel(panel, view, op.config.alpha)
                with monkeypatch.context() as m:
                    m.setattr(solver, "_conditioned", lambda *args: None)
                    tilted, newton = ep_covar_on_panel(panel, view, op.config.alpha)
                assert rep.iterations == 0 < newton.iterations
                assert abs(covar - tilted) <= 1e-10 * abs(tilted), (view, covar, tilted)

    def test_grid_discretized_mean_view_matches_closed_form(self):
        prior = BivariateNormalParams(0.10, 0.02, 0.10, 0.08, 0.5)
        panel = normal_grid_panel(prior)
        covar, rep = ep_covar_on_panel(panel, expectation_view(0.16), 0.95)
        closed = covar_for_view(prior, expectation_view(0.16), 0.95).covar
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


class TestBivariateTReference:
    """With both marginal dofs equal to the copula dof, ``generate_scenarios``
    samples a bivariate t law, whose conditional quantiles are known by
    quadrature. Over a fixed set of seeds, the mean of the panel estimates
    must lie within a fixed number of its Monte-Carlo standard errors of the
    exact value. The parameters, seeds and bound below are fixed: do not tune
    them to make the test pass."""

    DOF, RHO, ALPHA = 4.0, 0.6, 0.95
    SCENARIOS = 200_000
    SEEDS = range(1, 11)
    BOUND = 4.0  # standard errors of the mean over SEEDS

    def test_var_and_conditioned_covars_match_the_exact_law(self):
        dof, rho, alpha = self.DOF, self.RHO, self.ALPHA
        var_x = float(stdtrit(dof, alpha))
        band = 0.05 * math.sqrt(dof / (dof - 2.0))  # the default band, at the exact std of X
        cases = {  # name: (region of X, view)
            "VaR": ((-math.inf, math.inf), no_view()),
            "X >= VaR_X": ((var_x, math.inf), value_view(var_x, "ge")),
            "X = VaR_X": ((var_x - band, var_x + band), value_view(var_x, band=band)),
        }
        # the unconditioned law's quantile is the t quantile
        assert abs(bivariate_t_conditional_quantile(dof, rho, alpha, -math.inf) - var_x) < 1e-10
        marginal = TMarginal(0.0, 1.0, dof)
        estimates = {name: [] for name in cases}
        for seed in self.SEEDS:
            panel = generate_scenarios(
                marginal, marginal, TCopulaParams(rho, dof), self.SCENARIOS, seed)
            for name, (_, view) in cases.items():
                estimates[name].append(ep_covar_on_panel(panel, view, alpha)[0])
        for name, ((lo, hi), _) in cases.items():
            exact = bivariate_t_conditional_quantile(dof, rho, alpha, lo, hi)
            e = np.array(estimates[name])
            se = e.std(ddof=1) / math.sqrt(e.size)
            assert abs(e.mean() - exact) <= self.BOUND * se, (name, e.mean(), exact, se)


class TestThreadedViews:
    """The view stage runs on two threads from
    ``scenario._THREADED_MIN_SCENARIOS`` scenarios; reports and errors are the
    serial loop's (``_oracles.serial_scenario_rows``). Most tests lower the
    cut-over to their J = 5,000 panels, so that the threaded path runs."""

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
        monkeypatch.setattr(scenario, "_THREADED_MIN_SCENARIOS", 5000)
        views = _every_scenario_kind()
        self._assert_matches_serial(monkeypatch, self._config(losses_csv, views))
        pooled = _every_scenario_kind(1.0 / len(views))
        report = self._assert_matches_serial(monkeypatch, self._config(losses_csv, pooled))
        assert [r.method for r in report.rows][-2:] == ["scenario-EP", "pooled"]

    def test_threads_from_the_cut_over_and_not_below(self, losses_csv, monkeypatch):
        before = threading.active_count()
        views = _every_scenario_kind(1.0 / 13)
        seen = self._thread_counts(monkeypatch)
        sampled = []  # threading.active_count() at each margin the sampler maps
        real = estimation._marginal_losses_inplace
        monkeypatch.setattr(estimation, "_marginal_losses_inplace",
                            lambda *args: (sampled.append(threading.active_count()), real(*args)))
        cut_over = scenario._THREADED_MIN_SCENARIOS
        self._assert_matches_serial(monkeypatch, self._config(losses_csv, views, cut_over))
        assert max(seen[:13]) == before + 1
        assert sampled == [before] * 4  # two runs: the sampler starts no thread at any J
        seen.clear()
        sampled.clear()
        run_pipeline(self._config(losses_csv, views, cut_over - 1))
        assert seen == [before] * 13
        assert sampled == [before] * 2
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "views, refusal, residual",
        [
            # view 0 fails at compile (an empty region misses by 1), view 2 in the solve
            ((value_view(99.0, "ge"), expectation_view(0.01), expectation_view(1000.0)),
             "view unattainable: row 'value_mass(X>=99)' reads 0 on every scenario; no posterior "
             "on the panel gets the max violation below 1.000e+00, above tolerance 1.0e-08", 1.0),
            # view 0 fails in the solve, view 2 at compile
            ((expectation_view(1000.0), expectation_view(0.01), value_view(99.0, "ge")),
             "constraints unattainable", pytest.approx(1000.0, abs=1.0)),
            # only the last view fails
            ((expectation_view(0.01), variance_view(5e-4), mean_variance_view(0.005, 4.5e-4),
              expectation_view(-1000.0)), "constraints unattainable",
             pytest.approx(1000.0, abs=1.0)),
        ],
        ids=[f"views{i}-InfeasibleError" for i in range(3)],
    )
    def test_first_failing_view_in_order_raises(
        self, losses_csv, monkeypatch, views, refusal, residual
    ):
        # the compile-time and the solve refusal are one type, told apart by
        # message and certificate
        monkeypatch.setattr(scenario, "_THREADED_MIN_SCENARIOS", 5000)
        config = self._config(losses_csv, views)
        with pytest.raises(InfeasibleError) as err:
            run_pipeline(config)
        serial = self._serial(monkeypatch, config)
        assert type(serial) is InfeasibleError and str(err.value) == str(serial)
        assert str(err.value).startswith(f"solver: {refusal}")
        assert err.value.residual == serial.residual
        assert err.value.residual == residual

    def test_at_most_one_worker_and_none_left(self, losses_csv, monkeypatch):
        monkeypatch.setattr(scenario, "_THREADED_MIN_SCENARIOS", 5000)
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

                got = scenario._on_two_threads(square, range(200), 50_000)
                assert got == [i * i for i in range(200)]
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


class TestPoolingRulesComeFirst:
    """The pooling rules are checked before a prior is built, in every mode,
    and their errors carry no stage tag."""

    RULES = [
        ((0.5, 0.3), "view confidences sum to 0.8, expected 1"),
        ((1.0, 0.5), "mixing full-confidence and partial-confidence views is ambiguous"),
        ((0.5,), "a single view held with confidence 0.5 has nothing to pool with"),
    ]

    @pytest.fixture
    def no_prior(self, monkeypatch):
        def fails(*args, **kwargs):
            raise AssertionError("a prior was built before the pooling rules were checked")

        for name in ("fit_t_marginal", "analytic_prior"):
            monkeypatch.setattr(engine, name, fails)

    @pytest.mark.parametrize("mode", ["analytic", "analytic-from-fit", "scenario"])
    @pytest.mark.parametrize("confidences, message", RULES)
    def test_each_rule_raises_its_own_error(self, losses_csv, no_prior, mode, confidences,
                                            message):
        views = tuple(expectation_view(0.01 * (i + 1), confidence=c)
                      for i, c in enumerate(confidences))
        config = RunConfig(data=losses_csv, x="SVB", y="NBI", mode=mode, scenarios=200_000,
                           views=views)
        with pytest.raises(ConfigError) as err:
            run_pipeline(config)
        assert str(err.value).startswith(message)

    def test_cli_exits_2_without_a_stage_tag(self, losses_csv, no_prior, tmp_path, capsys):
        views = tmp_path / "views.json"
        views.write_text('[{"kind": "expectation", "mean": 0.01, "confidence": 0.5},'
                         ' {"kind": "expectation", "mean": 0.02, "confidence": 0.3}]')
        rc = cli.main(["--data", losses_csv, "--x", "SVB", "--y", "NBI", "--mode", "scenario",
                       "--scenarios", "200000", "--views", str(views)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: view confidences sum to 0.8, expected 1\n")


class TestLonePartialConfidence:
    """A single view held with confidence below 1 has no mixture to join;
    reporting it as if held with confidence 1 would misstate the request."""

    @pytest.mark.parametrize("mode", ["analytic", "analytic-from-fit", "scenario"])
    def test_is_a_config_error(self, losses_csv, tmp_path, capsys, mode):
        views = tmp_path / "views.json"
        views.write_text('[{"kind": "expectation", "mean": 0.01, "confidence": 0.5}]')
        rc = cli.main(["--data", losses_csv, "--x", "SVB", "--y", "NBI", "--mode", mode,
                       "--scenarios", "500", "--views", str(views)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a single view held with confidence 0.5 has nothing to pool with" in captured.err


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
        typed = covar_for_view(p, quantile_view(q1, self.ALPHA), self.ALPHA).covar
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
        closed = covar_for_view(p, expectation_view(0.15), 0.95).covar
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

    def test_emit_writes_to_a_file_like_sink(self):
        report = self._report([ReportRow("none (CoVaR = VaR)", "analytic", 0.1, 0.1, 0.0, True)])
        sink = io.StringIO()
        emit_report(report, "csv", sink)
        assert sink.getvalue() == render_report(report, "csv")

    def test_unknown_format_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"format must be one of \('table', 'csv', 'json'\)"):
            render_report(self._report([]), "xml")
        with pytest.raises(ConfigError, match="got 'xml'"):
            RunConfig(data="x.csv", x="A", y="B", fmt="xml")

    def test_golden_bytes_of_every_row_kind(self):
        # analytic, collapsed analytic, scenario-EP, pooled analytic (no
        # diagnostics) and pooled scenario (iterations 0) rows, in all formats
        var = 0.0307823456
        pooled = "pooled(mu~_X = 0.1; X >= 0.5)"
        report = self._report([
            ReportRow("mu~_X = 0.1", "analytic", var, 0.0451234567, 0.0451234567 - var, False),
            ReportRow("mu~_X <= 0.2", "analytic", var, var, 0.0, True),
            ReportRow("P(X in bins) = [0.4, 0.6]", "scenario-EP", var, 0.0398765432,
                      0.0398765432 - var, residual=1.5e-12, iterations=7, entropy=0.0123456789),
            ReportRow(pooled, "pooled", var, 0.042, 0.042 - var),
            ReportRow(pooled, "pooled", var, 0.0412, 0.0412 - var,
                      residual=0.00345678, iterations=0, entropy=0.2345678),
        ])
        table = (
            "# general CoVaR report  alpha=0.95  x=SVB  y=NBI  unit=percent  mode=analytic\n"
            "view                                        method                var"
            "       covar       delta  notes\n"
            "mu~_X = 0.1                                 analytic        0.0307823"
            "   0.0451235   0.0143411  \n"
            "mu~_X <= 0.2                                analytic        0.0307823"
            "   0.0307823           0  collapsed-to-var\n"
            "P(X in bins) = [0.4, 0.6]                   scenario-EP     0.0307823"
            "   0.0398765   0.0090942  residual=1.5e-12;iterations=7;entropy=0.0123457\n"
            "pooled(mu~_X = 0.1; X >= 0.5)               pooled          0.0307823"
            "       0.042   0.0112177  \n"
            "pooled(mu~_X = 0.1; X >= 0.5)               pooled          0.0307823"
            "      0.0412   0.0104177  residual=0.00346;iterations=0;entropy=0.234568\n"
        )
        csv_text = (
            "view,method,var,covar,delta_covar,collapsed_to_var,diagnostics\n"
            "mu~_X = 0.1,analytic,0.0307823,0.0451235,0.0143411,false,\n"
            "mu~_X <= 0.2,analytic,0.0307823,0.0307823,0,true,\n"
            '"P(X in bins) = [0.4, 0.6]",scenario-EP,0.0307823,0.0398765,0.0090942,,'
            "residual=1.5e-12;iterations=7;entropy=0.0123457\n"
            "pooled(mu~_X = 0.1; X >= 0.5),pooled,0.0307823,0.042,0.0112177,,\n"
            "pooled(mu~_X = 0.1; X >= 0.5),pooled,0.0307823,0.0412,0.0104177,,"
            "residual=0.00346;iterations=0;entropy=0.234568\n"
        )
        json_text = """{
  "alpha": 0.95,
  "x": "SVB",
  "y": "NBI",
  "unit": "percent",
  "mode": "analytic",
  "rows": [
    {
      "view": "mu~_X = 0.1",
      "method": "analytic",
      "var": 0.0307823,
      "covar": 0.0451235,
      "delta_covar": 0.0143411,
      "collapsed_to_var": false
    },
    {
      "view": "mu~_X <= 0.2",
      "method": "analytic",
      "var": 0.0307823,
      "covar": 0.0307823,
      "delta_covar": 0.0,
      "collapsed_to_var": true
    },
    {
      "view": "P(X in bins) = [0.4, 0.6]",
      "method": "scenario-EP",
      "var": 0.0307823,
      "covar": 0.0398765,
      "delta_covar": 0.0090942,
      "residual": 1.5e-12,
      "iterations": 7,
      "entropy": 0.0123457
    },
    {
      "view": "pooled(mu~_X = 0.1; X >= 0.5)",
      "method": "pooled",
      "var": 0.0307823,
      "covar": 0.042,
      "delta_covar": 0.0112177
    },
    {
      "view": "pooled(mu~_X = 0.1; X >= 0.5)",
      "method": "pooled",
      "var": 0.0307823,
      "covar": 0.0412,
      "delta_covar": 0.0104177,
      "residual": 0.00345678,
      "iterations": 0,
      "entropy": 0.234568
    }
  ]
}
"""
        assert render_report(report, "table") == table
        assert render_report(report, "csv") == csv_text
        assert render_report(report, "json") == json_text


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
        [("views", [{"kind": "none"}]), ("views", "none"), ("views", (None,)),
         ("views", no_view()), ("alpha", "0.9"), ("alpha", True), ("alpha", None)],
        ids=["views-dicts", "views-string", "views-none", "views-bare-spec",
             "alpha-string", "alpha-bool", "alpha-none"],
    )
    def test_views_and_alpha_types_are_checked(self, key, value):
        # the Python API bypasses parse_views; a bad value must not reach run_pipeline
        with pytest.raises(ConfigError, match=key):
            RunConfig(data="x.csv", x="A", y="B", **{key: value})

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

    def test_views_file_accepts_a_views_object(self, tmp_path):
        path = tmp_path / "views.json"
        path.write_text('{"views": [{"kind": "expectation", "mean": 0.01}, {"kind": "none"}]}')
        assert load_views_file(path) == (expectation_view(0.01), no_view())

    @pytest.mark.parametrize("load", [load_config, load_views_file], ids=["config", "views"])
    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read"),
            ("{", "is not valid JSON"),
            ("[1, 2", "is not valid JSON"),
        ],
        ids=["unreadable", "brace", "bracket"],
    )
    def test_unreadable_or_invalid_json_is_a_config_error(self, tmp_path, load, text, message):
        path = tmp_path / "in.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load(path)

    @pytest.mark.parametrize(
        "load, text, message",
        [
            (load_config, "[]", "config root must be a JSON object"),
            (load_config, '"run"', "config root must be a JSON object"),
            (load_config, '{"data": "d.csv", "x": "A", "y": "B", "views": {"kind": "none"}}',
             "'views' must be a list"),
            (load_views_file, "3", "'views' must be a list"),
            (load_views_file, '{"views": 3}', "'views' must be a list"),
            (load_views_file, '{"view": []}', "'views' must be a list"),
            (load_views_file, '[{"kind": "expectation"}]',
             "view #0: expectation view requires parameter 'mean'"),
        ],
        ids=["config-list", "config-string", "config-views-object", "views-number",
             "views-value-number", "views-key-missing", "views-bad-entry"],
    )
    def test_wrong_document_shape_is_a_config_error(self, tmp_path, load, text, message):
        path = tmp_path / "in.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load(path)


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

    @pytest.mark.parametrize(
        "key,value",
        [("data", 0), ("data", ["losses.csv"]), ("out", 5), ("out", {}), ("x", 1),
         ("y", None), ("unit", 2)],
    )
    def test_non_string_path_or_name_exits_config(
        self, losses_csv, tmp_path, capsys, key, value
    ):
        config = tmp_path / "run.json"
        doc = {"data": losses_csv, "x": "SVB", "y": "NBI"}
        doc[key] = value
        config.write_text(json.dumps(doc))
        assert self._run([str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {key} must be a ")

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

    def test_compile_time_refusal_exits_infeasible(self, losses_csv, tmp_path, capsys):
        views = tmp_path / "views.json"
        views.write_text('[{"kind": "value", "relation": "ge", "value": 99.0}]')
        rc = self._run(
            ["--data", losses_csv, "--x", "SVB", "--y", "NBI",
             "--mode", "scenario", "--scenarios", "500", "--views", str(views)]
        )
        assert rc == 4
        assert capsys.readouterr().err.startswith("infeasible: solver: view unattainable: ")

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

    def test_scan_estimation_failure_is_a_data_error(self, tmp_path, capsys):
        # a constant X column fails the t fit, as it fails a report
        path = tmp_path / "flat.csv"
        y = np.random.default_rng(23).standard_normal(40)
        path.write_text("X,Y\n" + "".join(f"0.01,{v!r}\n" for v in y.tolist()))
        rc = self._run(
            ["--data", str(path), "--x", "X", "--y", "Y", "--mode", "analytic-from-fit",
             "--scan", "expectation:0:1:5"]
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith("data error: estimation:")

    @pytest.mark.parametrize("extra", [[], ["--scan", "expectation:0:1:3"]], ids=["report", "scan"])
    def test_unwritable_out_is_a_config_error(self, losses_csv, tmp_path, capsys, extra):
        out = tmp_path / "missing" / "r.txt"
        rc = self._run(
            ["--data", losses_csv, "--x", "SVB", "--y", "NBI", "--out", str(out), *extra]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write {out}:")
        assert not out.parent.exists()

    @pytest.mark.parametrize("mode", ["analytic", "analytic-from-fit", "scenario"])
    def test_same_column_for_x_and_y_is_a_config_error(self, losses_csv, capsys, mode):
        rc = self._run(["--data", losses_csv, "--x", "SVB", "--y", "SVB", "--mode", mode])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: x and y name the same column 'SVB'" in captured.err

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

    @pytest.mark.parametrize("mode", ["analytic", "scenario"])
    @pytest.mark.parametrize(
        "entry, message",
        [
            ('{"kind": "expectation", "mean": "1"}', "mean must be a real number, got '1'"),
            ('{"kind": "expectation", "mean": [1]}', "mean must be a real number, got [1]"),
            ('{"kind": "expectation", "mean": true}', "mean must be a real number, got True"),
            ('{"kind": "expectation", "mean": NaN}', "mean must be finite, got nan"),
            ('{"kind": "expectation", "mean": -Infinity}', "mean must be finite, got -inf"),
            ('{"kind": "expectation", "mean": 0.01, "confidence": "1"}',
             "confidence must be a real number"),
            ('{"kind": "quantile", "quantile": 0.02, "quantile_level": false}',
             "quantile_level must be a real number, got False"),
            ('{"kind": "value", "value": 0.01, "value_band": Infinity}',
             "value_band must be finite"),
            ('{"kind": "correlation", "correlation": NaN}', "correlation must be finite"),
            ('{"kind": "relative", "diff_mean": "0", "diff_variance": 1e-4}',
             "diff_mean must be a real number"),
            ('{"kind": "distribution", "bin_edges": [-1, NaN, 1], "bin_probs": [0.5, 0.5]}',
             "bin_edges entry must not be NaN"),
            ('{"kind": "distribution", "bin_edges": [-1, "0", 1], "bin_probs": [0.5, 0.5]}',
             "bin_edges entry must be a real number, got '0'"),
            ('{"kind": "distribution", "bin_edges": [-1, 0, 1], "bin_probs": [0.5, NaN]}',
             "bin_probs entry must be finite"),
            ('{"kind": "distribution", "bin_edges": [-1, 0, 1], "bin_probs": [true, 0]}',
             "bin_probs entry must be a real number, got True"),
            ('{"kind": "expectation", "mean": 0.01, "variance": 0.02}',
             "expectation view does not use parameter 'variance'"),
            ('{"kind": "value", "value": 0.01, "quantile_level": 0.95}',
             "value view does not use parameter 'quantile_level'"),
            ('{"kind": "value", "value": 0.01, "relation": "ge", "value_band": 0.001}',
             "value view does not use parameter 'value_band' under relation 'ge'"),
            ('{"kind": "correlation", "correlation": 0.5, "target": "y"}',
             "correlation views take no target, got target 'y'"),
            ('{"kind": "relative", "diff_mean": 0, "diff_variance": 1e-4, "target": "y"}',
             "relative views take no target, got target 'y'"),
            ('{"kind": "none", "target": "y"}', "none views take no target, got target 'y'"),
            ('{"kind": "expectation", "mean": 0.1, "relation": ["eq"]}',
             "unknown relation ['eq']"),
            ('{"kind": "expectation", "mean": 0.1, "relation": {"eq": 1}}',
             "unknown relation {'eq': 1}"),
            ('{"kind": "distribution", "bin_edges": 3, "bin_probs": [1.0]}',
             "bin_edges must be a list of numbers"),
            ('{"kind": "distribution", "bin_edges": [0, 1], "bin_probs": 1.0}',
             "bin_probs must be a list of numbers"),
            ('"expectation"', "view entry must be a JSON object"),
            ('["kind"]', "view entry must be a JSON object"),
        ],
        ids=["mean-string", "mean-list", "mean-bool", "mean-nan", "mean-inf",
             "confidence-string", "level-bool", "band-inf", "correlation-nan",
             "diff-mean-string", "edge-nan", "edge-string", "prob-nan", "prob-bool",
             "unused-variance", "unused-level", "band-on-half-line", "correlation-on-y",
             "relative-on-y", "none-on-y", "relation-list", "relation-object",
             "edges-number", "probs-number", "entry-string", "entry-list"],
    )
    def test_malformed_view_parameter_exits_config(
        self, losses_csv, tmp_path, capsys, mode, entry, message
    ):
        views = tmp_path / "views.json"
        views.write_text(f"[{entry}]")
        rc = self._run(["--data", losses_csv, "--x", "SVB", "--y", "NBI", "--mode", mode,
                        "--scenarios", "500", "--views", str(views)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: view #0: {message}")

    @pytest.mark.parametrize("mode", ["analytic", "scenario"])
    @pytest.mark.parametrize(
        "entry, message",
        [
            (f'{{"kind": "expectation", "mean": 1{"0" * 400}}}',
             "mean lies outside the float range"),
            (f'{{"kind": "distribution", "bin_edges": [-1{"0" * 400}, 0, 1],'
             ' "bin_probs": [0.5, 0.5]}',
             "bin_edges entry lies outside the float range"),
        ],
        ids=["mean", "edge"],
    )
    def test_integer_beyond_the_float_range_exits_config(
        self, losses_csv, tmp_path, capsys, mode, entry, message
    ):
        views = tmp_path / "views.json"
        views.write_text(f'{{"views": [{entry}]}}')
        rc = self._run(["--data", losses_csv, "--x", "SVB", "--y", "NBI", "--mode", mode,
                        "--scenarios", "500", "--views", str(views)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: view #0: {message}\n"

    def test_infinite_bin_edges_are_accepted(self, losses_csv, tmp_path, capsys):
        views = tmp_path / "views.json"
        views.write_text('[{"kind": "distribution", "bin_edges": [-Infinity, 0.003, Infinity],'
                         ' "bin_probs": [0.4, 0.6]}]')
        rc = self._run(["--data", losses_csv, "--x", "SVB", "--y", "NBI", "--mode", "scenario",
                        "--scenarios", "500", "--views", str(views)])
        assert rc == 0
        assert "P(X in bins) = [0.4, 0.6]" in capsys.readouterr().out

    def test_analytic_run_imports_no_optimizer_or_stats(self, losses_csv):
        # scipy.optimize (brentq, linprog) and scipy.stats (kendalltau) are
        # imported by the half-line and pooled roots, the phase-I certificate
        # and the copula fit only
        code = f"""
import sys
from epcovar import RunConfig, run_pipeline, value_view
from epcovar.views import (correlation_view, expectation_view, quantile_view,
                           relative_view, variance_view)
def loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.stats")))
views = (expectation_view(0.01), variance_view(5e-4, "ge"), quantile_view(0.04),
         value_view(0.02), correlation_view(0.7), relative_view(0.002, 3e-4))
run_pipeline(RunConfig(data={losses_csv!r}, x="SVB", y="NBI", views=views))
print(loaded())
run_pipeline(RunConfig(data={losses_csv!r}, x="SVB", y="NBI", views=(value_view(0.02, "ge"),)))
print("scipy.optimize" in loaded())
"""
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\nTrue\n"

    def test_module_entry_point(self, losses_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "epcovar.cli", "--data", losses_csv,
             "--x", "SVB", "--y", "NBI"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert proc.returncode == 0
        assert "none (CoVaR = VaR)" in proc.stdout


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
