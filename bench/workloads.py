"""Synthetic inputs and the four benchmark workloads.

Every input derives from the workload seed. A dataset is a Student-t(5) loss
pair with n = 500 rows and correlation 0.6, written as a CSV that the program
ingests like any user file. Each workload cycles through a fixed list of
distinct datasets, so consecutive reports never share a fit or a panel; view
levels come from each dataset's own sample statistics, so every view that
should be attainable is.

An operation is one ``run_pipeline`` call plus rendering, or one refused
view. A round is one pass over a workload's cycle; every run performs whole
rounds, so every run performs the same sequence of operations. The cycles
are sized so that, at the speeds seen on the reference machine, a
12-second run performs two rounds of each scenario workload and one of
``infeasible_views``, not a number that flips with the machine's speed.

The program is called through module attributes (``engine.run_pipeline``,
``views.compile_view``, ``solver.solve``) so that the traced run's rebinding
reaches these calls too.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from epcovar import engine, solver
from epcovar import views as views_mod
from epcovar.errors import DegenerateError, InfeasibleError
from epcovar.estimation import (
    fit_t_copula,
    fit_t_marginal,
    generate_scenarios,
    pseudo_observations,
)
from epcovar.scenario import build_panel
from epcovar.views import (
    LinearConstraintSet,
    ViewSpec,
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

N_ROWS = 500
DOF = 5.0
RHO = 0.6
ALPHA = 0.95
Z_ALPHA = statistics.NormalDist().inv_cdf(ALPHA)
# location and scale of the two loss series, in percent
LOC_X, SCALE_X = 0.05, 1.0
LOC_Y, SCALE_Y = 0.02, 0.8
# the index of the dataset that the warm-up operation uses, outside every cycle
WARM_UP = 99
# the fixed seed of the infeasible_views panels; on them the three views
# are refused as the workload expects (InfeasibleError twice, then a
# DegenerateError)
REFUSAL_SEED = 5


@dataclass(frozen=True)
class Dataset:
    index: int
    path: str
    x: np.ndarray
    y: np.ndarray
    sampling_seed: int


@dataclass(frozen=True)
class Op:
    """One timed operation and what its checks need."""

    key: str                     # names the input; recurrences must render identically
    kind: str                    # selects the checks in ``checks.py``
    rows: int                    # view rows answered or refused
    run: Callable[[], object]
    dataset: Dataset | None = None
    config: engine.RunConfig | None = None
    info: dict = field(default_factory=dict)


def _seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *path])


def make_dataset(workdir: Path, seed: int, workload_id: int, index: int) -> Dataset:
    """Student-t(5) pair (X, Y) with correlation 0.6; written with ``repr``
    so the CSV parses back to exactly these floats."""
    seq = _seed_sequence(seed, workload_id, index)
    data_seq, sampling_seq = seq.spawn(2)
    rng = np.random.default_rng(data_seq)
    z1 = rng.standard_normal(N_ROWS)
    z2 = rng.standard_normal(N_ROWS)
    zc = RHO * z1 + math.sqrt(1.0 - RHO * RHO) * z2
    w = np.sqrt(rng.chisquare(DOF, N_ROWS) / DOF)
    x = LOC_X + SCALE_X * z1 / w
    y = LOC_Y + SCALE_Y * zc / w
    path = workdir / f"w{workload_id}-d{index}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("day,X,Y\n")
        for day, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
            fh.write(f"{day},{a!r},{b!r}\n")
    sampling_seed = int(sampling_seq.generate_state(1)[0])
    return Dataset(index, str(path), x, y, sampling_seed)


def _report_op(kind: str, ds: Dataset, config: engine.RunConfig) -> Op:
    def run():
        report = engine.run_pipeline(config)
        return report, engine.render_report(report, "table")

    n_rows = len(config.views) + (1 if config.views[0].confidence < 1.0 else 0)
    return Op(f"{kind}:{ds.index}", kind, n_rows, run, ds, config)


class Workload:
    """A cycle of operations; ``round_ops`` is the same list on every call."""

    name = ""
    workload_id = 0
    cycle = 0
    scenarios = 0

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self._round = [self.op_for(self.dataset(i), self.scenarios) for i in range(self.cycle)]
        # the warm-up is one full-size operation on a dataset outside the cycle
        self.warm_up_op = self.op_for(self.dataset(WARM_UP), self.scenarios)

    def dataset(self, index: int) -> Dataset:
        return make_dataset(self.workdir, self.seed, self.workload_id, index)

    def op_for(self, ds: Dataset, scenarios: int) -> Op:
        raise NotImplementedError

    def round_ops(self) -> list[Op]:
        return self._round


# -- scenario_conditioning ---------------------------------------------------

class ScenarioConditioning(Workload):
    """Realized-value views at J = 20,000: the solver does nearly all the work."""

    name = "scenario_conditioning"
    workload_id = 1
    cycle = 5
    scenarios = 20_000

    def op_for(self, ds: Dataset, scenarios: int) -> Op:
        var_x = float(np.quantile(ds.x, ALPHA))
        var_y = float(np.quantile(ds.y, ALPHA))
        mean_x = float(ds.x.mean())
        c = 0.25
        views = (
            value_view(var_x, "eq", confidence=c),
            value_view(var_x, "ge", confidence=c),
            value_view(mean_x, "le", confidence=c),
            value_view(var_y, "ge", target="y", confidence=c),
        )
        config = _scenario_config(ds, scenarios, views)
        return _report_op("conditioning", ds, config)


# -- scenario_moments ----------------------------------------------------------

class ScenarioMoments(Workload):
    """Moment, quantile, relative and binned views at J = 200,000: sampling,
    the posterior quantile, compilation and pooling dominate.

    A correlation view is left out: at rho~ = 0.8 it raises DegenerateError
    on about one panel in thirty, those with an extreme draw of Y, so a run
    would fail on some seeds and not on others.
    """

    name = "scenario_moments"
    workload_id = 2
    cycle = 3
    scenarios = 200_000

    def op_for(self, ds: Dataset, scenarios: int) -> Op:
        x, y = ds.x, ds.y
        mx, sx, vx = float(x.mean()), float(x.std(ddof=1)), float(x.var(ddof=1))
        d = x - y
        edges = [-1e4, *(float(q) for q in np.quantile(x, [0.25, 0.5, 0.75])), 1e4]
        c = 1.0 / 6.0
        views = (
            expectation_view(mx + 0.5 * sx, confidence=c),
            variance_view(1.5 * vx, confidence=c),
            mean_variance_view(mx + 0.25 * sx, 1.2 * vx, confidence=c),
            quantile_view(float(np.quantile(x, ALPHA)) + 0.25 * sx, ALPHA, confidence=c),
            relative_view(
                float(d.mean()) + 0.25 * float(d.std(ddof=1)), 1.2 * float(d.var(ddof=1)),
                confidence=c,
            ),
            distribution_view(edges, [0.2, 0.25, 0.25, 0.3], confidence=c),
        )
        config = _scenario_config(ds, scenarios, views)
        return _report_op("moments", ds, config)


def _scenario_config(ds: Dataset, scenarios: int, views: tuple[ViewSpec, ...]):
    return engine.RunConfig(
        data=ds.path, x="X", y="Y", alpha=ALPHA, mode="scenario",
        scenarios=scenarios, seed=ds.sampling_seed, unit="percent", views=views,
    )


# -- analytic_reports ------------------------------------------------------------

class AnalyticReports(Workload):
    """Closed-form reports: every view kind, collapsing and binding one-sided
    views, half-line value views on X, Y-targeted views, and a pooled
    mixture. Three in four reports carry every kind; the fourth is the pooled
    one, so the median falls inside one population of reports."""

    name = "analytic_reports"
    workload_id = 3
    cycle = 16

    def op_for(self, ds: Dataset, scenarios: int) -> Op:
        x, y = ds.x, ds.y
        mx, sx, vx = float(x.mean()), float(x.std(ddof=1)), float(x.var(ddof=1))
        my, sy = float(y.mean()), float(y.std(ddof=1))
        var_x = mx + sx * Z_ALPHA
        var_y = my + sy * Z_ALPHA
        d = x - y
        if ds.index % 4 == 3:
            views = (
                expectation_view(mx + 0.5 * sx, confidence=0.5),
                value_view(var_x, "ge", confidence=0.3),
                value_view(var_x, "eq", confidence=0.2),
            )
            kind = "analytic_pooled"
        else:
            views = (
                no_view(),
                expectation_view(mx + 0.5 * sx),
                expectation_view(mx + 0.5 * sx, "le"),
                expectation_view(mx + 0.5 * sx, "ge"),
                variance_view(1.5 * vx),
                variance_view(1.5 * vx, "le"),
                variance_view(1.5 * vx, "ge"),
                mean_variance_view(mx + 0.25 * sx, 1.2 * vx),
                quantile_view(var_x + 0.25 * sx, ALPHA),
                quantile_view(var_x + 0.25 * sx, ALPHA, "le"),
                value_view(var_x),
                value_view(var_x, "ge"),
                value_view(mx, "le"),
                correlation_view(0.8),
                relative_view(
                    float(d.mean()) + 0.25 * float(d.std(ddof=1)),
                    1.2 * float(d.var(ddof=1)),
                ),
                expectation_view(my + 0.5 * sy, target="y"),
                value_view(var_y, "ge", target="y"),
            )
            kind = "analytic_kinds"
        config = engine.RunConfig(
            data=ds.path, x="X", y="Y", alpha=ALPHA, mode="analytic",
            unit="percent", views=views,
        )
        return _report_op(kind, ds, config)


# -- infeasible_views --------------------------------------------------------------

def build_scenario_panel(ds: Dataset, scenarios: int):
    """The scenario prior of a dataset, rebuilt from the public estimation
    functions with the dataset's sampling seed."""
    mx, my = fit_t_marginal(ds.x), fit_t_marginal(ds.y)
    cop = fit_t_copula(pseudo_observations(ds.x), pseudo_observations(ds.y))
    return generate_scenarios(mx, my, cop, scenarios, ds.sampling_seed, unit="percent")


def _refusal_op(key: str, panel, compile_constraints, **info) -> Op:
    def run():
        try:
            return solver.solve(panel, compile_constraints())
        except (InfeasibleError, DegenerateError) as exc:
            return exc

    return Op(key, "refusal", 1, run, info={"panel": panel, **info})


class InfeasibleViews(Workload):
    """Requests that must be refused; the solver's refusal path runs only here.

    Three unattainable views on J = 20,000 panels of distinct datasets, and
    two conflicting mean rows on the 3-scenario panel x = (0, 1, 2) through
    the public ``solve``. The panels are built during set-up, so an
    operation times the compilation and the refused solve alone.

    Unlike the other workloads, these inputs do not follow the run's seed.
    How long a refusal takes, and which error it raises, depends on the
    panel. On panels drawn from seeds 0-5 the variance view took 3.1 s to
    142 s; on those from seeds 0-23 the correlation-1 view took 0.9 s to
    22 s and raised either error, with certificates as close as 1.3e-8 to
    the solver's 1e-8 tolerance. On panels drawn from the run's seed,
    neither the run time nor the outcome would repeat.
    """

    name = "infeasible_views"
    workload_id = 4
    scenarios = 20_000

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        beyond, variance, corr = (
            (ds, build_scenario_panel(ds, self.scenarios))
            for ds in (make_dataset(workdir, REFUSAL_SEED, self.workload_id, i) for i in range(3))
        )
        self._round = [
            self._beyond_max(*beyond),
            self._variance(*variance),
            self._correlation_one(*corr),
            self._conflicting_rows(),
        ]
        # the refusal on this panel is quick, unlike the measured one
        self.warm_up_op = self._conflicting_rows((0.0, 1.0, 3.0), "warm_up")

    def _beyond_max(self, ds: Dataset, panel) -> Op:
        mean = float(panel.x.max()) + 0.5 * float(ds.x.std(ddof=1))
        view = expectation_view(mean)
        return _refusal_op(
            f"beyond_max:{ds.index}", panel,
            lambda: views_mod.compile_view(view, panel),
            expected="infeasible", view_mean=mean,
        )

    def _variance(self, ds: Dataset, panel) -> Op:
        # with the mean anchored at m, no distribution on [lo, hi] has a
        # variance above (hi - m)(m - lo)
        m = float(panel.prior @ panel.x)
        bound = (float(panel.x.max()) - m) * (m - float(panel.x.min()))
        view = variance_view(1.5 * bound)
        return _refusal_op(
            f"variance:{ds.index}", panel,
            lambda: views_mod.compile_view(view, panel),
            expected="infeasible",
        )

    def _correlation_one(self, ds: Dataset, panel) -> Op:
        view = correlation_view(1.0)
        return _refusal_op(
            "correlation_one", panel,
            lambda: views_mod.compile_view(view, panel),
            expected="degenerate",
        )

    def _conflicting_rows(self, x=(0.0, 1.0, 2.0), key="conflicting_rows") -> Op:
        """Mean rows 1/4 and 3/4 of the way across a 3-scenario panel."""
        x = np.array(x)
        panel = build_panel(x, x)
        low = float(x[0] + 0.25 * (x[2] - x[0]))
        high = float(x[0] + 0.75 * (x[2] - x[0]))
        bounds = np.array([low, high, 1.0])
        constraints = LinearConstraintSet(
            np.vstack([x, x, np.ones(3)]), bounds, bounds,
            labels=("mean(X)=low", "mean(X)=high", "normalization"),
        )
        return _refusal_op(
            key, panel, lambda: constraints, expected="infeasible", conflict=(low, high),
        )


WORKLOADS = {
    w.name: w
    for w in (ScenarioConditioning, ScenarioMoments, AnalyticReports, InfeasibleViews)
}
