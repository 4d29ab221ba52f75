"""Output checks and the self-checks that show each check rejects a bad output.

Every check compares a result with a computation made here, outside the
program, or with a property the method must have; none compares with a
stored copy of an earlier output. A check returns a list of problems; an
empty list means the output passed.

- Scenario rows: ``delta_covar == covar - var`` exactly, residual <= 1e-8.
  For realized-value rows the posterior is the prior restricted to the
  region, so the entropy is -ln(prior mass of the region) and CoVaR lies
  between the two order statistics of Y on the region that bracket alpha.
  The panel is rebuilt from the public estimation functions.
- Moment views (traced run, where the solver's posterior is captured):
  moments computed from the weights and the panel arrays match the view.
- Analytic rows: textbook formulas from sample moments with
  ``scipy.stats.norm``; half-line rows against ``multivariate_normal``;
  collapsed one-sided views equal VaR exactly; the pooled mixture CDF at
  CoVaR equals alpha.
- Refusals: the expected error with a valid certificate.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.stats import multivariate_normal, norm

from epcovar.errors import DegenerateError, InfeasibleError
from epcovar.scenario import moments
from epcovar.views import VALUE_BAND_FRACTION

from workloads import build_scenario_panel

RESIDUAL_TOL = 1e-8
ENTROPY_TOL = 1e-9
MOMENT_TOL = 1e-8
TEXTBOOK_TOL = 1e-10
CDF_TOL = 1e-6
LOG_FLOOR = math.log(1e-300)


def fingerprint(out) -> str:
    """What must repeat byte for byte when an input recurs within a run."""
    if isinstance(out, tuple):
        return out[1]
    if isinstance(out, InfeasibleError):
        return f"InfeasibleError|{out}|{out.residual!r}"
    if isinstance(out, DegenerateError):
        return f"DegenerateError|{out}|{out.min_log_weight!r}"
    return f"not refused|{type(out).__name__}"


# -- scenario reports ----------------------------------------------------------

def _scenario_rows(report) -> list[str]:
    errs = []
    for row in report.rows:
        if row.delta_covar != row.covar - row.var:
            errs.append(f"{row.label}: delta_covar {row.delta_covar!r} != covar - var")
        if row.method == "scenario-EP" and not row.residual <= RESIDUAL_TOL:
            errs.append(f"{row.label}: residual {row.residual!r} above {RESIDUAL_TOL}")
    return errs


def _pooled_within_components(report) -> list[str]:
    pooled = [r for r in report.rows if r.method == "pooled"]
    parts = [r.covar for r in report.rows if r.method != "pooled"]
    errs = []
    for row in pooled:
        lo, hi = min(parts), max(parts)
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        if not lo - slack <= row.covar <= hi + slack:
            errs.append(f"pooled covar {row.covar!r} outside [{lo!r}, {hi!r}]")
    return errs


def value_region(view, panel) -> np.ndarray:
    """Scenarios inside a realized-value view's region."""
    loss = panel.losses(view.target)
    if view.relation == "ge":
        return loss >= view.value
    if view.relation == "le":
        return loss <= view.value
    band = VALUE_BAND_FRACTION * math.sqrt(moments(loss, panel.prior)[1])
    return (loss >= view.value - band) & (loss <= view.value + band)


def order_statistic_bracket(y_region: np.ndarray, alpha: float) -> tuple[float, float]:
    """Order statistics of Y on a uniformly weighted region that bracket the
    mid-distribution alpha-quantile: atom i sits at cumulative (i - 1/2)/n."""
    ys = np.sort(y_region)
    t = alpha * ys.size + 0.5            # 1-based rank where the midpoints cross alpha
    lo = min(max(math.floor(t - 1e-6), 1), ys.size)
    hi = min(max(math.ceil(t + 1e-6), 1), ys.size)
    return float(ys[lo - 1]), float(ys[hi - 1])


def check_conditioning(op, report, panel) -> list[str]:
    errs = _scenario_rows(report) + _pooled_within_components(report)
    rows = report.rows
    for view, row in zip(op.config.views, rows):
        region = value_region(view, panel)
        expected = -math.log(float(panel.prior[region].sum()))
        if not abs(row.entropy - expected) <= ENTROPY_TOL:
            errs.append(f"{row.label}: entropy {row.entropy!r} != -ln P(region) {expected!r}")
        lo, hi = order_statistic_bracket(panel.y[region], report.alpha)
        if not lo <= row.covar <= hi:
            errs.append(f"{row.label}: covar {row.covar!r} outside order statistics [{lo!r}, {hi!r}]")
    if not rows[1].covar > rows[1].var:
        errs.append(f"{rows[1].label}: covar {rows[1].covar!r} not above var {rows[1].var!r}")
    if not rows[2].covar < rows[2].var:
        errs.append(f"{rows[2].label}: covar {rows[2].covar!r} not below var {rows[2].var!r}")
    return errs


def check_moments(op, report) -> list[str]:
    return _scenario_rows(report) + _pooled_within_components(report)


def posterior_moment_gaps(view, panel, weights) -> dict[str, float]:
    """|posterior quantity - view level| for one solved view, from the
    posterior weights and the panel arrays."""
    q = np.asarray(weights, dtype=float)
    loss = panel.losses(view.target)

    def mean_var(v):
        m = float(q @ v)
        return m, float(q @ (v - m) ** 2)

    gaps = {}
    if view.kind in ("expectation", "mean_and_variance"):
        gaps["mean"] = abs(mean_var(loss)[0] - view.mean)
    if view.kind in ("variance", "mean_and_variance"):
        gaps["variance"] = abs(mean_var(loss)[1] - view.variance)
    if view.kind == "quantile":
        gaps["quantile_mass"] = abs(float(q[loss <= view.quantile].sum()) - view.quantile_level)
    if view.kind == "relative":
        m, v = mean_var(panel.x - panel.y)
        gaps["diff_mean"] = abs(m - view.diff_mean)
        gaps["diff_variance"] = abs(v - view.diff_variance)
    if view.kind == "distribution":
        edges = view.bin_edges
        for i, p in enumerate(view.bin_probs):
            last = i == len(view.bin_probs) - 1
            inside = (loss >= edges[i]) & ((loss <= edges[i + 1]) if last else (loss < edges[i + 1]))
            gaps[f"bin{i}"] = abs(float(q[inside].sum()) - p)
    return gaps


def check_posterior_moments(solves) -> list[str]:
    """``solves``: (view, panel, posterior weights) captured by the tracer."""
    errs = []
    for view, panel, weights in solves:
        for name, gap in posterior_moment_gaps(view, panel, weights).items():
            if not gap <= MOMENT_TOL:
                errs.append(f"{view.kind}: posterior {name} misses the view by {gap:.3e}")
    return errs


# -- analytic reports ------------------------------------------------------------

class SamplePrior:
    """Sample moments of a dataset: the analytic engine's prior."""

    def __init__(self, x, y):
        self.mx, self.my = float(np.mean(x)), float(np.mean(y))
        self.sx, self.sy = float(np.std(x, ddof=1)), float(np.std(y, ddof=1))
        self.rho = float(np.corrcoef(x, y)[0, 1])

    def bvn(self, zx: float, zy: float) -> float:
        cov = [[1.0, self.rho], [self.rho, 1.0]]
        return float(multivariate_normal.cdf([zx, zy], cov=cov, abseps=1e-12, releps=1e-12))

    def y_cdf(self, view, y: float) -> float:
        """Posterior CDF of Y at ``y`` for the views of the pooled report."""
        zy = (y - self.my) / self.sy
        shift = self.rho * self.sy / self.sx
        if view.kind == "expectation":
            return float(norm.cdf(y, self.my + shift * (view.mean - self.mx), self.sy))
        zl = (view.value - self.mx) / self.sx
        if view.relation == "eq":
            sd = self.sy * math.sqrt(1.0 - self.rho**2)
            return float(norm.cdf(y, self.my + shift * (view.value - self.mx), sd))
        if view.relation == "ge":
            return (float(norm.cdf(zy)) - self.bvn(zl, zy)) / float(norm.sf(zl))
        return self.bvn(zl, zy) / float(norm.cdf(zl))


def _satisfied(relation: str, prior_value: float, view_value: float) -> bool:
    return prior_value <= view_value if relation == "le" else prior_value >= view_value


def _analytic_common(op, report, prior: SamplePrior) -> list[str]:
    errs = []
    z = float(norm.ppf(report.alpha))
    var = prior.my + prior.sy * z
    for row in report.rows:
        if not abs(row.var - var) <= TEXTBOOK_TOL:
            errs.append(f"{row.label}: var {row.var!r} != mu_Y + sigma_Y z {var!r}")
        if not abs(row.delta_covar - (row.covar - row.var)) <= 1e-12 * max(1.0, abs(row.delta_covar)):
            errs.append(f"{row.label}: delta_covar {row.delta_covar!r} != covar - var")
    return errs


def check_analytic_kinds(op, report, prior: SamplePrior) -> list[str]:
    errs = _analytic_common(op, report, prior)
    z = float(norm.ppf(report.alpha))
    p = prior
    covar_by_view = dict(zip(op.config.views, (r.covar for r in report.rows)))
    for view, row in zip(op.config.views, report.rows):
        on_y = view.target == "y"
        m, s = (p.my, p.sy) if on_y else (p.mx, p.sx)
        expected = None
        if view.kind == "none":
            expected = row.var
        elif view.relation != "eq" and view.kind in ("expectation", "variance", "quantile"):
            prior_value = {"expectation": m, "variance": s * s, "quantile": m + s * z}[view.kind]
            level = {"expectation": view.mean, "variance": view.variance,
                     "quantile": view.quantile}[view.kind]
            if _satisfied(view.relation, prior_value, level):
                expected = row.var
            else:  # a binding one-sided view gives the equality view's answer
                twin = replace(view, relation="eq")
                if twin in covar_by_view and row.covar != covar_by_view[twin]:
                    errs.append(f"{row.label}: binding covar {row.covar!r} != equality covar")
        if expected is not None:
            if row.covar != expected:
                errs.append(f"{row.label}: collapsed covar {row.covar!r} != var {expected!r}")
            continue
        textbook = None
        if view.kind == "expectation" and view.relation == "eq":
            if on_y:
                textbook = view.mean + p.sy * z
            else:
                textbook = p.my + p.rho * (view.mean - p.mx) * p.sy / p.sx + p.sy * z
        elif view.kind == "value" and view.relation == "eq" and not on_y:
            textbook = (p.my + p.rho * (view.value - p.mx) * p.sy / p.sx
                        + p.sy * math.sqrt(1.0 - p.rho**2) * z)
        if textbook is not None:
            if not abs(row.covar - textbook) <= TEXTBOOK_TOL:
                errs.append(f"{row.label}: covar {row.covar!r} != textbook {textbook!r}")
        elif view.kind == "value":
            gap = _half_line_gap(view, row.covar, p, report.alpha)
            if not gap <= CDF_TOL:
                errs.append(f"{row.label}: conditional CDF at covar misses alpha by {gap:.3e}")
    return errs


def _half_line_gap(view, covar: float, p: SamplePrior, alpha: float) -> float:
    """|P(region, Y <= covar) - alpha P(region)| for a half-line value view."""
    zy = (covar - p.my) / p.sy
    if view.target == "y":
        zl = (view.value - p.my) / p.sy
        if view.relation == "ge":
            joint, mass = max(float(norm.cdf(zy) - norm.cdf(zl)), 0.0), float(norm.sf(zl))
        else:
            joint, mass = float(norm.cdf(min(zy, zl))), float(norm.cdf(zl))
    else:
        zl = (view.value - p.mx) / p.sx
        if view.relation == "ge":
            joint, mass = float(norm.cdf(zy)) - p.bvn(zl, zy), float(norm.sf(zl))
        else:
            joint, mass = p.bvn(zl, zy), float(norm.cdf(zl))
    return abs(joint - alpha * mass)


def check_analytic_pooled(op, report, prior: SamplePrior) -> list[str]:
    errs = _analytic_common(op, report, prior)
    views = op.config.views
    pooled = report.rows[-1]
    mixture = sum(v.confidence * prior.y_cdf(v, pooled.covar) for v in views)
    if not abs(mixture - report.alpha) <= CDF_TOL:
        errs.append(f"pooled mixture CDF at covar is {mixture!r}, expected {report.alpha}")
    for view, row in zip(views, report.rows):
        if view.kind == "value" and view.relation != "eq":
            gap = _half_line_gap(view, row.covar, prior, report.alpha)
            if not gap <= CDF_TOL:
                errs.append(f"{row.label}: conditional CDF at covar misses alpha by {gap:.3e}")
    return errs


# -- refusals ----------------------------------------------------------------------

def certificate_floor(op) -> float | None:
    """Smallest violation any posterior can reach, where it is known: no
    posterior puts its mean beyond the largest loss, or meets two mean rows
    (low, high) both closer than (high - low) / 2."""
    if "view_mean" in op.info:
        return op.info["view_mean"] - float(op.info["panel"].x.max())
    if "conflict" in op.info:
        low, high = op.info["conflict"]
        return 0.5 * (high - low)
    return None


def check_refusal(op, out) -> list[str]:
    expected = op.info["expected"]
    if isinstance(out, InfeasibleError) and expected == "infeasible":
        errs = []
        if not out.residual > RESIDUAL_TOL:
            errs.append(f"infeasibility certificate {out.residual!r} not above {RESIDUAL_TOL}")
        floor = certificate_floor(op)
        if floor is not None and not out.residual >= floor * (1.0 - 1e-12):
            errs.append(f"certificate {out.residual!r} below the attainable floor {floor!r}")
        return errs
    if isinstance(out, DegenerateError) and expected == "degenerate":
        if not out.min_log_weight < LOG_FLOOR:
            return [f"degeneracy certificate {out.min_log_weight!r} not below ln 1e-300"]
        return []
    return [f"expected a {expected} refusal, got {type(out).__name__}"]


# -- dispatch and self-checks -------------------------------------------------------

class Checker:
    """Checks each operation's output; keeps the panels and priors it rebuilt."""

    def __init__(self):
        self._panels = {}
        self._priors = {}

    def panel(self, op):
        if op.key not in self._panels:
            self._panels[op.key] = build_scenario_panel(op.dataset, op.config.scenarios)
        return self._panels[op.key]

    def prior(self, op) -> SamplePrior:
        if op.key not in self._priors:
            self._priors[op.key] = SamplePrior(op.dataset.x, op.dataset.y)
        return self._priors[op.key]

    def check(self, op, out, solves=None) -> list[str]:
        if op.kind == "refusal":
            return check_refusal(op, out)
        if not isinstance(out, tuple):
            return [f"expected a report, got {type(out).__name__}"]
        report = out[0]
        if op.kind == "conditioning":
            return check_conditioning(op, report, self.panel(op))
        if op.kind == "moments":
            return check_moments(op, report) + check_posterior_moments(solves or ())
        if op.kind == "analytic_kinds":
            return check_analytic_kinds(op, report, self.prior(op))
        if op.kind == "analytic_pooled":
            return check_analytic_pooled(op, report, self.prior(op))
        raise ValueError(f"no checks for operation kind {op.kind!r}")

    def self_check(self, op, out, solves=None) -> list[str]:
        """Perturb a checked output in ways a fault would; return the names of
        the perturbations that the checks failed to reject."""
        missed = []
        for name, bad_out, bad_solves in _perturbations(self, op, out, solves):
            if not self.check(op, bad_out, bad_solves):
                missed.append(f"{op.kind}: {name}")
        return missed


def _with_row(out, index: int, **changes):
    report, text = out
    rows = list(report.rows)
    rows[index] = replace(rows[index], **changes)
    return replace(report, rows=tuple(rows)), text


def _perturbations(checker: Checker, op, out, solves):
    if op.kind == "refusal":
        if isinstance(out, InfeasibleError):
            weak = InfeasibleError("perturbed", residual=0.5 * RESIDUAL_TOL)
            yield "certificate at the tolerance", weak, None
            floor = certificate_floor(op)
            if floor is not None:
                below = InfeasibleError("perturbed", residual=0.5 * floor)
                yield "certificate below the attainable floor", below, None
        else:
            yield "degeneracy above the floor", DegenerateError("perturbed", 0.0), None
        yield "view not refused", object(), None
        return
    report = out[0]
    rows = report.rows
    first = rows[0]
    yield "delta != covar - var", _with_row(
        out, 0, delta_covar=first.delta_covar + 1e-9 * max(1.0, abs(first.delta_covar))
    ), solves
    if op.kind in ("conditioning", "moments"):
        top = max(r.covar for r in rows[:-1])
        yield "pooled covar outside its components", _with_row(
            out, len(rows) - 1, covar=top + 1e-6 * max(1.0, abs(top))
        ), solves
        yield "residual above tolerance", _with_row(out, 0, residual=10 * RESIDUAL_TOL), solves
    if op.kind == "conditioning":
        panel = checker.panel(op)
        view = op.config.views[1]
        lo, hi = order_statistic_bracket(panel.y[value_region(view, panel)], report.alpha)
        shifted = rows[1].covar + (hi - lo) * 1.001
        yield "covar shifted by one order-statistic gap", _with_row(
            out, 1, covar=shifted, delta_covar=shifted - rows[1].var
        ), solves
        yield "entropy off by 1e-8", _with_row(out, 2, entropy=rows[2].entropy + 1e-8), solves
    if op.kind == "moments" and solves:
        view, panel, weights = solves[0]
        tilted = weights * (1.0 + 1e-6 * (panel.x - panel.x.mean()))
        bad = [(view, panel, tilted / tilted.sum())] + list(solves[1:])
        yield "posterior weights tilted", out, bad
    if op.kind == "analytic_kinds":
        for i, view in enumerate(op.config.views):
            if view.kind == "none":
                yield "collapsed covar off by one ulp", _with_row(
                    out, i, covar=math.nextafter(rows[i].covar, math.inf),
                    delta_covar=math.nextafter(rows[i].covar, math.inf) - rows[i].var,
                ), solves
            if view.kind == "expectation" and view.relation == "eq" and view.target == "x":
                yield "textbook covar off by 1e-9", _with_row(
                    out, i, covar=rows[i].covar + 1e-9, delta_covar=rows[i].delta_covar + 1e-9,
                ), solves
            if view.kind == "value" and view.relation == "ge" and view.target == "x":
                shift = 1e-2 * checker.prior(op).sy
                yield "half-line covar off by 1% of sigma_Y", _with_row(
                    out, i, covar=rows[i].covar + shift, delta_covar=rows[i].delta_covar + shift,
                ), solves
    if op.kind == "analytic_pooled":
        shift = 1e-3 * checker.prior(op).sy
        yield "pooled covar off by 0.1% of sigma_Y", _with_row(
            out, len(rows) - 1, covar=rows[-1].covar + shift,
            delta_covar=rows[-1].delta_covar + shift,
        ), solves
