"""Pipeline orchestration: ingest, estimate the prior, apply views, report.

Data flows in three stages: a CSV of loss columns for the two assets, a prior
(either a bivariate-normal parameter bundle from sample or fitted moments, or
a sampled scenario panel from the t-marginal/t-copula fit), and one report row
per configured view. Analytic mode routes each view to its closed form;
scenario mode compiles the view's constraints and reweights the panel by
minimum relative entropy. Several views held with partial confidences summing
to one are additionally pooled into a mixture row.

Units are caller-declared metadata: the engine never rescales losses and just
echoes the unit into the report. Quantiles of sampled/gridded panels use the
mid-distribution interpolated estimator; genuinely atomic panels should be
queried with ``weighted_quantile`` directly.

Every report row satisfies ``delta_covar = covar - var`` exactly, in every
mode. Identical configuration, data and seed produce byte-identical reports.
Views are independent solves over a shared immutable panel, so scenario mode
evaluates them (compile, solve, posterior quantile) on the calling thread and
one worker thread, as it does the pooled row's per-view violation checks;
NumPy releases the interpreter lock in the J-length kernels. Panels under
50,000 scenarios, whose kernels are too short for two threads to gain, are
evaluated in turn. Results are bitwise equal either way, rows always follow
configuration order, and a failing configuration raises the error of its
first failing view, as a serial loop would. A pooled row reports the
mixture's worst view-constraint violation as its residual diagnostic, since a
confidence-weighted mixture does not satisfy the individual views.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analytics
from .analytics import BivariateNormalParams, ViewOutcome, _bracketed_root
from .errors import ConfigError, DataError, EpcovarError, NumericDomainError
from .estimation import fit_t_copula, fit_t_marginal, generate_scenarios, pseudo_observations
# bvn_cdf is unused here, but bench/tracing.py rebinds engine.bvn_cdf by name
from .normal import bvn_cdf, norm_cdf  # noqa: F401
from .scenario import ScenarioPanel, interpolated_quantile
from .solver import SolveReport, max_violation, pool, relative_entropy, solve
from .views import ViewSpec, compile_view, describe, no_view, view_from_dict

_MODES = ("analytic", "analytic-from-fit", "scenario")
_FORMATS = ("table", "csv", "json")
_MISSING_TOKENS = {"", "nan", "na", "null", "none"}


@dataclass(frozen=True)
class IngestResult:
    series: dict[str, np.ndarray]
    n_rows: int      # usable (pairwise complete) rows
    n_dropped: int   # rows dropped for a missing selected cell


@dataclass(frozen=True)
class RunConfig:
    data: str
    x: str
    y: str
    alpha: float = 0.95
    mode: str = "analytic"
    scenarios: int = 20_000
    seed: int = 0
    unit: str = "fraction"
    views: tuple[ViewSpec, ...] = field(default_factory=lambda: (no_view(),))
    fmt: str = "table"
    out: str | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.mode == "analytic-normal":  # accepted spelling
            object.__setattr__(self, "mode", "analytic")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.fmt not in _FORMATS:
            raise ConfigError(f"format must be one of {_FORMATS}, got {self.fmt!r}")
        if len(self.views) == 0:
            raise ConfigError("configure at least one view (the no-view sentinel counts)")
        for name in ("scenarios", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.mode == "scenario" and self.scenarios < 100:
            raise ConfigError(f"scenario mode needs at least 100 scenarios, got {self.scenarios}")
        object.__setattr__(self, "views", tuple(self.views))


@dataclass(frozen=True)
class ReportRow:
    label: str
    method: str               # analytic | scenario-EP | pooled
    var: float
    covar: float
    delta_covar: float
    collapsed_to_var: bool | None = None   # analytic rows only
    residual: float | None = None          # scenario-EP rows only
    iterations: int | None = None
    entropy: float | None = None


@dataclass(frozen=True)
class RiskReport:
    rows: tuple[ReportRow, ...]
    alpha: float
    x_name: str
    y_name: str
    unit: str
    mode: str


def load_config(path) -> RunConfig:
    """Read a JSON run configuration; see README for the schema."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(obj)


def config_from_dict(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    known = {f for f in RunConfig.__dataclass_fields__}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(obj)
    if "views" in kwargs:
        kwargs["views"] = parse_views(kwargs["views"])
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_views(entries) -> tuple[ViewSpec, ...]:
    if not isinstance(entries, (list, tuple)):
        raise ConfigError("'views' must be a list of view objects")
    out = []
    for i, entry in enumerate(entries):
        try:
            out.append(view_from_dict(entry))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"view #{i}: {exc}") from exc
    return tuple(out)


def load_views_file(path) -> tuple[ViewSpec, ...]:
    """Views file: either a bare list or {"views": [...]}."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read views file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"views file {path} is not valid JSON: {exc}") from exc
    if isinstance(obj, dict):
        obj = obj.get("views")
    return parse_views(obj)


# -- ingest ---------------------------------------------------------------------

def ingest_csv(source, columns=None, min_rows: int | None = None) -> IngestResult:
    """Load loss series from a header-rowed CSV.

    ``columns`` selects which series to keep (default: every column with at
    least one numeric cell, which drops date-like columns). A cell is a Python
    ``float`` literal, surrounding whitespace allowed (``0.25``, ``-1e-3``,
    ``inf``, ``-nan``, ``1_000``), or a missing token: empty, ``nan``, ``na``,
    ``null`` or ``none`` in any case. Blank lines are skipped. Rows missing
    any selected cell, a short row's absent cells included, are dropped
    pairwise and counted. A leading UTF-8 byte-order mark is ignored. Raises
    :class:`~epcovar.errors.DataError` for a ``columns`` list that is empty,
    names a column missing from the header or one the header repeats, a
    malformed CSV line (such as a cell over the ``csv`` module's field size
    limit), an unparseable non-missing cell, or fewer than ``min_rows``
    usable rows.
    Each column is first read with ``float`` alone; only a column with a
    missing token, an unparseable cell, or a blank or short row takes the
    slower cell-by-cell reading.
    """
    if hasattr(source, "read"):
        rows = _csv_rows(_without_bom(source))
    else:
        try:
            with open(source, "r", encoding="utf-8-sig", newline="") as fh:
                rows = _csv_rows(fh)
        except OSError as exc:
            raise DataError(f"cannot read {source}: {exc}") from exc
    if not rows:
        raise DataError("empty file: no header row")
    header = [h.strip() for h in rows[0]]
    data = rows[1:]
    body = data  # the data rows, until blank ones are filtered out
    if columns is None:
        # keep columns with at least one numeric cell (drops date-like columns)
        body = _nonblank(data)
        columns = []
        for j, name in enumerate(header):
            cells = (_lenient(r[j]) if j < len(r) else math.nan for r in body)
            if any(v is not None and not math.isnan(v) for v in cells):
                columns.append(name)
    else:
        if not columns:
            raise DataError(f"no columns selected; available columns: {header}")
        repeated = sorted({c for c in columns if header.count(c) > 1})
        if repeated:
            raise DataError(
                f"column(s) {repeated} appear more than once in the header {header}"
            )
    missing = [c for c in columns if c not in header]
    if missing:
        raise DataError(
            f"missing column(s) {missing}; available columns: {header}"
        )
    parsed = []
    for name in columns:
        j = header.index(name)
        try:
            # When float() accepts every cell, the cell-by-cell reading gives
            # the same values, and no row is blank.
            parsed.append([float(row[j]) for row in body])
        except (ValueError, IndexError):
            if body is data:
                body = _nonblank(data)
            parsed.append(_parse_column(body, j, name))
    table = np.array(parsed, dtype=float)
    keep = ~np.isnan(table).any(axis=0)
    n_rows = int(keep.sum())
    n_dropped = len(body) - n_rows
    if min_rows is not None and n_rows < min_rows:
        raise DataError(f"only {n_rows} usable rows, need at least {min_rows}")
    series = {c: table[i, keep] for i, c in enumerate(columns)}
    return IngestResult(series=series, n_rows=n_rows, n_dropped=n_dropped)


def _csv_rows(lines) -> list[list[str]]:
    reader = csv.reader(lines)
    try:
        return list(reader)
    except csv.Error as exc:
        raise DataError(f"malformed CSV at line {reader.line_num}: {exc}") from exc


def _without_bom(lines):
    """``lines`` with a UTF-8 byte-order mark removed from the first one."""
    lines = iter(lines)
    for first in lines:
        yield first.removeprefix("\ufeff")
        break
    yield from lines


def _nonblank(rows: list[list[str]]) -> list[list[str]]:
    """The rows with a non-whitespace character in some cell."""
    return [r for r in rows if "".join(r).strip()]


def _lenient(cell: str) -> float | None:
    """NaN for a missing token, the float for a literal, None otherwise."""
    try:
        return float(cell)  # what follows gives the same where float() accepts it
    except ValueError:
        pass
    text = cell.strip()
    if text.lower() in _MISSING_TOKENS:
        return math.nan
    try:
        return float(text)
    except ValueError:
        return None


def _parse_column(body: list[list[str]], j: int, name: str) -> list[float]:
    col = []
    for i, row in enumerate(body):
        value = _lenient(row[j] if j < len(row) else "")
        if value is None:
            raise DataError(
                f"unparseable cell {row[j]!r} in column {name!r} at data row {i + 1}"
            )
        col.append(value)
    return col


# -- priors ----------------------------------------------------------------------

def _tag(stage: str, exc: Exception) -> Exception:
    exc.args = (f"{stage}: {exc.args[0]}",) + exc.args[1:] if exc.args else (stage,)
    return exc


def _load_series(config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    try:
        ingest = ingest_csv(config.data, [config.x, config.y], min_rows=30)
    except (DataError, ValueError) as exc:
        raise _tag("ingest", exc)
    return ingest.series[config.x], ingest.series[config.y]


def analytic_prior(x: np.ndarray, y: np.ndarray) -> BivariateNormalParams:
    """Bivariate-normal prior from sample moments."""
    sx = float(x.std(ddof=1))
    sy = float(y.std(ddof=1))
    if sx == 0.0 or sy == 0.0:
        raise DataError("degenerate sample: zero spread in a selected column")
    rho = float(np.corrcoef(x, y)[0, 1])
    return BivariateNormalParams(float(x.mean()), float(y.mean()), sx, sy, rho)


def fitted_prior(x: np.ndarray, y: np.ndarray) -> BivariateNormalParams:
    """Bivariate-normal prior with moments implied by the t fits.

    The correlation is the t-copula parameter, which for a common-dof
    elliptical pair equals the linear correlation; with distinct fitted
    marginals it is an approximation.
    """
    mx, my, cop = _fit_t_prior(x, y)
    return BivariateNormalParams(mx.mean, my.mean, mx.std, my.std, cop.rho)


def scenario_prior(config: RunConfig, x: np.ndarray, y: np.ndarray) -> ScenarioPanel:
    mx, my, cop = _fit_t_prior(x, y)
    return generate_scenarios(mx, my, cop, config.scenarios, config.seed, unit=config.unit)


def _fit_t_prior(x: np.ndarray, y: np.ndarray):
    """Student-t marginals of X and Y and the t copula of their ranks."""
    mx, my = fit_t_marginal(x), fit_t_marginal(y)
    cop = fit_t_copula(pseudo_observations(x), pseudo_observations(y))
    return mx, my, cop


# -- scenario-mode evaluation ----------------------------------------------------

def ep_covar_on_panel(
    panel: ScenarioPanel, view: ViewSpec, alpha: float
) -> tuple[float, SolveReport]:
    """Compile one view, reweight the panel, read off the conditional quantile."""
    constraints = compile_view(view, panel)
    report = solve(panel, constraints)
    covar = interpolated_quantile(panel.sorted_y, report.posterior, alpha)
    return covar, report


def _scenario_rows(config: RunConfig, panel: ScenarioPanel) -> list[ReportRow]:
    var = interpolated_quantile(panel.sorted_y, panel.prior, config.alpha)
    panel.log_prior  # cached before the threads share the panel, as sorted_y is above
    evaluated = _for_each_view(
        lambda view: ep_covar_on_panel(panel, view, config.alpha), config.views, panel
    )
    rows = [
        ReportRow(
            label=describe(view),
            method="scenario-EP",
            var=var,
            covar=covar,
            delta_covar=covar - var,
            residual=rep.residual,
            iterations=rep.iterations,
            entropy=rep.entropy,
        )
        for view, (covar, rep) in zip(config.views, evaluated)
    ]
    c = _pooling_confidences(config)
    if c is not None:
        mixed = pool([rep.posterior for _, rep in evaluated], c)
        del evaluated  # the views' posteriors are freed before the pooled row's recompiles
        rows.append(_pooled_scenario_row(config, panel, mixed, var))
    return rows


# Below this panel size the views' J-length kernels hold the interpreter lock
# for too large a share of their time, and two threads evaluate a report's
# views more slowly than one: 1.13-1.29 times the serial time at J = 10,000
# and 20,000, 0.83-0.94 at 50,000, 0.58-0.65 at 200,000 (2 cores).
_THREADED_MIN_SCENARIOS = 50_000


def _for_each_view(fn, views, panel: ScenarioPanel) -> list:
    """``[fn(view) for view in views]``, on two threads for a panel of at least
    ``_THREADED_MIN_SCENARIOS`` scenarios."""
    if panel.size < _THREADED_MIN_SCENARIOS:
        return [fn(view) for view in views]
    return _on_two_threads(fn, views)


def _on_two_threads(fn, items) -> list:
    """``[fn(item) for item in items]``, evaluated on the calling thread and one
    worker thread, with the results in the order of ``items``.

    Each thread takes the next item in order until none is left, and runs
    every item it takes. When an item raises, the threads stop taking items,
    and the exception of the first failing item in order is raised: every
    earlier item has been taken and run, so it is the exception the serial
    loop would raise. The worker thread has ended when this returns or
    raises.
    """
    items = tuple(items)
    if len(items) < 2:
        return [fn(item) for item in items]
    results = [None] * len(items)
    failures: dict[int, Exception] = {}
    stop = threading.Event()
    claims = itertools.count()  # next() on it is atomic, so each index is taken once

    def work() -> None:
        while not stop.is_set():  # tested before a claim: a claimed item is always run
            i = next(claims)
            if i >= len(items):
                return
            try:
                results[i] = fn(items[i])
            except Exception as exc:  # re-raised below, on the calling thread
                failures[i] = exc
                stop.set()
                return

    with ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(work)
        try:
            work()
        finally:
            stop.set()  # an interrupted calling thread stops the worker too
        worker.result()
    if failures:
        raise failures[min(failures)]
    return results


def _pooling_confidences(config: RunConfig) -> np.ndarray | None:
    c = np.array([v.confidence for v in config.views], dtype=float)
    if len(config.views) < 2 or np.all(c == 1.0):
        return None
    if np.any(c == 1.0):
        raise ConfigError(
            "mixing full-confidence and partial-confidence views is ambiguous; "
            "use confidences summing to 1 for a pooled run"
        )
    if abs(float(c.sum()) - 1.0) > 1e-10:
        raise ConfigError(f"view confidences sum to {float(c.sum())!r}, expected 1")
    return c


def _pooled_scenario_row(config, panel, mixed, var) -> ReportRow:
    covar = interpolated_quantile(panel.sorted_y, mixed, config.alpha)
    # the mixture need not satisfy any single view; its worst constraint
    # violation across the pooled views is reported as a diagnostic
    violation = max(_for_each_view(
        lambda view: max_violation(compile_view(view, panel), mixed.weights), config.views, panel
    ))
    return ReportRow(
        label="pooled(" + "; ".join(describe(v) for v in config.views) + ")",
        method="pooled",
        var=var,
        covar=covar,
        delta_covar=covar - var,
        residual=violation,
        iterations=0,
        entropy=relative_entropy(mixed, panel.prior),
    )


# -- analytic-mode evaluation -----------------------------------------------------

def _analytic_y_cdf(prior: BivariateNormalParams, view: ViewSpec, out: ViewOutcome):
    """Posterior CDF of Y under one view, for pooling mixtures."""
    if out.posterior is not None:
        mu, sd = out.posterior.mu_y, out.posterior.sigma_y
        return lambda y: norm_cdf((y - mu) / sd)
    if view.kind != "value":
        raise NumericDomainError(
            f"cannot pool {describe(view)}: its posterior has no bivariate-normal law of Y"
        )
    p = analytics._self_view_params(prior) if view.target == "y" else prior
    return analytics.value_view_y_cdf(p, view.value, view.relation)


def _analytic_rows(config: RunConfig, prior: BivariateNormalParams) -> list[ReportRow]:
    var = analytics.var_normal(prior, config.alpha)
    rows = []
    outcomes = []
    for view in config.views:
        try:
            out = analytics.covar_for_view(prior, view, config.alpha)
        except ValueError as exc:
            raise _tag("analytics", ConfigError(str(exc)))
        outcomes.append(out)
        rows.append(
            ReportRow(
                label=describe(view),
                method="analytic",
                var=var,
                covar=out.covar,
                delta_covar=out.covar - var,
                collapsed_to_var=out.collapsed_to_var,
            )
        )
    c = _pooling_confidences(config)
    if c is not None:
        cdfs = [_analytic_y_cdf(prior, v, o) for v, o in zip(config.views, outcomes)]

        def mixture(y: float) -> float:
            return sum(w * f(y) for w, f in zip(c, cdfs)) - config.alpha

        # the mixture quantile is bracketed by the component quantiles
        pad = 1e-9 * prior.sigma_y
        lo = min(o.covar for o in outcomes) - pad
        hi = max(o.covar for o in outcomes) + pad
        covar = _bracketed_root(mixture, lo, hi)
        rows.append(
            ReportRow(
                label="pooled(" + "; ".join(describe(v) for v in config.views) + ")",
                method="pooled",
                var=var,
                covar=covar,
                delta_covar=covar - var,
            )
        )
    return rows


# -- pipeline ---------------------------------------------------------------------

def run_pipeline(config: RunConfig) -> RiskReport:
    """End-to-end run: ingest, estimate prior, evaluate views, assemble report."""
    x, y = _load_series(config)
    if config.mode == "scenario":
        try:
            panel = scenario_prior(config, x, y)
        except ValueError as exc:
            raise _tag("estimation", DataError(str(exc)))
        try:
            rows = _scenario_rows(config, panel)
        except EpcovarError as exc:
            raise _tag("solver", exc)
    else:
        try:
            prior = analytic_prior(x, y) if config.mode == "analytic" else fitted_prior(x, y)
        except ValueError as exc:
            raise _tag("estimation", DataError(str(exc)))
        rows = _analytic_rows(config, prior)
    return RiskReport(
        rows=tuple(rows),
        alpha=config.alpha,
        x_name=config.x,
        y_name=config.y,
        unit=config.unit,
        mode=config.mode,
    )


# -- output -----------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _diag_text(row: ReportRow) -> str:
    if row.residual is None:
        return ""
    return (
        f"residual={row.residual:.3g};iterations={row.iterations};"
        f"entropy={_fmt(row.entropy)}"
    )


def _render_table(report: RiskReport) -> str:
    head = (
        f"# general CoVaR report  alpha={_fmt(report.alpha)}  x={report.x_name}  "
        f"y={report.y_name}  unit={report.unit}  mode={report.mode}\n"
    )
    cols = f"{'view':<44}{'method':<13}{'var':>12}{'covar':>12}{'delta':>12}  notes\n"
    lines = [head, cols]
    for row in report.rows:
        if row.collapsed_to_var:
            note = "collapsed-to-var"
        elif row.residual is not None:
            note = _diag_text(row)
        else:
            note = ""
        lines.append(
            f"{row.label:<44}{row.method:<13}{_fmt(row.var):>12}"
            f"{_fmt(row.covar):>12}{_fmt(row.delta_covar):>12}  {note}\n"
        )
    return "".join(lines)


def _render_csv(report: RiskReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["view", "method", "var", "covar", "delta_covar", "collapsed_to_var", "diagnostics"]
    )
    for row in report.rows:
        collapsed = "" if row.collapsed_to_var is None else str(row.collapsed_to_var).lower()
        writer.writerow(
            [
                row.label,
                row.method,
                _fmt(row.var),
                _fmt(row.covar),
                _fmt(row.delta_covar),
                collapsed,
                _diag_text(row),
            ]
        )
    return buf.getvalue()


def _render_json(report: RiskReport) -> str:
    def num(v):
        return float(f"{v:.6g}")

    rows = []
    for row in report.rows:
        entry = {
            "view": row.label,
            "method": row.method,
            "var": num(row.var),
            "covar": num(row.covar),
            "delta_covar": num(row.delta_covar),
        }
        if row.collapsed_to_var is not None:
            entry["collapsed_to_var"] = row.collapsed_to_var
        if row.residual is not None:
            entry["residual"] = num(row.residual)
            entry["iterations"] = row.iterations
            entry["entropy"] = num(row.entropy)
        rows.append(entry)
    doc = {
        "alpha": num(report.alpha),
        "x": report.x_name,
        "y": report.y_name,
        "unit": report.unit,
        "mode": report.mode,
        "rows": rows,
    }
    return json.dumps(doc, indent=2) + "\n"


def render_report(report: RiskReport, fmt: str = "table") -> str:
    if fmt == "table":
        return _render_table(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "json":
        return _render_json(report)
    raise ConfigError(f"format must be one of {_FORMATS}, got {fmt!r}")


def emit_report(report: RiskReport, fmt: str = "table", sink=None) -> None:
    """Write the rendered report to ``sink`` (path, file-like, or stdout)."""
    text = render_report(report, fmt)
    if sink is None:
        sys.stdout.write(text)
    elif hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text, encoding="utf-8")


def backtest_stats(estimates, actuals) -> tuple[float, float]:
    """Mean and population variance of |estimate - actual| across events.

    A small comparison utility for backtests: feed per-event risk estimates
    (e.g. the CoVaR column of successive reports) and the realized losses.
    Lower mean means tighter tracking; lower variance means steadier errors.
    """
    est = np.asarray(estimates, dtype=float)
    act = np.asarray(actuals, dtype=float)
    if est.size != act.size:
        raise ValueError(f"length mismatch: estimates has {est.size}, actuals has {act.size}")
    if est.size == 0:
        raise ValueError("backtest needs at least one event")
    diffs = np.abs(est - act)
    mean = float(diffs.mean())
    return mean, float(((diffs - mean) ** 2).mean())


# -- sensitivity scans --------------------------------------------------------------

_SCAN_FIELDS = {"expectation": "mean", "variance": "variance", "quantile": "quantile",
                "correlation": "correlation", "value": "value"}


def sensitivity_scan(
    prior_or_config,
    kind: str,
    start: float,
    stop: float,
    steps: int,
    alpha: float | None = None,
) -> list[tuple[float, float]]:
    """(parameter, CoVaR) pairs for an equality-view sweep of one view kind.

    Accepts either a resolved :class:`BivariateNormalParams` prior or a
    :class:`RunConfig` (whose data then supplies a sample-moment prior, or the
    fitted one in ``analytic-from-fit`` mode). Scans are closed-form, so a
    scenario-mode config is rejected rather than scanned on a normal prior.
    """
    if isinstance(prior_or_config, RunConfig):
        config = prior_or_config
        if config.mode == "scenario":
            raise ConfigError(
                "sensitivity scans use the closed-form engine; scenario mode has no scan"
            )
        x, y = _load_series(config)
        prior = analytic_prior(x, y) if config.mode != "analytic-from-fit" else fitted_prior(x, y)
        alpha = config.alpha if alpha is None else alpha
    else:
        prior = prior_or_config
        alpha = 0.95 if alpha is None else alpha
    if kind not in _SCAN_FIELDS:
        raise ConfigError(f"scan kind must be one of {tuple(_SCAN_FIELDS)}, got {kind!r}")
    if steps < 2 or not math.isfinite(start) or not math.isfinite(stop) or start == stop:
        raise ConfigError(f"degenerate scan range [{start}, {stop}] with {steps} steps")
    level = alpha if kind == "quantile" else None  # closed-form quantile views pin at alpha
    out = []
    for value in np.linspace(start, stop, steps).tolist():
        view = ViewSpec(kind, quantile_level=level, **{_SCAN_FIELDS[kind]: value})
        out.append((value, analytics.covar_for_view(prior, view, alpha).covar))
    return out
