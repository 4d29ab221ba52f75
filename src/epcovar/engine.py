"""Pipeline orchestration: ingest, estimate the prior, apply views, report.

Data flows in three stages: a CSV of loss columns for the two assets, a prior
(``_prior``: a bivariate-normal parameter bundle from sample or fitted moments,
or a scenario panel sampled from the t-marginal/t-copula fit), and one report
row per configured view. Analytic mode routes each view to its closed form;
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
evaluates them (compile, solve, posterior quantile), and the pooled row's
per-view violation checks, through ``scenario._on_two_threads``: on the
calling thread and one worker thread from 50,000 scenarios, in turn below
that. NumPy releases the interpreter lock in the J-length kernels. Results
are bitwise equal either way, rows always follow configuration order, and a
failing configuration raises the error of its first failing view, as a
serial loop would. A pooled row reports the mixture's worst view-constraint
violation as its residual diagnostic, since a confidence-weighted mixture
does not satisfy the individual views.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analytics
from .analytics import BivariateNormalParams, _bracketed_root
from .errors import ConfigError, DataError, EpcovarError
from .estimation import fit_t_copula, fit_t_marginal, generate_scenarios, pseudo_observations
# bvn_cdf is unused here, but bench/tracing.py rebinds engine.bvn_cdf by name
from .normal import bvn_cdf  # noqa: F401
from .scenario import ScenarioPanel, _on_two_threads, interpolated_quantile
from .solver import SolveReport, max_violation, pool, relative_entropy, solve
from .views import KINDS, ViewSpec, compile_view, describe, no_view, view_from_dict

_MODES = ("analytic", "analytic-from-fit", "scenario")
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
        if not isinstance(self.data, (str, os.PathLike)):
            raise ConfigError(f"data must be a path, got {self.data!r}")
        if not (self.out is None or isinstance(self.out, (str, os.PathLike))):
            raise ConfigError(f"out must be a path or null, got {self.out!r}")
        for name in ("x", "y", "unit"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise ConfigError(f"alpha must be a real number, got {self.alpha!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.x == self.y:
            raise ConfigError(f"x and y name the same column {self.x!r}; choose two assets")
        if self.mode == "analytic-normal":  # accepted spelling
            object.__setattr__(self, "mode", "analytic")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.fmt not in _FORMATS:
            raise ConfigError(f"format must be one of {_FORMATS}, got {self.fmt!r}")
        if not (isinstance(self.views, (list, tuple))
                and all(isinstance(v, ViewSpec) for v in self.views)):
            raise ConfigError(f"views must be a list or tuple of ViewSpec, got {self.views!r}")
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


def _row(label: str, method: str, var: float, covar: float, **diagnostics) -> ReportRow:
    """The report row of one view or mixture, with ``delta_covar = covar - var``."""
    return ReportRow(label, method, var, covar, covar - var, **diagnostics)


def _pooled_label(config: RunConfig) -> str:
    return "pooled(" + "; ".join(describe(v) for v in config.views) + ")"


def _read_json(path, what: str):
    """The JSON document at ``path``; ``what`` names it in a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_config(path) -> RunConfig:
    """Read a JSON run configuration; see README for the schema."""
    return config_from_dict(_read_json(path, "config"))


def config_from_dict(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(obj) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(obj)
    if "views" in kwargs:
        kwargs["views"] = parse_views(kwargs["views"])
    try:
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
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
    obj = _read_json(path, "views file")
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


def analytic_prior(x: np.ndarray, y: np.ndarray) -> BivariateNormalParams:
    """Bivariate-normal prior from sample moments."""
    sx = float(x.std(ddof=1))
    sy = float(y.std(ddof=1))
    if sx == 0.0 or sy == 0.0:
        raise DataError("degenerate sample: zero spread in a selected column")
    rho = float(np.corrcoef(x, y)[0, 1])
    return BivariateNormalParams(float(x.mean()), float(y.mean()), sx, sy, rho)


def _prior(config: RunConfig) -> BivariateNormalParams | ScenarioPanel:
    """The prior that ``config.mode`` selects, from the configured columns.

    ``analytic`` takes the sample-moment normal. The other modes fit the t
    marginals and the t copula of the ranks once, then sample the panel
    (``scenario``) or take the normal of the fitted means and standard
    deviations and the copula's rho (``analytic-from-fit``); that rho is the
    linear correlation for a common-dof elliptical pair, an approximation
    otherwise. Ingest failures and non-finite losses are tagged ``ingest:``,
    estimation failures are data errors tagged ``estimation:``.
    """
    try:
        series = ingest_csv(config.data, [config.x, config.y], min_rows=30).series
    except (DataError, ValueError) as exc:
        raise _tag("ingest", exc)
    x, y = series[config.x], series[config.y]
    for name, values in ((config.x, x), (config.y, y)):
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise DataError(f"ingest: non-finite loss {bad[0]} in column {name!r}")
    try:
        if config.mode == "analytic":
            return analytic_prior(x, y)
        mx, my = fit_t_marginal(x), fit_t_marginal(y)
        cop = fit_t_copula(pseudo_observations(x), pseudo_observations(y))
        if config.mode == "scenario":
            return generate_scenarios(mx, my, cop, config.scenarios, config.seed, config.unit)
        return BivariateNormalParams(mx.mean, my.mean, mx.std, my.std, cop.rho)
    except ValueError as exc:
        raise _tag("estimation", DataError(str(exc)))


# -- scenario-mode evaluation ----------------------------------------------------

def ep_covar_on_panel(
    panel: ScenarioPanel, view: ViewSpec, alpha: float
) -> tuple[float, SolveReport]:
    """Compile one view, reweight the panel, read off the conditional quantile."""
    constraints = compile_view(view, panel)
    report = solve(panel, constraints)
    covar = interpolated_quantile(panel.sorted_y, report.posterior, alpha)
    return covar, report


def _scenario_rows(
    config: RunConfig, panel: ScenarioPanel, confidences: np.ndarray | None
) -> list[ReportRow]:
    var = interpolated_quantile(panel.sorted_y, panel.prior, config.alpha)
    evaluated = _on_two_threads(
        lambda view: ep_covar_on_panel(panel, view, config.alpha), config.views, panel.size
    )
    rows = [
        _row(describe(view), "scenario-EP", var, covar,
             residual=rep.residual, iterations=rep.iterations, entropy=rep.entropy)
        for view, (covar, rep) in zip(config.views, evaluated)
    ]
    if confidences is not None:
        mixed = pool([rep.posterior for _, rep in evaluated], confidences)
        del evaluated  # the views' posteriors are freed before the pooled row's recompiles
        rows.append(_pooled_scenario_row(config, panel, mixed, var))
    return rows


def _pooling_confidences(config: RunConfig) -> np.ndarray | None:
    """The views' pooling weights, or None when every view is held with
    confidence 1; a configuration that breaks a pooling rule is a config error."""
    c = np.array([v.confidence for v in config.views], dtype=float)
    if np.all(c == 1.0):
        return None
    if c.size < 2:
        raise ConfigError(f"a single view held with confidence {config.views[0].confidence!r} "
                          "has nothing to pool with; use confidence 1")
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
    violation = max(_on_two_threads(
        lambda view: max_violation(compile_view(view, panel), mixed.weights),
        config.views, panel.size,
    ))
    return _row(_pooled_label(config), "pooled", var, covar,
                residual=violation, iterations=0, entropy=relative_entropy(mixed, panel.prior))


# -- analytic-mode evaluation -----------------------------------------------------

def _analytic_rows(
    config: RunConfig, prior: BivariateNormalParams, confidences: np.ndarray | None
) -> list[ReportRow]:
    var = analytics.var_normal(prior, config.alpha)
    outcomes = []
    for view in config.views:
        try:
            outcomes.append(analytics.covar_for_view(prior, view, config.alpha))
        except ValueError as exc:
            raise _tag("analytics", ConfigError(str(exc)))
    rows = [
        _row(describe(v), "analytic", var, o.covar, collapsed_to_var=o.collapsed_to_var)
        for v, o in zip(config.views, outcomes)
    ]
    if confidences is not None:
        cdfs = [analytics.posterior_y_cdf(prior, v, o) for v, o in zip(config.views, outcomes)]

        def mixture(y: float) -> float:
            return sum(w * f(y) for w, f in zip(confidences, cdfs)) - config.alpha

        # the mixture quantile is bracketed by the component quantiles
        pad = 1e-9 * prior.sigma_y
        lo = min(o.covar for o in outcomes) - pad
        hi = max(o.covar for o in outcomes) + pad
        covar = _bracketed_root(mixture, lo, hi)
        rows.append(_row(_pooled_label(config), "pooled", var, covar))
    return rows


# -- pipeline ---------------------------------------------------------------------

def run_pipeline(config: RunConfig) -> RiskReport:
    """End-to-end run: check the pooling rules, ingest, estimate prior,
    evaluate views, assemble report."""
    confidences = _pooling_confidences(config)
    prior = _prior(config)
    if config.mode == "scenario":
        try:
            rows = _scenario_rows(config, prior, confidences)
        except EpcovarError as exc:
            raise _tag("solver", exc)
    else:
        rows = _analytic_rows(config, prior, confidences)
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


# (name, text format) of each solver diagnostic, in output order
_DIAGNOSTICS = (("residual", "{:.3g}"), ("iterations", "{}"), ("entropy", "{:.6g}"))


def _fields(row: ReportRow) -> dict:
    """The row's fields in output order, with absent ones left out."""
    return {
        ("view" if name == "label" else name): value
        for name, value in vars(row).items() if value is not None
    }


def _diag_text(fields: dict) -> str:
    return ";".join(
        f"{name}={text.format(fields[name])}" for name, text in _DIAGNOSTICS if name in fields
    )


def _render_table(report: RiskReport) -> str:
    head = (
        f"# general CoVaR report  alpha={_fmt(report.alpha)}  x={report.x_name}  "
        f"y={report.y_name}  unit={report.unit}  mode={report.mode}\n"
    )
    cols = f"{'view':<44}{'method':<13}{'var':>12}{'covar':>12}{'delta':>12}  notes\n"
    lines = [head, cols]
    for row in report.rows:
        note = "collapsed-to-var" if row.collapsed_to_var else _diag_text(_fields(row))
        lines.append(
            f"{row.label:<44}{row.method:<13}{_fmt(row.var):>12}"
            f"{_fmt(row.covar):>12}{_fmt(row.delta_covar):>12}  {note}\n"
        )
    return "".join(lines)


_CSV_COLUMNS = ("view", "method", "var", "covar", "delta_covar", "collapsed_to_var")


def _render_csv(report: RiskReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS + ("diagnostics",))
    for row in report.rows:
        fields = _fields(row)
        cells = [fields.get(name, "") for name in _CSV_COLUMNS] + [_diag_text(fields)]
        writer.writerow([
            str(v).lower() if isinstance(v, bool) else _fmt(v) if isinstance(v, float) else v
            for v in cells
        ])
    return buf.getvalue()


def _render_json(report: RiskReport) -> str:
    def num(v):
        return float(f"{v:.6g}")

    doc = {
        "alpha": num(report.alpha),
        "x": report.x_name,
        "y": report.y_name,
        "unit": report.unit,
        "mode": report.mode,
        "rows": [
            {k: num(v) if isinstance(v, float) else v for k, v in _fields(row).items()}
            for row in report.rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


_RENDERERS = {"table": _render_table, "csv": _render_csv, "json": _render_json}
_FORMATS = tuple(_RENDERERS)


def render_report(report: RiskReport, fmt: str = "table") -> str:
    if fmt not in _RENDERERS:
        raise ConfigError(f"format must be one of {_FORMATS}, got {fmt!r}")
    return _RENDERERS[fmt](report)


def _write(text: str, sink=None) -> None:
    """Write ``text`` to ``sink`` (a path or file-like), or stdout for None or ""."""
    if not sink:
        sys.stdout.write(text)
    elif hasattr(sink, "write"):
        sink.write(text)
    else:
        try:
            Path(sink).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {sink}: {exc}") from exc


def emit_report(report: RiskReport, fmt: str = "table", sink=None) -> None:
    """Write the rendered report to ``sink`` (path, file-like, or stdout)."""
    _write(render_report(report, fmt), sink)


# -- sensitivity scans --------------------------------------------------------------

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
        prior = _prior(config)
        alpha = config.alpha if alpha is None else alpha
    else:
        prior = prior_or_config
        alpha = 0.95 if alpha is None else alpha
    scanned = {name: spec.one_sided for name, spec in KINDS.items() if spec.one_sided}
    if kind not in scanned:
        raise ConfigError(f"scan kind must be one of {tuple(scanned)}, got {kind!r}")
    if steps < 2 or not math.isfinite(start) or not math.isfinite(stop) or start == stop:
        raise ConfigError(f"degenerate scan range [{start}, {stop}] with {steps} steps")
    level = alpha if kind == "quantile" else None  # closed-form quantile views pin at alpha
    out = []
    for value in np.linspace(start, stop, steps).tolist():
        view = ViewSpec(kind, quantile_level=level, **{scanned[kind]: value})
        out.append((value, analytics.covar_for_view(prior, view, alpha).covar))
    return out
