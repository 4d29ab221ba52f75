"""Prior estimation: heavy-tailed marginals, tail dependence, scenario panels.

Builds the scenario prior from historical loss data: Student-t marginals
fitted by profile maximum likelihood, a t copula calibrated by Kendall-tau
inversion (``rho = sin(pi tau / 2)``) with its degrees of freedom chosen by a
one-dimensional pseudo-likelihood search, and a seeded sampler that maps
copula draws through the marginal quantile functions into a
:class:`~epcovar.scenario.ScenarioPanel` with uniform weights.

Also hosts the exact two-variable quantile-regression baseline: the pinball
objective is piecewise linear, so for data in general position an optimal line
passes through at least two observations and enumerating observation pairs
finds the global optimum exactly.

Degrees of freedom are searched on [2.1, 100]; a fit at the cap is flagged
"effectively normal". The dof floor keeps variances finite, which the
moment-based views require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, stdtr, stdtrit
from scipy.stats import kendalltau

from .scenario import ScenarioPanel, build_panel

DOF_MIN = 2.1
DOF_MAX = 100.0
_DOF_GRID_SIZE = 60
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TMarginal:
    """Location-scale Student-t marginal with dof > 2 (finite variance)."""

    location: float
    scale: float
    dof: float

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.dof <= 2.0:
            raise ValueError(f"dof must exceed 2, got {self.dof}")

    @property
    def effectively_normal(self) -> bool:
        return self.dof >= DOF_MAX - 1e-9

    @property
    def mean(self) -> float:
        return self.location

    @property
    def std(self) -> float:
        return self.scale * math.sqrt(self.dof / (self.dof - 2.0))


@dataclass(frozen=True)
class TCopulaParams:
    rho: float
    dof: float

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"copula rho must lie in (-1, 1), got {self.rho}")
        if self.dof <= 2.0:
            raise ValueError(f"dof must exceed 2, got {self.dof}")


@dataclass(frozen=True)
class QRFit:
    """Quantile-regression line y = intercept + slope * x at level alpha."""

    intercept: float
    slope: float
    alpha: float


def t_quantile(p, dof: float):
    """Student-t quantile (``scipy.special.stdtrit``) of probabilities strictly
    inside (0, 1); scalar in, scalar out."""
    p_arr = np.asarray(p, dtype=float)
    if np.any((p_arr <= 0.0) | (p_arr >= 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    t = stdtrit(dof, p_arr)
    return t if t.ndim else float(t)


def _t_loglik(z: np.ndarray, dof: float, scale: float) -> float:
    n = z.size
    const = (
        gammaln((dof + 1.0) / 2.0)
        - gammaln(dof / 2.0)
        - 0.5 * math.log(dof * math.pi)
        - math.log(scale)
    )
    return float(n * const - (dof + 1.0) / 2.0 * np.log1p(z * z / dof).sum())


def _fit_location_scale(x: np.ndarray, dof: float, loc0: float, scale0: float):
    """EM-style fixed point for (location, scale) at fixed dof."""
    loc, scale = loc0, scale0
    for _ in range(500):
        z = (x - loc) / scale
        w = (dof + 1.0) / (dof + z * z)
        loc_new = float((w * x).sum() / w.sum())
        scale_new = math.sqrt(float((w * (x - loc_new) ** 2).mean()))
        if abs(loc_new - loc) < 1e-10 * max(1.0, abs(loc)) and (
            abs(scale_new - scale) < 1e-10 * scale
        ):
            loc, scale = loc_new, scale_new
            break
        loc, scale = loc_new, scale_new
    return loc, scale


def _golden_max(fn, lo: float, hi: float, iters: int = 40) -> tuple[float, float]:
    a, b = lo, hi
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(c1), fn(c2)
    for _ in range(iters):
        if f1 >= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = fn(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = fn(c2)
    best = 0.5 * (a + b)
    return best, fn(best)


def fit_t_marginal(samples) -> TMarginal:
    """Maximum-likelihood Student-t fit by profiling the likelihood over dof.

    dof is searched on a log grid over [2.1, 100] and refined by golden
    section; (location, scale) are re-optimized at every dof. A degenerate
    (zero-spread) sample is rejected. Estimates hitting the dof cap are
    reported as effectively normal.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if x.size < 30:
        raise ValueError(f"need at least 30 samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    if float(np.ptp(x)) == 0.0:
        raise ValueError("degenerate sample: zero spread")

    loc0 = float(np.median(x))
    mad = float(np.median(np.abs(x - loc0)))
    scale0 = mad * 1.4826 if mad > 0.0 else float(x.std())
    cache: dict[float, tuple[float, float, float]] = {}

    def profile(dof: float) -> float:
        if dof not in cache:
            loc, scale = _fit_location_scale(x, dof, loc0, scale0)
            cache[dof] = (loc, scale, _t_loglik((x - loc) / scale, dof, scale))
        return cache[dof][2]

    grid = np.geomspace(DOF_MIN, DOF_MAX, _DOF_GRID_SIZE)
    values = [profile(float(g)) for g in grid]
    k = int(np.argmax(values))
    lo = math.log(grid[max(k - 1, 0)])
    hi = math.log(grid[min(k + 1, grid.size - 1)])
    dof, _ = _golden_max(lambda u: profile(math.exp(u)), lo, hi)
    dof = min(math.exp(dof), DOF_MAX)
    if profile(float(grid[-1])) >= profile(dof):
        dof = DOF_MAX
    loc, scale = _fit_location_scale(x, dof, loc0, scale0)
    return TMarginal(location=loc, scale=scale, dof=float(dof))


def _tie_fraction(a: np.ndarray) -> float:
    return 1.0 - np.unique(a).size / a.size


def _t_copula_loglik(tx: np.ndarray, ty: np.ndarray, rho: float, dof: float) -> float:
    """Log pseudo-likelihood of a bivariate t copula at transformed points."""
    det = 1.0 - rho * rho
    quad = (tx * tx - 2.0 * rho * tx * ty + ty * ty) / det
    log_joint = (
        gammaln((dof + 2.0) / 2.0)
        + gammaln(dof / 2.0)
        - 2.0 * gammaln((dof + 1.0) / 2.0)
        - 0.5 * math.log(det)
        - (dof + 2.0) / 2.0 * np.log1p(quad / dof)
        + (dof + 1.0) / 2.0 * (np.log1p(tx * tx / dof) + np.log1p(ty * ty / dof))
    )
    return float(log_joint.sum())


def fit_t_copula(u, v) -> TCopulaParams:
    """Calibrate a t copula to pseudo-observations in (0, 1).

    The correlation comes from Kendall-tau inversion; the degrees of freedom
    maximize the pseudo-likelihood on a log grid over [2.1, 100] refined by
    golden section. Heavily tied inputs (over half the entries duplicated in
    either margin) are rejected as rank-degenerate, and |tau| = 1 is rejected
    because the implied copula correlation sits on the boundary.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.size != v.size:
        raise ValueError(f"length mismatch: u has {u.size}, v has {v.size}")
    if u.size < 30:
        raise ValueError(f"need at least 30 observations, got {u.size}")
    if np.any((u <= 0.0) | (u >= 1.0)) or np.any((v <= 0.0) | (v >= 1.0)):
        raise ValueError("pseudo-observations must lie strictly inside (0, 1)")
    if max(_tie_fraction(u), _tie_fraction(v)) > 0.5:
        raise ValueError("rank degeneracy: more than half the entries are tied")
    tau = float(kendalltau(u, v).statistic)
    rho = math.sin(math.pi * tau / 2.0)
    if abs(rho) >= 1.0 - 1e-12:
        raise ValueError(f"implied correlation {rho} sits on the boundary (tau={tau})")

    cache: dict[float, float] = {}

    def loglik(dof: float) -> float:
        if dof not in cache:
            tx = t_quantile(u, dof)
            ty = t_quantile(v, dof)
            cache[dof] = _t_copula_loglik(tx, ty, rho, dof)
        return cache[dof]

    grid = np.geomspace(DOF_MIN, DOF_MAX, _DOF_GRID_SIZE)
    values = [loglik(float(g)) for g in grid]
    k = int(np.argmax(values))
    lo = math.log(grid[max(k - 1, 0)])
    hi = math.log(grid[min(k + 1, grid.size - 1)])
    dof, _ = _golden_max(lambda w: loglik(math.exp(w)), lo, hi)
    dof = min(math.exp(dof), DOF_MAX)
    if loglik(float(grid[-1])) >= loglik(dof):
        dof = DOF_MAX
    return TCopulaParams(rho=rho, dof=float(dof))


def pseudo_observations(x) -> np.ndarray:
    """Rank transform r/(n+1), keeping entries strictly inside (0, 1)."""
    x = np.asarray(x, dtype=float)
    ranks = np.argsort(np.argsort(x, kind="stable"), kind="stable") + 1.0
    return ranks / (x.size + 1.0)


def generate_scenarios(
    mx: TMarginal,
    my: TMarginal,
    cop: TCopulaParams,
    n_scenarios: int,
    seed: int,
    unit: str = "fraction",
) -> ScenarioPanel:
    """Sample a uniform-weight panel: t-copula draws mapped through the
    marginal quantile functions. Reproducible for a fixed seed."""
    if n_scenarios < 100:
        raise ValueError(f"need at least 100 scenarios, got {n_scenarios}")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n_scenarios)
    z2 = rng.standard_normal(n_scenarios)
    zc = cop.rho * z1 + math.sqrt(1.0 - cop.rho**2) * z2
    w = rng.chisquare(cop.dof, n_scenarios) / cop.dof
    scale = 1.0 / np.sqrt(w)
    u = stdtr(cop.dof, z1 * scale)
    v = stdtr(cop.dof, zc * scale)
    eps = 1e-12
    u = np.clip(u, eps, 1.0 - eps)
    v = np.clip(v, eps, 1.0 - eps)
    x = mx.location + mx.scale * t_quantile(u, mx.dof)
    y = my.location + my.scale * t_quantile(v, my.dof)
    return build_panel(x, y, unit=unit)


def pinball_loss(residuals, alpha: float) -> float:
    """Mean check loss: alpha-weighted positive part, (alpha-1)-weighted negative."""
    r = np.asarray(residuals, dtype=float)
    return float(np.where(r >= 0.0, alpha * r, (alpha - 1.0) * r).mean())


def quantile_regression_covar(
    x, y, alpha: float, q_x: float
) -> tuple[QRFit, float]:
    """Exact two-variable quantile regression and the implied conditional VaR.

    Enumerates the finite candidate set of lines through observation pairs
    (the pinball optimum interpolates at least two points in general
    position), evaluates the check loss for each, and keeps the minimizer.
    Returns the fit and ``intercept + slope * q_x``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: x has {x.size}, y has {y.size}")
    if x.size < 10:
        raise ValueError(f"need at least 10 observations, got {x.size}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if np.all(x == x[0]):
        raise ValueError("slope unidentifiable: all x values identical")

    ii, jj = np.triu_indices(x.size, k=1)
    dx = x[jj] - x[ii]
    keep = dx != 0.0
    ii, jj, dx = ii[keep], jj[keep], dx[keep]
    slopes = (y[jj] - y[ii]) / dx
    intercepts = y[ii] - slopes * x[ii]

    best_loss = math.inf
    best = (0.0, 0.0)
    chunk = 4096
    for start in range(0, slopes.size, chunk):
        s = slopes[start:start + chunk, None]
        b = intercepts[start:start + chunk, None]
        resid = y[None, :] - b - s * x[None, :]
        losses = np.where(resid >= 0.0, alpha * resid, (alpha - 1.0) * resid).mean(axis=1)
        k = int(np.argmin(losses))
        if losses[k] < best_loss:
            best_loss = float(losses[k])
            best = (float(intercepts[start + k]), float(slopes[start + k]))

    fit = QRFit(intercept=best[0], slope=best[1], alpha=alpha)
    return fit, fit.intercept + fit.slope * q_x
