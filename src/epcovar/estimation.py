"""Prior estimation: heavy-tailed marginals, tail dependence, scenario panels.

Builds the scenario prior from historical loss data: Student-t marginals
fitted by profile maximum likelihood, a t copula calibrated by Kendall-tau
inversion (``rho = sin(pi tau / 2)``) with its degrees of freedom chosen by a
one-dimensional pseudo-likelihood search, and a seeded sampler that maps
copula draws through the marginal quantile functions into a
:class:`~epcovar.scenario.ScenarioPanel` with uniform weights. It maps X and Y
on two threads, and its panel is bitwise equal to serial sampling.

Also hosts the exact two-variable quantile-regression baseline: the pinball
objective is piecewise linear, so for data in general position an optimal line
passes through at least two observations and enumerating observation pairs
finds the global optimum exactly.

Degrees of freedom are searched on [2.1, 100]; a fit at the cap is flagged
"effectively normal". The dof floor keeps variances finite, which the
moment-based views require. Both fits run one search (``_search_dof``): the
objective on a 60-point log grid, evaluated for all grid dofs in one call,
then golden section on the argmax's bracket, then the cap test. The
marginal's objective profiles (location, scale) by the EM of Liu & Rubin
(Statistica Sinica 5, 1995); its 60 grid EMs run in lockstep as the rows of
one array, each row with the one-dof EM's arithmetic and stopping rule, so
every fit is bitwise equal to fitting one dof at a time.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, stdtr, stdtrit
from scipy.stats import kendalltau

from .scenario import ScenarioPanel, _uniform_prior

DOF_MIN = 2.1
DOF_MAX = 100.0
_DOF_GRID_SIZE = 60
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BLOCK_ELEMENTS = 1 << 15  # a block of lockstep rows stays in cache


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


def _t_logliks(x: np.ndarray, locs: np.ndarray, scales: np.ndarray, dofs: np.ndarray):
    """Student-t log-likelihoods of the sample ``x`` at each (location, scale,
    dof) triple, evaluated in blocks of at most ``_BLOCK_ELEMENTS`` elements
    (or one triple)."""
    out = np.empty(dofs.size)
    rows = max(1, _BLOCK_ELEMENTS // x.size)
    for start in range(0, dofs.size, rows):
        s = slice(start, start + rows)
        const = np.array([
            gammaln((dof + 1.0) / 2.0)
            - gammaln(dof / 2.0)
            - 0.5 * math.log(dof * math.pi)
            - math.log(scale)
            for dof, scale in zip(dofs[s].tolist(), scales[s].tolist())
        ])
        z = (x - locs[s, None]) / scales[s, None]
        tails = np.log1p(z * z / dofs[s, None]).sum(axis=1)
        out[s] = x.size * const - (dofs[s] + 1.0) / 2.0 * tails
    return out


def _fit_location_scale(x: np.ndarray, dof: float, loc0: float, scale0: float):
    """EM fixed point for (location, scale) at fixed dof (Liu & Rubin, 1995).

    Stops at the first iterate whose location and scale both move by less
    than 1e-10 relative, or after 500 steps. The residual ``x - loc`` of one
    step is the ``x - loc_new`` of the step before.
    """
    n = x.size
    num = dof + 1.0
    r = x - loc0
    z = np.empty_like(x)
    w = np.empty_like(x)
    loc, scale = loc0, scale0
    for _ in range(500):
        np.divide(r, scale, z)
        np.multiply(z, z, z)
        np.add(z, dof, z)
        np.divide(num, z, w)
        np.multiply(w, x, z)
        loc_new = float(np.add.reduce(z)) / float(np.add.reduce(w))
        np.subtract(x, loc_new, r)
        np.multiply(r, r, z)
        np.multiply(w, z, z)
        scale_new = math.sqrt(float(np.add.reduce(z)) / n)
        if abs(loc_new - loc) < 1e-10 * max(1.0, abs(loc)) and (
            abs(scale_new - scale) < 1e-10 * scale
        ):
            return loc_new, scale_new
        loc, scale = loc_new, scale_new
    return loc, scale


def _fit_location_scale_rows(x: np.ndarray, dofs: np.ndarray, loc0: float, scale0: float):
    """``_fit_location_scale`` at every dof of ``dofs``, run in lockstep.

    Row i of a block holds the EM at ``dofs[i]`` and does the same
    elementwise arithmetic as the one-dof loop; each row's sums reduce one
    C-contiguous row, and a row leaves the block at the iterate where it
    first passes the convergence test. A block holds at most
    ``_BLOCK_ELEMENTS`` elements (or one row), so at n = 500 the 60 grid
    dofs form one block, while a large sample runs a row at a time. Returns
    the locations and scales, bitwise equal to the one-dof loop's.
    """
    n = x.size
    locs = np.empty(dofs.size)
    scales = np.empty(dofs.size)
    rows = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, dofs.size, rows):
        idx = np.arange(start, min(start + rows, dofs.size))
        dof = dofs[idx, None]
        loc = np.full((idx.size, 1), loc0)
        scale = np.full((idx.size, 1), scale0)
        r = np.subtract(x, loc)
        z = np.empty_like(r)
        w = np.empty_like(r)
        for _ in range(500):
            k = idx.size
            rk, zk, wk = r[:k], z[:k], w[:k]
            np.divide(rk, scale, out=zk)
            np.multiply(zk, zk, out=zk)
            np.add(zk, dof, out=zk)
            np.divide(dof + 1.0, zk, out=wk)
            np.multiply(wk, x, out=zk)
            loc_new = zk.sum(axis=1, keepdims=True) / wk.sum(axis=1, keepdims=True)
            np.subtract(x, loc_new, out=rk)
            np.multiply(rk, rk, out=zk)
            np.multiply(wk, zk, out=zk)
            scale_new = np.sqrt(zk.sum(axis=1, keepdims=True) / n)
            done = (np.abs(loc_new - loc) < 1e-10 * np.maximum(1.0, np.abs(loc))) & (
                np.abs(scale_new - scale) < 1e-10 * scale
            )
            loc, scale = loc_new, scale_new
            if done.any():
                hit = done[:, 0]
                locs[idx[hit]] = loc[hit, 0]
                scales[idx[hit]] = scale[hit, 0]
                keep = ~hit
                idx, dof, loc, scale = idx[keep], dof[keep], loc[keep], scale[keep]
                if not idx.size:
                    break
                r[:idx.size] = rk[keep]
        else:
            locs[idx] = loc[:, 0]
            scales[idx] = scale[:, 0]
    return locs, scales


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


def _search_dof(grid_values, value_at) -> float:
    """Maximize a profile objective over dof in [DOF_MIN, DOF_MAX].

    ``grid_values`` maps a 60-point log grid to the objective at every point
    in one call; ``value_at`` evaluates one dof. The argmax's bracket is
    refined by golden section in log dof, and the cap wins when the
    objective there is at least that at the refined dof.
    """
    grid = np.geomspace(DOF_MIN, DOF_MAX, _DOF_GRID_SIZE)
    values = grid_values(grid)
    k = int(np.argmax(values))
    lo = math.log(grid[max(k - 1, 0)])
    hi = math.log(grid[min(k + 1, grid.size - 1)])
    best, _ = _golden_max(lambda u: value_at(math.exp(u)), lo, hi)
    dof = min(math.exp(best), DOF_MAX)
    if values[-1] >= value_at(dof):
        dof = DOF_MAX  # == grid[-1], so grid_values has evaluated it
    return dof


def fit_t_marginal(samples) -> TMarginal:
    """Maximum-likelihood Student-t fit by profiling the likelihood over dof.

    dof is searched on a log grid over [2.1, 100], whose 60 EM fits run in
    lockstep, and refined by golden section; (location, scale) are
    re-optimized at every dof. A degenerate (zero-spread) sample is rejected.
    Estimates hitting the dof cap are reported as effectively normal.
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

    def profile_rows(dofs: np.ndarray) -> np.ndarray:
        locs, scales = _fit_location_scale_rows(x, dofs, loc0, scale0)
        values = _t_logliks(x, locs, scales, dofs)
        cache.update(zip(dofs.tolist(), zip(locs.tolist(), scales.tolist(), values.tolist())))
        return values

    def profile(dof: float) -> float:
        if dof not in cache:
            loc, scale = _fit_location_scale(x, dof, loc0, scale0)
            value = _t_logliks(x, np.array([loc]), np.array([scale]), np.array([dof]))
            cache[dof] = (loc, scale, float(value[0]))
        return cache[dof][2]

    dof = _search_dof(profile_rows, profile)
    loc, scale, _ = cache[dof]
    return TMarginal(location=loc, scale=scale, dof=float(dof))


def _tie_fraction(a: np.ndarray) -> float:
    return 1.0 - np.unique(a).size / a.size


def _t_copula_logliks(
    levels: np.ndarray, iu: np.ndarray, iv: np.ndarray, rho: float, dofs: np.ndarray
) -> np.ndarray:
    """Log pseudo-likelihood of a bivariate t copula at each dof of ``dofs``.

    The points are ``levels[iu]`` and ``levels[iv]``, all inside (0, 1); each
    dof takes one ``stdtrit`` call over the distinct levels, and the dofs are
    evaluated in blocks of at most ``_BLOCK_ELEMENTS`` elements (or one row).
    """
    det = 1.0 - rho * rho
    out = np.empty(dofs.size)
    rows = max(1, _BLOCK_ELEMENTS // max(levels.size, iu.size))
    for start in range(0, dofs.size, rows):
        block = dofs[start:start + rows]
        t = np.empty((block.size, levels.size))
        for i, dof in enumerate(block.tolist()):
            stdtrit(dof, levels, out=t[i])
        tx, ty = t[:, iu], t[:, iv]
        const = np.array([
            gammaln((dof + 2.0) / 2.0)
            + gammaln(dof / 2.0)
            - 2.0 * gammaln((dof + 1.0) / 2.0)
            - 0.5 * math.log(det)
            for dof in block.tolist()
        ])
        d = block[:, None]
        quad = (tx * tx - 2.0 * rho * tx * ty + ty * ty) / det
        log_joint = (
            const[:, None]
            - (d + 2.0) / 2.0 * np.log1p(quad / d)
            + (d + 1.0) / 2.0 * (np.log1p(tx * tx / d) + np.log1p(ty * ty / d))
        )
        out[start:start + rows] = log_joint.sum(axis=1)
    return out


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

    # pseudo-observations are permutations of one rank grid, so each dof
    # needs the t quantile of the distinct values only
    levels, inverse = np.unique(np.concatenate([u, v]), return_inverse=True)
    iu, iv = inverse[:u.size], inverse[u.size:]
    cache: dict[float, float] = {}

    def loglik_rows(dofs: np.ndarray) -> np.ndarray:
        values = _t_copula_logliks(levels, iu, iv, rho, dofs)
        cache.update(zip(dofs.tolist(), values.tolist()))
        return values

    def loglik(dof: float) -> float:
        if dof not in cache:
            cache[dof] = float(_t_copula_logliks(levels, iu, iv, rho, np.array([dof]))[0])
        return cache[dof]

    return TCopulaParams(rho=rho, dof=float(_search_dof(loglik_rows, loglik)))


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
    marginal quantile functions. Reproducible for a fixed seed.

    All draws are made on the calling thread. X is then mapped on a second
    thread while the calling thread maps Y (scipy's special functions release
    the interpreter lock). The panel is bitwise equal to serial sampling.
    This is one of the package's two threaded stages; the other is the
    engine's evaluation of a scenario report's views. They never overlap, so
    at most one worker thread is alive at a time.
    """
    if n_scenarios < 100:
        raise ValueError(f"need at least 100 scenarios, got {n_scenarios}")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n_scenarios)
    z2 = rng.standard_normal(n_scenarios)
    w = rng.chisquare(cop.dof, n_scenarios) / cop.dof
    scale = 1.0 / np.sqrt(w)
    # the worker thread writes only into arrays allocated here, so it leaves
    # no memory behind in an allocator arena of its own
    x = z1 * scale
    with ThreadPoolExecutor(max_workers=1) as pool:
        x_done = pool.submit(_marginal_losses_inplace, mx, cop.dof, x)
        y = (cop.rho * z1 + math.sqrt(1.0 - cop.rho**2) * z2) * scale
        _marginal_losses_inplace(my, cop.dof, y)
        x_done.result()
    return ScenarioPanel(x, y, _uniform_prior(n_scenarios), unit, _fresh=True)


def _marginal_losses_inplace(m: TMarginal, copula_dof: float, draws: np.ndarray) -> None:
    """Overwrite t-copula draws with losses: the copula's t CDF, clipped into
    (0, 1), then the marginal's quantile function."""
    eps = 1e-12
    stdtr(copula_dof, draws, out=draws)
    np.clip(draws, eps, 1.0 - eps, out=draws)
    stdtrit(m.dof, draws, out=draws)
    draws *= m.scale
    draws += m.location


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
