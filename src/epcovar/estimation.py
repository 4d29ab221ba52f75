"""Prior estimation: heavy-tailed marginals, tail dependence, scenario panels.

Builds the scenario prior from historical loss data: Student-t marginals
fitted by profile maximum likelihood, a t copula calibrated by Kendall-tau
inversion (``rho = sin(pi tau / 2)``) with its degrees of freedom chosen by a
one-dimensional pseudo-likelihood search, and a seeded sampler that maps
copula draws through the marginal quantile functions into a
:class:`~epcovar.scenario.ScenarioPanel` with uniform weights. The sampler
inverts numerically: per margin, one cubic Hermite interpolant of the exact
map g from a copula draw to a unit marginal quantile, within
1e-10 max(1, |g|) of it, on the calling thread.

Also hosts the traditional-CoVaR baseline, the quantile regression of Y on X,
solved as a linear program whose basic solution is a line through two
observations; the O(n^3) enumeration of every pair's line is the test oracle.

Degrees of freedom are searched on [2.1, 100]; a fit at the cap is flagged
"effectively normal". The dof floor keeps variances finite, which the
moment-based views require. Both fits run one search (``_search_dof``): the
objective on a 60-point log grid, in blocks that keep each call's arrays
small, then Brent's bounded search on the argmax's bracket, then the cap
test; only the search splits the grid. The marginal's objective profiles
(location, scale) by the EM of Liu & Rubin (Statistica Sinica 5, 1995), one
row of an array per dof; a block's EMs run in lockstep, each row with the
same arithmetic and stopping rule as the EM at its dof alone, so every fit
is bitwise equal to fitting one dof at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, stdtr, stdtrit

from .scenario import ScenarioPanel, _uniform_prior

DOF_MIN = 2.1
DOF_MAX = 100.0
_DOF_GRID_SIZE = 60
# Near the maximum, a step of 3e-7 in log dof moves either objective by about
# 1e-12, the size of its rounding noise, so a finer search only chases noise
_LOG_DOF_XATOL = 3e-7
_BLOCK_ELEMENTS = 1 << 15  # array elements per block of the dof grid, so a block stays in cache
_CLIP = 1e-12  # the copula's CDF values are clipped into [_CLIP, 1 - _CLIP]
_MAP_NODES = 4096  # nodes of the sampler's interpolated unit map
_MAP_BLOCK = 1 << 14  # draws the unit map takes at a time


@dataclass(frozen=True)
class TMarginal:
    """Location-scale Student-t marginal with dof > 2 (finite variance)."""

    location: float
    scale: float
    dof: float

    def __post_init__(self):
        if not math.isfinite(self.location):
            raise ValueError(f"location must be finite, got {self.location}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not 2.0 < self.dof < math.inf:
            raise ValueError(f"dof must be finite and exceed 2, got {self.dof}")

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
        if not 2.0 < self.dof < math.inf:
            raise ValueError(f"dof must be finite and exceed 2, got {self.dof}")


@dataclass(frozen=True)
class QRFit:
    """Quantile-regression line y = intercept + slope * x at level alpha."""

    intercept: float
    slope: float
    alpha: float


def _t_logliks(x: np.ndarray, locs: np.ndarray, scales: np.ndarray, dofs: np.ndarray):
    """Student-t log-likelihoods of the sample ``x`` at each (location, scale,
    dof) triple."""
    const = np.array([
        _t_log_norm(dof) - math.log(scale) for dof, scale in zip(dofs.tolist(), scales.tolist())
    ])
    z = (x - locs[:, None]) / scales[:, None]
    tails = np.log1p(z * z / dofs[:, None]).sum(axis=1)
    return x.size * const - (dofs + 1.0) / 2.0 * tails


def _fit_location_scale_rows(x: np.ndarray, dofs: np.ndarray, loc0: float, scale0: float):
    """EM fixed point for (location, scale) at each fixed dof of ``dofs``
    (Liu & Rubin, 1995), run in lockstep.

    Row i holds the EM at ``dofs[i]``, and each row's sums reduce one
    C-contiguous row. A row leaves the array at the first iterate whose
    location and scale both move by less than 1e-10 relative, or after 500
    steps. Every dof given is one row; ``_search_dof`` sizes the blocks.
    Returns the locations and scales; each row's are bitwise equal to those
    of the EM at its dof alone.
    """
    n = x.size
    locs = np.empty(dofs.size)
    scales = np.empty(dofs.size)
    idx = np.arange(dofs.size)
    dof = dofs[:, None]
    loc = np.full((dofs.size, 1), loc0)
    scale = np.full((dofs.size, 1), scale0)
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


def _search_dof(values_at, width: int) -> float:
    """Maximize a profile objective over dof in [DOF_MIN, DOF_MAX].

    ``values_at`` maps an array of dofs to the objective at each, with arrays
    of ``width`` elements per dof. It is called on a 60-point log grid, in
    blocks of ``max(1, _BLOCK_ELEMENTS // width)`` dofs (at n = 500 the whole
    grid is one block, while a large sample takes a dof at a time), then on
    one dof at a time by Brent's bounded search (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5) in log dof on the
    argmax's bracket. The cap wins when the objective there is at least that
    at Brent's dof.
    """
    from scipy.optimize import minimize_scalar

    grid = np.geomspace(DOF_MIN, DOF_MAX, _DOF_GRID_SIZE)
    rows = max(1, _BLOCK_ELEMENTS // width)
    values = np.concatenate([values_at(grid[i:i + rows]) for i in range(0, grid.size, rows)])
    k = int(np.argmax(values))
    res = minimize_scalar(
        lambda u: -values_at(np.array([math.exp(u)]))[0],
        bounds=(math.log(grid[max(k - 1, 0)]), math.log(grid[min(k + 1, grid.size - 1)])),
        method="bounded",
        options={"xatol": _LOG_DOF_XATOL},
    )
    if values[-1] >= -res.fun:
        return DOF_MAX
    return min(math.exp(res.x), DOF_MAX)


def fit_t_marginal(samples) -> TMarginal:
    """Maximum-likelihood Student-t fit by profiling the likelihood over dof.

    dof is searched on a log grid over [2.1, 100], whose 60 EM fits run in
    lockstep, and refined by Brent's bounded search; (location, scale) are
    re-optimized at every dof and refitted once at the chosen one. A
    degenerate (zero-spread) sample is rejected. Estimates hitting the dof
    cap are reported as effectively normal.
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

    def profile(dofs: np.ndarray) -> np.ndarray:
        locs, scales = _fit_location_scale_rows(x, dofs, loc0, scale0)
        return _t_logliks(x, locs, scales, dofs)

    dof = _search_dof(profile, x.size)
    locs, scales = _fit_location_scale_rows(x, np.array([dof]), loc0, scale0)
    return TMarginal(location=float(locs[0]), scale=float(scales[0]), dof=dof)


def _tie_fraction(a: np.ndarray) -> float:
    return 1.0 - np.unique(a).size / a.size


def _t_copula_logliks(
    levels: np.ndarray, iu: np.ndarray, iv: np.ndarray, rho: float, dofs: np.ndarray
) -> np.ndarray:
    """Log pseudo-likelihood of a bivariate t copula at each dof of ``dofs``.

    The points are ``levels[iu]`` and ``levels[iv]``, all inside (0, 1); one
    ``stdtrit`` call takes the t quantiles of the distinct levels at every
    dof given, and ``_search_dof`` sizes the blocks.
    """
    det = 1.0 - rho * rho
    d = dofs[:, None]
    t = stdtrit(d, levels)
    tx, ty = t[:, iu], t[:, iv]
    const = np.array([
        gammaln((dof + 2.0) / 2.0)
        + gammaln(dof / 2.0)
        - 2.0 * gammaln((dof + 1.0) / 2.0)
        - 0.5 * math.log(det)
        for dof in dofs.tolist()
    ])
    quad = (tx * tx - 2.0 * rho * tx * ty + ty * ty) / det
    log_joint = (
        const[:, None]
        - (d + 2.0) / 2.0 * np.log1p(quad / d)
        + (d + 1.0) / 2.0 * (np.log1p(tx * tx / d) + np.log1p(ty * ty / d))
    )
    return log_joint.sum(axis=1)


def fit_t_copula(u, v) -> TCopulaParams:
    """Calibrate a t copula to pseudo-observations in (0, 1).

    The correlation comes from Kendall-tau inversion; the degrees of freedom
    maximize the pseudo-likelihood on a log grid over [2.1, 100] refined by
    Brent's bounded search. Heavily tied inputs (over half the entries
    duplicated in either margin) are rejected as rank-degenerate, and
    |tau| = 1 is rejected because the implied copula correlation sits on the
    boundary.
    """
    from scipy.stats import kendalltau

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
    dof = _search_dof(lambda dofs: _t_copula_logliks(levels, iu, iv, rho, dofs),
                      max(levels.size, iu.size))
    return TCopulaParams(rho=rho, dof=dof)


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

    Each margin's draws go through ``_unit_map_inplace``, an interpolant of
    the exact map on the calling thread; the panel depends only on the
    arguments, bit for bit.
    """
    if n_scenarios < 100:
        raise ValueError(f"need at least 100 scenarios, got {n_scenarios}")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n_scenarios)
    z2 = rng.standard_normal(n_scenarios)
    w = rng.chisquare(cop.dof, n_scenarios) / cop.dof
    scale = 1.0 / np.sqrt(w)
    x = z1 * scale
    y = (cop.rho * z1 + math.sqrt(1.0 - cop.rho**2) * z2) * scale
    _marginal_losses_inplace(mx, cop.dof, x)
    _marginal_losses_inplace(my, cop.dof, y)
    return ScenarioPanel(x, y, _uniform_prior(n_scenarios), unit, _fresh=True)


def _marginal_losses_inplace(m: TMarginal, copula_dof: float, draws: np.ndarray) -> None:
    """Overwrite t-copula draws with the marginal's losses."""
    _unit_map_inplace(copula_dof, m.dof, draws)
    draws *= m.scale
    draws += m.location


def _exact_unit_map(
    copula_dof: float, dof: float, z: np.ndarray, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """g(z) = stdtrit(dof, clip(stdtr(copula_dof, z))): the copula's t CDF,
    clipped into [_CLIP, 1 - _CLIP], then the unit marginal's quantile
    function. Returns g and the mask of the draws where the clip binds.

    Both t laws are symmetric, so g is evaluated on the lower tail and
    g(z) = -g(-z) for z > 0: near 1, ``stdtr`` resolves only steps of about
    1.1e-16, which would turn the upper tail into a staircase.
    """
    upper = z > 0.0
    tail = stdtr(copula_dof, -np.abs(z), out=out)
    clipped = tail < _CLIP
    g = stdtrit(dof, np.maximum(tail, _CLIP, out=tail), out=tail)
    np.negative(g, out=g, where=upper)
    return g, clipped


def _t_log_norm(dof: float) -> float:
    """Log of the standard Student-t density's normalizing constant."""
    return gammaln((dof + 1.0) / 2.0) - gammaln(dof / 2.0) - 0.5 * math.log(dof * math.pi)


def _t_log_density(dof: float, x: np.ndarray) -> np.ndarray:
    """Log density of the standard Student-t law with ``dof`` at ``x``."""
    return _t_log_norm(dof) - (dof + 1.0) / 2.0 * np.log1p(x * x / dof)


def _unit_map_inplace(copula_dof: float, dof: float, draws: np.ndarray) -> None:
    """Overwrite ``draws`` with g(draws) (``_exact_unit_map``), by numerical
    inversion (Hormann & Leydold, ACM TOMACS 13(4), 2003).

    g is a cubic Hermite interpolant in s = asinh(z) on ``_MAP_NODES`` nodes
    evenly spaced between the draws' extremes, with exact node values and
    exact slopes dg/ds = cosh(s) t_c(z) / t_m(g(z)), the ratio of the two t
    densities (0 where the clip binds). A draw's interval is read off
    asinh(z) directly. Draws in an interval with a clipped endpoint take the
    exact map, so the clip is exact; so does a draw range with one value.
    Draws are mapped in blocks of ``_MAP_BLOCK``, so the temporaries stay
    small.
    """
    lo, hi = np.arcsinh([draws.min(), draws.max()]).tolist()
    if not lo < hi:
        _exact_unit_map(copula_dof, dof, draws, out=draws)
        return
    s = np.linspace(lo, hi, _MAP_NODES)
    z = np.sinh(s)
    g, clipped = _exact_unit_map(copula_dof, dof, z)
    step = (hi - lo) / (_MAP_NODES - 1)
    slope = np.exp(_t_log_density(copula_dof, z) - _t_log_density(dof, g)) * np.hypot(1.0, z)
    slope[clipped] = 0.0
    m0, m1 = step * slope[:-1], step * slope[1:]
    d = np.diff(g)
    # g on interval k at s = s_k + t * step, 0 <= t <= 1: c0 + t (c1 + t (c2 + t c3))
    c0, c1, c2, c3 = g[:-1], m0, 3.0 * d - 2.0 * m0 - m1, m0 + m1 - 2.0 * d
    # draws outside the unclipped nodes' span lie in an interval with a clipped endpoint
    unclipped = z[~clipped]
    span = (unclipped[0], unclipped[-1]) if unclipped.size else (np.inf, -np.inf)
    for start in range(0, draws.size, _MAP_BLOCK):
        b = draws[start:start + _MAP_BLOCK]
        u = (np.arcsinh(b) - lo) / step
        k = np.minimum(u.astype(np.intp), _MAP_NODES - 2)
        t = u - k
        mapped = ((c3[k] * t + c2[k]) * t + c1[k]) * t + c0[k]
        if clipped.any():
            exact = (b < span[0]) | (b > span[1])
            mapped[exact] = _exact_unit_map(copula_dof, dof, b[exact])[0]
        b[...] = mapped


def quantile_regression_covar(
    x, y, alpha: float, q_x: float
) -> tuple[QRFit, float]:
    """Two-variable quantile regression and the implied conditional VaR.

    Solves the linear program of Koenker & Bassett (1978), minimise
    ``alpha sum(u) + (1 - alpha) sum(v)`` subject to ``b0 + b1 x + u - v = y``
    and ``u, v >= 0``, by the dual simplex. The line is then refitted exactly
    through the observation with the smallest absolute residual and the next
    one in that order whose x differs, so it is one of the pair lines that
    the enumeration oracle scores. Returns the fit and ``intercept + slope * q_x``.
    """
    from scipy.optimize import linprog
    from scipy.sparse import eye, hstack

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: x has {x.size}, y has {y.size}")
    if x.size < 10:
        raise ValueError(f"need at least 10 observations, got {x.size}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not (np.isfinite(x).all() and np.isfinite(y).all() and math.isfinite(q_x)):
        raise ValueError("x, y and q_x must be finite")
    if np.all(x == x[0]):
        raise ValueError("slope unidentifiable: all x values identical")

    n = x.size
    res = linprog(
        np.concatenate([[0.0, 0.0], np.full(n, alpha), np.full(n, 1.0 - alpha)]),
        A_eq=hstack([np.ones((n, 1)), x[:, None], eye(n), -eye(n)]),
        b_eq=y,
        bounds=[(None, None)] * 2 + [(0.0, None)] * (2 * n),
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:  # pragma: no cover - the program is always feasible and bounded
        raise RuntimeError(f"quantile-regression program failed: {res.message}")
    order = np.argsort(np.abs(y - res.x[0] - res.x[1] * x), kind="stable")
    i, j = sorted((order[0], next(k for k in order if x[k] != x[order[0]])))
    slope = float((y[j] - y[i]) / (x[j] - x[i]))
    fit = QRFit(intercept=float(y[i] - slope * x[i]), slope=slope, alpha=alpha)
    return fit, fit.intercept + fit.slope * q_x
