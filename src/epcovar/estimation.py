"""Prior estimation: heavy-tailed marginals, tail dependence, scenario panels.

Builds the scenario prior from historical loss data: Student-t marginals
fitted by maximum likelihood, a t copula calibrated on the ranks (tied
values share their mean rank) by Kendall-tau inversion
(``rho = sin(pi tau / 2)``) with its degrees of freedom chosen by a
one-dimensional pseudo-likelihood search, and a seeded sampler that maps
copula draws through the marginal quantile functions into a
:class:`~epcovar.scenario.ScenarioPanel` with uniform weights. The sampler
inverts numerically: per margin, one cubic Hermite interpolant of the exact
map g from a copula draw to a unit marginal quantile, within
1e-10 max(1, |g|) of it, on the calling thread. g is odd, so it is evaluated
on the nodes at or above 0 and mirrored onto the rest.

Also hosts the traditional-CoVaR baseline, the quantile regression of Y on X,
solved as a linear program whose basic solution is a line through two
observations; the O(n^3) enumeration of every pair's line is the test oracle.

Degrees of freedom lie in [2.1, 100], where the floor keeps the variances
that moment views need finite; a fit at the cap is "effectively normal". A
marginal is fitted by projected Newton on its log-likelihood in (location,
log scale, log dof), then refitted at the cap, which wins if its likelihood
is as high. The copula's dof comes from ``_search_dof``: a 60-point log grid
read in two passes (every 6th dof and the cap, then the dofs within 5 steps
of that argmax), then Brent's bounded search on the argmax's bracket, then
the cap test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, polygamma, stdtr, stdtrit

from .scenario import ScenarioPanel, _uniform_prior

DOF_MIN = 2.1
DOF_MAX = 100.0
_DOF_GRID_SIZE = 60
_COARSE_STRIDE = 6  # the dof search's first pass reads every 6th grid dof
# Near the maximum, a step of 3e-7 in log dof moves the copula's objective by
# about 1e-12, the size of its rounding noise, so a finer search only chases noise
_LOG_DOF_XATOL = 3e-7
_BLOCK_ELEMENTS = 1 << 15  # array elements per block of the dof grid, so a block stays in cache
_CLIP = 1e-12  # the copula's CDF values are clipped into [_CLIP, 1 - _CLIP]
_LOG_DOF_MIN, _LOG_DOF_MAX = math.log(DOF_MIN), math.log(DOF_MAX)
_NEWTON_STEPS, _HALVINGS = 100, 30  # the most steps a marginal fit takes, and halvings a step
_NEWTON_TOL = 1e-7  # a Newton step this small in every coordinate ends the search
_MAX_STEP = 2.0  # the longest step in any coordinate, so a trial stays near its start
_LOGLIK_SLACK = 1e-12  # the line search's rounding allowance, relative (the noise reads ~1e-14)
_MAP_NODES = 4096  # nodes of the sampler's interpolated unit map
_MAP_BLOCK = 1 << 14  # draws the unit map takes at a time
_MAP_REACH = 2.0**40  # farthest unit-map node from s = 0, in steps


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


def _search_dof(values_at, width: int) -> float:
    """Maximize the copula's pseudo-likelihood over dof in [DOF_MIN, DOF_MAX].

    ``values_at`` maps an array of dofs to the objective at each, with arrays
    of ``width`` elements per dof, and is called in blocks of
    ``max(1, _BLOCK_ELEMENTS // width)`` dofs. The search reads a 60-point
    log grid in two passes: every ``_COARSE_STRIDE``-th grid dof and the cap,
    then the grid dofs within ``_COARSE_STRIDE - 1`` steps of that pass's
    argmax. Brent's bounded search (Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 5) then takes one dof at a time in log
    dof on the bracket of the grid argmax. The cap wins when the objective
    there is at least that at Brent's dof. On an objective that is unimodal
    over the grid this is the argmax of the whole grid; a second local
    maximum more than ``_COARSE_STRIDE - 1`` steps from the first pass's
    argmax would be missed.
    """
    from scipy.optimize import minimize_scalar

    grid = np.geomspace(DOF_MIN, DOF_MAX, _DOF_GRID_SIZE)
    rows = max(1, _BLOCK_ELEMENTS // width)
    values = np.full(grid.size, -np.inf)  # grid dofs not read stay below any that are

    def read(idx: np.ndarray) -> None:
        for i in range(0, idx.size, rows):
            values[idx[i:i + rows]] = values_at(grid[idx[i:i + rows]])

    coarse = np.append(np.arange(0, grid.size - 1, _COARSE_STRIDE), grid.size - 1)
    read(coarse)
    k = int(np.argmax(values))
    read(np.setdiff1d(np.arange(max(k - _COARSE_STRIDE + 1, 0),
                                min(k + _COARSE_STRIDE, grid.size)), coarse))
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


def _t_terms(u: np.ndarray, theta: np.ndarray):
    """The Student-t log-likelihood of ``u`` at theta = (location, log scale,
    log dof), with its gradient and Hessian in theta."""
    n, (loc, log_scale, log_dof) = u.size, theta.tolist()
    scale, dof = math.exp(log_scale), math.exp(log_dof)
    z = (u - loc) / scale
    z2 = z * z
    q = 1.0 / (dof + z2)
    w = (dof + 1.0) * q
    # each point's log density has derivatives -w z in z, d_zz in (z, z),
    # d_zd z in (z, dof) and d_dd z^2 in (dof, dof); sums[i, j] sums row i times z^j
    d_zz = (z2 - dof) * q * w
    d_zd = (1.0 - z2) * q * q
    d_dd = ((dof - 1.0) * z2 - 2.0 * dof) * q * q / (2.0 * dof * dof)
    sums = np.array([w, d_zz, d_zd, d_dd]) @ np.array([np.ones(n), z, z2]).T
    sum_log1p = float(np.log1p(z2 / dof).sum())
    args = [(dof + 1.0) / 2.0, dof / 2.0]
    psi, psi1 = digamma(args), polygamma(1, args)
    loglik = n * (_t_log_norm(dof) - log_scale) - (dof + 1.0) / 2.0 * sum_log1p
    g_dof = 0.5 * dof * (n * (psi[0] - psi[1] - 1.0 / dof) - sum_log1p + sums[0, 2] / dof)
    h_ml = (sums[1, 1] - sums[0, 1]) / scale
    h_md, h_ld = -dof * sums[2, 1] / scale, -dof * sums[2, 2]
    h_dd = g_dof + dof * dof * (n * (0.25 * (psi1[0] - psi1[1]) + 0.5 / dof**2) + sums[3, 2])
    grad = np.array([sums[0, 1] / scale, sums[0, 2] - n, g_dof])
    hess = np.array([[sums[1, 0] / scale**2, h_ml, h_md],
                     [h_ml, sums[1, 2] - sums[0, 2], h_ld],
                     [h_md, h_ld, h_dd]])
    return loglik, grad, hess


def _newton_t(u: np.ndarray, theta: np.ndarray, free_dof: bool):
    """Maximize the t log-likelihood of ``u`` by projected Newton from theta =
    (location, log scale, log dof); returns theta and its log-likelihood. The
    log dof stays in its bounds and moves only if ``free_dof`` and not on a
    bound with the gradient at the current iterate pointing outward. A Newton
    step that is no ascent direction gives way to the gradient over the
    Hessian's diagonal; a step is cut to ``_MAX_STEP`` per coordinate, halved
    until the likelihood rises by 1e-4 of the predicted gain (less
    ``_LOGLIK_SLACK``), and ends the search when under ``_NEWTON_TOL``.
    """
    terms = _t_terms(u, theta)
    for _ in range(_NEWTON_STEPS):
        loglik, grad, hess = terms
        k = 3 if free_dof and not ((theta[2] <= _LOG_DOF_MIN and grad[2] < 0.0)
                                   or (theta[2] >= _LOG_DOF_MAX and grad[2] > 0.0)) else 2
        g, h = grad[:k], hess[:k, :k]
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step = np.zeros(k)
        if not g @ step > 0.0:
            step = g / np.maximum(np.abs(np.diag(h)), 1e-12)
        step *= _MAX_STEP / max(float(np.abs(step).max()), _MAX_STEP)
        for halving in range(_HALVINGS):
            new = theta.copy()
            new[:k] += step * 0.5**halving
            new[2] = min(max(new[2], _LOG_DOF_MIN), _LOG_DOF_MAX)
            trial = _t_terms(u, new)
            gain = float(g @ (new - theta)[:k])
            if trial[0] >= loglik + 1e-4 * gain - _LOGLIK_SLACK * abs(loglik):
                break
        else:
            break  # no step raises the likelihood above its rounding
        theta, terms = new, trial
        if float(np.abs(step).max()) <= _NEWTON_TOL:
            break
    return theta, terms[0]


def fit_t_marginal(samples) -> TMarginal:
    """Maximum-likelihood Student-t fit by projected Newton (``_newton_t``)
    in units u = (x - median) / (1.4826 MAD), or over the mean absolute
    deviation if the MAD is 0, from location 0, scale 1 and dof 5. The
    (location, scale) refit at dof 100 wins if its likelihood is as high. A
    zero-spread sample is rejected, and so is one where a value repeats more
    than DOF_MIN / (DOF_MIN + 1) of the time: its likelihood grows without
    bound as the scale shrinks to 0.
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

    center = float(np.median(x))
    spread = np.abs(x - center)
    mad = float(np.median(spread))
    ties = int(np.count_nonzero(spread == 0.0)) if mad == 0.0 else 0  # a MAD of 0: over half tie
    if ties * (DOF_MIN + 1.0) > x.size * DOF_MIN:
        raise ValueError(f"unbounded t likelihood: the value {center!r} repeats {ties} times "
                         f"in {x.size} samples, more than {DOF_MIN}/{DOF_MIN + 1.0} of them")
    unit = mad * 1.4826 if mad > 0.0 else float(spread.mean())
    u = (x - center) / unit
    theta, loglik = _newton_t(u, np.array([0.0, 0.0, math.log(5.0)]), free_dof=True)
    capped, capped_loglik = _newton_t(u, np.append(theta[:2], _LOG_DOF_MAX), free_dof=False)
    if capped_loglik >= loglik:
        theta = capped
    loc, log_scale, log_dof = theta.tolist()
    return TMarginal(location=center + unit * loc, scale=unit * math.exp(log_scale),
                     dof=min(math.exp(log_dof), DOF_MAX))


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
    const = (gammaln((dofs + 2.0) / 2.0) + gammaln(dofs / 2.0)
             - 2.0 * gammaln((dofs + 1.0) / 2.0) - 0.5 * math.log(det))
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
    maximize the pseudo-likelihood by ``_search_dof``, a two-pass log grid
    over [2.1, 100] refined by Brent's bounded search. A margin where one
    value fills more than half the entries is rejected as rank-degenerate,
    and |tau| = 1 is rejected because the implied copula correlation sits on
    the boundary.
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
    tied = max(int(np.unique(a, return_counts=True)[1].max()) for a in (u, v))
    if 2 * tied > u.size:
        raise ValueError(f"rank degeneracy: {tied} of {u.size} entries are tied at one value, "
                         "more than half")
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
    """Rank transform r/(n+1), keeping entries strictly inside (0, 1).

    Tied values share their mean rank, so the result does not depend on the
    order of tied rows, and ``fit_t_copula`` sees the ties.
    """
    from scipy.stats import rankdata

    x = np.asarray(x, dtype=float)
    return rankdata(x) / (x.size + 1.0)


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

    g is a cubic Hermite interpolant in s = asinh(z) with exact node values
    and exact slopes dg/ds = cosh(s) t_c(z) / t_m(g(z)), the ratio of the two
    t densities (0 where the clip binds). Its step is the draws' span in s
    over ``_MAP_NODES - 1``, and its nodes sit at the whole multiples k of
    the step that cover the span. g is odd and its slope even, so the map is
    evaluated only at the distinct |k| and mirrored onto the nodes with
    k < 0. A draw's interval is read off asinh(z) directly. Draws in an
    interval with a clipped endpoint take the exact map, so the clip is
    exact; so do all draws when their range has one value or lies more than
    ``_MAP_REACH`` steps from s = 0, too narrow for its place to be read off
    asinh(z). Draws are mapped in blocks of ``_MAP_BLOCK``, so the
    temporaries stay small.
    """
    lo, hi = np.arcsinh([draws.min(), draws.max()]).tolist()
    step = (hi - lo) / (_MAP_NODES - 1)
    if not max(-lo, hi) < _MAP_REACH * step:
        _exact_unit_map(copula_dof, dof, draws, out=draws)
        return
    first = math.floor(lo / step)
    nodes = np.arange(first, math.ceil(hi / step) + 1)
    reach, back = np.unique(np.abs(nodes), return_inverse=True)
    z = np.sinh(reach * step)
    g, clipped = _exact_unit_map(copula_dof, dof, z)
    slope = np.exp(_t_log_density(copula_dof, z) - _t_log_density(dof, g)) * np.hypot(1.0, z)
    slope[clipped] = 0.0
    z, g, slope, clipped = z[back], g[back], slope[back], clipped[back]
    np.negative(z, out=z, where=nodes < 0)
    np.negative(g, out=g, where=nodes < 0)
    m0, m1 = step * slope[:-1], step * slope[1:]
    d = np.diff(g)
    # g on interval k at s = s_k + t * step, 0 <= t <= 1: c0 + t (c1 + t (c2 + t c3))
    c0, c1, c2, c3 = g[:-1], m0, 3.0 * d - 2.0 * m0 - m1, m0 + m1 - 2.0 * d
    # draws outside the unclipped nodes' span lie in an interval with a clipped endpoint
    unclipped = z[~clipped]
    span = (unclipped[0], unclipped[-1]) if unclipped.size else (np.inf, -np.inf)
    for start in range(0, draws.size, _MAP_BLOCK):
        b = draws[start:start + _MAP_BLOCK]
        u = np.arcsinh(b) / step - first
        k = np.minimum(u.astype(np.intp), nodes.size - 2)
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
