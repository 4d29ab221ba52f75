"""Independent oracles shared by the unit and acceptance suites.

Nothing here touches the solver's dual path or the package's closed-form
CoVaR functions: scalar bisection, dense feasible-set scans, primal SLSQP,
a dense phase-I linear program, plain-loop enumeration, the paper's
spillover expressions written out per view kind, a derivative-free minimizer
of the bivariate-normal relative entropy (vectorized on its grid, on floats
at single points) over the five posterior parameters, the bivariate normal
CDF by adaptive quadrature of the conditional normal CDF, the conditional
quantiles of the bivariate t law by quadrature, a cell-by-cell CSV
reader, and the Student-t marginal and t-copula fits with their degrees of
freedom searched one dof at a time.

Four oracles are earlier forms of package code. Three show that the current
forms give the same bits: the entropy-pooling dual written with a fresh
temporary per step and an eager Hessian, the scenario-mode report rows
with every view evaluated in turn on the calling thread, and a loss
vector's stable sort order with its tie groups by ``np.unique``. The fourth, the
sampler's map from copula draws to unit marginal quantiles by two t special
functions per draw, bounds the interpolant that replaced it.
"""

import csv
import math
from dataclasses import replace

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, linprog, minimize_scalar
from scipy.optimize import minimize as scipy_minimize
from scipy.special import digamma, gammaln, ndtri, stdtr, stdtrit
from scipy.stats import kendalltau

from epcovar.analytics import BivariateNormalParams
from epcovar.engine import IngestResult, ReportRow, ep_covar_on_panel
from epcovar.estimation import TCopulaParams, TMarginal
from epcovar.errors import DataError, NumericDomainError
from epcovar.normal import norm_cdf
from epcovar.scenario import interpolated_quantile
from epcovar.solver import max_violation, pool, relative_entropy
from epcovar.views import compile_view, describe

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_pdf(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def quadrature_bvn_cdf(zx: float, zy: float, rho: float) -> float:
    """Pr(ZX <= zx, ZY <= zy) as one integral of the conditional normal CDF,
    by adaptive quadrature to ~1e-12 absolute for |rho| <= 0.99; the
    degenerate correlations |rho| = 1 are handled exactly."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    if math.isnan(zx) or math.isnan(zy):
        raise ValueError("bvn_cdf arguments must not be NaN")
    if rho >= 1.0 - 1e-13:
        return norm_cdf(min(zx, zy))
    if rho <= -1.0 + 1e-13:
        return max(0.0, norm_cdf(zx) - norm_cdf(-zy))
    # beyond ~9 sigma a margin saturates at double precision
    if zx <= -9.0 or zy <= -9.0:
        return 0.0
    if zx >= 9.0:
        return norm_cdf(zy)
    if zy >= 9.0:
        return norm_cdf(zx)
    s = math.sqrt(1.0 - rho * rho)

    def conditional(t: float) -> float:
        return norm_pdf(t) * norm_cdf((zy - rho * t) / s)

    # integrand support is effectively [-9, zx]; split at the kink of the
    # conditional CDF argument when the correlation is strong
    pieces = [-9.0, zx]
    if abs(rho) > 0.9:
        t_kink = zy / rho
        if -9.0 < t_kink < zx:
            pieces = [-9.0, t_kink, zx]
    total = 0.0
    for a, b in zip(pieces, pieces[1:]):
        part, _ = quad(conditional, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)
        total += part
    return min(max(total, 0.0), 1.0)


def bivariate_t_conditional_quantile(dof, rho, alpha, lo, hi=math.inf) -> float:
    """The alpha-quantile of Y given lo <= X <= hi under the bivariate t law
    with ``dof`` degrees of freedom, correlation ``rho`` and unit scales.

    Given X = x, Y is rho x + s(x) T with T ~ t_{dof+1} and
    s(x)^2 = (1 - rho^2)(dof + x^2)/(dof + 1) (Kotz & Nadarajah, *Multivariate
    t Distributions and Their Applications*, 2004; Ding, *The American
    Statistician* 70(3), 2016). So Pr(Y <= c | lo <= X <= hi) is one
    quadrature of f_X(x) F_{dof+1}((c - rho x)/s(x)), and the quantile is its
    root in c.
    """
    log_norm = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(dof * math.pi)
    mass = stdtr(dof, -lo) - stdtr(dof, -hi)  # Pr(lo <= X <= hi), by upper tails

    def cdf(c: float) -> float:
        def conditional(x: float) -> float:
            s = math.sqrt((1.0 - rho * rho) * (dof + x * x) / (dof + 1))
            density = math.exp(log_norm - 0.5 * (dof + 1) * math.log1p(x * x / dof))
            return density * stdtr(dof + 1, (c - rho * x) / s)

        return quad(conditional, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0] / mass

    return brentq(lambda c: cdf(c) - alpha, -1e3, 1e3, xtol=1e-12)


def _golden_min(fn, lo, hi, iters=60):
    """Golden-section search for the minimum of a unimodal function."""
    a, b = lo, hi
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(c1), fn(c2)
    for _ in range(iters):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = fn(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = fn(c2)
    return 0.5 * (a + b)


def _collapses(relation, prior_value, view_value):
    return prior_value <= view_value if relation == "le" else prior_value >= view_value


def tilt_mean_by_bisection(x, prior, target, lo=-60.0, hi=60.0):
    """Solve the one-dimensional exponential tilt p_j e^{t x_j} for a mean."""

    def mean_at(t):
        w = prior * np.exp(t * (x - x.max()))
        w = w / w.sum()
        return float(w @ x)

    f_lo, f_hi = mean_at(lo) - target, mean_at(hi) - target
    assert f_lo * f_hi < 0, "oracle bracket failed"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (mean_at(mid) - target) * f_lo <= 0:
            hi = mid
        else:
            lo, f_lo = mid, mean_at(mid) - target
    t = 0.5 * (lo + hi)
    w = prior * np.exp(t * (x - x.max()))
    return w / w.sum(), t


def brute_force_min_kl(panel, cs):
    """Global KL minimum for one mean-equality row plus normalization.

    J = 2: the two equations pin the distribution. J = 3: the feasible set is
    one-dimensional and scanned densely after exact elimination. Larger J:
    primal SLSQP multi-start.
    """
    j = panel.size
    p = panel.prior
    x, target = cs.matrix[0], cs.lower[0]

    def kl(q):
        return float(q @ (np.log(q) - np.log(p)))

    if j == 2:
        q = np.linalg.solve(np.vstack([x, np.ones(2)]), np.array([target, 1.0]))
        return kl(q) if np.all(q > 0) else math.inf
    if j == 3:
        a = np.vstack([x[1:], np.ones(2)])
        if abs(np.linalg.det(a)) < 1e-9:
            return math.inf  # caller skips ill-posed draws
        a_inv = np.linalg.inv(a)
        q1 = np.linspace(1e-6, 1.0 - 1e-6, 200_001)
        rhs = np.stack([target - x[0] * q1, 1.0 - q1])
        rest = a_inv @ rhs
        q = np.vstack([q1, rest])
        ok = np.all(q > 0.0, axis=0)
        if not ok.any():
            return math.inf
        q = q[:, ok]
        kls = np.sum(q * (np.log(q) - np.log(p)[:, None]), axis=0)
        return float(kls.min())

    constraints = []
    for k in range(cs.n_rows):
        row = cs.matrix[k]
        lo, hi = cs.lower[k], cs.upper[k]
        if lo == hi:
            constraints.append({"type": "eq", "fun": lambda q, r=row, t=lo: r @ q - t})
        else:
            if np.isfinite(hi):
                constraints.append({"type": "ineq", "fun": lambda q, r=row, t=hi: t - r @ q})
            if np.isfinite(lo):
                constraints.append({"type": "ineq", "fun": lambda q, r=row, t=lo: r @ q - t})
    rng = np.random.default_rng(1)
    best = math.inf
    for _ in range(8):
        q0 = rng.uniform(0.2, 1.0, j)
        q0 /= q0.sum()
        res = scipy_minimize(
            kl, q0, method="SLSQP", bounds=[(1e-9, 1.0)] * j,
            constraints=constraints, options={"maxiter": 500, "ftol": 1e-14},
        )
        if res.success and res.fun < best:
            best = float(res.fun)
    return best


def phase_one_lp(matrix, lower, upper) -> float:
    """Smallest max violation of ``lower <= matrix @ q <= upper`` over every
    probability vector q, by one dense linear program over every row (all-zero
    rows included) and every scenario:

        minimize t  subject to  G q - t <= upper,  lower - G q <= t,
                                sum q = 1,  q >= 0,  t >= 0

    Returns the max violation of the program's optimal weights.
    """
    g = np.atleast_2d(np.asarray(matrix, dtype=float))
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    up, dn = np.isfinite(upper), np.isfinite(lower)
    n = g.shape[1]
    res = linprog(
        np.append(np.zeros(n), 1.0),
        A_ub=np.hstack([np.vstack([g[up], -g[dn]]), -np.ones((up.sum() + dn.sum(), 1))]),
        b_ub=np.concatenate([upper[up], -lower[dn]]),
        A_eq=np.append(np.ones(n), 0.0)[None, :],
        b_eq=[1.0],
        bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    q = np.maximum(res.x[:-1], 0.0)
    achieved = g @ (q / q.sum())
    return float(max(np.max(np.maximum(lower - achieved, achieved - upper)), 0.0))


def pinball_loss(residuals, alpha: float) -> float:
    """Mean check loss: alpha-weighted positive part, (alpha-1)-weighted negative."""
    r = np.asarray(residuals, dtype=float)
    return float(np.where(r >= 0.0, alpha * r, (alpha - 1.0) * r).mean())


def pair_candidate_minimum(x, y, alpha):
    """Plain-loop enumeration of pinball losses over observation-pair lines."""
    best = math.inf
    fit = None
    n = x.size
    for i in range(n):
        for j in range(i + 1, n):
            if x[i] == x[j]:
                continue
            slope = (y[j] - y[i]) / (x[j] - x[i])
            intercept = y[i] - slope * x[i]
            loss = pinball_loss(y - intercept - slope * x, alpha)
            if loss < best:
                best, fit = loss, (intercept, slope)
    return best, fit


def quantile_pinned_marginal(mu, sigma, q1, alpha_z):
    """Minimum-KL normal marginal with its quantile pinned: 1-D golden search.

    ``alpha_z`` is the standard-normal quantile of the pinning level. Returns
    (mean, standard deviation). Used to express a quantile view through its
    first two moments without consulting any closed-form expression.
    """

    def kl(s):
        m = q1 - s * alpha_z
        return math.log(sigma / s) + (s * s + (m - mu) ** 2) / (2.0 * sigma**2) - 0.5

    s = _golden_min(kl, sigma / 20.0, sigma * 20.0, iters=200)
    return q1 - s * alpha_z, s

def paper_spillover(p, view, alpha=0.95):
    """The paper's closed-form spillover CoVaR - VaR, one expression per kind.

    Views on Y evaluate the same expressions on the (Y, Y) self-pair. A
    half-line value view has no displayed closed form: its CoVaR is the root
    of Pr(X in A, Y <= y) = alpha Pr(X in A), found here by ``brentq``.
    """
    c = float(ndtri(alpha))
    kind, rel = view.kind, view.relation
    if kind == "none":
        return 0.0
    if kind == "distribution":
        raise ValueError("distribution views have no closed form; use scenario mode")
    if view.target == "y" and kind not in ("correlation", "relative"):
        p = BivariateNormalParams(p.mu_y, p.mu_y, p.sigma_y, p.sigma_y, 1.0)
    sx, sy, r = p.sigma_x, p.sigma_y, p.rho

    def variance_factor(sigma1_sq):
        return math.sqrt(1.0 - r**2 + r**2 * sigma1_sq / sx**2)

    if kind == "expectation":
        if rel != "eq" and _collapses(rel, p.mu_x, view.mean):
            return 0.0
        return r * (view.mean - p.mu_x) * sy / sx
    if kind == "variance":
        if rel != "eq" and _collapses(rel, sx * sx, view.variance):
            return 0.0
        return sy * (variance_factor(view.variance) - 1.0) * c
    if kind == "mean_and_variance":
        return (
            r * (view.mean - p.mu_x) * sy / sx
            + sy * (variance_factor(view.variance) - 1.0) * c
        )
    if kind == "quantile":
        q_x = p.mu_x + sx * c
        if rel != "eq" and _collapses(rel, q_x, view.quantile):
            return 0.0
        t = ((view.quantile - q_x) / sx + c) * c
        disc = math.sqrt(t * t + 4.0 * (1.0 + c * c))
        sy_post = sy * math.sqrt(
            (1.0 + (1.0 - r**2) * c * c) / (1.0 + c * c)
            + r**2 * t * (t + disc) / (2.0 * (1.0 + c * c) ** 2)
        )
        root = math.sqrt(max(sy_post**2 - (1.0 - r * r) * sy * sy, 0.0))
        sign = -1.0 if r >= 0.0 else 1.0
        return (
            r * (view.quantile - q_x) * sy / sx
            + (sy_post + sign * root - (1.0 - r) * sy) * c
        )
    if kind == "correlation":
        if rel != "eq" and _collapses(rel, r, view.correlation):
            return 0.0
        if abs(r) == 1.0 and view.correlation == r:
            return 0.0
        denom = 1.0 - r * view.correlation
        if denom <= 0.0:
            raise NumericDomainError(
                f"correlation view undefined for rho*rho1 = {r * view.correlation} >= 1"
            )
        return sy * (math.sqrt((1.0 - r * r) / denom) - 1.0) * c
    if kind == "relative":
        v = sx * sx - 2.0 * r * sx * sy + sy * sy
        if v <= 0.0:
            raise NumericDomainError("difference X - Y is degenerate")
        radicand = 1.0 + (view.diff_variance - v) * (sy - r * sx) ** 2 / (v * v)
        return (
            (p.mu_x - p.mu_y - view.diff_mean) * sy * (sy - r * sx) / v
            + sy * (math.sqrt(max(radicand, 0.0)) - 1.0) * c
        )
    if kind != "value":
        raise ValueError(f"unknown view kind {kind!r}")
    if rel == "eq":
        return (
            r * (view.value - p.mu_x) * sy / sx
            + sy * (math.sqrt(1.0 - r * r) - 1.0) * c
        )
    z_l = (view.value - p.mu_x) / sx
    beta = norm_cdf(z_l)

    def excess(y):
        z_y = (y - p.mu_y) / sy
        if rel == "le":
            return quadrature_bvn_cdf(z_l, z_y, r) - alpha * beta
        return norm_cdf(z_y) - quadrature_bvn_cdf(z_l, z_y, r) - alpha * (1.0 - beta)

    covar = brentq(excess, p.mu_y - 12.0 * sy, p.mu_y + 12.0 * sy, xtol=1e-15)
    return covar - (p.mu_y + sy * c)


def _kl_arrays(mu_x, mu_y, sigma_x, sigma_y, rho, prior) -> np.ndarray:
    """Relative entropy of bivariate normals against ``prior``, vectorized over
    the posterior parameters; invalid posteriors map to +inf."""
    dmx = mu_x - prior.mu_x
    dmy = mu_y - prior.mu_y
    sx, sy, r = prior.sigma_x, prior.sigma_y, prior.rho
    one_minus_r2 = 1.0 - r * r
    quad_mean = (
        dmx * dmx / (sx * sx)
        - 2.0 * r * dmx * dmy / (sx * sy)
        + dmy * dmy / (sy * sy)
    )
    quad_scale = (
        sigma_x * sigma_x / (sx * sx)
        - 2.0 * r * rho * sigma_x * sigma_y / (sx * sy)
        + sigma_y * sigma_y / (sy * sy)
    )
    post_det = 1.0 - rho * rho
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = (
            (quad_mean + quad_scale) / (2.0 * one_minus_r2)
            - 0.5 * np.log(post_det / one_minus_r2)
            - np.log(sigma_x * sigma_y / (sx * sy))
            - 1.0
        )
    bad = (sigma_x <= 0.0) | (sigma_y <= 0.0) | (post_det <= 0.0)
    return np.where(bad, np.inf, kl)


def _kl_point(mu_x, mu_y, sigma_x, sigma_y, rho, prior) -> float:
    """:func:`_kl_arrays` at one point, on floats with ``math``; invalid
    posteriors, a NaN correlation included, map to +inf. Through 0-d arrays a
    point evaluation costs several times as much."""
    post_det = 1.0 - rho * rho
    if sigma_x <= 0.0 or sigma_y <= 0.0 or not post_det > 0.0:
        return math.inf
    dmx = mu_x - prior.mu_x
    dmy = mu_y - prior.mu_y
    sx, sy, r = prior.sigma_x, prior.sigma_y, prior.rho
    one_minus_r2 = 1.0 - r * r
    quad_mean = (
        dmx * dmx / (sx * sx)
        - 2.0 * r * dmx * dmy / (sx * sy)
        + dmy * dmy / (sy * sy)
    )
    quad_scale = (
        sigma_x * sigma_x / (sx * sx)
        - 2.0 * r * rho * sigma_x * sigma_y / (sx * sy)
        + sigma_y * sigma_y / (sy * sy)
    )
    return (
        (quad_mean + quad_scale) / (2.0 * one_minus_r2)
        - 0.5 * math.log(post_det / one_minus_r2)
        - math.log(sigma_x * sigma_y / (sx * sy))
        - 1.0
    )


def numeric_posterior_params(
    prior, view, alpha=0.95, grid_points=11, levels=4, descent_sweeps=3
):
    """Posterior parameters by direct constrained minimization of the relative
    entropy over (mu_X, mu_Y, sigma_X, sigma_Y, rho).

    The view's equality constraints are eliminated exactly (so feasibility is
    machine-precision), the remaining free coordinates are searched on a
    nested refinement grid (`grid_points` per coordinate, boxes spanning +-4
    prior standard deviations, `levels` refinements) followed by coordinate
    descent with golden-section line searches and a final simplex polish.
    Deterministic for fixed settings; independent of every closed form in
    ``epcovar.analytics``, which it exists to check. One-sided views already
    satisfied by the prior return the prior (zero entropy is a global
    minimum); otherwise the boundary equality view is solved.

    Value views fix the conditional law directly rather than a parameter
    constraint and are not supported here; neither are distribution views,
    whose bin constraints overdetermine a two-parameter normal marginal.
    """
    c = float(ndtri(alpha))
    kind = view.kind
    if kind in ("value", "distribution", "none"):
        raise ValueError(f"{kind} views are not expressible as parameter constraints")

    if view.relation != "eq":
        prior_value, view_value = {
            "expectation": lambda: (
                prior.mu_x if view.target == "x" else prior.mu_y, view.mean
            ),
            "variance": lambda: (
                (prior.sigma_x if view.target == "x" else prior.sigma_y) ** 2,
                view.variance,
            ),
            "quantile": lambda: (
                (prior.mu_x + prior.sigma_x * c)
                if view.target == "x"
                else (prior.mu_y + prior.sigma_y * c),
                view.quantile,
            ),
            "correlation": lambda: (prior.rho, view.correlation),
        }[kind]()
        if _collapses(view.relation, prior_value, view_value):
            return prior
        view = replace(view, relation="eq")

    mean_i = 0 if view.target == "x" else 1
    sigma_i = 2 if view.target == "x" else 3

    # free coordinate indices into (mu_x, mu_y, sigma_x, sigma_y, rho)
    if kind == "expectation":
        pinned = {mean_i: view.mean}
        free = [i for i in range(5) if i != mean_i]
        fill = None
    elif kind == "variance":
        pinned = {sigma_i: math.sqrt(view.variance)}
        free = [i for i in range(5) if i != sigma_i]
        fill = None
    elif kind == "mean_and_variance":
        pinned = {mean_i: view.mean, sigma_i: math.sqrt(view.variance)}
        free = [i for i in range(5) if i not in pinned]
        fill = None
    elif kind == "quantile":
        pinned = {}
        free = [i for i in range(5) if i != mean_i]

        def fill(cols):  # the pinned quantile ties the mean to the spread
            cols[mean_i] = view.quantile - cols[sigma_i] * c
    elif kind == "correlation":
        pinned = {4: view.correlation}
        free = [0, 1, 2, 3]
        fill = None
    elif kind == "relative":
        pinned = {}
        free = [1, 2, 3]

        def fill(cols):
            cols[0] = view.diff_mean + cols[1]
            denom = 2.0 * cols[2] * cols[3]
            rho = (cols[2] ** 2 + cols[3] ** 2 - view.diff_variance) / denom
            if isinstance(rho, float):  # a point evaluation
                cols[4] = rho if abs(rho) < 1.0 else math.nan
            else:
                cols[4] = np.where(np.abs(rho) < 1.0, rho, np.nan)
    else:  # pragma: no cover
        raise ValueError(f"unsupported view kind {kind!r}")

    center = np.array(
        [prior.mu_x, prior.mu_y, prior.sigma_x, prior.sigma_y, prior.rho]
    )
    half = np.array(
        [4.0 * prior.sigma_x, 4.0 * prior.sigma_y, 4.0 * prior.sigma_x,
         4.0 * prior.sigma_y, 0.999]
    )
    lo_cap = np.array([-np.inf, -np.inf, prior.sigma_x / 1e3, prior.sigma_y / 1e3, -0.9999])
    hi_cap = np.array([np.inf, np.inf, np.inf, np.inf, 0.9999])

    def evaluate(cols):
        cols = [np.asarray(col, dtype=float) for col in cols]
        for idx, val in pinned.items():
            cols[idx] = np.broadcast_to(val, cols[free[0]].shape).astype(float)
        if fill is not None:
            fill(cols)
        kl = _kl_arrays(cols[0], cols[1], cols[2], cols[3], cols[4], prior)
        return np.where(np.isnan(cols[4]), np.inf, kl)

    best = center.copy()
    for idx, val in pinned.items():
        best[idx] = val
    spacing = None
    for level in range(levels):
        width = half if level == 0 else spacing
        axes = []
        for i in free:
            lo = max(best[i] - width[i], lo_cap[i])
            hi = min(best[i] + width[i], hi_cap[i])
            axes.append(np.linspace(lo, hi, grid_points))
        mesh = np.meshgrid(*axes, indexing="ij")
        cols = [None] * 5
        for axis_i, i in enumerate(free):
            cols[i] = mesh[axis_i].ravel()
        kl = evaluate(cols)
        flat = int(np.argmin(kl))
        for axis_i, i in enumerate(free):
            best[i] = cols[i][flat]
        spacing = np.zeros(5)
        for axis_i, i in enumerate(free):
            spacing[i] = axes[axis_i][1] - axes[axis_i][0] if grid_points > 1 else half[i]

    def point_kl(vec):
        point = vec.tolist()
        for idx, val in pinned.items():
            point[idx] = val
        if fill is not None:
            fill(point)
        return _kl_point(*point, prior)

    # coordinate descent with per-coordinate brackets that track progress;
    # descent_sweeps scales the iteration budget
    width = {i: 2.0 * spacing[i] for i in free}
    current = point_kl(best)
    for _ in range(10 * descent_sweeps):
        previous = current
        for i in free:
            lo = max(best[i] - width[i], lo_cap[i])
            hi = min(best[i] + width[i], hi_cap[i])

            def along(v, i=i):
                trial = best.copy()
                trial[i] = v
                return point_kl(trial)

            new = _golden_min(along, lo, hi)
            width[i] = max(8.0 * abs(new - best[i]), 0.25 * width[i])
            best[i] = new
        current = point_kl(best)
        if previous - current < 1e-15 * max(1.0, abs(current)):
            break

    # simplex polish handles the narrow diagonal valleys (e.g. a derived
    # correlation coupling both spreads) where axis-wise steps stall
    def reduced(vec):
        trial = best.copy()
        trial[free] = np.clip(vec, lo_cap[free], hi_cap[free])
        return point_kl(trial)

    res = scipy_minimize(
        reduced, best[free], method="Nelder-Mead",
        options={"xatol": 1e-11, "fatol": 1e-15, "maxiter": 4000, "maxfev": 8000},
    )
    if res.fun <= current:
        best[free] = np.clip(res.x, lo_cap[free], hi_cap[free])

    full = best.copy()
    for idx, val in pinned.items():
        full[idx] = val
    if fill is not None:
        cols = full.tolist()
        fill(cols)
        full = np.array(cols)
    if not np.all(np.isfinite(full)):
        raise NumericDomainError("search box exhausted without a feasible point")
    return BivariateNormalParams(*full)


_MISSING_TOKENS = {"", "nan", "na", "null", "none"}


def cell_by_cell_ingest(source, columns=None, min_rows=None) -> IngestResult:
    """``engine.ingest_csv`` read one cell at a time: blank rows filtered
    first, then every selected cell stripped, matched against the missing
    tokens and parsed. Knows nothing of byte-order marks or duplicated
    header names."""
    if hasattr(source, "read"):
        rows = list(csv.reader(source))
    else:
        try:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            raise DataError(f"cannot read {source}: {exc}") from exc
    if not rows:
        raise DataError("empty file: no header row")
    header = [h.strip() for h in rows[0]]
    body = [r for r in rows[1:] if any(cell.strip() for cell in r)]

    def lenient(cell: str):
        text = cell.strip()
        if text.lower() in _MISSING_TOKENS:
            return math.nan
        try:
            return float(text)
        except ValueError:
            return None  # unparseable

    if columns is None:
        columns = []
        for j, name in enumerate(header):
            cells = (lenient(r[j]) if j < len(r) else math.nan for r in body)
            if any(v is not None and not math.isnan(v) for v in cells):
                columns.append(name)
    missing = [c for c in columns if c not in header]
    if missing:
        raise DataError(
            f"missing column(s) {missing}; available columns: {header}"
        )
    parsed = []
    for name in columns:
        j = header.index(name)
        col = []
        for i, row in enumerate(body):
            value = lenient(row[j] if j < len(row) else "")
            if value is None:
                raise DataError(
                    f"unparseable cell {row[j]!r} in column {name!r} at data row {i + 1}"
                )
            col.append(value)
        parsed.append(col)
    table = np.array(parsed, dtype=float)
    keep = ~np.isnan(table).any(axis=0)
    n_rows = int(keep.sum())
    n_dropped = int(len(body) - n_rows)
    if min_rows is not None and n_rows < min_rows:
        raise DataError(f"only {n_rows} usable rows, need at least {min_rows}")
    series = {c: table[i, keep] for i, c in enumerate(columns)}
    return IngestResult(series=series, n_rows=n_rows, n_dropped=n_dropped)


# -- t fits, one dof at a time ----------------------------------------------------

_DOF_MIN, _DOF_MAX, _DOF_GRID_SIZE, _LOG_DOF_XATOL = 2.1, 100.0, 60, 3e-7


def _t_loglik(z, dof, scale):
    n = z.size
    const = (
        gammaln((dof + 1.0) / 2.0)
        - gammaln(dof / 2.0)
        - 0.5 * math.log(dof * math.pi)
        - math.log(scale)
    )
    return float(n * const - (dof + 1.0) / 2.0 * np.log1p(z * z / dof).sum())


def loop_location_scale(x, dof, loc0, scale0):
    """EM fixed point for (location, scale) at fixed dof, one plain loop."""
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


def _per_dof_search(value):
    """The argmax of ``value`` (one dof a call) over the dof grid, refined by
    Brent's bounded search in log dof on its bracket; the cap test last."""
    grid = np.geomspace(_DOF_MIN, _DOF_MAX, _DOF_GRID_SIZE)
    values = [value(float(g)) for g in grid]
    k = int(np.argmax(values))
    res = minimize_scalar(
        lambda u: -value(math.exp(u)),
        bounds=(math.log(grid[max(k - 1, 0)]), math.log(grid[min(k + 1, grid.size - 1)])),
        method="bounded",
        options={"xatol": _LOG_DOF_XATOL},
    )
    if values[-1] >= -res.fun:
        return _DOF_MAX
    return min(math.exp(res.x), _DOF_MAX)


def per_dof_t_marginal(samples):
    """Profile-likelihood Student-t fit: every dof fitted by its own EM
    loop, searched by ``_per_dof_search``."""
    x = np.asarray(samples, dtype=float)
    loc0 = float(np.median(x))
    mad = float(np.median(np.abs(x - loc0)))
    scale0 = mad * 1.4826 if mad > 0.0 else float(x.std())

    def profile(dof):
        loc, scale = loop_location_scale(x, dof, loc0, scale0)
        return _t_loglik((x - loc) / scale, dof, scale)

    dof = _per_dof_search(profile)
    loc, scale = loop_location_scale(x, dof, loc0, scale0)
    return TMarginal(location=loc, scale=scale, dof=dof)


def t_marginal_loglik(x, fit):
    """The Student-t log-likelihood of the sample ``x`` under ``fit``."""
    return _t_loglik((x - fit.location) / fit.scale, fit.dof, fit.scale)


def t_marginal_score(x, fit):
    """The gradient of ``t_marginal_loglik`` in (location, log scale, log
    dof), the location measured in units of the scale."""
    n, dof = x.size, fit.dof
    z = (x - fit.location) / fit.scale
    w = (dof + 1.0) / (dof + z * z)
    d_dof = 0.5 * n * (digamma((dof + 1.0) / 2.0) - digamma(dof / 2.0) - 1.0 / dof) + float(
        (-0.5 * np.log1p(z * z / dof) + 0.5 * (dof + 1.0) * z * z / (dof * (dof + z * z))).sum()
    )
    return float((w * z).sum()), float((w * z * z).sum()) - n, dof * d_dof


def _t_copula_loglik(tx, ty, rho, dof):
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


def per_dof_t_copula(u, v):
    """t-copula fit by Kendall-tau inversion and a pseudo-likelihood dof
    search that evaluates one dof at a time."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    tau = float(kendalltau(u, v).statistic)
    rho = math.sin(math.pi * tau / 2.0)
    levels, inverse = np.unique(np.concatenate([u, v]), return_inverse=True)
    iu, iv = inverse[:u.size], inverse[u.size:]

    def loglik(dof):
        t = stdtrit(dof, levels)
        return _t_copula_loglik(t[iu], t[iv], rho, dof)

    return TCopulaParams(rho=rho, dof=_per_dof_search(loglik))


# -- earlier forms of the scenario engine ----------------------------------------

def copula_draws(cop, n, seed):
    """The t-copula draws (X, Y) that ``generate_scenarios`` maps, from the
    same random stream."""
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    scale = 1.0 / np.sqrt(rng.chisquare(cop.dof, n) / cop.dof)
    return z1 * scale, (cop.rho * z1 + math.sqrt(1.0 - cop.rho**2) * z2) * scale


def exact_unit_map(copula_dof, dof, z):
    """The sampler's exact map: the copula's t CDF, clipped into
    [1e-12, 1 - 1e-12], then the unit t quantile of the marginal's dof,
    evaluated on the lower tail and mirrored for z > 0."""
    g = stdtrit(dof, np.maximum(stdtr(copula_dof, -np.abs(z)), 1e-12))
    return np.where(z > 0.0, -g, g)


def stable_sort_groups(values):
    """``SortedLosses.groups`` as a stable sort and ``np.unique`` give them:
    the order, the mask of each tie group's last sorted entry, and the
    distinct values."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    uniq, start = np.unique(values[order], return_index=True)
    last = np.zeros(order.size, dtype=bool)
    last[start[1:] - 1] = True
    last[-1:] = True
    return order, last, uniq


def temporaries_dual(lam, log_prior, rows, bounds):
    """The entropy-pooling dual with a fresh array per step and the Hessian
    computed at every evaluation: (value, gradient, Hessian, log q)."""
    lam = np.asarray(lam, dtype=float)
    a = log_prior - np.einsum("kj,k->j", rows, lam)
    shift = float(a.max())
    w = np.exp(a - shift)
    total = float(w.sum())
    log_z = shift + math.log(total)
    mean = np.einsum("kj,j->k", rows, w) / total
    hessian = np.einsum("kj,lj,j->kl", rows, rows, w) / total - np.outer(mean, mean)
    return log_z + float(lam @ bounds), bounds - mean, hessian, a - log_z


def serial_scenario_rows(config, panel, confidences):
    """Scenario-mode report rows with the views evaluated one after another
    on the calling thread, and the pooled row's recompiles likewise."""
    var = interpolated_quantile(panel.sorted_y, panel.prior, config.alpha)
    rows = []
    posteriors = []
    for view in config.views:
        covar, rep = ep_covar_on_panel(panel, view, config.alpha)
        posteriors.append(rep.posterior)
        rows.append(ReportRow(
            label=describe(view), method="scenario-EP", var=var, covar=covar,
            delta_covar=covar - var, residual=rep.residual, iterations=rep.iterations,
            entropy=rep.entropy,
        ))
    if confidences is not None:
        mixed = pool(posteriors, confidences)
        covar = interpolated_quantile(panel.sorted_y, mixed, config.alpha)
        violation = max(max_violation(compile_view(v, panel), mixed.weights) for v in config.views)
        rows.append(ReportRow(
            label="pooled(" + "; ".join(describe(v) for v in config.views) + ")",
            method="pooled", var=var, covar=covar, delta_covar=covar - var,
            residual=violation, iterations=0, entropy=relative_entropy(mixed, panel.prior),
        ))
    return rows
