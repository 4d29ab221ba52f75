"""Closed-form view-conditional risk under bivariate normality.

With losses ``(X, Y)`` jointly normal and the posterior constrained to stay in
the normal family, the alpha-VaR of Y is ``mu_Y + sigma_Y * z(alpha)`` and the
view-conditional VaR (CoVaR) is ``mu~_Y + sigma~_Y * z(alpha)`` with posterior
parameters determined by minimum relative entropy under the view. This module
provides:

- the closed-form CoVaR for every supported view kind, each returning a
  :class:`ViewOutcome` with the posterior parameter bundle, a collapse flag,
  and the branch taken;
- the risk-spillover increment (``delta_covar_view``), CoVaR - VaR by
  definition;
- the relative entropy between two bivariate normals;
- the bivariate normal CDF needed by conditioning on value regions.

``z(alpha)`` is ``scipy.special.ndtri``.

One-sided views follow the collapse rule: when the prior already satisfies the
view, it carries no information and CoVaR equals VaR exactly; otherwise the
optimum sits on the boundary and CoVaR equals the equality-view value.

Views on Y itself are handled by conditioning Y on its own marginal (a
degenerate "pair" with unit correlation), so the same formulas apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .errors import NumericDomainError
from .normal import bvn_cdf, norm_cdf
from .views import ViewSpec

RADICAND_TOL = 1e-12  # clamp window for floating noise in spread radicands


@dataclass(frozen=True)
class BivariateNormalParams:
    """Mean/spread/correlation bundle for a bivariate normal loss pair."""

    mu_x: float
    mu_y: float
    sigma_x: float
    sigma_y: float
    rho: float

    def __post_init__(self):
        if not (self.sigma_x > 0.0 and self.sigma_y > 0.0):
            raise ValueError(
                f"standard deviations must be positive, got "
                f"({self.sigma_x}, {self.sigma_y})"
            )
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.rho}")
        for name in ("mu_x", "mu_y", "sigma_x", "sigma_y", "rho"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class ViewOutcome:
    """Result of one closed-form evaluation.

    ``posterior`` is ``None`` when the view pushes the joint law out of the
    non-degenerate bivariate-normal family (value views condition X to a point
    or half-line; correlation views at a +-1 boundary collapse a marginal).
    ``collapsed_to_var`` marks views that added no information, in which case
    ``covar`` equals the prior VaR exactly.
    """

    covar: float
    posterior: BivariateNormalParams | None
    collapsed_to_var: bool
    branch: str


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return float(ndtri(alpha))


def _clamp_rho(rho: float) -> float:
    return min(max(rho, -1.0), 1.0)


def var_normal(p: BivariateNormalParams, alpha: float) -> float:
    """alpha-VaR of Y: mu_Y + sigma_Y * z(alpha)."""
    return p.mu_y + p.sigma_y * _check_alpha(alpha)


def var_normal_x(p: BivariateNormalParams, alpha: float) -> float:
    """alpha-VaR of X (the conditioning asset)."""
    return p.mu_x + p.sigma_x * _check_alpha(alpha)


def kl_bivariate_normal(post: BivariateNormalParams, prior: BivariateNormalParams) -> float:
    """Relative entropy of one bivariate normal against another, in nats."""
    if abs(prior.rho) >= 1.0:
        raise NumericDomainError("prior covariance is singular (|rho| = 1)")
    out = _kl_arrays(
        np.asarray(post.mu_x), np.asarray(post.mu_y), np.asarray(post.sigma_x),
        np.asarray(post.sigma_y), np.asarray(post.rho), prior,
    )
    return float(out)


def _kl_arrays(mu_x, mu_y, sigma_x, sigma_y, rho, prior) -> np.ndarray:
    """Vectorized relative entropy; invalid posteriors map to +inf."""
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


def _collapse(
    relation: str,
    prior_value: float,
    view_value: float,
    equality: ViewOutcome,
    prior: BivariateNormalParams,
    alpha: float,
) -> ViewOutcome:
    """Route one-sided relations: keep the prior when it already satisfies the
    view, otherwise bind at the boundary (the equality solution)."""
    if relation == "eq":
        return equality
    if relation not in ("le", "ge"):
        raise ValueError(f"unknown relation {relation!r}")
    satisfied = prior_value <= view_value if relation == "le" else prior_value >= view_value
    if satisfied:
        return ViewOutcome(
            covar=var_normal(prior, alpha),
            posterior=prior,
            collapsed_to_var=True,
            branch=f"{relation}-collapse",
        )
    return replace(equality, branch=f"{relation}-binding")


def covar_expectation_view(
    p: BivariateNormalParams, mu1: float, relation: str = "eq", alpha: float = 0.95
) -> ViewOutcome:
    """CoVaR of Y when the posterior mean of X equals / is bounded by ``mu1``.

    The equality case shifts the Y mean by ``rho (mu1 - mu_X) sigma_Y/sigma_X``
    and leaves the covariance untouched, so CoVaR is affine in ``mu1``.
    """
    c = _check_alpha(alpha)
    shift = p.rho * (mu1 - p.mu_x) * p.sigma_y / p.sigma_x
    eq = ViewOutcome(
        covar=p.mu_y + shift + p.sigma_y * c,
        posterior=replace(p, mu_x=mu1, mu_y=p.mu_y + shift),
        collapsed_to_var=(mu1 == p.mu_x or p.rho == 0.0),
        branch="eq",
    )
    return _collapse(relation, p.mu_x, mu1, eq, p, alpha)


def _variance_factor(p: BivariateNormalParams, sigma1_sq: float) -> float:
    return math.sqrt(1.0 - p.rho**2 + p.rho**2 * sigma1_sq / p.sigma_x**2)


def covar_variance_view(
    p: BivariateNormalParams, sigma1_sq: float, relation: str = "eq", alpha: float = 0.95
) -> ViewOutcome:
    """CoVaR of Y when the posterior variance of X equals / is bounded by
    ``sigma1_sq``; nonlinear and non-decreasing in the view level for rho != 0."""
    if sigma1_sq <= 0.0:
        raise ValueError(f"view variance must be positive, got {sigma1_sq}")
    c = _check_alpha(alpha)
    factor = _variance_factor(p, sigma1_sq)
    sigma1 = math.sqrt(sigma1_sq)
    sy_post = p.sigma_y * factor
    rho_post = _clamp_rho(
        p.rho * sigma1 * p.sigma_y / (p.sigma_x * sy_post)
    ) if p.rho != 0.0 else 0.0
    no_info = sigma1_sq == p.sigma_x**2 or p.rho == 0.0
    eq = ViewOutcome(
        covar=var_normal(p, alpha) if no_info else p.mu_y + sy_post * c,
        posterior=replace(p, sigma_x=sigma1, sigma_y=sy_post, rho=rho_post),
        collapsed_to_var=no_info,
        branch="eq",
    )
    return _collapse(relation, p.sigma_x**2, sigma1_sq, eq, p, alpha)


def covar_mean_variance_view(
    p: BivariateNormalParams, mu1: float, sigma1_sq: float, alpha: float = 0.95
) -> ViewOutcome:
    """CoVaR of Y under the combined view pinning both the mean and the
    variance of X. Satisfies the exact decomposition

        covar(mean & variance) + VaR = covar(mean) + covar(variance).
    """
    if sigma1_sq <= 0.0:
        raise ValueError(f"view variance must be positive, got {sigma1_sq}")
    c = _check_alpha(alpha)
    shift = p.rho * (mu1 - p.mu_x) * p.sigma_y / p.sigma_x
    factor = _variance_factor(p, sigma1_sq)
    sigma1 = math.sqrt(sigma1_sq)
    sy_post = p.sigma_y * factor
    rho_post = _clamp_rho(
        p.rho * sigma1 * p.sigma_y / (p.sigma_x * sy_post)
    ) if p.rho != 0.0 else 0.0
    no_info = (mu1 == p.mu_x and sigma1_sq == p.sigma_x**2) or p.rho == 0.0
    return ViewOutcome(
        covar=var_normal(p, alpha) if no_info else p.mu_y + shift + sy_post * c,
        posterior=BivariateNormalParams(
            mu_x=mu1, mu_y=p.mu_y + shift, sigma_x=sigma1, sigma_y=sy_post, rho=rho_post
        ),
        collapsed_to_var=no_info,
        branch="eq",
    )


def _quantile_posterior_scales(p: BivariateNormalParams, q1: float, c: float):
    """Posterior spreads implied by pinning the alpha-quantile of X at q1.

    The X spread solves the one-dimensional marginal problem and is shared by
    every rho; the Y spread follows from the preserved conditional of Y on X.
    """
    q_x = p.mu_x + p.sigma_x * c
    kappa = (q1 - q_x) / p.sigma_x
    t = (kappa + c) * c
    c2 = c * c
    disc = math.sqrt(t * t + 4.0 * (1.0 + c2))
    bracket = 1.0 / (1.0 + c2) + t * (t + disc) / (2.0 * (1.0 + c2) ** 2)
    sy_post = p.sigma_y * math.sqrt(
        (1.0 + (1.0 - p.rho**2) * c2) / (1.0 + c2)
        + p.rho**2 * t * (t + disc) / (2.0 * (1.0 + c2) ** 2)
    )
    sx_post = p.sigma_x * math.sqrt(bracket)
    return q_x, sx_post, sy_post


def covar_quantile_view(
    p: BivariateNormalParams, q1: float, relation: str = "eq", alpha: float = 0.95
) -> ViewOutcome:
    """CoVaR of Y when the posterior alpha-quantile of X equals / is bounded
    by ``q1``. The prior quantile is ``q_X = mu_X + sigma_X z(alpha)``."""
    c = _check_alpha(alpha)
    q_x, sx_post, sy_post = _quantile_posterior_scales(p, q1, c)
    radicand = sy_post**2 - (1.0 - p.rho**2) * p.sigma_y**2
    if radicand < -RADICAND_TOL:
        raise NumericDomainError(
            f"quantile-view spread radicand is negative ({radicand:.3e}) for "
            f"q1={q1}, alpha={alpha}, params={p}"
        )
    root = math.sqrt(max(radicand, 0.0))
    sign = -1.0 if p.rho >= 0.0 else 1.0
    no_info = q1 == q_x or p.rho == 0.0
    covar = (
        var_normal(p, alpha)
        if no_info
        else p.mu_y
        + p.rho * (q1 - q_x) * p.sigma_y / p.sigma_x
        + (sy_post + sign * root + p.rho * p.sigma_y) * c
    )
    mu_x_post = q1 - sx_post * c
    mu_y_post = p.mu_y + p.rho * (p.sigma_y / p.sigma_x) * (mu_x_post - p.mu_x)
    rho_post = _clamp_rho(
        p.rho * p.sigma_y * sx_post / (p.sigma_x * sy_post)
    ) if p.rho != 0.0 else 0.0
    eq = ViewOutcome(
        covar=covar,
        posterior=BivariateNormalParams(
            mu_x=mu_x_post, mu_y=mu_y_post, sigma_x=sx_post, sigma_y=sy_post, rho=rho_post
        ),
        collapsed_to_var=no_info,
        branch="eq",
    )
    return _collapse(relation, q_x, q1, eq, p, alpha)


def covar_correlation_view(
    p: BivariateNormalParams, rho1: float, relation: str = "eq", alpha: float = 0.95
) -> ViewOutcome:
    """CoVaR of Y when the posterior correlation equals / is bounded by rho1.

    At ``rho = rho1 = +-1`` the view adds nothing and CoVaR is VaR. When only
    one of the two sits at a boundary the relative entropy diverges; for
    continuity the equality expression is kept as the defined value.
    """
    if not -1.0 <= rho1 <= 1.0:
        raise ValueError(f"view correlation must lie in [-1, 1], got {rho1}")
    c = _check_alpha(alpha)
    if abs(p.rho) == 1.0 and rho1 == p.rho:
        return ViewOutcome(var_normal(p, alpha), p, True, "boundary-collapse")
    denom = 1.0 - p.rho * rho1
    if denom <= 0.0:
        raise NumericDomainError(
            f"correlation view undefined for rho*rho1 = {p.rho * rho1} >= 1"
        )
    factor = math.sqrt((1.0 - p.rho**2) / denom)
    degenerate = factor == 0.0  # |rho| = 1 with rho1 != rho
    no_info = rho1 == p.rho or p.rho == 0.0
    eq = ViewOutcome(
        covar=var_normal(p, alpha) if no_info else p.mu_y + p.sigma_y * factor * c,
        posterior=None if degenerate else replace(
            p, sigma_x=p.sigma_x * factor, sigma_y=p.sigma_y * factor, rho=rho1
        ),
        collapsed_to_var=no_info,
        branch="boundary" if degenerate or abs(rho1) == 1.0 else "eq",
    )
    return _collapse(relation, p.rho, rho1, eq, p, alpha)


def _bracketed_root(f, lo: float, hi: float) -> float:
    """Bisection then secant polish for a continuous monotone function."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise NumericDomainError(
            f"root not bracketed on [{lo:g}, {hi:g}]: f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e}"
        )
    a, b, fa, fb = lo, hi, f_lo, f_hi
    for _ in range(40):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
        if b - a < 1e-6 * (hi - lo):
            break
    x0, x1, f0, f1 = a, b, fa, fb
    for _ in range(60):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        x2 = min(max(x2, a), b)
        f2 = f(x2)
        if f2 == 0.0 or abs(x2 - x1) < 1e-10 * max(1.0, abs(x2)):
            return x2
        if fa * f2 < 0.0:
            b = x2
        else:
            a = x2
        x0, f0, x1, f1 = x1, f1, x2, f2
    return x1


def covar_value_view(
    p: BivariateNormalParams, level: float, relation: str = "eq", alpha: float = 0.95
) -> ViewOutcome:
    """CoVaR of Y conditional on the realized value of X.

    eq: X = level exactly (the conditional distribution of Y given X).
    le: X <= level; CoVaR solves Pr(X <= level, Y <= y) = alpha Pr(X <= level).
    ge: X >= level; CoVaR solves Pr(X >= level, Y <= y) = alpha Pr(X >= level).

    The two conditional maps are continuous and monotone in y, so the root is
    found by bisection on [mu_Y - 12 sigma_Y, mu_Y + 12 sigma_Y] with a secant
    polish. ``traditional_covar`` is the eq case at level = VaR_alpha of X.
    """
    c = _check_alpha(alpha)
    z_l = (level - p.mu_x) / p.sigma_x
    if relation == "eq":
        return ViewOutcome(
            covar=(
                p.mu_y
                + p.rho * (level - p.mu_x) * p.sigma_y / p.sigma_x
                + p.sigma_y * math.sqrt(1.0 - p.rho**2) * c
            ),
            posterior=None,  # X collapses to a point; outside the family
            collapsed_to_var=False,
            branch="eq",
        )
    beta = norm_cdf(z_l)
    lo, hi = p.mu_y - 12.0 * p.sigma_y, p.mu_y + 12.0 * p.sigma_y
    if relation == "le":
        if z_l >= 9.0:  # conditioning event has full mass: no information
            return ViewOutcome(var_normal(p, alpha), p, True, "le-saturated")
        if z_l <= -9.0:  # event mass below quadrature resolution
            raise NumericDomainError(f"no probability mass at or below level {level}")

        def fn(y: float) -> float:
            return bvn_cdf(z_l, (y - p.mu_y) / p.sigma_y, p.rho) - alpha * beta

        return ViewOutcome(_bracketed_root(fn, lo, hi), None, False, "le")
    if relation == "ge":
        if z_l <= -9.0:
            return ViewOutcome(var_normal(p, alpha), p, True, "ge-saturated")
        if z_l >= 9.0:
            raise NumericDomainError(f"no probability mass at or above level {level}")

        def fn(y: float) -> float:
            z_y = (y - p.mu_y) / p.sigma_y
            return norm_cdf(z_y) - bvn_cdf(z_l, z_y, p.rho) - alpha * (1.0 - beta)

        return ViewOutcome(_bracketed_root(fn, lo, hi), None, False, "ge")
    raise ValueError(f"unknown relation {relation!r}")


def traditional_covar(p: BivariateNormalParams, alpha: float = 0.95) -> ViewOutcome:
    """CoVaR of Y given X sits exactly at its own alpha-VaR."""
    return covar_value_view(p, var_normal_x(p, alpha), "eq", alpha)


def covar_relative_view(
    p: BivariateNormalParams, d: float, s_sq: float, alpha: float = 0.95
) -> ViewOutcome:
    """CoVaR of Y when the difference X - Y is believed normal with mean ``d``
    and variance ``s_sq``. Collapses to VaR when ``rho = sigma_Y / sigma_X``
    (the difference is then uninformative about Y) or when the view restates
    the prior law of X - Y."""
    if s_sq <= 0.0:
        raise ValueError(f"view variance must be positive, got {s_sq}")
    c = _check_alpha(alpha)
    sx, sy, r = p.sigma_x, p.sigma_y, p.rho
    v = sx * sx - 2.0 * r * sx * sy + sy * sy
    if v <= 0.0:
        raise NumericDomainError(
            "difference X - Y is degenerate (rho = 1 with equal spreads)"
        )
    mean_post = (
        p.mu_y * sx * (sx - r * sy) + (p.mu_x - d) * sy * (sy - r * sx)
    ) / v
    radicand = 1.0 + (s_sq - v) * (sy - r * sx) ** 2 / (v * v)
    if radicand < -RADICAND_TOL:
        raise NumericDomainError(
            f"relative-view spread radicand is negative ({radicand:.3e})"
        )
    sy_post = sy * math.sqrt(max(radicand, 0.0))
    no_info = (d == p.mu_x - p.mu_y and s_sq == v) or r * sx == sy
    covar = var_normal(p, alpha) if no_info else mean_post + sy_post * c

    # full posterior via the preserved conditional of Y on the difference
    beta_d = sy * (r * sx - sy) / v
    sx_post_sq = s_sq + sy_post**2 + 2.0 * beta_d * s_sq
    posterior = None
    if sy_post > 0.0 and sx_post_sq > 0.0:
        sx_post = math.sqrt(sx_post_sq)
        cov_post = beta_d * s_sq + sy_post**2
        rho_post = _clamp_rho(cov_post / (sx_post * sy_post))
        posterior = BivariateNormalParams(
            mu_x=mean_post + d, mu_y=mean_post,
            sigma_x=sx_post, sigma_y=sy_post, rho=rho_post,
        )
    return ViewOutcome(covar, posterior, collapsed_to_var=no_info, branch="eq")


# -- dispatch -----------------------------------------------------------------

def _self_view_params(p: BivariateNormalParams) -> BivariateNormalParams:
    """View Y through itself: a unit-correlation pair of Y with Y."""
    return BivariateNormalParams(p.mu_y, p.mu_y, p.sigma_y, p.sigma_y, 1.0)


def _lift_y_view(p: BivariateNormalParams, out: ViewOutcome) -> ViewOutcome:
    """Map an outcome computed on the (Y, Y) self-pair back onto (X, Y).

    A view on Y's marginal leaves the conditional of X on Y untouched, so the
    X side updates through the regression of X on Y.
    """
    if out.posterior is None:
        return out
    if out.posterior == _self_view_params(p):  # no information: prior unchanged
        return replace(out, posterior=p)
    my_post, sy_post = out.posterior.mu_y, out.posterior.sigma_y
    beta = p.rho * p.sigma_x / p.sigma_y
    sx_post_sq = (1.0 - p.rho**2) * p.sigma_x**2 + beta * beta * sy_post**2
    sx_post = math.sqrt(sx_post_sq)
    rho_post = _clamp_rho(beta * sy_post / sx_post) if sx_post > 0.0 else 0.0
    lifted = BivariateNormalParams(
        mu_x=p.mu_x + beta * (my_post - p.mu_y),
        mu_y=my_post,
        sigma_x=sx_post,
        sigma_y=sy_post,
        rho=rho_post,
    )
    return replace(out, posterior=lifted)


def covar_for_view(
    p: BivariateNormalParams, view: ViewSpec, alpha: float = 0.95
) -> ViewOutcome:
    """Closed-form outcome for a :class:`~epcovar.views.ViewSpec`.

    Views targeting Y are evaluated on the degenerate (Y, Y) pair, so the same
    X-view formulas condition Y on its own marginal; the posterior is then
    lifted back onto (X, Y) through the unchanged conditional of X on Y.
    Distribution views have no closed form under a normal posterior and must
    go through scenario mode.
    """
    if view.kind == "none":
        return ViewOutcome(var_normal(p, alpha), p, True, "no-view")
    if view.kind == "distribution":
        raise ValueError("distribution views have no closed form; use scenario mode")
    on_y = view.target == "y" and view.kind not in ("correlation", "relative")
    q = _self_view_params(p) if on_y else p
    if view.kind == "expectation":
        out = covar_expectation_view(q, view.mean, view.relation, alpha)
    elif view.kind == "variance":
        out = covar_variance_view(q, view.variance, view.relation, alpha)
    elif view.kind == "mean_and_variance":
        out = covar_mean_variance_view(q, view.mean, view.variance, alpha)
    elif view.kind == "quantile":
        if view.quantile_level != alpha:
            raise ValueError(
                "closed-form quantile views pin the quantile at the report level; "
                f"got view level {view.quantile_level} vs alpha {alpha}"
            )
        out = covar_quantile_view(q, view.quantile, view.relation, alpha)
    elif view.kind == "value":
        out = covar_value_view(q, view.value, view.relation, alpha)
    elif view.kind == "correlation":
        out = covar_correlation_view(p, view.correlation, view.relation, alpha)
    elif view.kind == "relative":
        out = covar_relative_view(p, view.diff_mean, view.diff_variance, alpha)
    else:  # pragma: no cover
        raise ValueError(f"unknown view kind {view.kind!r}")
    return _lift_y_view(p, out) if on_y else out


# -- risk spillover (CoVaR - VaR) ----------------------------------------------

def delta_covar_view(
    p: BivariateNormalParams, view: ViewSpec, alpha: float = 0.95
) -> float:
    """View-induced risk spillover to Y: CoVaR under the view minus VaR.

    Signs are meaningful: a pessimistic view on a positively correlated asset
    yields positive spillover, and the combined mean-and-variance spillover is
    the sum of its parts.
    """
    return covar_for_view(p, view, alpha).covar - var_normal(p, alpha)
