"""Closed-form view-conditional risk under bivariate normality.

With losses ``(X, Y)`` jointly normal and the posterior constrained to stay in
the normal family, the alpha-VaR of Y is ``mu_Y + sigma_Y * z(alpha)`` and the
view-conditional VaR (CoVaR) is ``mu~_Y + sigma~_Y * z(alpha)`` with posterior
parameters determined by minimum relative entropy under the view. This module
provides:

- the closed-form CoVaR of a :class:`~epcovar.views.ViewSpec`
  (``covar_for_view``, the one entry point), returning a :class:`ViewOutcome`
  with the posterior parameter bundle, a collapse flag, and the branch taken.
  It dispatches through ``_CLOSED_FORMS``, where each kind's closed form is
  declared; these repeat none of the checks ``ViewSpec`` has made;
- the risk-spillover increment (``delta_covar_view``), CoVaR - VaR by
  definition;
- the relative entropy between two bivariate normals;
- the posterior CDF of Y under one view (``posterior_y_cdf``), which a pooled
  analytic row mixes; under a value view it is ``value_view_y_cdf``, the law
  that the half-line CoVaR also uses.

``z(alpha)`` is ``scipy.special.ndtri``. Half-line value views and pooled
mixtures have no closed form: each is a ``brentq`` root of a CDF minus alpha.

One-sided views follow the collapse rule: when the prior already satisfies the
view, it carries no information and CoVaR equals VaR exactly; otherwise the
optimum sits on the boundary and CoVaR equals the equality-view value.

The expectation, variance, mean-and-variance, quantile and relative views
share one update (``_keep_conditional``): the view sets the normal law of one
variable, and the other keeps its prior conditional law given it (Meucci,
"Fully Flexible Views: Theory and Practice", *Risk* 21(10), 2008).
``_marginal_law`` states the law that each moment or quantile view sets, and
``_marginal_view`` applies it to X, or to Y on the swapped pair (Y, X); the
relative view sets the law of X - Y. The paper's per-kind expressions remain
as the test oracle ``tests/_oracles.py::paper_spillover``. An equality
value view on Y makes Y its level; on a half-line, Y conditions itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from scipy.special import ndtri

from .errors import NumericDomainError
from .normal import bvn_cdf, norm_cdf
from .views import ViewSpec, describe


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
    """Relative entropy of one bivariate normal against another, in nats;
    +inf for a posterior with a singular covariance."""
    sx, sy, r = prior.sigma_x, prior.sigma_y, prior.rho
    if abs(r) >= 1.0:
        raise NumericDomainError("prior covariance is singular (|rho| = 1)")
    post_det = 1.0 - post.rho * post.rho
    if post.sigma_x <= 0.0 or post.sigma_y <= 0.0 or post_det <= 0.0:
        return math.inf
    dmx = post.mu_x - prior.mu_x
    dmy = post.mu_y - prior.mu_y
    one_minus_r2 = 1.0 - r * r
    quad_mean = dmx * dmx / (sx * sx) - 2.0 * r * dmx * dmy / (sx * sy) + dmy * dmy / (sy * sy)
    quad_scale = (
        post.sigma_x * post.sigma_x / (sx * sx)
        - 2.0 * r * post.rho * post.sigma_x * post.sigma_y / (sx * sy)
        + post.sigma_y * post.sigma_y / (sy * sy)
    )
    return (
        (quad_mean + quad_scale) / (2.0 * one_minus_r2)
        - 0.5 * math.log(post_det / one_minus_r2)
        - math.log(post.sigma_x * post.sigma_y / (sx * sy))
        - 1.0
    )


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
    satisfied = prior_value <= view_value if relation == "le" else prior_value >= view_value
    if satisfied:
        return ViewOutcome(
            covar=var_normal(prior, alpha),
            posterior=prior,
            collapsed_to_var=True,
            branch=f"{relation}-collapse",
        )
    return replace(equality, branch=f"{relation}-binding")


def _keep_conditional(
    p: BivariateNormalParams, mu1: float, sigma1: float
) -> BivariateNormalParams:
    """The posterior in which X ~ N(mu1, sigma1^2) and Y given X keeps its
    prior law: the minimum-relative-entropy update for a view that sets the
    law of X. The Y spread's radicand, 1 - rho^2 + rho^2 sigma1^2/sigma_X^2,
    is nonnegative by construction."""
    mu_y = p.mu_y + p.rho * (mu1 - p.mu_x) * p.sigma_y / p.sigma_x
    if sigma1 == p.sigma_x:
        return replace(p, mu_x=mu1, mu_y=mu_y)
    sigma_y = p.sigma_y * math.sqrt(1.0 - p.rho**2 + p.rho**2 * sigma1**2 / p.sigma_x**2)
    rho = _clamp_rho(p.rho * sigma1 * p.sigma_y / (p.sigma_x * sigma_y))
    return BivariateNormalParams(mu1, mu_y, sigma1, sigma_y, rho)


def _swap(p: BivariateNormalParams) -> BivariateNormalParams:
    return BivariateNormalParams(p.mu_y, p.mu_x, p.sigma_y, p.sigma_x, p.rho)


def _marginal_law(view: ViewSpec, mu: float, sigma: float, alpha: float):
    """The normal law ``N(mu1, sigma1^2)`` that an expectation, variance,
    mean-and-variance or quantile view sets for its target, whose prior law is
    ``N(mu, sigma^2)``, and the prior and view levels that a one-sided relation
    compares: ``(mu1, sigma1, prior_level, view_level)``.

    A quantile view's prior level is ``q = mu + sigma z(alpha)``. Its spread
    solves the one-dimensional marginal problem: ``sigma (t + disc) / (2k)``
    with ``disc = sqrt(t^2 + 4k)``, or for t < 0, where ``t + disc`` cancels,
    ``2 sigma / (disc - t)``, the same value since ``(t + disc)(disc - t) =
    4k``. The mean then puts the alpha-quantile at the view's level, which
    must be taken at the report's alpha.
    """
    if view.kind == "expectation":
        return view.mean, sigma, mu, view.mean
    if view.kind == "variance":
        return mu, math.sqrt(view.variance), sigma**2, view.variance
    if view.kind == "mean_and_variance":  # equality only: the levels are pairs
        return view.mean, math.sqrt(view.variance), (mu, sigma**2), (view.mean, view.variance)
    if view.quantile_level != alpha:
        raise ValueError(
            "closed-form quantile views pin the quantile at the report level; "
            f"got view level {view.quantile_level} vs alpha {alpha}"
        )
    q1 = view.quantile
    c = _check_alpha(alpha)
    q = mu + sigma * c
    t = ((q1 - q) / sigma + c) * c
    k = 1.0 + c * c
    disc = math.sqrt(t * t + 4.0 * k)
    if t < 0.0:
        sigma1 = sigma * 2.0 / (disc - t)
    else:
        sigma1 = sigma * math.sqrt(1.0 / k + t * (t + disc) / (2.0 * k * k))
    return q1 - sigma1 * c, sigma1, q, q1


def _marginal_view(p: BivariateNormalParams, view: ViewSpec, alpha: float) -> ViewOutcome:
    """CoVaR of Y under an expectation, variance, mean-and-variance or
    quantile view on X or on Y: the view sets its target's normal law
    (:func:`_marginal_law`), and the other asset keeps its prior conditional
    law. A view on Y is that update on the swapped pair (Y, X).

    The view carries no information when it restates the prior level, or
    when it targets X and rho = 0; CoVaR is then VaR exactly. CoVaR is
    affine in an expectation view's mean, and nonlinear and non-decreasing
    in a variance view's level for rho != 0.
    """
    on_y = view.target == "y"
    pair = _swap(p) if on_y else p
    mu1, sigma1, prior_level, view_level = _marginal_law(view, pair.mu_x, pair.sigma_x, alpha)
    post = _keep_conditional(pair, mu1, sigma1)
    if on_y:
        post = _swap(post)
    no_info = prior_level == view_level or (not on_y and p.rho == 0.0)
    eq = ViewOutcome(var_normal(p if no_info else post, alpha), post, no_info, "eq")
    return _collapse(view.relation, prior_level, view_level, eq, p, alpha)


def _correlation(p: BivariateNormalParams, view: ViewSpec, alpha: float) -> ViewOutcome:
    """CoVaR of Y when the posterior correlation equals / is bounded by rho1.

    At ``rho = rho1 = +-1`` the view adds nothing and CoVaR is VaR. When only
    one of the two sits at a boundary the relative entropy diverges; for
    continuity the equality expression is kept as the defined value.
    """
    rho1 = view.correlation
    c = _check_alpha(alpha)
    if abs(p.rho) == 1.0 and rho1 == p.rho:
        return ViewOutcome(var_normal(p, alpha), p, True, "boundary-collapse")
    factor = math.sqrt((1.0 - p.rho**2) / (1.0 - p.rho * rho1))
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
    return _collapse(view.relation, p.rho, rho1, eq, p, alpha)


def _bracketed_root(f, lo: float, hi: float) -> float:
    """Root of a continuous monotone function on [lo, hi], by Brent's method."""
    from scipy.optimize import brentq

    try:
        return brentq(f, lo, hi, xtol=1e-14 * (hi - lo))
    except ValueError as exc:  # f(lo) and f(hi) share a sign
        raise NumericDomainError(f"root not bracketed on [{lo:g}, {hi:g}]: {exc}") from exc


def _given_target(p: BivariateNormalParams, view: ViewSpec) -> tuple[float, float]:
    """Mean and spread of Y given that a value view's target equals its
    level: the normal conditional law given X, or the level itself on Y."""
    if view.target == "y":
        return view.value, 0.0
    mu = p.mu_y + p.rho * (view.value - p.mu_x) * p.sigma_y / p.sigma_x
    return mu, p.sigma_y * math.sqrt(1.0 - p.rho**2)


def _half_line(p: BivariateNormalParams, view: ViewSpec) -> tuple[float, float]:
    """(h, r): a half-line value view's event is {s Z <= h}, with Z its
    standardised target and s = +1 (le) or -1 (ge); r = corr(s Z, Y), which
    is s when Y conditions itself."""
    s = 1.0 if view.relation == "le" else -1.0
    if view.target == "y":
        return s * (view.value - p.mu_y) / p.sigma_y, s
    return s * (view.value - p.mu_x) / p.sigma_x, s * p.rho


def value_view_y_cdf(p: BivariateNormalParams, view: ViewSpec):
    """Posterior CDF of Y under a value view: the law of Y given the target
    at its level, or on its half-line, Pr(s Z <= h, Y <= y) / Phi(h) from
    :func:`bvn_cdf`."""
    if view.relation == "eq":
        mu, sd = _given_target(p, view)
        if sd == 0.0:
            return lambda y: 1.0 if y >= mu else 0.0
        return lambda y: norm_cdf((y - mu) / sd)
    h, r = _half_line(p, view)
    mass = norm_cdf(h)
    return lambda y: bvn_cdf(h, (y - p.mu_y) / p.sigma_y, r) / mass


def _value(p: BivariateNormalParams, view: ViewSpec, alpha: float) -> ViewOutcome:
    """CoVaR of Y conditional on the realized value of X.

    eq: X = level exactly (the conditional distribution of Y given X).
    le: X <= level; CoVaR solves Pr(Y <= y | X <= level) = alpha.
    ge: X >= level; CoVaR solves Pr(Y <= y | X >= level) = alpha.

    The half-line laws (:func:`value_view_y_cdf`) are continuous and monotone
    in y; ``brentq`` finds the root on [mu_Y - 12 sigma_Y, mu_Y + 12 sigma_Y].
    Traditional CoVaR is the eq case at level = VaR_alpha of X. A view on Y
    at a point makes Y its level; on a half-line Y conditions itself.
    """
    level, relation = view.value, view.relation
    c = _check_alpha(alpha)
    if relation == "eq":  # the target collapses to a point, outside the family
        mu, sd = _given_target(p, view)
        return ViewOutcome(mu + sd * c, None, collapsed_to_var=False, branch="eq")
    h, _ = _half_line(p, view)
    if h >= 9.0:  # conditioning event has full mass: no information
        return ViewOutcome(var_normal(p, alpha), p, True, f"{relation}-saturated")
    if h <= -9.0:  # event mass below bvn_cdf's resolution
        side = "below" if relation == "le" else "above"
        raise NumericDomainError(f"no probability mass at or {side} level {level}")
    cdf = value_view_y_cdf(p, view)
    lo, hi = p.mu_y - 12.0 * p.sigma_y, p.mu_y + 12.0 * p.sigma_y
    return ViewOutcome(_bracketed_root(lambda y: cdf(y) - alpha, lo, hi), None, False, relation)


def _relative(p: BivariateNormalParams, view: ViewSpec, alpha: float) -> ViewOutcome:
    """CoVaR of Y when the difference X - Y is believed normal with mean ``d``
    and variance ``s_sq``. Collapses to VaR when ``rho = sigma_Y / sigma_X``
    (the difference is then uninformative about Y) or when the view restates
    the prior law of X - Y.

    The view sets the law of D = X - Y and keeps Y given D, the same update
    as a marginal view on the pair (D, Y); X is rebuilt as D + Y.
    """
    d, s_sq = view.diff_mean, view.diff_variance
    sx, sy, r = p.sigma_x, p.sigma_y, p.rho
    v = sx * sx - 2.0 * r * sx * sy + sy * sy
    if v <= 0.0:
        raise NumericDomainError(
            "difference X - Y is degenerate (rho = 1 with equal spreads)"
        )
    sd = math.sqrt(v)
    pair = BivariateNormalParams(p.mu_x - p.mu_y, p.mu_y, sd, sy, _clamp_rho((r * sx - sy) / sd))
    post = _keep_conditional(pair, d, math.sqrt(s_sq))
    no_info = (d == p.mu_x - p.mu_y and s_sq == v) or r * sx == sy
    covar = var_normal(p if no_info else post, alpha)
    cov_dy = post.rho * post.sigma_x * post.sigma_y
    cov_xy = cov_dy + post.sigma_y**2
    var_x = s_sq + cov_dy + cov_xy
    if var_x <= 0.0:  # rounding can leave X = D + Y a point
        return ViewOutcome(covar, None, no_info, "eq")
    sx_post = math.sqrt(var_x)
    rho_post = _clamp_rho(cov_xy / (sx_post * post.sigma_y))
    posterior = BivariateNormalParams(d + post.mu_y, post.mu_y, sx_post, post.sigma_y, rho_post)
    return ViewOutcome(covar, posterior, no_info, "eq")


# -- dispatch -----------------------------------------------------------------

# the closed form of each view kind; "none" and "distribution" have none
_CLOSED_FORMS = {
    "expectation": _marginal_view,
    "variance": _marginal_view,
    "mean_and_variance": _marginal_view,
    "quantile": _marginal_view,
    "value": _value,
    "correlation": _correlation,
    "relative": _relative,
}


def posterior_y_cdf(prior: BivariateNormalParams, view: ViewSpec, outcome: ViewOutcome):
    """Posterior CDF of Y under one view, given its closed-form outcome; a
    pooled analytic row mixes these."""
    if outcome.posterior is not None:
        mu, sd = outcome.posterior.mu_y, outcome.posterior.sigma_y
        return lambda y: norm_cdf((y - mu) / sd)
    if view.kind != "value":
        raise NumericDomainError(
            f"cannot pool {describe(view)}: its posterior has no bivariate-normal law of Y"
        )
    return value_view_y_cdf(prior, view)


def covar_for_view(
    p: BivariateNormalParams, view: ViewSpec, alpha: float = 0.95
) -> ViewOutcome:
    """Closed-form outcome for a :class:`~epcovar.views.ViewSpec`.

    A moment or quantile view on Y sets the law of Y and keeps X given Y:
    the X-view update on the swapped pair (Y, X). An equality value view on
    Y makes Y its level; on a half-line, Y conditions itself.
    Distribution views have no closed form under a normal posterior and must
    go through scenario mode.
    """
    if view.kind == "none":
        return ViewOutcome(var_normal(p, alpha), p, True, "no-view")
    if view.kind == "distribution":
        raise ValueError("distribution views have no closed form; use scenario mode")
    return _CLOSED_FORMS[view.kind](p, view, alpha)


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
