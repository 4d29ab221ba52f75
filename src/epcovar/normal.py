"""Univariate and bivariate standard-normal special functions.

``bvn_cdf`` reduces the rectangle probability to a single integral of the
conditional normal CDF and evaluates it with adaptive quadrature to ~1e-12
absolute, well inside the 1e-10 target; the degenerate correlations
|rho| = 1 are handled exactly. The package takes the inverse CDF from
``scipy.special.ndtri``.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_pdf(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def bvn_cdf(zx: float, zy: float, rho: float) -> float:
    """Standard bivariate normal rectangle probability Pr(ZX <= zx, ZY <= zy)."""
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
