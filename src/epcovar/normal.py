"""Univariate and bivariate standard-normal special functions.

``bvn_cdf`` is Owen's identity (Owen, "Tables for computing bivariate normal
probabilities", Ann. Math. Statist. 27, 1956),

    Phi2(h, k; rho) = Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta,

with a_h = (k - rho h) / (h sqrt(1 - rho^2)), a_k alike, beta = 1/2 when
h k < 0, and T = ``scipy.special.owens_t`` (Patefield & Tandy, "Fast and
accurate calculation of Owen's T function", J. Stat. Softw. 5(5), 2000).
|rho| = 1 is handled exactly. The inverse CDF is ``scipy.special.ndtri``.
"""

from __future__ import annotations

import math

from scipy.special import owens_t

_SQRT2 = math.sqrt(2.0)


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
    if zx == 0.0 or zy == 0.0:
        # Phi2(0, k) = Phi(k)/2 + T(k, rho/s), symmetric in the two arguments;
        # at k = 0 it is 1/4 + asin(rho)/(2 pi), as T(0, a) = atan(a)/(2 pi)
        z = zx + zy
        return 0.5 * norm_cdf(z) + float(owens_t(z, rho / s))
    total = (
        0.5 * norm_cdf(zx) + 0.5 * norm_cdf(zy)
        - float(owens_t(zx, (zy - rho * zx) / (zx * s)))
        - float(owens_t(zy, (zx - rho * zy) / (zy * s)))
    )
    if (zx < 0.0) != (zy < 0.0):
        total -= 0.5
    return min(max(total, 0.0), 1.0)
