"""Discrete joint-loss scenarios and probability-weighted statistics.

Conventions used throughout the package:

- Positive numbers are losses. A value of 0.05 in ``unit="fraction"`` means a
  5% loss; the unit label is metadata only and never rescales anything.
- A panel stores J joint scenarios for the pair (X, Y) plus a strictly
  positive prior probability vector summing to one.
- Reports read quantiles with ``interpolated_quantile``, the
  mid-distribution estimator: each atom sits at the midpoint of its
  probability mass and the cumulative curve is interpolated linearly between
  atoms, which suits panels sampled from a continuous density.
  ``weighted_quantile`` gives the left-continuous generalized inverse (the
  smallest scenario value whose cumulative probability reaches alpha) for
  genuinely atomic data; it keeps Pr(value <= quantile) >= alpha exact and is
  deterministic under ties.
- A panel sorts its Y losses once: ``ScenarioPanel.sorted_y`` holds the
  stable order, the tie groups and the distinct values, computed on the
  first quantile read and reused by every later one (VaR, each view, the
  pooled row). ``ScenarioPanel.log_prior`` caches ``np.log(prior)`` for
  every solve on the panel in the same way.
- Scenario moments use the population convention (probabilities are exact
  weights, not sample frequencies). Their J-length products are ``np.einsum``
  kernels rather than BLAS calls, which would wait on a thread hand-off.

All types are frozen and hold read-only arrays, the cached sort order
included; they are safe to share across threads. They copy the arrays they
are given, except where the package hands over arrays that it has just made
and nobody else holds (``_fresh=True``): those are frozen in place.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

PANEL_PROB_TOL = 1e-12
PROB_SUM_TOL = 1e-10


def _freeze(a: np.ndarray, fresh: bool = False) -> np.ndarray:
    """``a`` as a read-only float array: a copy, or, for a ``fresh`` float
    array that nobody else holds, ``a`` itself."""
    out = np.asarray(a, dtype=float) if fresh else np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def as_weights(probs) -> np.ndarray:
    """Accept a ``Probabilities`` or any array-like and return a float array."""
    return np.asarray(getattr(probs, "weights", probs), dtype=float)


@dataclass(frozen=True)
class Probabilities:
    """Strictly positive probability vector over J scenarios."""

    weights: np.ndarray
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        w = _freeze(np.atleast_1d(self.weights), _fresh)
        if w.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w <= 0.0):
            idx = int(np.argmax(w <= 0.0))
            raise ValueError(f"non-positive weight at index {idx}")
        total = float(w.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {PROB_SUM_TOL}")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class ScenarioPanel:
    """J joint loss scenarios for assets X and Y with prior probabilities."""

    x: np.ndarray
    y: np.ndarray
    prior: np.ndarray
    unit: str = "fraction"
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        x, y, p = (_freeze(np.atleast_1d(a), _fresh) for a in (self.x, self.y, self.prior))
        if not (x.size == y.size == p.size):
            raise ValueError(
                f"length mismatch: x has {x.size}, y has {y.size}, prior has {p.size}"
            )
        if x.size < 2:
            raise ValueError("a panel needs at least two scenarios")
        for name, arr in (("x", x), ("y", y)):
            bad = ~np.isfinite(arr)
            if bad.any():
                raise ValueError(f"non-finite loss in {name} at index {int(np.argmax(bad))}")
        if np.any(p <= 0.0):
            raise ValueError(f"non-positive weight at index {int(np.argmax(p <= 0.0))}")
        total = float(p.sum())
        if abs(total - 1.0) > PANEL_PROB_TOL:
            raise ValueError(f"prior sums to {total!r}, expected 1 within {PANEL_PROB_TOL}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "prior", p)

    @property
    def size(self) -> int:
        return self.x.size

    def losses(self, asset: str) -> np.ndarray:
        """Loss vector for ``asset`` in {"x", "y"}."""
        if asset not in ("x", "y"):
            raise ValueError(f"unknown asset {asset!r}, expected 'x' or 'y'")
        return self.x if asset == "x" else self.y

    @cached_property
    def log_prior(self) -> np.ndarray:
        """``np.log(prior)``, computed on first use and read-only."""
        return _freeze(np.log(self.prior), fresh=True)

    @cached_property
    def sorted_y(self) -> SortedLosses:
        """Y losses whose sort order ``interpolated_quantile`` computes once."""
        return SortedLosses(self.y)


class SortedLosses:
    """A loss vector with its stable sort order, computed on first use.

    ``groups`` holds the order, a mask marking the last sorted entry of each
    tie group and the distinct values, as read-only arrays. Wrap only arrays
    that nobody writes to afterwards, such as a panel's.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    @cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        order = np.argsort(self.values, kind="stable")
        uniq, start = np.unique(self.values[order], return_index=True)
        last = np.zeros(order.size, dtype=bool)
        last[start[1:] - 1] = True
        last[-1] = True
        for a in (order, last, uniq):
            a.flags.writeable = False
        return order, last, uniq


def _uniform_prior(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def build_panel(x, y, prior=None, unit: str = "fraction") -> ScenarioPanel:
    """Assemble a panel, normalizing ``prior`` or defaulting to uniform weights.

    ``prior`` entries must be strictly positive; they are rescaled to sum to
    one. Raises ValueError naming the offending index on bad input.
    """
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: x has {x.size}, y has {y.size}")
    if prior is None:
        p = _uniform_prior(x.size)
    else:
        p = np.asarray(prior, dtype=float)
        if p.size != x.size:
            raise ValueError(f"length mismatch: prior has {p.size}, losses have {x.size}")
        if not np.all(np.isfinite(p)):
            raise ValueError(f"non-finite weight at index {int(np.argmax(~np.isfinite(p)))}")
        if np.any(p <= 0.0):
            raise ValueError(f"non-positive weight at index {int(np.argmax(p <= 0.0))}")
        p = p / p.sum()
    return ScenarioPanel(x=x, y=y, prior=p, unit=unit, _fresh=True)


def _sorted_cumulative(values, probs):
    v = np.asarray(values, dtype=float)
    p = as_weights(probs)
    if v.size != p.size:
        raise ValueError(f"length mismatch: values has {v.size}, probs has {p.size}")
    order = np.argsort(v, kind="stable")
    return v[order], np.cumsum(p[order])


def weighted_quantile(values, probs, alpha: float) -> float:
    """Left-continuous alpha-quantile of a weighted atomic distribution.

    Returns the smallest value whose cumulative probability (in value order)
    reaches ``alpha``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    v, cum = _sorted_cumulative(values, probs)
    idx = int(np.searchsorted(cum, alpha, side="left"))
    if idx >= v.size:  # alpha above total mass by float noise
        idx = v.size - 1
    return float(v[idx])


def interpolated_quantile(values, probs, alpha: float) -> float:
    """Mid-distribution interpolated alpha-quantile.

    Each atom is treated as the midpoint of its probability mass and the
    cumulative curve is linearly interpolated between atoms. On panels sampled
    or gridded from a continuous density this removes the O(grid spacing)
    snapping of the atomic estimator; on genuinely atomic data prefer
    ``weighted_quantile``.

    ``values`` may be a :class:`SortedLosses`, such as ``panel.sorted_y``;
    its sort is then done on the first call only.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    s = values if isinstance(values, SortedLosses) else SortedLosses(values)
    p = as_weights(probs)
    if s.values.size != p.size:
        raise ValueError(f"length mismatch: values has {s.values.size}, probs has {p.size}")
    order, last, uniq = s.groups
    cum = p[order]
    cum_at = np.cumsum(cum, out=cum)[last]  # mass up to and incl. each value
    del cum
    mid = np.diff(np.concatenate(([0.0], cum_at)))  # the mass of each value
    np.divide(mid, 2.0, out=mid)
    np.subtract(cum_at, mid, out=mid)
    return float(np.interp(alpha, mid, uniq))


def moments(values, probs) -> tuple[float, float]:
    """Probability-weighted mean and population variance."""
    v = np.asarray(values, dtype=float)
    p = as_weights(probs)
    if v.size != p.size:
        raise ValueError(f"length mismatch: values has {v.size}, probs has {p.size}")
    mean = float(np.einsum("j,j->", p, v))
    dev = v - mean
    var = float(np.einsum("j,j,j->", p, dev, dev))
    return mean, var
