"""Discrete joint-loss scenarios and probability-weighted statistics.

Conventions used throughout the package:

- Positive numbers are losses. A value of 0.05 in ``unit="fraction"`` means a
  5% loss; the unit label is metadata only and never rescales anything.
- A panel stores J joint scenarios for the pair (X, Y) plus a strictly
  positive prior summing to one within ``PANEL_PROB_TOL``. Every other
  probability vector read (weights, bins, confidences) sums to one within
  ``PROB_SUM_TOL``; ``_check_sum`` is the one check, and refuses NaN.
  Posteriors (``Probabilities``) are non-negative: one conditioned on a
  region is exactly zero off it.
- Reports read quantiles with ``interpolated_quantile``, the
  mid-distribution estimator: each atom sits at the midpoint of its
  probability mass and the cumulative curve is interpolated linearly between
  atoms, which suits panels sampled from a continuous density.
  ``weighted_quantile`` gives the left-continuous generalized inverse (the
  smallest scenario value whose cumulative probability reaches alpha) for
  genuinely atomic data; it keeps Pr(value <= quantile) >= alpha exact and is
  deterministic under ties.
- A panel sorts its Y losses once, when it is built: ``ScenarioPanel.sorted_y``
  holds the stable order, the tie groups and the distinct values that every
  quantile read uses (VaR, each view, the pooled row). The order comes from
  NumPy's default (SIMD) sort, redone with ``kind="stable"`` only when two
  sorted neighbours are equal or NaN; without them the order is unique.
  ``ScenarioPanel.log_prior`` holds ``np.log(prior)`` for every solve on the
  panel.
- Scenario moments use the population convention (probabilities are exact
  weights, not sample frequencies). Their J-length products are ``np.einsum``
  kernels rather than BLAS calls, which would wait on a thread hand-off.
- ``_on_two_threads`` is the package's only threaded code: a scenario
  report's views and the pooled row's violation checks run through it, on two
  threads from ``_THREADED_MIN_SCENARIOS`` scenarios and in turn below, with
  equal results.

All types are frozen and hold read-only arrays, the sort order included;
they are safe to share across threads. They copy the arrays they
are given, except where the package hands over arrays that it has just made
and nobody else holds (``_fresh=True``): those are frozen in place.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field

import numpy as np

PANEL_PROB_TOL = 1e-12
PROB_SUM_TOL = 1e-10
# Below this panel size two threads evaluate a report's views more slowly
# than one: 1.13-1.29 times the serial time at J = 10,000 and 20,000,
# 0.83-0.94 at 50,000, 0.58-0.65 at 200,000 (2 cores).
_THREADED_MIN_SCENARIOS = 50_000


def _freeze(a: np.ndarray, fresh: bool = False) -> np.ndarray:
    """``a`` as a read-only float array: a copy, or, for a ``fresh`` float
    array that nobody else holds, ``a`` itself."""
    out = np.asarray(a, dtype=float) if fresh else np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _check_weights(w: np.ndarray, zero_ok: bool = False) -> None:
    """Raise ValueError naming the first non-finite or non-positive weight
    (with ``zero_ok``, the first non-finite or negative one)."""
    if not np.all(np.isfinite(w)):
        raise ValueError(f"non-finite weight at index {int(np.argmax(~np.isfinite(w)))}")
    bad = w < 0.0 if zero_ok else w <= 0.0
    if np.any(bad):
        what = "negative" if zero_ok else "non-positive"
        raise ValueError(f"{what} weight at index {int(np.argmax(bad))}")


def _check_sum(total: float, what: str = "weights", tol: float = PROB_SUM_TOL) -> None:
    """Raise ValueError unless ``total`` lies within ``tol`` of one (NaN does not)."""
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"{what} sum to {total!r}, expected 1 within {tol}")


def as_weights(probs) -> np.ndarray:
    """Accept a ``Probabilities`` or any array-like and return a float array."""
    return np.asarray(getattr(probs, "weights", probs), dtype=float)


@dataclass(frozen=True)
class Probabilities:
    """Non-negative probability vector over J scenarios.

    A posterior conditioned on a region is exactly zero off it; a panel's
    prior stays strictly positive (see :class:`ScenarioPanel`).
    """

    weights: np.ndarray
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        w = _freeze(np.atleast_1d(self.weights), _fresh)
        if w.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        _check_weights(w, zero_ok=True)
        _check_sum(float(w.sum()))
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class ScenarioPanel:
    """J joint loss scenarios for assets X and Y with prior probabilities.

    ``log_prior`` (``np.log(prior)``, read by every solve) and ``sorted_y``
    (read by every quantile of Y) are computed when the panel is built.
    """

    x: np.ndarray
    y: np.ndarray
    prior: np.ndarray
    unit: str = "fraction"
    _fresh: InitVar[bool] = False
    log_prior: np.ndarray = field(init=False, repr=False, compare=False)
    sorted_y: SortedLosses = field(init=False, repr=False, compare=False)

    def __post_init__(self, _fresh):
        x, y, p = (_freeze(np.atleast_1d(a), _fresh) for a in (self.x, self.y, self.prior))
        for what, arr in (("x", x), ("y", y), ("prior", p)):
            if arr.ndim != 1:
                raise ValueError(f"{what} must be one-dimensional, got shape {arr.shape}")
        if not (x.size == y.size == p.size):
            raise ValueError(
                f"length mismatch: x has {x.size}, y has {y.size}, prior has {p.size}"
            )
        if x.size < 2:
            raise ValueError("a panel needs at least two scenarios")
        for what, arr in (("x", x), ("y", y)):
            bad = ~np.isfinite(arr)
            if bad.any():
                raise ValueError(f"non-finite loss in {what} at index {int(np.argmax(bad))}")
        _check_weights(p)
        _check_sum(float(p.sum()), "prior weights", PANEL_PROB_TOL)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "prior", p)
        object.__setattr__(self, "log_prior", _freeze(np.log(p), fresh=True))
        object.__setattr__(self, "sorted_y", SortedLosses(y))

    @property
    def size(self) -> int:
        return self.x.size

    def losses(self, asset: str) -> np.ndarray:
        """Loss vector for ``asset`` in {"x", "y"}."""
        if asset not in ("x", "y"):
            raise ValueError(f"unknown asset {asset!r}, expected 'x' or 'y'")
        return self.x if asset == "x" else self.y


class SortedLosses:
    """A loss vector with its stable sort order.

    ``groups`` holds the order, a mask marking the last sorted entry of each
    tie group and the distinct values (the first of each group), as
    read-only arrays; NaNs, which sort last, form one group. The order comes
    from NumPy's default (SIMD) sort, which is the stable order when no two
    sorted neighbours are equal or NaN; otherwise the vector is sorted again
    with ``kind="stable"``. Wrap only arrays that nobody writes to
    afterwards, such as a panel's.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        order = np.argsort(self.values)
        ordered = self.values[order]
        new = ordered[1:] != ordered[:-1]  # a group starts at each True, one entry on
        if ordered.size and not (new.all() and ordered[-1] == ordered[-1]):
            # equal neighbours compare the same in either order; NaNs sort last
            order = np.argsort(self.values, kind="stable")
            ordered = self.values[order]
            new &= ordered[:-1] == ordered[:-1]  # NaN != NaN, yet NaNs form one group
        last = np.empty(order.size, dtype=bool)
        last[:-1] = new
        last[-1:] = True  # the last entry ends the last group; an empty vector has none
        uniq = ordered[np.roll(last, 1)]
        for a in (order, last, uniq):
            a.flags.writeable = False
        self.groups = order, last, uniq


def _uniform_prior(n: int) -> np.ndarray:
    return np.full(n, 1.0 / max(n, 1))  # ScenarioPanel refuses an empty panel


def build_panel(x, y, prior=None, unit: str = "fraction") -> ScenarioPanel:
    """Assemble a panel, normalizing ``prior`` or defaulting to uniform weights.

    ``prior`` entries must be strictly positive; they are rescaled to sum to
    one. Raises ValueError naming the offending index on bad input.
    """
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    if prior is None:
        p = _uniform_prior(x.size)
    else:
        p = np.asarray(prior, dtype=float)
        _check_weights(p)  # before normalizing: all-negative weights would pass after it
        p = p / p.sum()
    return ScenarioPanel(x=x, y=y, prior=p, unit=unit, _fresh=True)


def _cumulative(values, probs, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Checked quantile inputs: the distinct values and the mass up to and incl.
    each. The weights must sum to one within ``PROB_SUM_TOL``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    s = values if isinstance(values, SortedLosses) else SortedLosses(values)
    p = as_weights(probs)
    if s.values.size != p.size:
        raise ValueError(f"length mismatch: values has {s.values.size}, probs has {p.size}")
    order, last, uniq = s.groups
    cum = p[order]
    np.cumsum(cum, out=cum)
    _check_sum(float(cum[-1]) if cum.size else 0.0)
    return uniq, cum[last]


def weighted_quantile(values, probs, alpha: float) -> float:
    """Left-continuous alpha-quantile of a weighted atomic distribution.

    Returns the smallest value whose cumulative probability (in value order)
    reaches ``alpha``. ``values`` may be a :class:`SortedLosses`, such as
    ``panel.sorted_y``.
    """
    uniq, cum_at = _cumulative(values, probs, alpha)
    idx = int(np.searchsorted(cum_at, alpha, side="left"))
    return float(uniq[min(idx, uniq.size - 1)])  # alpha may pass the total mass by float noise


def interpolated_quantile(values, probs, alpha: float) -> float:
    """Mid-distribution interpolated alpha-quantile.

    Each atom is treated as the midpoint of its probability mass and the
    cumulative curve is linearly interpolated between atoms. On panels sampled
    or gridded from a continuous density this removes the O(grid spacing)
    snapping of the atomic estimator; on genuinely atomic data prefer
    ``weighted_quantile``.

    ``values`` may be a :class:`SortedLosses`, such as ``panel.sorted_y``,
    whose sort is then not redone.
    """
    uniq, cum_at = _cumulative(values, probs, alpha)
    mid = np.diff(np.concatenate(([0.0], cum_at)))  # the mass of each value
    np.divide(mid, 2.0, out=mid)
    np.subtract(cum_at, mid, out=mid)
    return float(np.interp(alpha, mid, uniq))


def moments(values, probs) -> tuple[float, float]:
    """Probability-weighted mean and population variance; the weights sum to one."""
    v = np.asarray(values, dtype=float)
    p = as_weights(probs)
    if v.size != p.size:
        raise ValueError(f"length mismatch: values has {v.size}, probs has {p.size}")
    _check_sum(float(p.sum()))
    mean = float(np.einsum("j,j->", p, v))
    dev = v - mean
    var = float(np.einsum("j,j,j->", p, dev, dev))
    return mean, var


def _on_two_threads(fn, items, scenarios: int) -> list:
    """``[fn(item) for item in items]``, with the results in the order of
    ``items``, for work on a panel of ``scenarios`` scenarios.

    From ``_THREADED_MIN_SCENARIOS`` scenarios and two items, the items run
    on the calling thread and one worker thread; otherwise they run in turn.
    Each thread takes the next item in order until none is left, and runs
    every item it takes. When an item raises, the threads stop taking items,
    and the exception of the first failing item in order is raised: every
    earlier item has been taken and run, so it is the exception the serial
    loop would raise. The worker thread has ended when this returns or
    raises.
    """
    items = tuple(items)
    if len(items) < 2 or scenarios < _THREADED_MIN_SCENARIOS:
        return [fn(item) for item in items]
    results = [None] * len(items)
    failures: dict[int, Exception] = {}
    stop = threading.Event()
    claims = itertools.count()  # next() on it is atomic, so each index is taken once

    def work() -> None:
        while not stop.is_set():  # tested before a claim: a claimed item is always run
            i = next(claims)
            if i >= len(items):
                return
            try:
                results[i] = fn(items[i])
            except Exception as exc:  # re-raised below, on the calling thread
                failures[i] = exc
                stop.set()
                return

    with ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(work)
        try:
            work()
        finally:
            stop.set()  # an interrupted calling thread stops the worker too
        worker.result()
    if failures:
        raise failures[min(failures)]
    return results
