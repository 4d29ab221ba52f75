"""Semantic expert views and their compilation to linear probability constraints.

A view is a statement about the posterior distribution of one asset's losses
(or about the pair), held with a confidence in (0, 1]. Supported kinds:

    expectation        posterior mean of the target equals/at-most/at-least mu
    variance           posterior variance equals/at-most/at-least a level
    mean_and_variance  both first and second moments pinned (equality only)
    quantile           posterior alpha_q-quantile relative to a threshold
    value              the loss itself equals / is below / is above a level
    correlation        posterior correlation between X and Y
    relative           X - Y has a given mean and variance (equality only)
    distribution       posterior bin probabilities over the target's support
    none               sentinel: no information, CoVaR collapses to VaR

``KINDS`` declares, once for each kind, the parameters it requires, the one
level that its "le" and "ge" relations bound (equality-only kinds have none),
whether it may target Y, and its report label; ``ViewSpec``, ``describe``,
the sensitivity scan and the closed-form dispatch read it. ``ViewSpec``
rejects a parameter that the view's kind does not read (``value_band`` is
read by value views under the equality relation only), and target Y on a
correlation, relative or none view, which take no target.

``compile_view`` lowers a view onto a scenario panel as the constraint system
``lower <= G @ p <= upper`` consumed by the entropy-pooling solver. Every
compiled set ends with the normalization row (all ones, bounds [1, 1]).

Value, quantile and distribution views state the posterior mass of regions of
the target's losses (Meucci, "Fully Flexible Views", 2008) and compile through
one list of regions. A row that reads one value c on every scenario (an empty
or a full region, or X - Y where X = Y) reads c under every posterior, which
misses bounds [lo, hi] by max(lo - c, c - hi, 0): it adds no row, and a miss
above the solver's tolerance ``TOL`` refuses the view with ``InfeasibleError``.

Compilation notes:

- Variance views pin the target mean at an anchor (default: the prior mean)
  so the second-moment row linearizes E[(L - m)^2]; the relation applies to
  the second-moment row only.
- Value equality views cannot hold a continuous-sampled panel to one atom, so
  they condition on a narrow band around the level; the half-width defaults
  to 0.05 prior standard deviations and can be overridden per view.
- Correlation views anchor both first and both second moments at prior
  values; the relation applies to the cross-moment row. Without the anchors
  the cross-moment bound could be met by mean shifts alone.
- Relative views match the first two moments of X - Y, an approximation to
  matching its full law that is exact for normal-family posteriors.
- Quantile inequality directions use the equivalence
  "q~ <= q1  iff  Pr(L <= q1) >= alpha_q".

Bins of a distribution view are half-open ``[edge_i, edge_{i+1})`` with the
last bin closed on the right.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass, field, fields
from typing import Callable, Literal, NamedTuple

import numpy as np

from .errors import DataError, InfeasibleError
from .scenario import ScenarioPanel, _freeze, moments

Relation = Literal["eq", "le", "ge"]

BIN_PROB_TOL = 1e-10
VALUE_BAND_FRACTION = 0.05  # default half-width of a value-equality band, in prior stds

_REL_SYMBOL = {"eq": "=", "le": "<=", "ge": ">="}


class ViewKind(NamedTuple):
    """What the package knows of one view kind, apart from how it compiles."""

    params: tuple[str, ...]   # the parameters a view of the kind requires
    one_sided: str | None     # the level that "le" and "ge" bound; None: equality only
    targeted: bool            # whether the view may target Y
    label: Callable[[ViewSpec, str, str], str]  # of (view, target letter, relation symbol)
    eq_params: tuple[str, ...] = ()  # optional parameters the equality relation reads


KINDS = {
    "expectation": ViewKind(("mean",), "mean", True, lambda v, t, r: f"mu~_{t} {r} {v.mean:g}"),
    "variance": ViewKind(
        ("variance",), "variance", True, lambda v, t, r: f"sigma~_{t}^2 {r} {v.variance:g}"),
    "mean_and_variance": ViewKind(
        ("mean", "variance"), None, True,
        lambda v, t, r: f"mu~_{t} = {v.mean:g}, sigma~_{t}^2 = {v.variance:g}"),
    "quantile": ViewKind(
        ("quantile", "quantile_level"), "quantile", True,
        lambda v, t, r: f"q~_{t}({v.quantile_level:g}) {r} {v.quantile:g}"),
    "value": ViewKind(
        ("value",), "value", True, lambda v, t, r: f"{t} {r} {v.value:g}", ("value_band",)),
    "correlation": ViewKind(
        ("correlation",), "correlation", False, lambda v, t, r: f"rho~ {r} {v.correlation:g}"),
    "relative": ViewKind(
        ("diff_mean", "diff_variance"), None, False,
        lambda v, t, r: f"X - Y ~ N({v.diff_mean:g}, {v.diff_variance:g})"),
    "distribution": ViewKind(
        ("bin_edges", "bin_probs"), None, True,
        lambda v, t, r: f"P({t} in bins) = [{', '.join(f'{p:g}' for p in v.bin_probs)}]"),
    "none": ViewKind((), None, False, lambda v, t, r: "none (CoVaR = VaR)"),
}


@dataclass(frozen=True)
class ViewSpec:
    """One expert view. Parameter fields its kind does not read stay ``None``;
    the confidence and each scalar parameter are checked real numbers, stored
    as ``float``."""

    kind: str
    relation: Relation = "eq"
    target: Literal["x", "y"] = "x"
    confidence: float = 1.0
    mean: float | None = None
    variance: float | None = None
    quantile: float | None = None
    quantile_level: float | None = None
    value: float | None = None
    correlation: float | None = None
    diff_mean: float | None = None
    diff_variance: float | None = None
    bin_edges: tuple[float, ...] | None = None
    bin_probs: tuple[float, ...] | None = None
    value_band: float | None = None

    def __post_init__(self):
        kind = KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if kind is None:
            raise ValueError(f"unknown view kind {self.kind!r}")
        if not isinstance(self.relation, str) or self.relation not in _REL_SYMBOL:
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.target not in ("x", "y"):
            raise ValueError(f"target must be 'x' or 'y', got {self.target!r}")
        for name in ("confidence", *_PARAMETERS):
            value = getattr(self, name)
            if name in ("bin_edges", "bin_probs") and value is not None:
                if not isinstance(value, (list, tuple, np.ndarray)):
                    raise ValueError(f"{name} must be a list of numbers")
                for v in value:
                    _check_real(f"{name} entry", v, allow_inf=name == "bin_edges")
            elif value is not None:
                _check_real(name, value)
                object.__setattr__(self, name, float(value))
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError(f"confidence must lie in (0, 1], got {self.confidence}")
        if kind.one_sided is None and self.relation != "eq":
            raise ValueError(f"{self.kind} views admit only the equality relation")
        if self.target == "y" and not kind.targeted:
            raise ValueError(f"{self.kind} views take no target, got target 'y'")
        used = kind.params + (kind.eq_params if self.relation == "eq" else ())
        for name in _PARAMETERS:
            if name in kind.params and getattr(self, name) is None:
                raise ValueError(f"{self.kind} view requires parameter {name!r}")
            if name not in used and getattr(self, name) is not None:
                under = f" under relation {self.relation!r}" if name in kind.eq_params else ""
                raise ValueError(f"{self.kind} view does not use parameter {name!r}{under}")
        for name in ("variance", "diff_variance", "value_band"):
            if (value := getattr(self, name)) is not None and value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.kind == "quantile" and not 0.0 < self.quantile_level < 1.0:
            raise ValueError(f"quantile_level must lie in (0, 1), got {self.quantile_level}")
        if self.correlation is not None and abs(self.correlation) > 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.correlation}")
        if self.kind == "distribution":
            edges = tuple(float(e) for e in self.bin_edges)
            probs = tuple(float(p) for p in self.bin_probs)
            if len(edges) != len(probs) + 1:
                raise ValueError(f"{len(probs)} bins need {len(probs) + 1} edges, got {len(edges)}")
            if len(probs) < 1:
                raise ValueError("distribution view needs at least one bin")
            if any(e1 >= e2 for e1, e2 in zip(edges, edges[1:])):
                raise ValueError("bin edges must be strictly increasing")
            if any(p < 0.0 for p in probs):
                raise ValueError("bin probabilities must be non-negative")
            if abs(sum(probs) - 1.0) > BIN_PROB_TOL:
                raise ValueError(f"bin probabilities sum to {sum(probs)!r}, expected 1")
            object.__setattr__(self, "bin_edges", edges)
            object.__setattr__(self, "bin_probs", probs)


_FIELDS = tuple(f.name for f in fields(ViewSpec))
_PARAMETERS = _FIELDS[4:]  # every field after kind, relation, target and confidence


def _check_real(name: str, value, allow_inf: bool = False) -> None:
    """Raise ValueError unless ``value`` is a real number other than a bool,
    and finite (or, with ``allow_inf``, not NaN)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        need = "must not be NaN" if allow_inf else "must be finite"
        raise ValueError(f"{name} {need}, got {value!r}")


# -- catalog factories --------------------------------------------------------

def expectation_view(mean, relation="eq", target="x", confidence=1.0) -> ViewSpec:
    return ViewSpec("expectation", relation, target, confidence, mean=mean)


def variance_view(variance, relation="eq", target="x", confidence=1.0) -> ViewSpec:
    return ViewSpec("variance", relation, target, confidence, variance=variance)


def mean_variance_view(mean, variance, target="x", confidence=1.0) -> ViewSpec:
    return ViewSpec("mean_and_variance", "eq", target, confidence, mean=mean, variance=variance)


def quantile_view(quantile, level=0.95, relation="eq", target="x", confidence=1.0) -> ViewSpec:
    return ViewSpec(
        "quantile", relation, target, confidence, quantile=quantile, quantile_level=level
    )


def value_view(value, relation="eq", target="x", confidence=1.0, band=None) -> ViewSpec:
    return ViewSpec("value", relation, target, confidence, value=value, value_band=band)


def correlation_view(correlation, relation="eq", confidence=1.0) -> ViewSpec:
    return ViewSpec("correlation", relation, "x", confidence, correlation=correlation)


def relative_view(diff_mean, diff_variance, confidence=1.0) -> ViewSpec:
    return ViewSpec(
        "relative", "eq", "x", confidence, diff_mean=diff_mean, diff_variance=diff_variance
    )


def distribution_view(bin_edges, bin_probs, target="x", confidence=1.0) -> ViewSpec:
    return ViewSpec(
        "distribution", "eq", target, confidence,
        bin_edges=tuple(bin_edges), bin_probs=tuple(bin_probs),
    )


def no_view() -> ViewSpec:
    return ViewSpec("none")


# -- constraint system ---------------------------------------------------------

TOL = 1e-8  # the max absolute constraint violation a posterior may leave


@dataclass(frozen=True)
class LinearConstraintSet:
    """Rows of ``lower <= matrix @ p <= upper`` including one normalization row."""

    matrix: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    labels: tuple[str, ...] = field(default=())
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        g, lo, hi = (_freeze(a, _fresh) for a in (self.matrix, self.lower, self.upper))
        if g.ndim != 2:
            raise ValueError("constraint matrix must be two-dimensional")
        k = g.shape[0]
        if k < 1:
            raise ValueError("constraint set needs at least one row")
        if lo.shape != (k,) or hi.shape != (k,):
            raise ValueError("bound vectors must match the matrix row count")
        if not np.all(np.isfinite(g)):
            raise ValueError("constraint matrix must be finite")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        if not (lo.max() < np.inf and hi.min() > -np.inf):  # False for a NaN bound too
            raise ValueError("bounds must not be NaN, a lower bound +inf or an upper bound -inf")
        if np.any(np.all(g == 0.0, axis=1)):
            raise ValueError("constraint rows must have at least one nonzero entry")
        norm_rows = np.flatnonzero(
            np.all(g == 1.0, axis=1) & (lo == 1.0) & (hi == 1.0)
        )
        if norm_rows.size != 1:
            raise ValueError("expected exactly one normalization row")
        labels = tuple(self.labels) if self.labels else tuple(f"row{i}" for i in range(k))
        if len(labels) != k:
            raise ValueError("labels must match the matrix row count")
        object.__setattr__(self, "matrix", g)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_norm_row", int(norm_rows[0]))

    @property
    def normalization_row(self) -> int:
        return self._norm_row

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]


def _bounds(relation: Relation, target: float) -> tuple[float, float]:
    if relation == "eq":
        return target, target
    if relation == "le":
        return -np.inf, target
    return target, np.inf


class _Rows:
    """Constraint rows written in place into one preallocated matrix.

    ``slot`` is the next free row: a caller writes into it, then ``add``
    keeps it as a constraint, or leaves it to be overwritten. The matrix has
    room for ``capacity`` rows and the normalization row, which
    ``constraint_set`` writes last.

    A row that reads one value ``c`` on every scenario reads ``c`` under every
    posterior: ``add(..., constant=c)`` records its miss instead of keeping
    it. ``shared`` is a miss that the kept rows cannot all avoid.
    """

    def __init__(self, capacity: int, size: int):
        self.matrix = np.empty((capacity + 1, size))
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.labels: list[str] = []
        self.misses: list[tuple[float, str, float]] = []  # (miss, label, c) of each constant row
        self.shared = 0.0

    def slot(self) -> np.ndarray:
        return self.matrix[len(self.labels)]

    def add(self, lo, hi, label: str, values=None, constant=None) -> None:
        """Keep ``slot()``, or a copy of ``values``, as ``lo <= row . p <= hi``;
        for a row that reads ``constant`` on every scenario, record its miss."""
        if constant is not None:
            self.misses.append((max(lo - constant, constant - hi, 0.0), label, constant))
            return
        if values is not None:
            self.slot()[:] = values
        self.lower.append(float(lo))
        self.upper.append(float(hi))
        self.labels.append(label)

    def constraint_set(self) -> LinearConstraintSet:
        """The kept rows and the normalization row. Raises :class:`InfeasibleError`
        when the largest miss, or ``shared`` if larger, exceeds ``TOL``: with the
        kept rows met otherwise, that is the exact phase-I certificate."""
        if self.misses:
            miss, label, c = max(self.misses, key=lambda m: m[0])
            certificate = max(miss, self.shared)
            if certificate > TOL:
                raise InfeasibleError(
                    f"view unattainable: row '{label}' reads {c:g} on every scenario; no "
                    f"posterior on the panel gets the max violation below {certificate:.3e}, "
                    f"above tolerance {TOL:.1e}",
                    residual=certificate,
                )
        self.add(1.0, 1.0, "normalization", 1.0)
        return LinearConstraintSet(
            matrix=self.matrix[: len(self.labels)], lower=np.array(self.lower),
            upper=np.array(self.upper), labels=tuple(self.labels), _fresh=True,
        )


def _regions(view: ViewSpec, loss: np.ndarray, prior: np.ndarray) -> list[tuple]:
    """The regions of ``loss`` whose posterior mass a value, quantile or
    distribution view states, as (left edge, right edge, right-closed, lower,
    upper, label): a region holds the losses from ``left`` up to ``right``,
    ``right`` itself only if right-closed."""
    t = view.target.upper()
    if view.kind == "value":
        v = view.value
        if view.relation == "le":
            return [(-np.inf, v, True, 1.0, 1.0, f"value_mass({t}<={v:g})")]
        if view.relation == "ge":
            return [(v, np.inf, True, 1.0, 1.0, f"value_mass({t}>={v:g})")]
        band = view.value_band
        if band is None:
            band = VALUE_BAND_FRACTION * np.sqrt(moments(loss, prior)[1])
        return [(v - band, v + band, True, 1.0, 1.0, f"value_band({t}={v:g}+-{band:g})")]
    if view.kind == "quantile":
        # q~ <= q1  <=>  Pr(L <= q1) >= level: the relation flips on the mass
        lo, hi = _bounds({"eq": "eq", "le": "ge", "ge": "le"}[view.relation], view.quantile_level)
        return [(-np.inf, view.quantile, True, lo, hi, f"quantile_mass({t}<={view.quantile:g})")]
    edges, last = view.bin_edges, len(view.bin_probs) - 1
    return [(edges[i], edges[i + 1], i == last, p, p,
             f"bin[{edges[i]:g},{edges[i + 1]:g}{']' if i == last else ')'}")
            for i, p in enumerate(view.bin_probs)]


def compile_view(view: ViewSpec, panel: ScenarioPanel) -> LinearConstraintSet:
    """Lower one view onto a panel as ``lower <= G p <= upper`` rows.

    A refusal of rows that read one value on every scenario carries the exact
    phase-I certificate: their largest miss or, when the bins of a
    distribution view hold every scenario and the k non-empty ones state
    mass S, the shared miss (1 - S) / k if larger. A correlation view on a
    constant margin raises :class:`DataError`. Each branch computes its rows
    in place in one matrix, allocated for the most rows it can write.
    """
    loss = panel.losses(view.target)
    t = view.target.upper()

    if view.kind == "expectation":
        rows = _Rows(1, panel.size)
        lo, hi = _bounds(view.relation, view.mean)
        rows.add(lo, hi, f"mean({t})", loss)

    elif view.kind in ("variance", "mean_and_variance"):
        rows = _Rows(2, panel.size)
        anchor = view.mean if view.kind == "mean_and_variance" else moments(loss, panel.prior)[0]
        second = view.variance + anchor * anchor
        rows.add(anchor, anchor, f"mean({t})", loss)
        lo, hi = _bounds(view.relation, second)
        np.multiply(loss, loss, out=rows.slot())
        rows.add(lo, hi, f"second_moment({t})")

    elif view.kind in ("value", "quantile", "distribution"):
        regions = _regions(view, loss, panel.prior)
        rows = _Rows(len(regions), panel.size)
        counts = []  # the number of scenarios in each region
        for left, right, closed, lo, hi, label in regions:
            ind = rows.slot()
            np.logical_and(loss >= left, loss <= right if closed else loss < right, out=ind)
            n = np.count_nonzero(ind)
            counts.append(n)
            rows.add(lo, hi, label, constant=None if 0 < n < loss.size else float(n > 0))
        if view.kind == "distribution" and sum(counts) == loss.size:
            # every scenario lies in a bin: the k non-empty bins hold mass 1 against their
            # stated S and miss by (1 - S) / k at best (exact unless S > 1, by ViewSpec's 1e-10)
            held = [p for p, n in zip(view.bin_probs, counts) if n]
            rows.shared = (1.0 - math.fsum(held)) / len(held)

    elif view.kind == "correlation":
        rows = _Rows(5, panel.size)
        mx, vx = moments(panel.x, panel.prior)
        my, vy = moments(panel.y, panel.prior)
        sx, sy = np.sqrt(vx), np.sqrt(vy)
        if sx == 0.0 or sy == 0.0:
            raise DataError("correlation view needs non-degenerate prior marginals")
        rows.add(mx, mx, "mean(X)", panel.x)
        rows.add(my, my, "mean(Y)", panel.y)
        np.multiply(panel.x, panel.x, out=rows.slot())
        rows.add(vx + mx * mx, vx + mx * mx, "second_moment(X)")
        np.multiply(panel.y, panel.y, out=rows.slot())
        rows.add(vy + my * my, vy + my * my, "second_moment(Y)")
        cross = view.correlation * sx * sy + mx * my
        lo, hi = _bounds(view.relation, cross)
        np.multiply(panel.x, panel.y, out=rows.slot())
        rows.add(lo, hi, "cross_moment(XY)")

    elif view.kind == "relative":
        rows = _Rows(2, panel.size)
        diff = rows.slot()
        np.subtract(panel.x, panel.y, out=diff)
        second = view.diff_variance + view.diff_mean**2
        constant = None if diff.any() else 0.0  # X - Y = 0 makes both rows read 0
        rows.add(view.diff_mean, view.diff_mean, "mean(X-Y)", constant=constant)
        np.multiply(diff, diff, out=rows.slot())
        rows.add(second, second, "second_moment(X-Y)", constant=constant)

    elif view.kind == "none":
        rows = _Rows(0, panel.size)

    else:  # pragma: no cover - guarded by ViewSpec
        raise ValueError(f"unknown view kind {view.kind!r}")

    return rows.constraint_set()


def describe(view: ViewSpec) -> str:
    """Deterministic human-readable label for report rows."""
    return KINDS[view.kind].label(view, view.target.upper(), _REL_SYMBOL[view.relation])


# -- (de)serialization for views config files ---------------------------------


def view_to_dict(view: ViewSpec) -> dict:
    out = {}
    for name in _FIELDS:
        val = getattr(view, name)
        if val is None:
            continue
        if isinstance(val, tuple):
            val = list(val)
        out[name] = val
    return out


def view_from_dict(obj: dict) -> ViewSpec:
    if not isinstance(obj, dict):
        raise ValueError("view entry must be a JSON object")
    if "kind" not in obj:
        raise ValueError("view entry needs a 'kind' key")
    unknown = set(obj) - set(_FIELDS)
    if unknown:
        raise ValueError(f"unknown view keys: {sorted(unknown)}")
    return ViewSpec(**obj)
