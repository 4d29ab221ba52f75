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

``compile_view`` lowers a view onto a scenario panel as the constraint system
``lower <= G @ p <= upper`` consumed by the entropy-pooling solver. Every
compiled set ends with the normalization row (all ones, bounds [1, 1]).

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

from dataclasses import InitVar, dataclass, field
from typing import Literal

import numpy as np

from .errors import InfeasibleViewError
from .scenario import ScenarioPanel, _freeze, moments

Kind = Literal[
    "expectation",
    "variance",
    "mean_and_variance",
    "quantile",
    "value",
    "correlation",
    "relative",
    "distribution",
    "none",
]
Relation = Literal["eq", "le", "ge"]

BIN_PROB_TOL = 1e-10
VALUE_BAND_FRACTION = 0.05  # default half-width of a value-equality band, in prior stds

_EQ_ONLY = frozenset({"mean_and_variance", "relative", "distribution", "none"})
_REL_SYMBOL = {"eq": "=", "le": "<=", "ge": ">="}


@dataclass(frozen=True)
class ViewSpec:
    """One expert view. Unused parameter fields stay ``None``."""

    kind: Kind
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
        if self.kind not in Kind.__args__:
            raise ValueError(f"unknown view kind {self.kind!r}")
        if self.relation not in _REL_SYMBOL:
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.target not in ("x", "y"):
            raise ValueError(f"target must be 'x' or 'y', got {self.target!r}")
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError(f"confidence must lie in (0, 1], got {self.confidence}")
        if self.kind in _EQ_ONLY and self.relation != "eq":
            raise ValueError(f"{self.kind} views admit only the equality relation")
        need = {
            "expectation": ("mean",),
            "variance": ("variance",),
            "mean_and_variance": ("mean", "variance"),
            "quantile": ("quantile", "quantile_level"),
            "value": ("value",),
            "correlation": ("correlation",),
            "relative": ("diff_mean", "diff_variance"),
            "distribution": ("bin_edges", "bin_probs"),
            "none": (),
        }[self.kind]
        for name in need:
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind} view requires parameter {name!r}")
        if self.variance is not None and self.variance <= 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")
        if self.diff_variance is not None and self.diff_variance <= 0.0:
            raise ValueError(f"diff_variance must be positive, got {self.diff_variance}")
        if self.kind == "quantile" and not 0.0 < self.quantile_level < 1.0:
            raise ValueError(f"quantile_level must lie in (0, 1), got {self.quantile_level}")
        if self.correlation is not None and abs(self.correlation) > 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.correlation}")
        if self.value_band is not None and self.value_band <= 0.0:
            raise ValueError(f"value_band must be positive, got {self.value_band}")
        if self.kind == "distribution":
            edges = tuple(float(e) for e in self.bin_edges)
            probs = tuple(float(p) for p in self.bin_probs)
            if len(edges) != len(probs) + 1:
                raise ValueError(
                    f"{len(probs)} bins need {len(probs) + 1} edges, got {len(edges)}"
                )
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


# -- catalog factories --------------------------------------------------------

def expectation_view(mean, relation="eq", target="x", confidence=1.0) -> ViewSpec:
    return ViewSpec("expectation", relation, target, confidence, mean=float(mean))


def variance_view(variance, relation="eq", target="x", confidence=1.0) -> ViewSpec:
    return ViewSpec("variance", relation, target, confidence, variance=float(variance))


def mean_variance_view(mean, variance, target="x", confidence=1.0) -> ViewSpec:
    return ViewSpec(
        "mean_and_variance", "eq", target, confidence,
        mean=float(mean), variance=float(variance),
    )


def quantile_view(quantile, level=0.95, relation="eq", target="x", confidence=1.0) -> ViewSpec:
    return ViewSpec(
        "quantile", relation, target, confidence,
        quantile=float(quantile), quantile_level=float(level),
    )


def value_view(value, relation="eq", target="x", confidence=1.0, band=None) -> ViewSpec:
    return ViewSpec(
        "value", relation, target, confidence,
        value=float(value), value_band=None if band is None else float(band),
    )


def correlation_view(correlation, relation="eq", confidence=1.0) -> ViewSpec:
    return ViewSpec("correlation", relation, "x", confidence, correlation=float(correlation))


def relative_view(diff_mean, diff_variance, confidence=1.0) -> ViewSpec:
    return ViewSpec(
        "relative", "eq", "x", confidence,
        diff_mean=float(diff_mean), diff_variance=float(diff_variance),
    )


def distribution_view(bin_edges, bin_probs, target="x", confidence=1.0) -> ViewSpec:
    return ViewSpec(
        "distribution", "eq", target, confidence,
        bin_edges=tuple(bin_edges), bin_probs=tuple(bin_probs),
    )


def no_view() -> ViewSpec:
    return ViewSpec("none")


# -- constraint system ---------------------------------------------------------

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
    """

    def __init__(self, capacity: int, size: int):
        self.matrix = np.empty((capacity + 1, size))
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.labels: list[str] = []

    def slot(self) -> np.ndarray:
        return self.matrix[len(self.labels)]

    def add(self, lo, hi, label: str, values=None) -> None:
        """Keep ``slot()``, or a copy of ``values``, as ``lo <= row . p <= hi``."""
        if values is not None:
            self.slot()[:] = values
        self.lower.append(float(lo))
        self.upper.append(float(hi))
        self.labels.append(label)

    def constraint_set(self) -> LinearConstraintSet:
        self.add(1.0, 1.0, "normalization", 1.0)
        return LinearConstraintSet(
            matrix=self.matrix[: len(self.labels)], lower=np.array(self.lower),
            upper=np.array(self.upper), labels=tuple(self.labels), _fresh=True,
        )


def compile_view(view: ViewSpec, panel: ScenarioPanel) -> LinearConstraintSet:
    """Lower one view onto a panel as ``lower <= G p <= upper`` rows.

    Raises :class:`InfeasibleViewError` when a required indicator row is empty
    (no scenario in the band/bin while the view puts positive mass there).
    Each branch allocates room for the most rows it can write, and computes
    each row in place in the one matrix the set holds.
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

    elif view.kind == "quantile":
        rows = _Rows(1, panel.size)
        ind = rows.slot()
        np.less_equal(loss, view.quantile, out=ind)
        if not ind.any():
            raise InfeasibleViewError(
                f"no scenario of {t} lies at or below the quantile threshold {view.quantile}"
            )
        level = view.quantile_level
        if view.relation == "eq":
            lo, hi = level, level
        elif view.relation == "le":  # q~ <= q1  <=>  Pr(L <= q1) >= level
            lo, hi = level, np.inf
        else:
            lo, hi = -np.inf, level
        # mass bounds beyond [0, 1] are vacuous but harmless
        rows.add(lo, hi, f"quantile_mass({t}<={view.quantile:g})")

    elif view.kind == "value":
        rows = _Rows(1, panel.size)
        ind = rows.slot()
        if view.relation == "eq":
            band = view.value_band
            if band is None:
                band = VALUE_BAND_FRACTION * np.sqrt(moments(loss, panel.prior)[1])
            np.logical_and(loss >= view.value - band, loss <= view.value + band, out=ind)
            label = f"value_band({t}={view.value:g}+-{band:g})"
        elif view.relation == "le":
            np.less_equal(loss, view.value, out=ind)
            label = f"value_mass({t}<={view.value:g})"
        else:
            np.greater_equal(loss, view.value, out=ind)
            label = f"value_mass({t}>={view.value:g})"
        if not ind.any():
            raise InfeasibleViewError(f"no scenario of {t} falls in the required region: {label}")
        if not ind.all():  # region covering every scenario adds no information
            rows.add(1.0, 1.0, label)

    elif view.kind == "correlation":
        rows = _Rows(5, panel.size)
        mx, vx = moments(panel.x, panel.prior)
        my, vy = moments(panel.y, panel.prior)
        sx, sy = np.sqrt(vx), np.sqrt(vy)
        if sx == 0.0 or sy == 0.0:
            raise InfeasibleViewError("correlation view needs non-degenerate prior marginals")
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
        if not diff.any():
            raise InfeasibleViewError("difference X - Y is identically zero on this panel")
        second = view.diff_variance + view.diff_mean**2
        rows.add(view.diff_mean, view.diff_mean, "mean(X-Y)")
        np.multiply(diff, diff, out=rows.slot())
        rows.add(second, second, "second_moment(X-Y)")

    elif view.kind == "distribution":
        edges, probs = view.bin_edges, view.bin_probs
        n_bins = len(probs)
        rows = _Rows(n_bins, panel.size)
        for i in range(n_bins):
            left, right = edges[i], edges[i + 1]
            ind = rows.slot()
            if i == n_bins - 1:
                np.logical_and(loss >= left, loss <= right, out=ind)
            else:
                np.logical_and(loss >= left, loss < right, out=ind)
            label = f"bin[{left:g},{right:g}{']' if i == n_bins - 1 else ')'}"
            if not ind.any():
                if probs[i] > 0.0:
                    raise InfeasibleViewError(
                        f"bin {label} holds stated probability {probs[i]} "
                        f"but no scenario of {t} falls in it"
                    )
                continue  # empty bin with zero mass is vacuous
            if ind.all() and probs[i] == 1.0:
                continue  # bin covering every scenario adds no information
            rows.add(probs[i], probs[i], label)

    elif view.kind == "none":
        rows = _Rows(0, panel.size)

    else:  # pragma: no cover - guarded by ViewSpec
        raise ValueError(f"unknown view kind {view.kind!r}")

    return rows.constraint_set()


def describe(view: ViewSpec) -> str:
    """Deterministic human-readable label for report rows."""
    t = view.target.upper()
    rel = _REL_SYMBOL[view.relation]
    if view.kind == "expectation":
        return f"mu~_{t} {rel} {view.mean:g}"
    if view.kind == "variance":
        return f"sigma~_{t}^2 {rel} {view.variance:g}"
    if view.kind == "mean_and_variance":
        return f"mu~_{t} = {view.mean:g}, sigma~_{t}^2 = {view.variance:g}"
    if view.kind == "quantile":
        return f"q~_{t}({view.quantile_level:g}) {rel} {view.quantile:g}"
    if view.kind == "value":
        return f"{t} {rel} {view.value:g}"
    if view.kind == "correlation":
        return f"rho~ {rel} {view.correlation:g}"
    if view.kind == "relative":
        return f"X - Y ~ N({view.diff_mean:g}, {view.diff_variance:g})"
    if view.kind == "distribution":
        bins = ", ".join(f"{p:g}" for p in view.bin_probs)
        return f"P({t} in bins) = [{bins}]"
    return "none (CoVaR = VaR)"


# -- (de)serialization for views config files ---------------------------------

_FIELDS = (
    "kind", "relation", "target", "confidence", "mean", "variance", "quantile",
    "quantile_level", "value", "correlation", "diff_mean", "diff_variance",
    "bin_edges", "bin_probs", "value_band",
)


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
    if "kind" not in obj:
        raise ValueError("view entry needs a 'kind' key")
    unknown = set(obj) - set(_FIELDS)
    if unknown:
        raise ValueError(f"unknown view keys: {sorted(unknown)}")
    kwargs = dict(obj)
    for name in ("bin_edges", "bin_probs"):
        if name in kwargs:
            kwargs[name] = tuple(kwargs[name])
    return ViewSpec(**kwargs)
