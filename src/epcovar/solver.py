"""Minimum-relative-entropy reweighting of scenario priors under linear views.

Solves, for a panel prior ``p`` over J scenarios,

    minimize    sum_j  q_j (ln q_j - ln p_j)
    subject to  lower <= G q <= upper        (one row is the normalization)

by Lagrangian duality: the optimum has the exponential-tilt form
``q_j ∝ p_j exp(-(G^T lam)_j)`` and the dual is smooth and concave, so a
projected quasi-Newton pass (multipliers of one-sided rows are sign
constrained) followed by a Newton polish on the active rows drives the
constraint residual to tolerance. All posterior arithmetic happens in log
space; weights that would fall below the positivity floor are reported via
:class:`~epcovar.errors.DegenerateError` rather than clipped, so pathological
split-support posteriors surface instead of being masked.

Sign conventions: the reported multiplier vector has one entry per constraint
row, normalization included. Multipliers of upper-bounded rows are >= 0, of
lower-bounded rows <= 0, and complementary slackness holds within tolerance.
One-sided constraints already satisfied by the prior leave it untouched.

Refusals are decided by a property of the view, not by the rounding of the
dual iterates. When a round (one quasi-Newton pass plus the polish) fails to
at least halve the max violation, or the iteration budget runs out, a phase-I
certificate is computed: the smallest max violation any posterior on the
panel can reach with the normalization row exact (Boyd & Vandenberghe,
*Convex Optimization*, §11.4). A certificate above tolerance raises
:class:`~epcovar.errors.InfeasibleError` carrying it; a certificate within
tolerance while the iterate's weights underflow the positivity floor raises
:class:`~epcovar.errors.DegenerateError`, because the view is reachable only
as weights vanish. A solve that meets tolerance never computes it.

Every product of length J is an elementwise or ``np.einsum`` kernel, never a
BLAS call: the dual has K << J rows, and at this shape a BLAS call would wait
on a thread hand-off that costs far more than the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize

from .errors import DegenerateError, InfeasibleError
from .scenario import Probabilities, ScenarioPanel, as_weights
from .views import LinearConstraintSet

_LOG_FLOOR = math.log(1e-300)


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8           # max absolute constraint violation
    max_iter: int = 10_000
    polish_iter: int = 60       # Newton refinement steps after quasi-Newton


@dataclass(frozen=True)
class SolveReport:
    posterior: Probabilities
    multipliers: np.ndarray     # one per constraint row, normalization included
    residual: float             # max constraint violation at the posterior
    iterations: int
    entropy: float              # achieved KL divergence to the prior, in nats


def relative_entropy(post, prior) -> float:
    """KL divergence sum q ln(q/p) in nats between discrete distributions."""
    q = as_weights(post)
    p = as_weights(prior)
    if q.size != p.size:
        raise ValueError(f"length mismatch: post has {q.size}, prior has {p.size}")
    if np.any(q <= 0.0) or np.any(p <= 0.0):
        raise ValueError("relative entropy needs strictly positive weights")
    return float(np.einsum("j,j->", q, np.log(q) - np.log(p)))


def _effective_bounds(constraints: LinearConstraintSet, lam: np.ndarray) -> np.ndarray:
    """Per-row bound the dual currently prices: upper for lam >= 0, lower otherwise."""
    lo, hi = constraints.lower, constraints.upper
    b = np.where(lo == hi, lo, np.where(lam >= 0.0, hi, lo))
    # one-sided rows have only one finite side regardless of the sign of lam
    b = np.where(np.isinf(b), np.where(np.isinf(lo), hi, lo), b)
    return b


def dual_value_and_gradient(
    lam, panel: ScenarioPanel, constraints: LinearConstraintSet
) -> tuple[float, np.ndarray]:
    """Dual objective (minimization form) of the tilt problem and its gradient.

    With ``q(lam)_j = p_j exp(-(G^T lam)_j)`` (unnormalized; the normalization
    row carries its own multiplier), returns

        value    = sum_j q(lam)_j + lam . b(lam) - 1
        gradient = b(lam) - G q(lam)

    which is zero at lam = 0 with gradient ``b - G p``. The gradient vanishes
    on equality rows at the optimum. Exponents are shifted by their maximum so
    large multipliers degrade to an infinite value instead of overflowing.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (constraints.n_rows,):
        raise ValueError(f"expected {constraints.n_rows} multipliers, got {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("multipliers must be finite")
    g = constraints.matrix
    b = _effective_bounds(constraints, lam)
    exponents = np.log(panel.prior) - np.einsum("kj,k->j", g, lam)
    shift = float(exponents.max())
    scaled = np.exp(exponents - shift)
    log_z = shift + math.log(float(scaled.sum()))
    if log_z > 700.0:
        return math.inf, b - np.einsum("kj,j->k", g, scaled) * math.exp(700.0)
    q = np.exp(exponents)
    value = float(q.sum()) + float(lam @ b) - 1.0
    return value, b - np.einsum("kj,j->k", g, q)


def _split_rows(constraints: LinearConstraintSet):
    """Expand rows into (kind, bound, original index) triples, skipping the
    normalization row. Two-sided finite rows become an le/ge pair."""
    rows = []
    for k in range(constraints.n_rows):
        if k == constraints.normalization_row:
            continue
        lo, hi = constraints.lower[k], constraints.upper[k]
        if lo == hi:
            rows.append(("eq", lo, k))
        else:
            if np.isfinite(hi):
                rows.append(("le", hi, k))
            if np.isfinite(lo):
                rows.append(("ge", lo, k))
    return rows


def solve(
    panel: ScenarioPanel,
    constraints: LinearConstraintSet,
    options: SolverOptions = SolverOptions(),
) -> SolveReport:
    """Minimum-KL posterior under the compiled constraints.

    Returns a :class:`SolveReport`. Raises :class:`InfeasibleError`, carrying
    the phase-I certificate, when no posterior on the panel meets the
    constraints within ``options.tol``; raises :class:`DegenerateError` when
    they are met only with posterior mass below the positivity floor (1e-300).
    """
    log_p = np.log(panel.prior)
    split = _split_rows(constraints)
    n_dual = len(split)
    kinds = [s[0] for s in split]
    bounds_vec = np.array([s[1] for s in split], dtype=float)
    g_dual = constraints.matrix[[s[2] for s in split], :]

    def log_posterior(lam: np.ndarray) -> tuple[np.ndarray, float]:
        a = log_p - np.einsum("kj,k->j", g_dual, lam)
        shift = float(a.max())
        log_z = shift + math.log(float(np.exp(a - shift).sum()))
        return a - log_z, log_z

    def objective(lam: np.ndarray) -> tuple[float, np.ndarray]:
        # log_posterior inlined, so that each evaluation takes one exp over J
        a = log_p - np.einsum("kj,k->j", g_dual, lam)
        shift = float(a.max())
        w = np.exp(a - shift)
        total = float(w.sum())
        value = shift + math.log(total) + float(lam @ bounds_vec)
        return value, bounds_vec - np.einsum("kj,j->k", g_dual, w) / total

    iterations = 0
    lam = np.zeros(n_dual)
    if n_dual:
        box = [
            (0.0, None) if k == "le" else (None, 0.0) if k == "ge" else (None, None)
            for k in kinds
        ]
        # short quasi-Newton passes interleaved with Newton refinement: rows
        # with near-zero posterior mass (e.g. far-tail bins) make the dual
        # almost flat in some directions, where the exact-Hessian polish is
        # far more effective than further quasi-Newton iterations
        budget = options.max_iter
        violation = max_violation(constraints, panel.prior)
        certificate = None
        while True:
            res = minimize(
                objective,
                lam,
                jac=True,
                method="L-BFGS-B",
                bounds=box,
                options={"maxiter": min(budget, 400), "ftol": 1e-18, "gtol": 1e-12},
            )
            lam = res.x
            iterations += int(res.nit)
            budget -= int(res.nit)
            lam, polish_steps = _newton_polish(
                lam, kinds, bounds_vec, g_dual, log_posterior, options
            )
            iterations += polish_steps
            lp, _ = log_posterior(lam)
            previous, violation = violation, max_violation(constraints, np.exp(lp))
            if violation <= options.tol:
                break
            exhausted = budget <= 0 or int(res.nit) == 0
            if exhausted or violation > 0.5 * previous:  # out of budget, or stalled
                if certificate is None:
                    certificate = _phase_one_certificate(constraints)
                if certificate > options.tol:
                    raise InfeasibleError(
                        f"constraints unattainable: no posterior on the panel gets the "
                        f"max violation below {certificate:.3e}, above tolerance "
                        f"{options.tol:.1e}",
                        residual=certificate,
                    )
                _check_floor(lp)
            if exhausted:
                break

    lp, log_z = log_posterior(lam)
    q = np.exp(lp)  # underflow to 0.0 here only affects the residual check
    achieved = np.einsum("kj,j->k", constraints.matrix, q)
    viol = np.maximum(constraints.lower - achieved, achieved - constraints.upper)
    residual = float(max(viol.max(), 0.0))
    if residual > options.tol:
        # attainable per the certificate, but not reached within the budget
        worst = constraints.labels[int(np.argmax(viol))]
        raise InfeasibleError(
            f"constraints unattained: residual {residual:.3e} on row '{worst}' "
            f"exceeds tolerance {options.tol:.1e}",
            residual=residual,
        )
    _check_floor(lp)

    multipliers = np.zeros(constraints.n_rows)
    for (_, _, orig), value in zip(split, lam):
        multipliers[orig] += value
    multipliers[constraints.normalization_row] = log_z
    entropy = float(np.einsum("j,j->", q, lp - log_p))
    return SolveReport(
        posterior=Probabilities(q),
        multipliers=multipliers,
        residual=residual,
        iterations=iterations,
        entropy=max(entropy, 0.0),
    )


def max_violation(constraints: LinearConstraintSet, q: np.ndarray) -> float:
    """Max constraint violation of the weights ``q``, zero when all rows hold."""
    achieved = np.einsum("kj,j->k", constraints.matrix, q)
    gap = np.maximum(constraints.lower - achieved, achieved - constraints.upper)
    return float(max(gap.max(), 0.0))


def _check_floor(lp: np.ndarray) -> None:
    min_log = float(lp.min())
    if min_log < _LOG_FLOOR:
        raise DegenerateError(
            f"posterior weight underflows the positivity floor "
            f"(min log-weight {min_log:.1f})",
            min_log_weight=min_log,
        )


def _phase_one_certificate(constraints: LinearConstraintSet) -> float:
    """Smallest max violation any posterior on the panel can reach.

    Solves the phase-I linear program

        minimize t  subject to  G_k q - t <= upper_k,  lower_k - G_k q <= t,
                                sum q = 1,  q >= 0,  t >= 0

    over the non-normalization rows k, by column generation: the program is
    solved on a restricted scenario set, starting from the argmax and argmin
    scenario of each row, and the scenarios with the most negative reduced
    cost are added until none is left. The restricted programs stay small, so
    the full J-column program is never built. Returns the max violation of
    the resulting weights, normalized, on the full constraint set.
    """
    g = constraints.matrix
    keep = np.arange(constraints.n_rows) != constraints.normalization_row
    up = keep & np.isfinite(constraints.upper)
    dn = keep & np.isfinite(constraints.lower)
    if not (up.any() or dn.any()):
        return 0.0
    b_ub = np.concatenate([constraints.upper[up], -constraints.lower[dn]])
    support = np.unique(np.concatenate([g.argmax(axis=1)[keep], g.argmin(axis=1)[keep]]))
    batch = b_ub.size + 1
    while True:
        n = support.size
        cols = g[:, support]
        res = linprog(
            np.append(np.zeros(n), 1.0),
            A_ub=np.hstack([np.vstack([cols[up], -cols[dn]]), -np.ones((b_ub.size, 1))]),
            b_ub=b_ub,
            A_eq=np.append(np.ones(n), 0.0)[None, :],
            b_eq=[1.0],
            bounds=(0.0, None),
            method="highs-ds",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        if res.status != 0:  # pragma: no cover - the program is always feasible and bounded
            raise RuntimeError(f"phase-I program failed: {res.message}")
        # reduced cost of scenario j: -(sum_k G_kj (y_up_k - y_dn_k) + mu), where
        # the normalization row carries no inequality multiplier
        y = res.ineqlin.marginals
        w = np.zeros(constraints.n_rows)
        w[up] += y[: up.sum()]
        w[dn] -= y[up.sum():]
        reduced = -(np.einsum("kj,k->j", g, w) + res.eqlin.marginals[0])
        reduced[support] = 0.0
        entering = np.flatnonzero(reduced < -1e-10)
        if entering.size == 0:
            break
        order = np.argsort(reduced[entering], kind="stable")[:batch]
        support = np.union1d(support, entering[order])
    q = np.zeros(constraints.matrix.shape[1])
    q[support] = np.maximum(res.x[:-1], 0.0)
    return max_violation(constraints, q / q.sum())


def pool(posteriors, confidences) -> Probabilities:
    """Confidence-weighted mixture of per-view posteriors.

    ``confidences`` must sum to one (within 1e-10); each must lie in (0, 1),
    except that a single confidence of exactly 1 is accepted. The mixture is a
    pointwise convex combination, so it sums to one but need not satisfy any
    individual view exactly. To leave residual weight on the prior, pass the
    prior itself as one of the elements with the leftover confidence.
    """
    ps = [as_weights(p) for p in posteriors]
    c = np.asarray(confidences, dtype=float)
    if len(ps) == 0:
        raise ValueError("pool needs at least one posterior")
    if c.size != len(ps):
        raise ValueError(f"{len(ps)} posteriors but {c.size} confidences")
    sizes = {p.size for p in ps}
    if len(sizes) != 1:
        raise ValueError(f"posteriors disagree on scenario count: {sorted(sizes)}")
    if np.any(c <= 0.0) or np.any(c > 1.0):
        raise ValueError("confidences must lie in (0, 1]")
    if np.any(c == 1.0) and c.size > 1:
        raise ValueError("a confidence of exactly 1 is only valid for a single view")
    total = float(c.sum())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"confidences sum to {total!r}, expected 1")
    mixed = np.zeros(ps[0].size)
    for weight, p in zip(c, ps):
        mixed += weight * p
    return Probabilities(mixed)


def _newton_polish(lam, kinds, bounds_vec, g_dual, log_posterior, options):
    """Drive active-row residuals to machine level with exact-Hessian Newton.

    The Hessian of the dual on the active set is the posterior covariance of
    the constraint rows; a least-squares solve keeps redundant (rank-deficient)
    row sets well-behaved. One-sided multipliers are projected back onto their
    sign after every step.
    """
    lam = lam.copy()
    eq = np.array([k == "eq" for k in kinds])
    le = np.array([k == "le" for k in kinds])
    ge = np.array([k == "ge" for k in kinds])
    target = min(options.tol * 1e-4, 1e-12)

    def residual_vec(lp):
        return bounds_vec - np.einsum("kj,j->k", g_dual, np.exp(lp))

    steps = 0
    for _ in range(options.polish_iter):
        lp, _ = log_posterior(lam)
        r = residual_vec(lp)
        # r_k = b_k - (Gq)_k: negative on violated le rows, positive on violated ge rows
        active = eq | (le & ((lam > 0.0) | (r < -target))) | (ge & ((lam < 0.0) | (r > target)))
        if not active.any():
            break
        if float(np.abs(r[active]).max()) <= target:
            break
        q = np.exp(lp)
        ga = g_dual[active]
        mean = np.einsum("kj,j->k", ga, q)
        cov = np.einsum("kj,lj,j->kl", ga, ga, q) - np.outer(mean, mean)
        step, *_ = np.linalg.lstsq(cov, -r[active], rcond=None)
        base = np.abs(r[active]).max()
        scale = 1.0
        for _ in range(40):
            trial = lam.copy()
            trial[np.flatnonzero(active)] += scale * step
            trial[le] = np.maximum(trial[le], 0.0)
            trial[ge] = np.minimum(trial[ge], 0.0)
            lp_t, _ = log_posterior(trial)
            r_t = residual_vec(lp_t)
            act_t = eq | (le & ((trial > 0.0) | (r_t < -target))) | (
                ge & ((trial < 0.0) | (r_t > target))
            )
            worst = np.abs(r_t[act_t]).max() if act_t.any() else 0.0
            if worst < base or scale < 1e-8:
                lam = trial
                break
            scale *= 0.5
        steps += 1
    return lam, steps
