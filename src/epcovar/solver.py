"""Minimum-relative-entropy reweighting of scenario priors under linear views.

Solves, for a panel prior ``p`` over J scenarios,

    minimize    sum_j  q_j (ln q_j - ln p_j)
    subject to  lower <= G q <= upper        (one row is the normalization)

by Lagrangian duality: the optimum has the exponential-tilt form
``q_j ∝ p_j exp(-(G^T lam)_j)``, and the normalised dual (:func:`dual`) is a
smooth convex function of the K << J multipliers of the other rows. A damped
Newton method on the active rows, started at ``lam = 0``, minimises it; the
multipliers of one-sided rows are projected back onto their sign after every
step (Boyd & Vandenberghe, *Convex Optimization*, §9.5). All posterior
arithmetic happens in log space; weights that would fall below the positivity
floor are reported via :class:`~epcovar.errors.DegenerateError` rather than
clipped, so pathological split-support posteriors surface instead of being
masked.

Sign conventions: the reported multiplier vector has one entry per constraint
row, normalization included. Multipliers of upper-bounded rows are >= 0, of
lower-bounded rows <= 0, and complementary slackness holds within tolerance.
One-sided constraints already satisfied by the prior leave it untouched.

Refusals are decided by a property of the view, not by the rounding of the
dual iterates. When a round of Newton steps fails to at least halve the max
violation, ends because no step length reduces the residual, ends because a
step drove some weight below the positivity floor, or the iteration budget
runs out, a phase-I certificate is computed: the smallest max violation any
posterior on the panel can reach with the normalization row exact (Boyd &
Vandenberghe, §11.4). A certificate above tolerance raises
:class:`~epcovar.errors.InfeasibleError` carrying it; a certificate within
tolerance while the iterate's weights underflow the positivity floor raises
:class:`~epcovar.errors.DegenerateError`, because the view is reachable only
as weights vanish. A solve that meets tolerance never computes it. A view
attainable only on a face of the simplex (correlation 1, say) has no tilted
optimum, and its multipliers run off to infinity; stopping at the floor
refuses it within a few steps.

Every product of length J is an elementwise or ``np.einsum`` kernel, never a
BLAS call: the dual has K << J rows, and at this shape a BLAS call would wait
on a thread hand-off that costs far more than the arithmetic. The dual works
in place: one evaluation allocates two J-length arrays, the log weights
(which become ``log q``) and the shifted weights, and reads the dual rows as
a slice of the constraint matrix. Newton's line search needs only the
gradient, so the solver evaluates the Hessian lazily, at the points a step
is taken from, from those points' own weights; it has the bits an eager
evaluation would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import DegenerateError, InfeasibleError
from .scenario import Probabilities, ScenarioPanel, as_weights
from .views import LinearConstraintSet

_LOG_FLOOR = math.log(1e-300)
_ROUND = 60  # Newton steps per round; the stall test runs after each round
TOL = 1e-8  # max absolute constraint violation
MAX_ITER = 10_000  # Newton steps per solve


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
    log_ratio = np.log(q)
    return float(np.einsum("j,j->", q, np.subtract(log_ratio, np.log(p), out=log_ratio)))


def dual_rows(constraints: LinearConstraintSet):
    """Rows, bounds, signs and original row indices of the dual.

    The normalization row is left out, because :func:`dual` normalises the
    posterior itself; a two-sided finite row becomes an upper and a lower row.
    ``sign`` is +1 on upper-bounded rows (multiplier >= 0), -1 on
    lower-bounded rows (multiplier <= 0) and 0 on equality rows. When the
    dual rows are the matrix's leading rows, as for every compiled view
    (whose normalization row comes last), the rows are a read-only slice of
    the matrix rather than a copy.
    """
    picked = []
    for k in range(constraints.n_rows):
        if k == constraints.normalization_row:
            continue
        lo, hi = constraints.lower[k], constraints.upper[k]
        if lo == hi:
            picked.append((k, lo, 0))
        else:
            if np.isfinite(hi):
                picked.append((k, hi, 1))
            if np.isfinite(lo):
                picked.append((k, lo, -1))
    index = np.array([k for k, _, _ in picked], dtype=int)
    bounds = np.array([bound for _, bound, _ in picked], dtype=float)
    sign = np.array([s for _, _, s in picked], dtype=int)
    if np.array_equal(index, np.arange(index.size)):  # the leading rows: no copy
        return constraints.matrix[: index.size], bounds, sign, index
    return constraints.matrix[index], bounds, sign, index


def dual(lam, log_prior: np.ndarray, rows: np.ndarray, bounds: np.ndarray):
    """Normalised entropy-pooling dual, in minimisation form, at ``lam``.

    With ``ln q(lam) = ln p - G^T lam - ln Z(lam)`` on the dual ``rows`` G
    (see :func:`dual_rows`), returns the tuple

        value      ln Z(lam) + lam . b
        gradient   b - G q(lam)
        hessian    a function of no arguments returning Cov_q(G), the
                   posterior covariance of the rows
        log q(lam)

    The value is zero at lam = 0, and minus the entropy of the posterior at
    the optimum. Exponents are shifted by their maximum, so nothing overflows.
    ``hessian()`` computes the covariance from this point's weights and total
    on its first call, so a rejected line-search trial never pays for it;
    later calls return the same array. Two J-length arrays are allocated: the
    log weights, turned into ``log q`` in place, and the shifted weights,
    which the first call of ``hessian`` frees.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != bounds.shape:
        raise ValueError(f"expected {bounds.size} multipliers, got {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("multipliers must be finite")
    a = np.einsum("kj,k->j", rows, lam)
    np.subtract(log_prior, a, out=a)
    shift = float(a.max())
    w = np.subtract(a, shift)
    np.exp(w, out=w)
    total = float(w.sum())
    log_z = shift + math.log(total)
    mean = np.einsum("kj,j->k", rows, w) / total
    np.subtract(a, log_z, out=a)
    covariance = None

    def hessian():
        nonlocal w, covariance
        if covariance is None:  # the first call computes it, and frees the weights
            covariance, w = _covariance(rows, w, total, mean), None
        return covariance

    return log_z + float(lam @ bounds), bounds - mean, hessian, a


def _covariance(rows, w, total, mean) -> np.ndarray:
    """Covariance of the rows under the weights ``w / total`` with mean ``mean``."""
    return np.einsum("kj,lj,j->kl", rows, rows, w) / total - np.outer(mean, mean)


def solve(panel: ScenarioPanel, constraints: LinearConstraintSet) -> SolveReport:
    """Minimum-KL posterior under the compiled constraints.

    Returns a :class:`SolveReport`. Raises :class:`InfeasibleError`, carrying
    the phase-I certificate, when no posterior on the panel meets the
    constraints within ``TOL``; raises :class:`DegenerateError` when
    they are met only with posterior mass below the positivity floor (1e-300).
    """
    log_p = panel.log_prior
    rows, bounds, sign, index = dual_rows(constraints)

    def evaluate(lam):
        return dual(lam, log_p, rows, bounds)

    lam = np.zeros(bounds.size)
    point = evaluate(lam)
    iterations = 0
    if bounds.size:
        budget = MAX_ITER
        violation = max_violation(constraints, panel.prior)
        certificate = None
        while True:
            length = min(_ROUND, budget)
            lam, point, steps = _newton(lam, point, sign, evaluate, TOL, length)
            iterations += steps
            budget -= steps
            lp = point[3]
            previous, violation = violation, max_violation(constraints, np.exp(lp))
            if violation <= TOL:
                break
            # out of budget, a step crossed the floor, or no step length helped
            exhausted = budget <= 0 or steps < length
            if exhausted or violation > 0.5 * previous:  # or stalled
                if certificate is None:
                    certificate = _phase_one_certificate(constraints)
                if certificate > TOL:
                    raise InfeasibleError(
                        f"constraints unattainable: no posterior on the panel gets the "
                        f"max violation below {certificate:.3e}, above tolerance "
                        f"{TOL:.1e}",
                        residual=certificate,
                    )
                _check_floor(lp)
            if exhausted:
                break

    value, _, _, lp = point
    q = np.exp(lp)  # underflow to 0.0 here only affects the residual check
    achieved = np.einsum("kj,j->k", constraints.matrix, q)
    viol = np.maximum(constraints.lower - achieved, achieved - constraints.upper)
    residual = float(max(viol.max(), 0.0))
    if residual > TOL:
        # attainable per the certificate, but not reached: the budget ran out
        # or the line search stalled
        worst = constraints.labels[int(np.argmax(viol))]
        raise InfeasibleError(
            f"constraints unattained: residual {residual:.3e} on row '{worst}' "
            f"exceeds tolerance {TOL:.1e}",
            residual=residual,
        )
    _check_floor(lp)

    multipliers = np.zeros(constraints.n_rows)
    np.add.at(multipliers, index, lam)
    multipliers[constraints.normalization_row] = value - float(lam @ bounds)  # ln Z
    entropy = float(np.einsum("j,j->", q, np.subtract(lp, log_p, out=lp)))
    return SolveReport(
        posterior=Probabilities(q, _fresh=True),
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
    return Probabilities(mixed, _fresh=True)


def _newton(lam, point, sign, evaluate, tol, length):
    """Up to ``length`` damped Newton steps on the active rows of the dual.

    ``point`` is ``evaluate(lam)``, with the Hessian slot a function that
    computes it (see :func:`dual`); it is called only at the
    point a step is taken from, never at a line-search trial, and a rejected
    trial is freed before the next is evaluated. The Hessian on the active
    rows is their posterior covariance; a least-squares solve keeps redundant
    (rank-deficient) row sets well-behaved. One-sided multipliers are
    projected back onto their sign after every step. The step is halved until
    the largest active residual falls; when no halving makes it fall, the
    round ends. The round also ends after a step that leaves some log weight
    below ``_LOG_FLOOR``, since :func:`solve` never returns such an iterate:
    the short round sends it to the certificate. Returns the final
    multipliers, their dual evaluation and the number of steps taken.
    """
    target = min(tol * 1e-4, 1e-12)

    def active_rows(lam, r):
        # r_k = b_k - (Gq)_k: negative on violated upper rows, positive on
        # violated lower rows
        return (sign == 0) | (sign * lam > 0.0) | (sign * r < -target)

    steps = 0
    while steps < length:
        _, r, hessian, _ = point
        active = active_rows(lam, r)
        if not active.any():
            break
        base = float(np.abs(r[active]).max())
        if base <= target:
            break
        step, *_ = np.linalg.lstsq(hessian()[np.ix_(active, active)], -r[active], rcond=None)
        if not np.all(np.isfinite(step)):  # a Hessian in the denormals
            break
        for halving in range(40):
            trial = lam.copy()
            trial[active] += 0.5**halving * step
            trial[sign * trial < 0.0] = 0.0
            trial_point = evaluate(trial)
            r_t = trial_point[1]
            act_t = active_rows(trial, r_t)
            if (float(np.abs(r_t[act_t]).max()) if act_t.any() else 0.0) < base:
                break
            del trial_point  # freed before the next trial is evaluated
        else:  # no step length reduces the residual: the round ends
            break
        lam, point = trial, trial_point
        steps += 1
        if float(point[3].min()) < _LOG_FLOOR:  # solve never returns this iterate
            break
    return lam, point, steps
