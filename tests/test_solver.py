"""Entropy-pooling solver: duality, oracles, and degeneracy surfacing.

Oracles used here, all independent of the solver's own dual path:
- a scalar bisection on the one-dimensional exponential tilt for the
  two-scenario mean constraint;
- central finite differences for the dual gradient and Hessian;
- a dense simplex grid (J <= 3) and a primal SLSQP multi-start (J <= 6)
  for global KL minimality;
- the dual written with a fresh temporary per step and an eager Hessian,
  which the in-place dual must match bit for bit.
"""

import math

import numpy as np
import pytest

from _oracles import brute_force_min_kl, temporaries_dual, tilt_mean_by_bisection
from epcovar import solver as solver_mod
from epcovar.errors import DegenerateError, InfeasibleError
from epcovar.scenario import Probabilities, build_panel
from epcovar.solver import TOL, dual, dual_rows, pool, relative_entropy, solve
from epcovar.views import (
    LinearConstraintSet,
    compile_view,
    correlation_view,
    distribution_view,
    expectation_view,
    mean_variance_view,
    no_view,
    quantile_view,
    relative_view,
    value_view,
    variance_view,
)


def _calls(monkeypatch, name):
    """Record each call of ``solver.<name>`` and its result."""
    results = []
    real = getattr(solver_mod, name)

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(solver_mod, name, recording)
    return results


def _t5_panel(seed, size):
    """A t(5) pair with correlation 0.6, seeded."""
    rng = np.random.default_rng(seed)
    x = rng.standard_t(5, size=size)
    return build_panel(x, 0.6 * x + 0.8 * rng.standard_t(5, size=size))


class TestRelativeEntropy:
    def test_identity_is_zero(self):
        assert relative_entropy([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_frozen_two_point_value(self):
        # 0.25 ln 0.5 + 0.75 ln 1.5, evaluated independently
        want = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        got = relative_entropy([0.25, 0.75], [0.5, 0.5])
        assert abs(got - want) < 1e-15
        assert abs(got - 0.130812035941137) < 1e-12

    def test_asymmetry(self):
        # note: a swapped two-point pair like (0.75, 0.25) vs (0.25, 0.75) is
        # exchange-symmetric and has EQUAL divergences both ways; a generic
        # pair does not
        fwd = relative_entropy([0.7, 0.3], [0.4, 0.6])
        rev = relative_entropy([0.4, 0.6], [0.7, 0.3])
        assert fwd != rev
        sym = relative_entropy([0.75, 0.25], [0.25, 0.75])
        assert sym == relative_entropy([0.25, 0.75], [0.75, 0.25])

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            j = int(rng.integers(2, 12))
            a = rng.uniform(0.05, 1.0, j)
            b = rng.uniform(0.05, 1.0, j)
            assert relative_entropy(a / a.sum(), b / b.sum()) >= 0.0

    def test_guards(self):
        with pytest.raises(ValueError, match="length mismatch"):
            relative_entropy([1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="positive"):
            relative_entropy([1.0, 0.0], [0.5, 0.5])


class TestTwoPointTilt:
    def setup_method(self):
        self.panel = build_panel([0.0, 1.0], [0.0, 1.0])
        self.cs = compile_view(expectation_view(0.75), self.panel)

    def test_matches_bisection_oracle(self):
        oracle, t = tilt_mean_by_bisection(self.panel.x, self.panel.prior, 0.75)
        np.testing.assert_allclose(oracle, [0.25, 0.75], atol=1e-12)
        assert abs(math.exp(t) - 3.0) < 1e-9
        rep = solve(self.panel, self.cs)
        np.testing.assert_allclose(rep.posterior.weights, oracle, atol=1e-10)
        # the reported mean-row multiplier is the tilt with the sign flipped
        assert abs(rep.multipliers[0] + t) < 1e-9

    def test_gradient_vanishes_at_optimum(self):
        rep = solve(self.panel, self.cs)
        rows, bounds, _, index = dual_rows(self.cs)
        _, grad, _, _ = dual(rep.multipliers[index], np.log(self.panel.prior), rows, bounds)
        assert grad.shape == (1,)  # the normalization row is not a dual row
        assert abs(grad[0]) < 1e-10

    def test_entropy_matches_direct_evaluation(self):
        rep = solve(self.panel, self.cs)
        want = relative_entropy(rep.posterior, self.panel.prior)
        assert abs(rep.entropy - want) < 1e-14


class TestDualValueAndGradient:
    @staticmethod
    def _dual(lam, panel, cs):
        rows, bounds, _, _ = dual_rows(cs)
        value, grad, _, _ = dual(lam, np.log(panel.prior), rows, bounds)
        return value, grad

    def test_at_zero_multipliers(self):
        panel = build_panel([0.0, 1.0], [0.0, 1.0])
        cs = compile_view(expectation_view(0.75), panel)
        value, grad = self._dual(np.zeros(1), panel, cs)
        assert value == 0.0
        np.testing.assert_allclose(grad, [0.75 - 0.5], atol=1e-15)

    def _random_system(self, rng):
        j = int(rng.integers(3, 9))
        panel = build_panel(
            rng.normal(size=j), rng.normal(size=j), rng.uniform(0.2, 1.0, j)
        )
        rows = [rng.normal(size=j)]
        lows = [float(rng.normal())]
        highs = [lows[0]]
        if rng.integers(0, 2):  # add a one-sided row
            rows.append(rng.normal(size=j))
            if rng.integers(0, 2):
                lows.append(-np.inf)
                highs.append(float(rng.normal()))
            else:
                lows.append(float(rng.normal()))
                highs.append(np.inf)
        rows.append(np.ones(j))
        lows.append(1.0)
        highs.append(1.0)
        cs = LinearConstraintSet(np.vstack(rows), np.array(lows), np.array(highs))
        return panel, cs

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(99)
        h = 1e-6
        for _ in range(20):
            panel, cs = self._random_system(rng)
            _, _, sign, index = dual_rows(cs)
            lam = rng.normal(scale=0.5, size=cs.n_rows)[index]
            # keep one-sided multipliers strictly inside the sign region the
            # solver searches
            lam = np.where(sign == 0, lam, sign * (np.abs(lam) + 0.1))
            _, grad = self._dual(lam, panel, cs)
            for k in range(lam.size):
                e = np.zeros(lam.size)
                e[k] = h
                up, _ = self._dual(lam + e, panel, cs)
                dn, _ = self._dual(lam - e, panel, cs)
                fd = (up - dn) / (2 * h)
                assert abs(fd - grad[k]) <= 1e-6, (k, fd, grad[k])

    def test_hessian_matches_central_differences_of_the_gradient(self):
        rng = np.random.default_rng(98)
        h = 1e-6
        for _ in range(20):
            panel, cs = self._random_system(rng)
            rows, bounds, _, _ = dual_rows(cs)
            log_p = np.log(panel.prior)
            lam = rng.normal(scale=0.5, size=bounds.size)
            hessian = dual(lam, log_p, rows, bounds)[2]()
            for k in range(lam.size):
                e = np.zeros(lam.size)
                e[k] = h
                up = dual(lam + e, log_p, rows, bounds)[1]
                dn = dual(lam - e, log_p, rows, bounds)[1]
                np.testing.assert_allclose((up - dn) / (2 * h), hessian[:, k], atol=1e-6)

    def test_guards(self):
        panel = build_panel([0.0, 1.0], [0.0, 1.0])
        cs = compile_view(expectation_view(0.75), panel)
        with pytest.raises(ValueError, match="multipliers"):
            self._dual(np.zeros(3), panel, cs)
        with pytest.raises(ValueError, match="finite"):
            self._dual(np.array([np.nan]), panel, cs)


def _read_only(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class TestLeanDual:
    """The in-place dual against the dual written with temporaries."""

    @staticmethod
    def _bits(point):
        value, grad, hessian, log_q = point
        return (np.float64(value).tobytes(), grad.tobytes(), hessian.tobytes(), log_q.tobytes())

    def test_matches_the_temporaries_oracle_bit_for_bit(self):
        rng = np.random.default_rng(1201)
        for size in (2, 3, 50, 1_000, 20_000):
            for k in range(1, 6):
                prior = rng.uniform(0.1, 1.0, size)
                log_prior = _read_only(np.log(prior / prior.sum()))
                rows = rng.standard_normal((k, size))
                rows[rng.random((k, size)) < 0.3] = 0.0  # some indicator-like sparsity
                rows = _read_only(rows)
                bounds = rng.standard_normal(k)
                kept = (log_prior.copy(), rows.copy(), bounds.copy())
                for scale in (0.0, 0.1, 3.0, 40.0):
                    lam = scale * rng.standard_normal(k)
                    lam_kept = lam.copy()
                    want = self._bits(temporaries_dual(lam, log_prior, rows, bounds))
                    value, grad, hessian, log_q = dual(lam, log_prior, rows, bounds)
                    first = hessian()
                    assert hessian() is first  # computed once
                    assert self._bits((value, grad, first, log_q)) == want, (size, k, scale)
                    assert lam.tobytes() == lam_kept.tobytes()
                for before, after in zip(kept, (log_prior, rows, bounds)):
                    assert before.tobytes() == after.tobytes()
                assert not log_prior.flags.writeable and not rows.flags.writeable

    def test_dual_rows_are_a_slice_when_they_lead_the_matrix(self):
        panel = _t5_panel(3, 500)
        cs = compile_view(mean_variance_view(0.1, 1.5), panel)
        rows, _, _, index = dual_rows(cs)
        assert index.tolist() == [0, 1]
        assert np.shares_memory(rows, cs.matrix) and not rows.flags.writeable
        assert rows.tobytes() == cs.matrix[index].tobytes()
        # a two-sided finite row becomes an upper and a lower row: a copy
        g = np.vstack([panel.x, np.ones(panel.size)])
        band = LinearConstraintSet(g, np.array([0.0, 1.0]), np.array([0.2, 1.0]))
        rows, _, sign, index = dual_rows(band)
        assert index.tolist() == [0, 0] and sign.tolist() == [1, -1]
        assert not np.shares_memory(rows, band.matrix)
        assert rows.tobytes() == band.matrix[index].tobytes()

    def test_hessian_only_where_a_step_is_taken(self, monkeypatch):
        # a correlation view at 0.95 rejects line-search trials on this panel
        panel = _t5_panel(5, 1000)
        cs = compile_view(correlation_view(0.95), panel)
        evaluations = _calls(monkeypatch, "dual")
        hessians = _calls(monkeypatch, "_covariance")
        rep = solve(panel, cs)
        rejected = len(evaluations) - 1 - rep.iterations
        assert rejected > 0
        assert len(hessians) == rep.iterations  # one at the origin of each step
        monkeypatch.undo()

        def eager(lam, log_prior, rows, bounds):
            value, grad, hessian, log_q = temporaries_dual(lam, log_prior, rows, bounds)
            return value, grad, lambda: hessian, log_q

        monkeypatch.setattr(solver_mod, "dual", eager)
        want = solve(panel, cs)
        assert rep.posterior.weights.tobytes() == want.posterior.weights.tobytes()
        assert rep.multipliers.tobytes() == want.multipliers.tobytes()
        assert (repr(rep.residual), rep.iterations, repr(rep.entropy)) == (
            repr(want.residual), want.iterations, repr(want.entropy))

    def test_posterior_is_read_only(self):
        panel = _t5_panel(3, 500)
        rep = solve(panel, compile_view(expectation_view(0.2), panel))
        assert not rep.posterior.weights.flags.writeable


class TestSolve:
    def test_normalization_only_returns_prior(self):
        panel = build_panel([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        rep = solve(panel, compile_view(no_view(), panel))
        np.testing.assert_allclose(rep.posterior.weights, panel.prior, atol=1e-15)
        assert rep.entropy == 0.0

    def test_slack_inequality_returns_prior(self):
        # prior mean already satisfies the one-sided view: no new information
        panel = build_panel([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        rep = solve(panel, compile_view(expectation_view(1.0, relation="ge"), panel))
        tv = 0.5 * np.abs(rep.posterior.weights - panel.prior).sum()
        assert tv <= 1e-10

    def test_min_kl_against_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            j = int(rng.integers(2, 7))
            panel = build_panel(
                rng.normal(size=j), rng.normal(size=j), rng.uniform(0.2, 1.0, j)
            )
            lo_x, hi_x = panel.x.min(), panel.x.max()
            target = float(rng.uniform(lo_x + 0.2 * (hi_x - lo_x), hi_x - 0.2 * (hi_x - lo_x)))
            cs = compile_view(expectation_view(target), panel)
            rep = solve(panel, cs)
            oracle = brute_force_min_kl(panel, cs)
            assert rep.entropy <= oracle + 1e-6, (trial, rep.entropy, oracle)

    def test_feasibility_on_every_successful_solve(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            j = int(rng.integers(4, 40))
            panel = build_panel(rng.normal(size=j), rng.normal(size=j))
            choice = rng.integers(0, 3)
            if choice == 0:
                q = float(np.quantile(panel.x, rng.uniform(0.2, 0.8)))
                view = quantile_view(q, level=float(rng.uniform(0.2, 0.8)))
            elif choice == 1:
                view = expectation_view(float(np.quantile(panel.x, 0.6)))
            else:
                view = expectation_view(float(np.quantile(panel.x, 0.3)), relation="le")
            cs = compile_view(view, panel)
            rep = solve(panel, cs)
            achieved = cs.matrix @ rep.posterior.weights
            assert np.all(achieved >= cs.lower - TOL)
            assert np.all(achieved <= cs.upper + TOL)

    def test_redundant_constraint_changes_nothing(self):
        rng = np.random.default_rng(17)
        panel = build_panel(rng.normal(size=12), rng.normal(size=12))
        target = float(np.quantile(panel.x, 0.7))
        cs = compile_view(expectation_view(target), panel)
        doubled = LinearConstraintSet(
            np.vstack([cs.matrix[0], cs.matrix]),
            np.concatenate([[cs.lower[0]], cs.lower]),
            np.concatenate([[cs.upper[0]], cs.upper]),
        )
        base = solve(panel, cs).posterior.weights
        dup = solve(panel, doubled).posterior.weights
        assert 0.5 * np.abs(base - dup).sum() <= 1e-8

    def test_posterior_log_ratio_is_affine_in_rows(self):
        rng = np.random.default_rng(53)
        panel = build_panel(rng.normal(size=30), rng.normal(size=30))
        cs = compile_view(quantile_view(float(np.quantile(panel.x, 0.5)), 0.7), panel)
        rep = solve(panel, cs)
        log_ratio = np.log(rep.posterior.weights) - np.log(panel.prior)
        design = np.vstack([cs.matrix, np.ones(panel.size)]).T
        _, residuals, *_ = np.linalg.lstsq(design, log_ratio, rcond=None)
        resid = residuals[0] if residuals.size else float(
            np.sum((design @ np.linalg.lstsq(design, log_ratio, rcond=None)[0] - log_ratio) ** 2)
        )
        assert resid <= 1e-8

    def test_one_sided_multiplier_signs_and_slackness(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            j = int(rng.integers(5, 30))
            panel = build_panel(rng.normal(size=j), rng.normal(size=j))
            relation = "le" if rng.integers(0, 2) else "ge"
            target = float(np.quantile(panel.x, rng.uniform(0.2, 0.8)))
            cs = compile_view(expectation_view(target, relation=relation), panel)
            rep = solve(panel, cs)
            lam = rep.multipliers[0]
            achieved = float(cs.matrix[0] @ rep.posterior.weights)
            if relation == "le":
                assert lam >= 0.0
                slack = cs.upper[0] - achieved
            else:
                assert lam <= 0.0
                slack = achieved - cs.lower[0]
            assert abs(lam * slack) <= 1e-6

    def test_infeasible_mean_raises_with_certificate(self):
        panel = build_panel([0.0, 1.0], [0.0, 1.0])
        cs = compile_view(expectation_view(5.0), panel)
        with pytest.raises(InfeasibleError) as err:
            solve(panel, cs)
        assert err.value.residual > 0.1

    def test_conflicting_rows_raise(self):
        panel = build_panel([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        g = np.vstack([panel.x, panel.x, np.ones(3)])
        cs = LinearConstraintSet(
            g, np.array([0.5, 1.5, 1.0]), np.array([0.5, 1.5, 1.0])
        )
        with pytest.raises(InfeasibleError):
            solve(panel, cs)

    def test_conflicting_rows_certificate_is_the_attainable_minimum(self):
        # mean rows 0.5 and 1.5 can both be missed by no less than 0.5, at
        # any posterior with mean 1
        panel = build_panel([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        g = np.vstack([panel.x, panel.x, np.ones(3)])
        cs = LinearConstraintSet(
            g, np.array([0.5, 1.5, 1.0]), np.array([0.5, 1.5, 1.0])
        )
        with pytest.raises(InfeasibleError) as err:
            solve(panel, cs)
        assert abs(err.value.residual - 0.5) <= 1e-12

    def test_infeasible_mean_certificate_is_exact(self):
        # no posterior on {0, 1} has a mean above 1, so the best miss is 5 - 1
        panel = build_panel([0.0, 1.0], [0.0, 1.0])
        cs = compile_view(expectation_view(5.0), panel)
        with pytest.raises(InfeasibleError) as err:
            solve(panel, cs)
        assert err.value.residual == 4.0

    def test_view_met_only_as_weights_underflow_is_degenerate(self, monkeypatch):
        # a mean of exactly 700 needs all mass on the last scenario; within
        # tolerance, the weight of x = 0 is below exp(-1e6)
        panel = build_panel([0.0, 699.999, 700.0], [0.0, 0.0, 0.0])
        cs = compile_view(expectation_view(700.0), panel)
        certificates = _calls(monkeypatch, "_phase_one_certificate")
        with pytest.raises(DegenerateError) as err:
            solve(panel, cs)
        assert err.value.min_log_weight < math.log(1e-300)
        # refused on the certificate: the view is attainable, not infeasible
        assert len(certificates) == 1 and certificates[0] <= TOL

    def test_converged_solve_never_computes_a_certificate(self, monkeypatch):
        def forbidden(constraints):
            raise AssertionError("phase-I certificate computed on a converged solve")

        monkeypatch.setattr(solver_mod, "_phase_one_certificate", forbidden)
        rng = np.random.default_rng(5)
        panel = build_panel(rng.normal(size=200), rng.normal(size=200))
        mean, var = float(panel.x.mean()), float(panel.x.var())
        for view in (
            expectation_view(float(np.quantile(panel.x, 0.7))),
            quantile_view(float(np.quantile(panel.x, 0.5)), 0.7),
            value_view(float(np.quantile(panel.x, 0.9)), "ge"),
            correlation_view(0.9),
            variance_view(1.5 * var),
            mean_variance_view(mean + 0.3 * math.sqrt(var), 0.8 * var),
            relative_view(0.2, 1.3),
            distribution_view([-10.0, 0.0, 10.0], [0.6, 0.4]),
        ):
            rep = solve(panel, compile_view(view, panel))
            assert rep.residual <= TOL

    def test_view_attainable_only_on_a_face_is_refused_quickly(self, monkeypatch):
        # the largest variance with the mean anchored puts all mass on the
        # endpoints: the tilt approaches it only as the interior weights
        # vanish, and the line search stalls at a residual above tolerance
        # while every weight is far above the positivity floor
        x = np.linspace(0.0, 600.0, 21)
        panel = build_panel(x, np.zeros_like(x))
        cs = compile_view(variance_view(300.0**2), panel)
        evaluations = _calls(monkeypatch, "dual")
        with pytest.raises(InfeasibleError) as err:
            solve(panel, cs)
        assert TOL < err.value.residual <= 1e-6
        assert len(evaluations) <= 500

    def test_correlation_one_is_refused_in_one_round(self, monkeypatch):
        # the tilt toward correlation 1 has no optimum: its multipliers run
        # off to infinity, and the weights cross the positivity floor within
        # a few steps, which ends the round and sends it to the certificate
        panel = _t5_panel(5, 1000)
        cs = compile_view(correlation_view(1.0), panel)
        evaluations = _calls(monkeypatch, "dual")
        certificates = _calls(monkeypatch, "_phase_one_certificate")
        with pytest.raises((InfeasibleError, DegenerateError)) as err:
            solve(panel, cs)
        assert len(certificates) == 1
        # the verdict is the certificate's
        if certificates[0] > TOL:
            assert err.type is InfeasibleError and err.value.residual == certificates[0]
        else:
            assert err.type is DegenerateError
        assert len(evaluations) <= 50

    def test_mean_beyond_the_panel_is_refused_within_a_few_steps(self, monkeypatch):
        # the first Newton step already drives the smallest weight under the
        # floor, so the round ends before any line search runs out of halvings
        panel = _t5_panel(5, 1000)
        beyond = float(panel.x.max()) + 0.5 * float(panel.x.std())
        cs = compile_view(expectation_view(beyond), panel)
        evaluations = _calls(monkeypatch, "dual")
        certificates = _calls(monkeypatch, "_phase_one_certificate")
        with pytest.raises(InfeasibleError) as err:
            solve(panel, cs)
        assert err.value.residual == certificates[0] > TOL
        assert len(evaluations) <= 10

    def test_degenerate_posterior_is_reported_not_clipped(self):
        # an extreme mean view on a wide-span panel drives the far tail's
        # weight under the positivity floor
        x = np.linspace(0.0, 700.0, 41)
        panel = build_panel(x, np.zeros_like(x))
        cs = compile_view(expectation_view(700.0 - 1e-10), panel)
        with pytest.raises(DegenerateError) as err:
            solve(panel, cs)
        assert err.value.min_log_weight < math.log(1e-300)

    def test_two_sided_finite_row(self):
        # a band constraint on the mean: not produced by the view compiler
        # but accepted by the constraint type; internally split into a pair
        # of one-sided rows
        panel = build_panel([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        g = np.vstack([panel.x, np.ones(3)])
        # prior mean is 1.0; force it into [1.3, 1.5]
        cs = LinearConstraintSet(g, np.array([1.3, 1.0]), np.array([1.5, 1.0]))
        rep = solve(panel, cs)
        mean = float(panel.x @ rep.posterior.weights)
        assert 1.3 - 1e-8 <= mean <= 1.5 + 1e-8
        # the optimum binds at the nearer boundary
        assert abs(mean - 1.3) <= 1e-8
        # a band containing the prior mean changes nothing
        cs2 = LinearConstraintSet(g, np.array([0.5, 1.0]), np.array([1.5, 1.0]))
        rep2 = solve(panel, cs2)
        assert 0.5 * np.abs(rep2.posterior.weights - panel.prior).sum() <= 1e-10

    def test_duality_gap_closes(self):
        rng = np.random.default_rng(71)
        panel = build_panel(rng.normal(size=15), rng.normal(size=15))
        cs = compile_view(expectation_view(float(np.quantile(panel.x, 0.65))), panel)
        rep = solve(panel, cs)
        rows, bounds, _, index = dual_rows(cs)
        value, _, _, _ = dual(rep.multipliers[index], np.log(panel.prior), rows, bounds)
        assert abs(rep.entropy + value) < 1e-9  # entropy = -(minimized dual)


class TestPool:
    def test_single_full_confidence(self):
        p = Probabilities(np.array([0.25, 0.75]))
        np.testing.assert_array_equal(pool([p], [1.0]).weights, p.weights)

    def test_idempotence_on_equal_posteriors(self):
        p = Probabilities(np.array([0.25, 0.75]))
        mixed = pool([p, p], [0.4, 0.6])
        np.testing.assert_allclose(mixed.weights, p.weights, atol=1e-15)

    def test_hand_mixture(self):
        a = Probabilities(np.array([0.9, 0.1]))
        b = Probabilities(np.array([0.1, 0.9]))
        np.testing.assert_allclose(pool([a, b], [0.5, 0.5]).weights, [0.5, 0.5])

    def test_confidence_sum_guard(self):
        a = Probabilities(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="sum"):
            pool([a, a], [0.5, 0.6])

    def test_full_confidence_only_alone(self):
        a = Probabilities(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="exactly 1"):
            pool([a, a], [1.0, 1.0])

    def test_scenario_count_guard(self):
        a = Probabilities(np.array([0.5, 0.5]))
        b = Probabilities(np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ValueError, match="scenario count"):
            pool([a, b], [0.5, 0.5])
