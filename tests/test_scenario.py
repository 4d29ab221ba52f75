"""Panel construction and probability-weighted statistics."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import stable_sort_groups
from scipy.special import ndtri

from epcovar.estimation import TCopulaParams, TMarginal, generate_scenarios
from epcovar.scenario import (
    Probabilities,
    ScenarioPanel,
    SortedLosses,
    build_panel,
    interpolated_quantile,
    moments,
    weighted_quantile,
)
from epcovar.solver import solve
from epcovar.views import compile_view, expectation_view


class TestBuildPanel:
    def test_uniform_default(self):
        panel = build_panel([0, 1], [0, 1])
        np.testing.assert_allclose(panel.prior, [0.5, 0.5])

    def test_normalization(self):
        panel = build_panel([0, 1], [0, 1], prior=[2, 2])
        np.testing.assert_allclose(panel.prior, [0.5, 0.5])

    def test_rejects_non_positive_weight_with_index(self):
        with pytest.raises(ValueError, match="non-positive weight at index 2"):
            build_panel([0, 1, 2], [0, 0, 0], prior=[1, 1, -1])
        # checked before normalizing, which would turn these into valid weights
        with pytest.raises(ValueError, match="non-positive weight at index 0"):
            build_panel([0, 1], [0, 0], prior=[-1, -3])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            build_panel([0, 1, 2], [0, 1])
        with pytest.raises(ValueError, match="length mismatch"):
            build_panel([0, 1], [0, 1], prior=[1, 1, 1])

    def test_panel_checks_the_shapes_build_panel_is_given(self):
        with pytest.raises(ValueError, match=r"^length mismatch: x has 3, y has 2, prior has 3$"):
            build_panel([0, 1, 2], [0, 1])
        with pytest.raises(ValueError, match=r"^length mismatch: x has 2, y has 2, prior has 3$"):
            build_panel([0, 1], [0, 1], prior=[1, 1, 1])
        for prior in (None, []):  # the uniform prior of no scenarios divided by zero
            with pytest.raises(ValueError, match="^a panel needs at least two scenarios$"):
                build_panel([], [], prior=prior)

    def test_prior_must_sum_to_one(self):
        with pytest.raises(
            ValueError, match=r"^prior weights sum to 1\.5, expected 1 within 1e-12$"
        ):
            ScenarioPanel([0.0, 1.0], [0.0, 1.0], [0.5, 1.0])

    def test_rejects_non_finite_loss_with_index(self):
        with pytest.raises(ValueError, match="non-finite loss in x at index 1"):
            build_panel([0, np.inf, 2], [0, 1, 2])
        with pytest.raises(ValueError, match="non-finite loss in y at index 0"):
            build_panel([0, 1], [np.nan, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_prior_weight_with_index(self, bad):
        with pytest.raises(ValueError, match="non-finite weight at index 1"):
            ScenarioPanel([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.5, bad, 0.5])
        with pytest.raises(ValueError, match="non-finite weight at index 1"):
            build_panel([0, 1, 2], [0, 1, 2], prior=[1, bad, 1])
        with pytest.raises(ValueError, match="non-finite weight at index 1"):
            Probabilities(np.array([0.5, bad, 0.5]))

    @pytest.mark.parametrize("what", ["x", "y", "prior"])
    def test_rejects_arrays_that_are_not_one_dimensional(self, what):
        arrays = dict(x=np.arange(100.0), y=np.arange(100.0), prior=np.full(100, 0.01))
        arrays[what] = arrays[what].reshape(10, 10)
        message = f"^{what} must be one-dimensional, got shape \\(10, 10\\)$"
        with pytest.raises(ValueError, match=message):
            ScenarioPanel(**arrays)
        with pytest.raises(ValueError, match=message):
            build_panel(**arrays)

    def test_needs_two_scenarios(self):
        with pytest.raises(ValueError, match="at least two"):
            build_panel([1], [1])

    def test_arrays_are_frozen(self):
        panel = build_panel([0, 1], [0, 1])
        with pytest.raises(ValueError):
            panel.x[0] = 5.0
        with pytest.raises(ValueError):
            panel.prior[0] = 0.9

    @pytest.mark.parametrize("make", [build_panel, ScenarioPanel])
    def test_caller_arrays_are_copied(self, make):
        x, y, p = np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.0, 0.0]), np.array([0.2, 0.3, 0.5])
        panel = make(x, y, p)
        x[:] = y[:] = p[:] = 7.0
        assert panel.x.tolist() == [0.0, 1.0, 2.0]
        assert panel.y.tolist() == [2.0, 1.0, 0.0]
        assert panel.prior.tolist() == [0.2, 0.3, 0.5]

    def test_sampled_panel_is_read_only(self):
        panel = generate_scenarios(
            TMarginal(0.0, 1.0, 5.0), TMarginal(0.0, 2.0, 4.0), TCopulaParams(0.5, 6.0), 300, 1
        )
        for arr in (panel.x, panel.y, panel.prior):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_log_prior_is_set_when_built_and_read_only(self):
        for make in (build_panel, ScenarioPanel):
            panel = make([0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [0.2, 0.3, 0.5])
            first = vars(panel)["log_prior"]
            assert first.tobytes() == np.log(panel.prior).tobytes()
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = 0.0
            cs = compile_view(expectation_view(1.2), panel)
            solve(panel, cs)
            solve(panel, cs)
            assert panel.log_prior is first

    def test_unit_metadata_carried(self):
        assert build_panel([0, 1], [0, 1], unit="percent").unit == "percent"

    def test_losses_selector(self):
        panel = build_panel([0, 1], [2, 3])
        np.testing.assert_array_equal(panel.losses("x"), [0, 1])
        np.testing.assert_array_equal(panel.losses("y"), [2, 3])
        with pytest.raises(ValueError):
            panel.losses("z")


class TestSortedLosses:
    """The groups from the default sort, redone stably on ties, against a
    stable sort and ``np.unique`` (``_oracles.stable_sort_groups``), bitwise."""

    @pytest.mark.parametrize("values", [
        np.random.default_rng(3).standard_t(5.0, 20_000),
        np.random.default_rng(4).integers(-3, 4, 500) * 0.5,
        [0.0, -0.0, 1.0, -0.0, 0.0, -1.0],
        [np.nan, 1.0, np.nan, 0.5, 2.0, np.nan, 1.0],
        [1.0, np.nan, 2.0],
        [],
        [7.0],
        [np.nan],
    ], ids=["tie-free", "tied", "signed-zeros", "nan-tied", "one-nan", "empty", "one", "nan"])
    def test_groups_equal_the_stable_reference(self, values):
        got, want = SortedLosses(values).groups, stable_sort_groups(values)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestProbabilities:
    def test_accepts_zero_weight_rejects_negative(self):
        # a posterior conditioned on a region is exactly zero off it
        assert Probabilities(np.array([0.5, 0.0, 0.5])).weights.tolist() == [0.5, 0.0, 0.5]
        with pytest.raises(ValueError, match="negative weight at index 1"):
            Probabilities(np.array([0.75, -0.25, 0.5]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            Probabilities(np.array([0.5, 0.6]))

    def test_accepts_valid(self):
        p = Probabilities(np.array([0.25, 0.75]))
        assert len(p) == 2


class TestWeightedQuantile:
    def test_median_of_symmetric_three_point(self):
        assert weighted_quantile([1, 2, 3], [1 / 3, 1 / 3, 1 / 3], 0.5) == 2

    def test_cumulative_hits_alpha_at_first_atom(self):
        assert weighted_quantile([0, 10], [0.95, 0.05], 0.95) == 0

    def test_alpha_guard(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError, match="alpha"):
                weighted_quantile([1, 2], [0.5, 0.5], bad)

    def test_length_guard(self):
        with pytest.raises(ValueError, match="length mismatch"):
            weighted_quantile([1, 2, 3], [0.5, 0.5], 0.5)

    def test_large_normal_sample_matches_inverse_cdf(self):
        # oracle: the exact inverse normal CDF from an independent library
        rng = np.random.default_rng(1234)
        draws = rng.standard_normal(100_000)
        probs = np.full(draws.size, 1.0 / draws.size)
        got = weighted_quantile(draws, probs, 0.95)
        assert abs(got - ndtri(0.95)) < 0.02
        assert abs(got - 1.6449) < 0.02

    def test_uniform_probs_match_order_statistic_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            j = int(rng.integers(2, 51))
            values = rng.normal(size=j)
            alpha = float(rng.uniform(0.01, 0.99))
            got = weighted_quantile(values, np.full(j, 1.0 / j), alpha)
            want = np.sort(values)[int(np.ceil(alpha * j)) - 1]
            assert got == want

    def test_deterministic_under_ties(self):
        values = [1.0, 1.0, 2.0]
        probs = [0.2, 0.5, 0.3]
        assert weighted_quantile(values, probs, 0.5) == 1.0
        assert weighted_quantile(values, probs, 0.71) == 2.0

    @given(
        alphas=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_decreasing_in_alpha(self, alphas, seed):
        rng = np.random.default_rng(seed)
        j = int(rng.integers(2, 20))
        values = rng.normal(size=j)
        probs = rng.uniform(0.1, 1.0, size=j)
        probs /= probs.sum()
        results = [weighted_quantile(values, probs, a) for a in sorted(alphas)]
        assert all(a <= b for a, b in zip(results, results[1:]))

    @pytest.mark.parametrize("quantile", [weighted_quantile, interpolated_quantile])
    def test_rejects_weights_that_do_not_sum_to_one(self, quantile):
        # the median of the normalised weights is 2; unnormalised they read 1
        with pytest.raises(ValueError, match=r"^weights sum to 3\.0, expected 1 within 1e-10$"):
            quantile([1, 2, 3], [1, 1, 1], 0.5)
        with pytest.raises(ValueError, match=r"^weights sum to 0\.0, expected 1 within"):
            quantile([], [], 0.5)
        with pytest.raises(ValueError, match=r"^weights sum to nan, expected 1 within"):
            quantile([1, 2], [0.5, np.nan], 0.5)
        assert quantile([1, 2, 3], [1 / 3, 1 / 3, 1 / 3], 0.5) == 2.0

    def test_accepts_probabilities_wrapper(self):
        p = Probabilities(np.array([0.5, 0.5]))
        assert weighted_quantile([1.0, 2.0], p, 0.5) == 1.0


class TestInterpolatedQuantile:
    def test_brackets_the_atomic_estimator(self):
        rng = np.random.default_rng(5)
        values = np.sort(rng.normal(size=200))
        probs = np.full(200, 1 / 200)
        for alpha in (0.1, 0.5, 0.9, 0.95):
            smooth = interpolated_quantile(values, probs, alpha)
            assert values[0] <= smooth <= values[-1]

    def test_converges_on_dense_grid(self):
        # grid discretization of a standard normal: interpolation error is
        # far below one grid cell
        grid = np.linspace(-8, 8, 2001)
        mass = np.exp(-0.5 * grid**2)
        mass /= mass.sum()
        got = interpolated_quantile(grid, mass, 0.95)
        assert abs(got - ndtri(0.95)) < 1e-4

    def test_alpha_guard(self):
        with pytest.raises(ValueError, match="alpha"):
            interpolated_quantile([1, 2], [0.5, 0.5], 1.0)

    def test_length_guard(self):
        with pytest.raises(ValueError, match="length mismatch"):
            interpolated_quantile([1.0, 2.0, 3.0], [0.5, 0.5], 0.5)
        panel = build_panel([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="length mismatch"):
            interpolated_quantile(panel.sorted_y, [0.5, 0.5], 0.5)

    def test_cached_order_equals_plain_array_on_tied_atoms(self):
        # atomic losses with ties (signed zeros among them) and uneven
        # weights: the panel's cached order, a plain array and a per-call
        # re-sort must give bitwise the same quantile
        def resorting_quantile(values, probs, alpha):
            order = np.argsort(values, kind="stable")
            v, cum = values[order], np.cumsum(probs[order])
            uniq, start = np.unique(v, return_index=True)
            cum_at = np.append(cum[start[1:] - 1], cum[-1])
            mid = cum_at - np.diff(np.concatenate(([0.0], cum_at))) / 2.0
            return float(np.interp(alpha, mid, uniq))

        rng = np.random.default_rng(11)
        y = rng.integers(-5, 6, size=400).astype(float) * 0.25
        y[::7] *= -1.0
        panel = build_panel(rng.normal(size=400), y, rng.uniform(0.1, 3.0, size=400))
        weights = [panel.prior, rng.dirichlet(np.full(400, 0.3))]
        for w in weights:
            for alpha in (0.01, 0.3, 0.5, 0.9, 0.95, 0.999):
                cached = interpolated_quantile(panel.sorted_y, w, alpha)
                assert cached == interpolated_quantile(np.array(y), w, alpha)
                assert cached == resorting_quantile(y, w, alpha)

    def test_sort_order_is_set_when_built_and_read_only(self):
        panel = build_panel([0.0, 1.0, 2.0, 3.0], [2.0, 1.0, 1.0, 0.5])
        sorted_y = vars(panel)["sorted_y"]
        groups = vars(sorted_y)["groups"]
        assert sorted_y.values is panel.y
        interpolated_quantile(panel.sorted_y, panel.prior, 0.5)
        interpolated_quantile(panel.sorted_y, panel.prior, 0.9)
        assert panel.sorted_y is sorted_y and sorted_y.groups is groups
        order, last, uniq = groups
        assert order.tolist() == [3, 1, 2, 0]
        assert last.tolist() == [True, False, True, True]
        assert uniq.tolist() == [0.5, 1.0, 2.0]
        for arr in groups:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_concurrent_first_reads_agree(self):
        # threads reading quantiles of one panel at once each get the serial answer
        rng = np.random.default_rng(3)
        y = rng.normal(size=20_000)
        alphas = np.linspace(0.05, 0.95, 8)
        want = [interpolated_quantile(y, np.full(y.size, 1 / y.size), a) for a in alphas]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                panel = build_panel(y, y)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    got = list(pool.map(
                        lambda a: interpolated_quantile(panel.sorted_y, panel.prior, a), alphas
                    ))
                assert got == want
        finally:
            sys.setswitchinterval(interval)


class TestMoments:
    def test_two_point(self):
        assert moments([0, 1], [0.5, 0.5]) == (0.5, 0.25)

    def test_degenerate_values(self):
        mean, var = moments([3.0, 3.0, 3.0], [0.2, 0.3, 0.5])
        assert mean == 3.0
        assert var == 0.0

    def test_hand_sum(self):
        mean, var = moments([0, 1, 2], [0.25, 0.5, 0.25])
        assert abs(mean - 1.0) < 1e-15
        assert abs(var - 0.5) < 1e-15

    def test_length_guard(self):
        with pytest.raises(ValueError, match="length mismatch"):
            moments([1, 2], [1.0])

    def test_rejects_weights_that_do_not_sum_to_one(self):
        # unnormalised weights used to give (6.0, 50.0) here, not (2, 2/3)
        with pytest.raises(ValueError, match=r"^weights sum to 3\.0, expected 1 within 1e-10$"):
            moments([1, 2, 3], [1, 1, 1])
        with pytest.raises(ValueError, match=r"^weights sum to nan, expected 1 within"):
            moments([1, 2], [0.5, np.nan])
        mean, var = moments([1, 2, 3], Probabilities(np.full(3, 1 / 3)))
        assert abs(mean - 2.0) < 1e-15 and abs(var - 2 / 3) < 1e-15

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        j = int(rng.integers(2, 30))
        values = rng.normal(size=j)
        probs = rng.uniform(0.1, 1.0, size=j)
        probs /= probs.sum()
        perm = rng.permutation(j)
        base = moments(values, probs)
        shuffled = moments(values[perm], probs[perm])
        assert abs(base[0] - shuffled[0]) < 1e-12
        assert abs(base[1] - shuffled[1]) < 1e-12
