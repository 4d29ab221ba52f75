"""View validation, constraint compilation, and report labels."""

import numpy as np
import pytest

from epcovar.errors import InfeasibleViewError
from epcovar.scenario import build_panel, moments
from epcovar.views import (
    LinearConstraintSet,
    ViewSpec,
    compile_view,
    correlation_view,
    describe,
    distribution_view,
    expectation_view,
    mean_variance_view,
    no_view,
    quantile_view,
    relative_view,
    value_view,
    view_from_dict,
    view_to_dict,
)


@pytest.fixture
def panel01():
    return build_panel([0.0, 1.0], [0.0, 1.0])


@pytest.fixture
def panel_atoms():
    # four rate-change atoms, each with a few joint outcomes
    x = np.repeat([25.0, 50.0, 75.0, 100.0], 3)
    y = np.tile([1.0, 2.0, 3.0], 4)
    return build_panel(x, y)


class TestViewSpecValidation:
    def test_requires_kind_parameters(self):
        with pytest.raises(ValueError, match="requires parameter 'mean'"):
            ViewSpec("expectation")
        with pytest.raises(ValueError, match="requires parameter 'quantile_level'"):
            ViewSpec("quantile", quantile=0.5)

    def test_equality_only_kinds(self):
        with pytest.raises(ValueError, match="equality"):
            ViewSpec("relative", relation="le", diff_mean=0.0, diff_variance=1.0)
        with pytest.raises(ValueError, match="equality"):
            ViewSpec("distribution", relation="ge", bin_edges=(0, 1), bin_probs=(1.0,))
        with pytest.raises(ValueError, match="equality"):
            ViewSpec("mean_and_variance", relation="le", mean=0.0, variance=1.0)

    def test_scale_parameters_positive(self):
        with pytest.raises(ValueError, match="variance must be positive"):
            ViewSpec("variance", variance=-1.0)
        with pytest.raises(ValueError, match="diff_variance must be positive"):
            relative_view(0.0, 0.0)

    def test_bin_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            distribution_view([0, 0, 1], [0.5, 0.5])
        with pytest.raises(ValueError, match="sum"):
            distribution_view([0, 1, 2], [0.5, 0.6])
        with pytest.raises(ValueError, match="non-negative"):
            distribution_view([0, 1, 2], [1.2, -0.2])
        with pytest.raises(ValueError, match="edges"):
            distribution_view([0, 1], [0.5, 0.5])

    def test_confidence_bounds(self):
        with pytest.raises(ValueError, match="confidence"):
            expectation_view(0.0, confidence=0.0)
        with pytest.raises(ValueError, match="confidence"):
            expectation_view(0.0, confidence=1.5)

    def test_correlation_bounds(self):
        with pytest.raises(ValueError, match="correlation"):
            correlation_view(1.5)

    def test_quantile_level_bounds(self):
        with pytest.raises(ValueError, match="quantile_level"):
            quantile_view(0.5, level=1.0)

    def test_dict_round_trip(self):
        view = quantile_view(0.6041, 0.95, relation="ge", target="x", confidence=0.5)
        assert view_from_dict(view_to_dict(view)) == view
        dist = distribution_view([0, 1, 2], [0.25, 0.75])
        assert view_from_dict(view_to_dict(dist)) == dist

    def test_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown view keys"):
            view_from_dict({"kind": "expectation", "mean": 0.1, "banana": 1})
        with pytest.raises(ValueError, match="'kind'"):
            view_from_dict({"mean": 0.1})


class TestConstraintSetInvariants:
    def test_requires_normalization_row(self):
        with pytest.raises(ValueError, match="normalization"):
            LinearConstraintSet(np.array([[0.0, 1.0]]), np.array([0.5]), np.array([0.5]))

    def test_rejects_duplicate_normalization(self):
        g = np.ones((2, 3))
        ones = np.ones(2)
        with pytest.raises(ValueError, match="normalization"):
            LinearConstraintSet(g, ones, ones)

    def test_rejects_lower_above_upper(self):
        g = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="lower bound exceeds"):
            LinearConstraintSet(g, np.array([2.0, 1.0]), np.array([1.0, 1.0]))

    def test_rejects_zero_row(self):
        g = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="nonzero"):
            LinearConstraintSet(g, np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_rejects_non_finite_matrix(self):
        g = np.array([[np.inf, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            LinearConstraintSet(g, np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_caller_arrays_are_copied(self):
        g, lo, hi = np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([0.2, 1.0]), np.array([0.4, 1.0])
        cs = LinearConstraintSet(g, lo, hi)
        g[0, 1] = lo[0] = hi[0] = 7.0
        assert cs.matrix.tolist() == [[0.0, 1.0], [1.0, 1.0]]
        assert (cs.lower[0], cs.upper[0]) == (0.2, 0.4)

    def test_compiled_arrays_are_read_only(self, panel_atoms):
        cs = compile_view(mean_variance_view(60.0, 700.0), panel_atoms)
        for arr in (cs.matrix, cs.lower, cs.upper):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestCompileExpectation:
    def test_worked_two_scenario_system(self, panel01):
        cs = compile_view(expectation_view(0.75), panel01)
        np.testing.assert_array_equal(cs.matrix, [[0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(cs.lower, [0.75, 1.0])
        np.testing.assert_array_equal(cs.upper, [0.75, 1.0])

    def test_relation_bounds(self, panel01):
        le = compile_view(expectation_view(0.75, relation="le"), panel01)
        assert le.lower[0] == -np.inf and le.upper[0] == 0.75
        ge = compile_view(expectation_view(0.75, relation="ge"), panel01)
        assert ge.lower[0] == 0.75 and ge.upper[0] == np.inf

    def test_targets_y(self):
        panel = build_panel([0.0, 1.0], [5.0, 7.0])
        cs = compile_view(expectation_view(6.0, target="y"), panel)
        np.testing.assert_array_equal(cs.matrix[0], [5.0, 7.0])


class TestCompileVariance:
    def test_pins_mean_at_prior_anchor(self):
        panel = build_panel([1.0, 2.0, 3.0], [0.0, 0.0, 1.0])
        cs = compile_view(ViewSpec("variance", variance=0.5), panel)
        anchor = moments(panel.x, panel.prior)[0]
        np.testing.assert_array_equal(cs.matrix[0], panel.x)
        assert cs.lower[0] == cs.upper[0] == anchor
        np.testing.assert_array_equal(cs.matrix[1], panel.x**2)
        assert cs.lower[1] == cs.upper[1] == pytest.approx(0.5 + anchor**2)

    def test_relation_applies_to_second_moment_row_only(self):
        panel = build_panel([1.0, 2.0, 3.0], [0.0, 0.0, 1.0])
        cs = compile_view(ViewSpec("variance", variance=0.5, relation="le"), panel)
        assert cs.lower[0] == cs.upper[0]                  # mean anchor stays pinned
        assert cs.lower[1] == -np.inf                      # one-sided second moment

    def test_mean_and_variance_uses_view_mean(self, panel01):
        cs = compile_view(mean_variance_view(0.7, 0.2), panel01)
        assert cs.lower[0] == cs.upper[0] == 0.7
        assert cs.lower[1] == cs.upper[1] == pytest.approx(0.2 + 0.49)


class TestCompileQuantile:
    def test_equality_mass(self, panel01):
        cs = compile_view(quantile_view(0.5, level=0.9), panel01)
        np.testing.assert_array_equal(cs.matrix[0], [1.0, 0.0])
        assert cs.lower[0] == cs.upper[0] == 0.9

    def test_inequality_direction_mapping(self, panel01):
        # "posterior quantile <= q1" means at least `level` mass at or below q1
        le = compile_view(quantile_view(0.5, level=0.9, relation="le"), panel01)
        assert le.lower[0] == 0.9 and le.upper[0] == np.inf
        ge = compile_view(quantile_view(0.5, level=0.9, relation="ge"), panel01)
        assert ge.lower[0] == -np.inf and ge.upper[0] == 0.9

    def test_empty_indicator_is_infeasible(self, panel01):
        with pytest.raises(InfeasibleViewError, match="at or below"):
            compile_view(quantile_view(-1.0, level=0.95), panel01)


class TestCompileValue:
    def test_band_width_defaults_to_prior_std_fraction(self):
        panel = build_panel([0.0, 1.0, 2.0, 3.0], [0.0] * 4)
        std = np.sqrt(moments(panel.x, panel.prior)[1])
        cs = compile_view(value_view(1.0), panel)
        band = 0.05 * std
        expect = ((panel.x >= 1.0 - band) & (panel.x <= 1.0 + band)).astype(float)
        np.testing.assert_array_equal(cs.matrix[0], expect)
        assert cs.lower[0] == cs.upper[0] == 1.0

    def test_band_override(self):
        panel = build_panel([0.0, 1.0, 2.0, 3.0], [0.0] * 4)
        cs = compile_view(value_view(1.0, band=1.0), panel)
        np.testing.assert_array_equal(cs.matrix[0], [1.0, 1.0, 1.0, 0.0])

    def test_half_line_masses(self):
        panel = build_panel([0.0, 1.0, 2.0, 3.0], [0.0] * 4)
        le = compile_view(value_view(1.5, relation="le"), panel)
        np.testing.assert_array_equal(le.matrix[0], [1.0, 1.0, 0.0, 0.0])
        assert le.lower[0] == le.upper[0] == 1.0
        ge = compile_view(value_view(1.5, relation="ge"), panel)
        np.testing.assert_array_equal(ge.matrix[0], [0.0, 0.0, 1.0, 1.0])

    def test_empty_region_is_infeasible(self):
        panel = build_panel([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(InfeasibleViewError):
            compile_view(value_view(9.0, relation="ge"), panel)

    def test_region_covering_everything_adds_no_row(self):
        panel = build_panel([0.0, 1.0], [0.0, 0.0])
        cs = compile_view(value_view(9.0, relation="le"), panel)
        assert cs.n_rows == 1  # just the normalization row


class TestCompileCorrelation:
    def test_anchor_rows_and_cross_moment(self):
        rng = np.random.default_rng(3)
        panel = build_panel(rng.normal(size=50), rng.normal(size=50))
        cs = compile_view(correlation_view(0.4), panel)
        assert cs.n_rows == 6  # 4 anchors + cross moment + normalization
        mx, vx = moments(panel.x, panel.prior)
        my, vy = moments(panel.y, panel.prior)
        target = 0.4 * np.sqrt(vx * vy) + mx * my
        np.testing.assert_allclose(cs.lower[4], target)
        np.testing.assert_array_equal(cs.matrix[4], panel.x * panel.y)

    def test_relation_applies_to_cross_row(self):
        rng = np.random.default_rng(4)
        panel = build_panel(rng.normal(size=30), rng.normal(size=30))
        cs = compile_view(correlation_view(0.4, relation="ge"), panel)
        assert cs.upper[4] == np.inf
        assert np.isfinite(cs.lower[4])


class TestCompileRelative:
    def test_difference_moment_rows(self):
        panel = build_panel([0.0, 1.0, 2.0], [0.5, 0.25, 1.0])
        cs = compile_view(relative_view(0.25, 0.5), panel)
        np.testing.assert_array_equal(cs.matrix[0], panel.x - panel.y)
        assert cs.lower[0] == cs.upper[0] == 0.25
        np.testing.assert_array_equal(cs.matrix[1], (panel.x - panel.y) ** 2)
        assert cs.lower[1] == cs.upper[1] == pytest.approx(0.5 + 0.0625)

    def test_identical_losses_are_degenerate(self, panel01):
        with pytest.raises(InfeasibleViewError, match="identically zero"):
            compile_view(relative_view(0.25, 0.5), panel01)


class TestCompileDistribution:
    def test_four_atom_bins(self, panel_atoms):
        view = distribution_view(
            [12.5, 37.5, 62.5, 87.5, 112.5], [0.9630, 0.0370, 0.0, 0.0]
        )
        cs = compile_view(view, panel_atoms)
        assert cs.n_rows == 5  # four bins + normalization
        np.testing.assert_allclose(
            cs.lower[:4], [0.9630, 0.0370, 0.0, 0.0]
        )
        # each bin row selects exactly its atom's scenarios
        for i, atom in enumerate([25.0, 50.0, 75.0, 100.0]):
            np.testing.assert_array_equal(
                cs.matrix[i], (panel_atoms.x == atom).astype(float)
            )

    def test_bins_partition_to_all_ones(self, panel_atoms):
        view = distribution_view(
            [12.5, 37.5, 62.5, 87.5, 112.5], [0.25, 0.25, 0.25, 0.25]
        )
        cs = compile_view(view, panel_atoms)
        np.testing.assert_array_equal(
            cs.matrix[:4].sum(axis=0), np.ones(panel_atoms.size)
        )

    def test_empty_bin_with_positive_mass_raises(self, panel_atoms):
        view = distribution_view([200.0, 300.0], [1.0])
        with pytest.raises(InfeasibleViewError, match=r"bin\[200,300\]"):
            compile_view(view, panel_atoms)

    def test_empty_bin_with_zero_mass_is_skipped(self, panel_atoms):
        view = distribution_view(
            [12.5, 37.5, 62.5, 87.5, 112.5, 200.0], [0.5, 0.3, 0.1, 0.1, 0.0]
        )
        cs = compile_view(view, panel_atoms)
        assert cs.n_rows == 5  # the empty fifth bin contributed no row


class TestCompiledSystemProperties:
    def _all_views(self):
        return [
            no_view(),
            expectation_view(0.6),
            expectation_view(0.6, relation="le"),
            ViewSpec("variance", variance=0.1),
            mean_variance_view(0.5, 0.1),
            quantile_view(0.7, level=0.8),
            value_view(0.5, band=0.3),
            value_view(0.5, relation="ge"),
            correlation_view(0.2),
            relative_view(0.1, 0.2),
            distribution_view([-0.1, 0.5, 1.1], [0.6, 0.4]),
        ]

    def test_every_compiled_set_is_well_formed(self):
        rng = np.random.default_rng(11)
        panel = build_panel(rng.uniform(0, 1, 40), rng.uniform(0, 1, 40))
        for view in self._all_views():
            cs = compile_view(view, panel)
            assert np.all(cs.lower <= cs.upper)
            ones = np.all(cs.matrix == 1.0, axis=1) & (cs.lower == 1.0) & (cs.upper == 1.0)
            assert ones.sum() == 1
            assert cs.labels[cs.normalization_row] == "normalization"

    def test_every_kind_compiles_at_its_most_rows(self):
        # each kind writes as many rows as it can, normalization included, and
        # the matrix it allocated holds exactly those rows
        rng = np.random.default_rng(13)
        panel = build_panel(rng.uniform(0, 1, 40), rng.uniform(0, 1, 40))
        most = [
            (no_view(), 1),
            (expectation_view(0.6), 2),
            (ViewSpec("variance", variance=0.1), 3),
            (mean_variance_view(0.5, 0.1), 3),
            (quantile_view(0.7, level=0.8), 2),
            (value_view(0.5, band=0.3), 2),
            (correlation_view(0.2), 6),
            (relative_view(0.1, 0.2), 3),
            (distribution_view([-0.1, 0.25, 0.5, 0.75, 1.1], [0.2, 0.3, 0.3, 0.2]), 5),
        ]
        assert {view.kind for view, _ in most} == {
            "none", "expectation", "variance", "mean_and_variance", "quantile", "value",
            "correlation", "relative", "distribution",
        }
        for view, n_rows in most:
            cs = compile_view(view, panel)
            assert cs.n_rows == n_rows, view.kind
            allocated = cs.matrix if cs.matrix.base is None else cs.matrix.base
            assert allocated.shape == (n_rows, panel.size), view.kind

    def test_prior_feasibility_matches_direct_checks(self):
        # feasibility of the prior under a compiled view must agree with
        # checking the view statement on prior moments/quantiles directly
        rng = np.random.default_rng(23)
        for _ in range(100):
            j = int(rng.integers(5, 25))
            panel = build_panel(rng.normal(size=j), rng.normal(size=j))
            mean_x = moments(panel.x, panel.prior)[0]
            threshold = float(rng.normal())
            view = expectation_view(threshold, relation="le")
            cs = compile_view(view, panel)
            achieved = cs.matrix @ panel.prior
            feasible = bool(np.all((achieved >= cs.lower - 1e-12) & (achieved <= cs.upper + 1e-12)))
            assert feasible == (mean_x <= threshold + 1e-12)

    def test_quantile_prior_feasibility_matches_mass_check(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            j = int(rng.integers(5, 25))
            panel = build_panel(rng.normal(size=j), rng.normal(size=j))
            q1 = float(np.quantile(panel.x, 0.5))
            level = float(rng.uniform(0.2, 0.8))
            cs = compile_view(quantile_view(q1, level=level, relation="le"), panel)
            achieved = cs.matrix @ panel.prior
            feasible = bool(np.all((achieved >= cs.lower - 1e-12) & (achieved <= cs.upper + 1e-12)))
            direct = float(panel.prior[panel.x <= q1].sum()) >= level - 1e-12
            assert feasible == direct


class TestDescribe:
    def test_expectation_label(self):
        assert describe(expectation_view(0.6041)) == "mu~_X = 0.6041"

    def test_quantile_label(self):
        assert describe(quantile_view(0.6041, 0.95)) == "q~_X(0.95) = 0.6041"

    def test_no_view_label(self):
        assert describe(no_view()) == "none (CoVaR = VaR)"

    def test_relation_symbols(self):
        assert describe(expectation_view(0.1, relation="le")) == "mu~_X <= 0.1"
        assert describe(expectation_view(0.1, relation="ge", target="y")) == "mu~_Y >= 0.1"

    def test_remaining_kinds_are_deterministic(self):
        views = [
            ViewSpec("variance", variance=0.036),
            mean_variance_view(0.6041, 0.036),
            value_view(0.0424),
            correlation_view(0.72),
            relative_view(0.01, 0.002),
            distribution_view([0, 1, 2], [0.3, 0.7]),
        ]
        for view in views:
            assert describe(view) == describe(view)
            assert describe(view)


def test_every_view_factory_is_exported():
    import epcovar
    from epcovar import views

    factories = [
        name for name, obj in vars(views).items()
        if name.endswith("_view") and not name.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == views.__name__
    ]
    assert "variance_view" in factories
    missing = [
        name for name in factories if getattr(epcovar, name, None) is not getattr(views, name)
    ]
    assert missing == []
