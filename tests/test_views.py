"""View validation, constraint compilation, and report labels."""

import re

import numpy as np
import pytest

from _oracles import phase_one_lp
from epcovar.errors import DataError, InfeasibleError
from epcovar.scenario import build_panel, moments
from epcovar.solver import solve
from epcovar.views import (
    TOL,
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
    variance_view,
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

    def test_bin_fields_that_are_not_sequences_are_named(self):
        with pytest.raises(ValueError, match="^bin_edges must be a list of numbers$"):
            ViewSpec("distribution", bin_edges=3, bin_probs=(1.0,))
        with pytest.raises(ValueError, match="^bin_probs must be a list of numbers$"):
            ViewSpec("distribution", bin_edges=(0.0, 1.0), bin_probs=1.0)
        view = ViewSpec("distribution", bin_edges=[0, 1], bin_probs=np.array([1.0]))
        assert view.bin_edges == (0.0, 1.0) and view.bin_probs == (1.0,)

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(kind="expectation", mean=0.1, variance=0.02),
             "expectation view does not use parameter 'variance'"),
            (dict(kind="variance", variance=0.02, quantile_level=0.95),
             "variance view does not use parameter 'quantile_level'"),
            (dict(kind="value", value=0.1, quantile_level=0.95),
             "value view does not use parameter 'quantile_level'"),
            (dict(kind="relative", diff_mean=0.0, diff_variance=1.0, mean=0.0),
             "relative view does not use parameter 'mean'"),
            (dict(kind="none", bin_probs=(1.0,)), "none view does not use parameter 'bin_probs'"),
            (dict(kind="expectation", mean=0.1, value_band=0.01),
             "expectation view does not use parameter 'value_band'"),
            (dict(kind="value", relation="le", value=0.1, value_band=0.01),
             "value view does not use parameter 'value_band' under relation 'le'"),
            (dict(kind="value", relation="ge", value=0.1, value_band=0.01),
             "value view does not use parameter 'value_band' under relation 'ge'"),
            (dict(kind="correlation", target="y", correlation=0.5),
             "correlation views take no target, got target 'y'"),
            (dict(kind="relative", target="y", diff_mean=0.0, diff_variance=1.0),
             "relative views take no target, got target 'y'"),
            (dict(kind="none", target="y"), "none views take no target, got target 'y'"),
        ],
    )
    def test_rejects_what_the_kind_does_not_read(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ViewSpec(**kwargs)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: expectation_view(True), "mean must be a real number, got True"),
            (lambda: value_view("0.5"), "value must be a real number, got '0.5'"),
            (lambda: quantile_view(1.0, level="0.9"),
             "quantile_level must be a real number, got '0.9'"),
            (lambda: correlation_view(False), "correlation must be a real number, got False"),
            (lambda: value_view(1.0, band=True), "value_band must be a real number, got True"),
        ],
        ids=["expectation-bool", "value-str", "quantile-level-str", "correlation-bool",
             "band-bool"],
    )
    def test_factories_check_their_scalars(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_checked_scalars_are_stored_as_float(self):
        view = ViewSpec("expectation", mean=1, confidence=1)
        assert type(view.mean) is float and view.mean == 1.0
        assert type(view.confidence) is float
        level = quantile_view(np.float64(0.5), level=np.float32(0.5)).quantile_level
        assert type(level) is float and level == 0.5

    def test_parameters_the_kind_reads_are_accepted(self):
        assert value_view(0.1, band=0.01).value_band == 0.01
        assert quantile_view(0.1, 0.9, target="y").quantile_level == 0.9
        assert distribution_view([0, 1], [1.0], target="y").target == "y"

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

    @pytest.mark.parametrize(
        "lower, upper",
        [(np.inf, np.inf), (-np.inf, -np.inf), (np.nan, 1.0), (0.0, np.nan)],
        ids=["lower-plus-inf", "upper-minus-inf", "lower-nan", "upper-nan"],
    )
    def test_rejects_unsatisfiable_or_nan_bounds(self, lower, upper):
        g = np.vstack([[0.0, 1.0, 2.0], np.ones(3)])
        with pytest.raises(ValueError, match="bounds must not be NaN"):
            LinearConstraintSet(g, np.array([lower, 1.0]), np.array([upper, 1.0]))

    def test_one_sided_infinite_bounds_are_accepted(self):
        g = np.vstack([[0.0, 1.0, 2.0], np.ones(3)])
        cs = LinearConstraintSet(g, np.array([-np.inf, 1.0]), np.array([np.inf, 1.0]))
        assert cs.n_rows == 2

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
        with pytest.raises(InfeasibleError) as err:
            compile_view(quantile_view(-1.0, level=0.95), panel01)
        assert str(err.value) == (
            "view unattainable: row 'quantile_mass(X<=-1)' reads 0 on every scenario; no "
            "posterior on the panel gets the max violation below 9.500e-01, above tolerance "
            "1.0e-08")
        assert err.value.residual == 0.95

    def test_empty_indicator_under_ge_adds_no_row(self, panel01):
        # P(X <= q) <= level holds for every posterior when no scenario lies at or below q
        cs = compile_view(quantile_view(-1.0, level=0.95, relation="ge"), panel01)
        assert cs.labels == ("normalization",)

    def test_prior_meeting_a_ge_view_on_a_normal_panel(self):
        rng = np.random.default_rng(0)
        panel = build_panel(rng.standard_normal(2000), rng.standard_normal(2000))
        cs = compile_view(quantile_view(-10.0, relation="ge"), panel)
        assert cs.labels == ("normalization",)


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
        with pytest.raises(InfeasibleError) as err:
            compile_view(value_view(9.0, relation="ge"), panel)
        assert str(err.value) == (
            "view unattainable: row 'value_mass(X>=9)' reads 0 on every scenario; no "
            "posterior on the panel gets the max violation below 1.000e+00, above tolerance "
            "1.0e-08")
        assert err.value.residual == 1.0

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


    def test_constant_margin_is_a_data_error(self):
        # undefined rather than unattainable: refused as the analytic prior
        # refuses a zero-spread column
        panel = build_panel([0.0, 1.0, 2.0], [0.5, 0.5, 0.5])
        with pytest.raises(DataError, match="non-degenerate prior marginals"):
            compile_view(correlation_view(0.4), panel)


class TestCompileRelative:
    def test_difference_moment_rows(self):
        panel = build_panel([0.0, 1.0, 2.0], [0.5, 0.25, 1.0])
        cs = compile_view(relative_view(0.25, 0.5), panel)
        np.testing.assert_array_equal(cs.matrix[0], panel.x - panel.y)
        assert cs.lower[0] == cs.upper[0] == 0.25
        np.testing.assert_array_equal(cs.matrix[1], (panel.x - panel.y) ** 2)
        assert cs.lower[1] == cs.upper[1] == pytest.approx(0.5 + 0.0625)

    def test_identical_losses_are_degenerate(self, panel01):
        with pytest.raises(InfeasibleError) as err:
            compile_view(relative_view(0.25, 0.5), panel01)
        assert str(err.value) == (
            "view unattainable: row 'second_moment(X-Y)' reads 0 on every scenario; no "
            "posterior on the panel gets the max violation below 5.625e-01, above tolerance "
            "1.0e-08")
        assert err.value.residual == 0.5 + 0.25**2


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
        with pytest.raises(InfeasibleError, match=r"bin\[200,300\]") as err:
            compile_view(view, panel_atoms)
        assert err.value.residual == 1.0

    def test_certain_bin_covering_every_scenario_adds_no_row(self, panel_atoms):
        cs = compile_view(distribution_view([0.0, 200.0], [1.0]), panel_atoms)
        assert cs.n_rows == 1  # just the normalization row
        assert cs.labels == ("normalization",)

    def test_empty_bin_with_zero_mass_is_skipped(self, panel_atoms):
        view = distribution_view(
            [12.5, 37.5, 62.5, 87.5, 112.5, 200.0], [0.5, 0.3, 0.1, 0.1, 0.0]
        )
        cs = compile_view(view, panel_atoms)
        assert cs.n_rows == 5  # the empty fifth bin contributed no row


def _stated_rows(view, panel):
    """(matrix, lower, upper) of every row that ``view`` states on ``panel``,
    all-zero rows included, written out from the view's definition."""
    x = panel.losses(view.target)
    if view.kind == "value":
        v, band = view.value, view.value_band
        if view.relation != "eq":
            return [x <= v if view.relation == "le" else x >= v], [1.0], [1.0]
        return [(x >= v - band) & (x <= v + band)], [1.0], [1.0]
    if view.kind == "quantile":
        level = view.quantile_level
        lo, hi = {"eq": (level, level), "le": (level, np.inf), "ge": (-np.inf, level)}[
            view.relation]
        return [x <= view.quantile], [lo], [hi]
    if view.kind == "relative":
        d = panel.x - panel.y
        second = view.diff_variance + view.diff_mean**2
        return [d, d * d], [view.diff_mean, second], [view.diff_mean, second]
    edges, probs = view.bin_edges, view.bin_probs
    last = len(probs) - 1
    rows = [(x >= edges[i]) & ((x < edges[i + 1]) | ((i == last) & (x == edges[i + 1])))
            for i in range(len(probs))]
    return rows, probs, probs


_ATOMS = (25.0, 50.0, 75.0, 100.0)


class TestCompileTimeCertificates:
    """A compile-time refusal carries the exact phase-I certificate: the
    smallest max violation that any posterior reaches on the view's rows."""

    @pytest.mark.parametrize(
        "x, y, view, expected",
        [
            ((0.0, 1.0), (0.0, 0.0), value_view(9.0, relation="ge"), 1.0),
            ((0.0, 1.0), (0.0, 0.0), value_view(-9.0, relation="le"), 1.0),
            ((0.0, 1.0), (0.0, 0.0), value_view(5.0, band=0.5), 1.0),
            ((0.0, 1.0), (0.0, 0.0), value_view(5.0, target="y", band=0.5), 1.0),
            ((0.0, 1.0), (0.0, 0.0), quantile_view(-1.0, level=0.95), 0.95),
            ((0.0, 1.0), (0.0, 0.0), quantile_view(-1.0, level=0.9, relation="le"), 0.9),
            # every scenario lies at or below the threshold: the mass 1 misses by 1 - level
            ((0.0, 1.0), (0.0, 0.0), quantile_view(5.0, level=0.95), 1.0 - 0.95),
            ((0.0, 1.0), (0.0, 0.0), quantile_view(5.0, level=0.9, relation="ge"), 1.0 - 0.9),
            ((0.0, 1.0), (0.0, 1.0), relative_view(0.25, 0.5), 0.5625),
            ((0.0, 1.0), (0.0, 1.0), relative_view(-0.5, 0.1), 0.5),  # |d| > v + d^2
            # every scenario in a bin: the two non-empty bins share 0.9, 0.45 each
            (_ATOMS, _ATOMS, distribution_view([0, 30, 31, 32, 33, 200],
                                               [0.05, 0.3, 0.3, 0.3, 0.05]), 0.45),
            # 75 and 100 lie in no bin and take the missing mass
            (_ATOMS, _ATOMS, distribution_view([0, 30, 31, 60], [0.5, 0.3, 0.2]), 0.3),
            # an empty bin of zero mass beside one of positive mass
            (_ATOMS, _ATOMS, distribution_view([0, 30, 31, 32, 200], [0.2, 0.0, 0.1, 0.7]),
             0.1),
            (_ATOMS, _ATOMS, distribution_view([200, 300], [1.0]), 1.0),
            # an empty bin stated just above tolerance; the shared term is half of it
            (_ATOMS, _ATOMS, distribution_view([0, 60, 61, 200], [0.5, 2e-8, 0.5 - 2e-8]),
             2e-8),
        ],
        ids=["value-ge", "value-le", "value-band", "value-band-y", "quantile-eq",
             "quantile-le", "quantile-eq-full", "quantile-ge-full", "relative-second",
             "relative-mean", "bins-covering", "bins-uncovered", "bins-zero-mass", "bin-alone",
             "bin-above-tolerance"],
    )
    def test_matches_the_dense_phase_one_program(self, x, y, view, expected):
        panel = build_panel(x, y)
        with pytest.raises(InfeasibleError, match="^view unattainable: ") as err:
            compile_view(view, panel)
        exact = phase_one_lp(*_stated_rows(view, panel))
        assert abs(err.value.residual - exact) <= 1e-12
        assert abs(exact - expected) <= 1e-12

    @pytest.mark.parametrize(
        "x, view, kept",
        [
            ((0.0, 1.0), quantile_view(5.0, level=0.9, relation="le"), ()),
            ((0.0, 1.0), quantile_view(-1.0, level=0.9, relation="ge"), ()),
            ((0.0, 1.0), value_view(9.0, relation="le"), ()),
            ((0.0, 1.0), value_view(-9.0, relation="ge"), ()),
            ((0.0, 1.0), value_view(0.5, band=1.0), ()),
            ((0.0, 1.0), distribution_view([-1.0, 2.0], [1.0]), ()),
            # an empty bin stated below tolerance is dropped, and the solve accepts the rest
            (_ATOMS, distribution_view([0, 60, 61, 200], [0.5, 1e-12, 0.5 - 1e-12]),
             ("bin[0,60)", "bin[61,200]")),
        ],
        ids=["quantile-le-full", "quantile-ge-empty", "value-le-full", "value-ge-full",
             "value-band-full", "bin-full", "bin-below-tolerance"],
    )
    def test_constant_rows_within_tolerance_add_no_row(self, x, view, kept):
        panel = build_panel(x, x)
        cs = compile_view(view, panel)
        assert cs.labels == (*kept, "normalization")
        assert phase_one_lp(*_stated_rows(view, panel)) <= TOL
        assert solve(panel, cs).residual <= TOL

    def test_random_distribution_views_match_the_dense_phase_one_program(self):
        rng = np.random.default_rng(26)
        refused = shared = 0
        for _ in range(60):
            panel = build_panel(rng.choice(np.arange(10.0), size=4), np.zeros(4))
            n_bins = int(rng.integers(4, 10))
            edges = np.sort(rng.choice(np.arange(-1.0, 11.0, 0.5), n_bins + 1, replace=False))
            if rng.random() < 0.5:  # the bins cover every scenario
                edges[0], edges[-1] = -1.0, 10.5
            probs = rng.dirichlet(np.ones(n_bins)) * (rng.random(n_bins) > 0.3)
            if probs.sum() == 0.0:
                continue
            view = distribution_view(edges, probs / probs.sum())
            try:
                compile_view(view, panel)
            except InfeasibleError as err:
                rows, stated, _ = _stated_rows(view, panel)
                exact = phase_one_lp(rows, stated, stated)
                assert abs(err.residual - exact) <= 1e-12, (edges, probs)
                refused += 1
                # the non-empty bins' shared excess, not an empty bin, sets the certificate
                shared += exact > max(p for row, p in zip(rows, stated) if not row.any()) + 1e-12
        assert refused >= 40 and shared >= 5


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


_LABELS = [
    (expectation_view(0.6041), "mu~_X = 0.6041"),
    (expectation_view(1e-05, "le"), "mu~_X <= 1e-05"),
    (expectation_view(2, "ge"), "mu~_X >= 2"),
    (expectation_view(-0.25, target="y"), "mu~_Y = -0.25"),
    (expectation_view(0.123456789, "le", target="y"), "mu~_Y <= 0.123457"),
    (expectation_view(1e-05, "ge", target="y"), "mu~_Y >= 1e-05"),
    (variance_view(0.036), "sigma~_X^2 = 0.036"),
    (variance_view(1e-05, "le"), "sigma~_X^2 <= 1e-05"),
    (variance_view(2, "ge"), "sigma~_X^2 >= 2"),
    (variance_view(0.6041, target="y"), "sigma~_Y^2 = 0.6041"),
    (variance_view(1234567.0, "le", target="y"), "sigma~_Y^2 <= 1.23457e+06"),
    (variance_view(2, "ge", target="y"), "sigma~_Y^2 >= 2"),
    (mean_variance_view(0.6041, 1e-05), "mu~_X = 0.6041, sigma~_X^2 = 1e-05"),
    (mean_variance_view(-2, 2, target="y"), "mu~_Y = -2, sigma~_Y^2 = 2"),
    (quantile_view(0.6041, 0.95), "q~_X(0.95) = 0.6041"),
    (quantile_view(1e-05, 0.99, "le"), "q~_X(0.99) <= 1e-05"),
    (quantile_view(2, 0.5, "ge"), "q~_X(0.5) >= 2"),
    (quantile_view(0.6041, 0.95, target="y"), "q~_Y(0.95) = 0.6041"),
    (quantile_view(-1e-05, 0.975, "le", target="y"), "q~_Y(0.975) <= -1e-05"),
    (quantile_view(2, 0.05, "ge", target="y"), "q~_Y(0.05) >= 2"),
    (value_view(0.0424), "X = 0.0424"),
    (value_view(0.0424, band=0.01), "X = 0.0424"),
    (value_view(1e-05, "le"), "X <= 1e-05"),
    (value_view(2, "ge"), "X >= 2"),
    (value_view(0.6041, target="y"), "Y = 0.6041"),
    (value_view(-2, "le", target="y"), "Y <= -2"),
    (value_view(1e-05, "ge", target="y"), "Y >= 1e-05"),
    (correlation_view(0.72), "rho~ = 0.72"),
    (correlation_view(-1, "le"), "rho~ <= -1"),
    (correlation_view(1e-05, "ge"), "rho~ >= 1e-05"),
    (relative_view(0.01, 0.002), "X - Y ~ N(0.01, 0.002)"),
    (relative_view(-2, 1e-05), "X - Y ~ N(-2, 1e-05)"),
    (distribution_view([0, 1, 2], [0.3, 0.7]), "P(X in bins) = [0.3, 0.7]"),
    (distribution_view([-np.inf, 0, 1, 2, np.inf], [0.6041, 0.3959, 0.0, 0.0], target="y"),
     "P(Y in bins) = [0.6041, 0.3959, 0, 0]"),
    (distribution_view([0, 1], [1]), "P(X in bins) = [1]"),
    (no_view(), "none (CoVaR = VaR)"),
]


@pytest.mark.parametrize("view, label", _LABELS, ids=[label for _, label in _LABELS])
def test_describe_pins_every_label(view, label):
    assert describe(view) == label


def test_pinned_labels_cover_every_kind_relation_and_target():
    covered = {(v.kind, v.relation, v.target) for v, _ in _LABELS}
    assert covered == {
        (kind, relation, target)
        for kind, relations, targets in (
            ("expectation", "eq le ge", "xy"), ("variance", "eq le ge", "xy"),
            ("mean_and_variance", "eq", "xy"), ("quantile", "eq le ge", "xy"),
            ("value", "eq le ge", "xy"), ("correlation", "eq le ge", "x"),
            ("relative", "eq", "x"), ("distribution", "eq", "xy"), ("none", "eq", "x"),
        )
        for relation in relations.split() for target in targets
    }


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


def test_public_api_is_pinned():
    # every change to the package's exports is a deliberate edit of this list
    import types

    import epcovar

    public = sorted(
        name for name, obj in vars(epcovar).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    )
    assert public == [
        "BivariateNormalParams", "ConfigError", "DataError", "DegenerateError",
        "EpcovarError", "InfeasibleError", "IngestResult",
        "LinearConstraintSet", "NumericDomainError", "Probabilities", "QRFit",
        "ReportRow", "RiskReport", "RunConfig", "ScenarioPanel", "SolveReport",
        "TCopulaParams", "TMarginal", "ViewOutcome", "ViewSpec", "build_panel",
        "compile_view", "correlation_view", "covar_for_view", "delta_covar_view",
        "describe", "distribution_view", "emit_report", "ep_covar_on_panel",
        "expectation_view", "fit_t_copula", "fit_t_marginal", "generate_scenarios",
        "ingest_csv", "interpolated_quantile", "kl_bivariate_normal",
        "mean_variance_view", "moments", "no_view", "pool", "quantile_regression_covar",
        "quantile_view", "relative_entropy", "relative_view", "run_pipeline",
        "sensitivity_scan", "solve", "value_view", "var_normal", "variance_view",
        "view_from_dict", "view_to_dict", "weighted_quantile",
    ]
