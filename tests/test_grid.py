import dataclasses
import math
import warnings

import numpy as np
import pytest

from longwave.errors import ConfigurationError, GridMismatchError
from longwave.findiff import make_d1
from longwave.grid import (
    Field,
    FlatBottom,
    Grid1D,
    ModelCoefficients,
    SampledBottom,
    SinusoidBottom,
    SlowSinusoidBottom,
    SolitonSpec,
    StepBottom,
    TimeGrid,
    bathymetry_from_config,
    discrete_h1_eps,
    discrete_l2,
    discrete_sobolev,
    soliton_field,
)
from conftest import random_field


class TestGrids:
    def test_length_is_exactly_n_times_dx(self):
        grid = Grid1D(2667, 0.03)
        assert grid.length == 2667 * 0.03
        assert grid.nodes[0] == 0.0
        assert grid.nodes[5] == 5 * 0.03

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid1D(7, 0.1)

    def test_nonpositive_dx_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid1D(16, 0.0)

    def test_from_length_rounds_node_count(self):
        grid = Grid1D.from_length(80.0, 0.03)
        assert grid.num_points == 2667
        assert grid.length == pytest.approx(80.01)

    def test_time_grid_final_time(self):
        tg = TimeGrid(100, 0.05)
        assert tg.final_time == 5.0
        with pytest.raises(ConfigurationError):
            TimeGrid(0, 0.05)
        with pytest.raises(ConfigurationError):
            TimeGrid(10, -1.0)

    def test_time_grid_from_final_time_rounds(self):
        tg = TimeGrid.from_final_time(20.0, 0.03)
        assert tg.num_steps == 667


class TestField:
    def test_shape_mismatch_rejected(self, small_grid):
        with pytest.raises(GridMismatchError):
            Field(np.zeros(10), small_grid)

    def test_nan_rejected(self, small_grid):
        values = np.zeros(small_grid.num_points)
        values[3] = np.nan
        with pytest.raises(ConfigurationError):
            Field(values, small_grid)

    def test_zeros_and_full(self, small_grid):
        assert np.all(Field(np.zeros(small_grid.num_points), small_grid).values == 0.0)
        assert np.all(Field(np.full(small_grid.num_points, 2.5), small_grid).values == 2.5)


class TestBathymetry:
    def test_flat_is_zero_everywhere(self):
        b = FlatBottom()
        assert b.value(-3.7) == 0.0
        assert b.derivative(12.0) == 0.0

    def test_step_midpoint_is_half_height(self):
        b = StepBottom(beta0=0.5, center=40.0, ramp_half_width=1.5)
        assert b.value(40.0) == pytest.approx(0.25, abs=1e-15)

    def test_step_plateaus(self):
        b = StepBottom(beta0=0.5, center=40.0, ramp_half_width=1.5)
        assert b.value(0.0) == pytest.approx(0.0, abs=1e-15)
        assert b.value(-100.0) == pytest.approx(0.0, abs=1e-15)
        assert b.value(41.5) == pytest.approx(0.5, abs=1e-15)
        assert b.value(500.0) == pytest.approx(0.5, abs=1e-15)

    def test_step_continuity_at_ramp_ends(self):
        b = StepBottom(beta0=0.5, center=40.0, ramp_half_width=1.5)
        for edge in (38.5, 41.5):
            left = b.value(edge - 1e-9)
            right = b.value(edge + 1e-9)
            assert abs(left - right) < 1e-12
            dleft = b.derivative(edge - 1e-9)
            dright = b.derivative(edge + 1e-9)
            assert abs(dleft - dright) < 1e-8

    def test_step_derivative_zero_outside_ramp(self):
        b = StepBottom(beta0=0.5, center=40.0, ramp_half_width=1.5)
        assert b.derivative(38.0) == 0.0
        assert b.derivative(42.0) == 0.0

    def test_step_derivative_matches_finite_difference(self):
        b = StepBottom(beta0=0.7, center=10.0, ramp_half_width=2.0)
        h = 1e-6
        for x in (9.0, 10.0, 11.3):
            fd = (b.value(x + h) - b.value(x - h)) / (2 * h)
            assert b.derivative(x) == pytest.approx(fd, rel=1e-8)

    def test_slow_sinusoid_values_and_derivative(self):
        b = SlowSinusoidBottom(amplitude=0.5, frequency=0.1)
        assert b.value(0.0) == 0.0
        x = np.array([-5.0, 0.0, 3.0, 17.0])
        np.testing.assert_allclose(b.value(x), 0.5 * np.sin(0.1 * x))
        np.testing.assert_allclose(
            b.derivative(x), 0.5 * 0.1 * np.cos(0.1 * x)
        )

    def test_sinusoid_with_phase(self):
        b = SinusoidBottom(b0=0.5, wavelength=10.125)
        assert b.value(0.0) == pytest.approx(0.5)
        fd = (b.value(2.0 + 1e-6) - b.value(2.0 - 1e-6)) / 2e-6
        assert b.derivative(2.0) == pytest.approx(fd, rel=1e-8)

    def test_sampled_interpolation_and_extrapolation(self):
        b = SampledBottom(nodes=[0.0, 1.0, 2.0], values=[0.0, 1.0, 0.0])
        assert b.value(0.5) == pytest.approx(0.5)
        assert b.value(-3.0) == 0.0
        assert b.value(9.0) == 0.0
        assert b.derivative(-3.0) == 0.0

    def test_sampled_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            SampledBottom(nodes=[], values=[])

    def test_config_round_trip(self):
        b = bathymetry_from_config(
            {"kind": "step", "beta0": 0.5, "center": 40.0, "ramp_half_width": 1.5}
        )
        assert isinstance(b, StepBottom)
        with pytest.raises(ConfigurationError):
            bathymetry_from_config({"kind": "volcano"})
        with pytest.raises(ConfigurationError):
            bathymetry_from_config({"kind": "step", "beta0": 0.5, "bogus": 1.0})


class TestModelCoefficients:
    def test_balanced_triple_gives_one_twelfth(self):
        c = ModelCoefficients.balanced(0.1)
        for a in (c.a1, c.a2, c.a3, c.a4):
            assert a == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_zero_smoothing_triple(self):
        c = ModelCoefficients.zero_smoothing(0.1)
        assert c.a1 == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert c.a2 == pytest.approx(0.0, abs=1e-12)
        assert c.a4 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_dispersion_sum_identity(self, lam):
        c = ModelCoefficients(math.sqrt(2.0 / 3.0), lam, lam, 0.2)
        assert c.a1 + (c.a2 + c.a4) / 2.0 == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_mismatched_lambdas_rejected(self):
        # lambda1 != lambda2 breaks a1 == a3 for theta = sqrt(2/3)
        with pytest.raises(ConfigurationError):
            ModelCoefficients(math.sqrt(2.0 / 3.0), 1.0, 0.0, 0.1)

    def test_negative_smoothing_rejected(self):
        # lambda1 > 1 makes a2 = (lambda1-1)(theta^2-1)/2 < 0 for theta < 1
        with pytest.raises(ConfigurationError):
            ModelCoefficients(math.sqrt(2.0 / 3.0), 2.0, 2.0, 0.1)

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelCoefficients(1.5, 0.5, 0.5, 0.1)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelCoefficients(math.sqrt(2.0 / 3.0), 0.5, 0.5, 0.0)

    def test_derived_coefficients_cannot_be_passed(self):
        # a1..a4 follow from the triple; a given a1 is refused, not overwritten
        with pytest.raises(TypeError, match="a1"):
            ModelCoefficients(math.sqrt(2.0 / 3.0), 0.5, 0.5, 0.1, a1=1.0)
        c = ModelCoefficients(math.sqrt(2.0 / 3.0), 0.5, 0.5, 0.1)
        assert list(dataclasses.asdict(c)) == ["theta", "lambda1", "lambda2", "epsilon",
                                               "a1", "a2", "a3", "a4"]


class TestSoliton:
    def test_amplitude_at_crest(self):
        spec = SolitonSpec(alpha=0.5, shift=0.0, epsilon=0.2)
        assert spec.evaluate(0.0, 0.0) == pytest.approx(0.5)

    def test_speed_formula(self):
        spec = SolitonSpec(alpha=0.5, shift=0.0, epsilon=0.2)
        assert spec.speed == pytest.approx(1.025)

    def test_width_param_formula(self):
        spec = SolitonSpec(alpha=0.5, shift=0.0, epsilon=0.2)
        assert spec.width_param == pytest.approx(math.sqrt(3 * 0.5 / 8))
        assert spec.width_param == pytest.approx(0.4330127018922193)

    def test_crest_travels_at_speed(self):
        spec = SolitonSpec(alpha=0.5, shift=-10.0, epsilon=0.2)
        grid = Grid1D(800, 0.05)
        f = soliton_field(spec, grid, t=4.0)
        crest = grid.nodes[np.argmax(f.values)]
        assert crest == pytest.approx(10.0 + spec.speed * 4.0, abs=grid.dx)

    def test_nonpositive_amplitude_rejected(self):
        with pytest.raises(ConfigurationError):
            SolitonSpec(alpha=0.0, shift=0.0, epsilon=0.2)

    def test_far_tails_are_zero_without_an_overflow_warning(self):
        # the validate 0.2 window stretched to L = 2000: cosh overflows past
        # |k (x - x0)| ~ 710, and alpha / inf is an exact 0 there
        spec = SolitonSpec(alpha=0.5, shift=-30.0, epsilon=0.2)
        grid = Grid1D.from_length(2000.0, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = soliton_field(spec, grid).values
        far = spec.width_param * np.abs(grid.nodes - 30.0) > 720.0
        assert far.any() and np.all(values[far] == 0.0)
        assert values.max() == 0.5


class TestNorms:
    def test_l2_zero_field(self, small_grid):
        assert discrete_l2(Field(np.zeros(small_grid.num_points), small_grid)) == 0.0

    def test_l2_constant_field_gives_sqrt_length(self, small_grid):
        f = Field(np.full(small_grid.num_points, 1.0), small_grid)
        assert discrete_l2(f) == pytest.approx(math.sqrt(small_grid.length))

    def test_l2_soliton_matches_quadrature_oracle(self):
        # Independent oracle: composite Simpson at dx/100 over the same window,
        # cross-checked against the closed form integral 4 alpha^2 / (3 k).
        alpha = 0.5
        spec = SolitonSpec(alpha=alpha, shift=-40.0, epsilon=0.05)
        grid = Grid1D.from_length(80.0, 0.03)
        f = soliton_field(spec, grid, t=0.0)

        fine = np.linspace(0.0, grid.length, 100 * grid.num_points + 1)
        vals = spec.evaluate(fine, 0.0) ** 2
        h = fine[1] - fine[0]
        simpson = h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())
        closed_form = 4.0 * alpha**2 / (3.0 * spec.width_param)
        assert simpson == pytest.approx(closed_form, rel=1e-10)
        assert discrete_l2(f) == pytest.approx(math.sqrt(simpson), rel=1e-9)

    def test_h1_eps_zero_pair(self, small_grid, balanced_coeffs):
        z = Field(np.zeros(small_grid.num_points), small_grid)
        assert discrete_h1_eps(z, z, balanced_coeffs) == 0.0

    def test_h1_eps_reduces_to_l2_without_smoothing(self, small_grid, rng):
        coeffs = ModelCoefficients.zero_smoothing(0.2)
        v = random_field(small_grid, rng)
        eta = random_field(small_grid, rng)
        expected = math.sqrt(discrete_l2(v) ** 2 + discrete_l2(eta) ** 2)
        assert discrete_h1_eps(v, eta, coeffs) == pytest.approx(expected, rel=1e-13)

    def test_h1_eps_matches_manual_assembly(self, balanced_coeffs):
        spec = SolitonSpec(alpha=0.5, shift=-8.0, epsilon=0.2)
        grid = Grid1D(640, 0.05)
        v = soliton_field(spec, grid)
        eta = soliton_field(spec, grid)
        dv = (np.roll(v.values, -1) - v.values) / grid.dx
        manual = math.sqrt(
            discrete_l2(v) ** 2
            + discrete_l2(eta) ** 2
            + 2 * 0.2 * (1 / 12) * grid.dx * float(np.dot(dv, dv))
        )
        assert discrete_h1_eps(v, eta, balanced_coeffs) == pytest.approx(manual, rel=1e-13)

    def test_h1_eps_grid_mismatch(self, balanced_coeffs):
        v = Field(np.zeros(16), Grid1D(16, 0.1))
        eta = Field(np.zeros(32), Grid1D(32, 0.1))
        with pytest.raises(GridMismatchError):
            discrete_h1_eps(v, eta, balanced_coeffs)

    def test_sobolev_order_zero_is_l2(self, small_grid, rng):
        f = random_field(small_grid, rng)
        assert discrete_sobolev(f, 0) == pytest.approx(discrete_l2(f), rel=1e-14)

    def test_sobolev_constant_field_equals_l2(self, small_grid):
        f = Field(np.full(small_grid.num_points, 3.0), small_grid)
        for s in range(6):
            assert discrete_sobolev(f, s) == pytest.approx(discrete_l2(f), rel=1e-14)

    def test_sobolev_soliton_order_one_matches_analytic_derivative(self):
        # Oracle: d/dx [alpha sech^2(k x)] = -2 alpha k sech^2 tanh, sampled.
        alpha, eps = 0.5, 0.1
        spec = SolitonSpec(alpha=alpha, shift=-40.0, epsilon=eps)
        grid = Grid1D.from_length(80.0, 0.02)
        f = soliton_field(spec, grid)
        k = spec.width_param
        arg = k * (grid.nodes + spec.shift)
        du_exact = -2 * alpha * k / np.cosh(arg) ** 2 * np.tanh(arg)
        oracle = math.sqrt(
            discrete_l2(f) ** 2 + grid.dx * float(np.dot(du_exact, du_exact))
        )
        assert discrete_sobolev(f, 1) == pytest.approx(oracle, rel=1e-5)

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_sobolev_sums_the_steppers_d1_powers_exactly(self, rng, s):
        # dx = 0.03, so that D1's weights +-1/(2 dx) are not powers of two
        grid = Grid1D(64, 0.03)
        f = random_field(grid, rng)
        d1 = make_d1(grid)
        values = f.values
        total = float(np.dot(values, values))
        for _ in range(s):
            values = d1.apply_values(values)
            total += float(np.dot(values, values))
        assert discrete_sobolev(f, s) == math.sqrt(grid.dx * total)

    def test_sobolev_order_out_of_range(self, small_grid):
        f = Field(np.zeros(small_grid.num_points), small_grid)
        with pytest.raises(ConfigurationError):
            discrete_sobolev(f, 6)
        with pytest.raises(ConfigurationError):
            discrete_sobolev(f, -1)

    @pytest.mark.parametrize("norm_s", [0, 1, 2])
    def test_norms_absolutely_homogeneous(self, small_grid, rng, norm_s):
        f = random_field(small_grid, rng)
        scaled = Field(-2.5 * f.values, small_grid)
        assert discrete_sobolev(scaled, norm_s) == pytest.approx(
            2.5 * discrete_sobolev(f, norm_s), rel=1e-12
        )

    @pytest.mark.parametrize("norm_s", [0, 1, 2])
    def test_norms_triangle_inequality(self, small_grid, rng, norm_s):
        for _ in range(5):
            f = random_field(small_grid, rng)
            g = random_field(small_grid, rng)
            fg = Field(f.values + g.values, small_grid)
            assert discrete_sobolev(fg, norm_s) <= (
                discrete_sobolev(f, norm_s) + discrete_sobolev(g, norm_s) + 1e-12
            )

    def test_h1_eps_homogeneous_and_triangle(self, small_grid, rng, balanced_coeffs):
        v1, e1 = random_field(small_grid, rng), random_field(small_grid, rng)
        v2, e2 = random_field(small_grid, rng), random_field(small_grid, rng)
        n1 = discrete_h1_eps(v1, e1, balanced_coeffs)
        scaled = discrete_h1_eps(
            Field(3.0 * v1.values, small_grid), Field(3.0 * e1.values, small_grid),
            balanced_coeffs,
        )
        assert scaled == pytest.approx(3.0 * n1, rel=1e-12)
        summed = discrete_h1_eps(
            Field(v1.values + v2.values, small_grid),
            Field(e1.values + e2.values, small_grid),
            balanced_coeffs,
        )
        assert summed <= n1 + discrete_h1_eps(v2, e2, balanced_coeffs) + 1e-12
