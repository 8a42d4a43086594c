"""Hypothesis properties of the relaxation step shared by both steppers.

* One coupled step in the conservative assembly conserves the energy
  ``discrete_h1_eps`` to round-off, for any admissible coefficients, any
  bottom and any data.
* Mirror symmetry: (v, eta) -> (-v(-x), eta(-x)) maps the coupled step on a
  flat bottom onto itself in the conservative assembly.
* One scalar step in the ``split_form`` assembly conserves the discrete L2
  norm to round-off, for any grid, dt, epsilon and data: its step matrix is
  (2/dt) I plus a skew-symmetric part.  The default ``neighbor_average``
  assembly does not (its drift is a truncation error, not round-off).

The two coupled properties draw the zero-smoothing coefficients (a2 = a4 = 0) for about half their
examples, besides the general admissible ones (so the example counts are
doubled), and run them as an explicit example, so every run covers the mass
terms with zero D2 parts.
"""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from longwave.boussinesq import BoussinesqProblem, init_boussinesq, step_boussinesq
from longwave.grid import (
    Field,
    FlatBottom,
    Grid1D,
    ModelCoefficients,
    SinusoidBottom,
    StepBottom,
    TimeGrid,
    discrete_h1_eps,
    discrete_l2,
)
from longwave.kdv import KdvProblem, init_predictor, step

grids = st.builds(Grid1D, st.integers(16, 400), st.floats(0.01, 0.5))
epsilons = st.floats(0.01, 0.5)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def admissible_coefficients(draw, epsilon):
    """Draw theta and lambda1, then solve lambda2 from a1 = a3."""
    theta = draw(st.floats(0.0, 1.0))
    lambda1 = draw(st.floats(-0.5, 1.0))
    c = theta**2 / 2.0 - 1.0 / 6.0
    assume(abs(c) > 1e-3)
    a1 = -lambda1 * (theta**2 - 1.0) / 2.0
    lambda2 = a1 / c
    a2 = (lambda1 - 1.0) * (theta**2 - 1.0) / 2.0
    a4 = (1.0 - lambda2) * c
    assume(a2 >= 0.0 and a4 >= 0.0)
    return ModelCoefficients(theta, lambda1, lambda2, epsilon)


coefficients = epsilons.flatmap(lambda eps: st.one_of(
    st.just(ModelCoefficients.zero_smoothing(eps)), admissible_coefficients(eps)))
zero_smoothing = ModelCoefficients.zero_smoothing(0.2)


def _bottom(kind, grid):
    if kind == "flat":
        return FlatBottom()
    if kind == "step":
        return StepBottom(0.5, grid.length / 2.0, max(1.5, 2.0 * grid.dx))
    return SinusoidBottom(0.5, grid.length / 3.0)


def _mirror(values):
    n = len(values)
    return values[(n - np.arange(n)) % n]


def _fields(state, grid):
    return Field(state.current[0::2], grid), Field(state.current[1::2], grid)


@settings(max_examples=240, deadline=None)
@given(grid=grids, coeffs=coefficients, seed=seeds,
       bottom=st.sampled_from(["flat", "step", "sinusoid"]),
       amplitude=st.floats(0.01, 1.0))
@example(grid=Grid1D(64, 0.1), coeffs=zero_smoothing, seed=0, bottom="step", amplitude=0.5)
def test_coupled_step_conserves_h1_eps(grid, coeffs, seed, bottom, amplitude):
    rng = np.random.default_rng(seed)
    v0 = Field(amplitude * rng.standard_normal(grid.num_points), grid)
    eta0 = Field(amplitude * rng.standard_normal(grid.num_points), grid)
    problem = BoussinesqProblem(coeffs, _bottom(bottom, grid), grid, TimeGrid(1, grid.dx))
    before = discrete_h1_eps(v0, eta0, coeffs)
    state = step_boussinesq(problem, init_boussinesq(problem, v0, eta0))
    after = discrete_h1_eps(*_fields(state, grid), coeffs)
    assert abs(after - before) <= 1e-12 * before


@settings(max_examples=160, deadline=None)
@given(grid=grids, coeffs=coefficients, seed=seeds, amplitude=st.floats(0.01, 1.0))
@example(grid=Grid1D(64, 0.1), coeffs=zero_smoothing, seed=0, amplitude=0.5)
def test_mirror_maps_coupled_flat_bottom_onto_itself(grid, coeffs, seed, amplitude):
    rng = np.random.default_rng(seed)
    v0 = amplitude * rng.standard_normal(grid.num_points)
    eta0 = amplitude * rng.standard_normal(grid.num_points)
    problem = BoussinesqProblem(coeffs, FlatBottom(), grid, TimeGrid(2, grid.dx))
    state = init_boussinesq(problem, Field(v0, grid), Field(eta0, grid))
    mirrored = init_boussinesq(problem, Field(-_mirror(v0), grid), Field(_mirror(eta0), grid))
    for _ in range(2):
        state, mirrored = step_boussinesq(problem, state), step_boussinesq(problem, mirrored)
    v, eta = _fields(state, grid)
    v_m, eta_m = _fields(mirrored, grid)
    np.testing.assert_allclose(v_m.values, -_mirror(v.values), rtol=0, atol=1e-11 * amplitude)
    np.testing.assert_allclose(eta_m.values, _mirror(eta.values), rtol=0,
                               atol=1e-11 * amplitude)


@settings(max_examples=120, deadline=None)
@given(grid=grids, dt=st.floats(0.001, 0.5), epsilon=epsilons, seed=seeds,
       amplitude=st.floats(0.01, 1.0))
@example(grid=Grid1D(64, 0.1), dt=0.1, epsilon=0.2, seed=0, amplitude=0.5)
def test_split_form_kdv_step_conserves_l2(grid, dt, epsilon, seed, amplitude):
    rng = np.random.default_rng(seed)
    u0 = Field(amplitude * rng.standard_normal(grid.num_points), grid)
    problem = KdvProblem(epsilon, grid, TimeGrid(1, dt), nonlinear_mode="split_form")
    state = step(problem, init_predictor(problem, u0))
    before, after = discrete_l2(u0), discrete_l2(Field(state.current, grid))
    assert abs(after - before) <= 1e-12 * before
