import ctypes

import numpy as np
import pytest

from longwave import findiff
from longwave.boussinesq import (
    BoussinesqProblem,
    init_boussinesq,
    run_boussinesq,
    step_boussinesq,
)
from longwave.errors import ConfigurationError, SolverError
from longwave.findiff import StepOperator, make_d1, make_d2, make_d3
from longwave.grid import (
    Field,
    FlatBottom,
    Grid1D,
    ModelCoefficients,
    SolitonSpec,
    StepBottom,
    TimeGrid,
    discrete_h1_eps,
    soliton_field,
)
from longwave.scenarios import ScenarioConfig
from conftest import DenseRecorder, as_dense


def _mirror(values):
    n = len(values)
    return values[(n - np.arange(n)) % n]


@pytest.fixture
def setup():
    eps = 0.2
    grid = Grid1D.from_length(40.0, 0.05)
    tg = TimeGrid(50, 0.05)
    coeffs = ModelCoefficients.balanced(eps)
    spec = SolitonSpec(alpha=0.5, shift=-15.0, epsilon=eps)
    u0 = soliton_field(spec, grid)
    half = Field(u0.values / 2.0, grid)
    return eps, grid, tg, coeffs, half


class TestInit:
    def test_zero_data_zero_predictors(self, setup):
        _, grid, tg, coeffs, _ = setup
        problem = BoussinesqProblem(coeffs, FlatBottom(), grid, tg)
        zero = Field(np.zeros(grid.num_points), grid)
        state = init_boussinesq(problem, zero, zero)
        np.testing.assert_allclose(state.predictor[0::2], 0.0)
        np.testing.assert_allclose(state.predictor[1::2], 0.0)

    def test_constant_pair_is_stationary_on_flat_bottom(self, setup):
        _, grid, tg, coeffs, _ = setup
        problem = BoussinesqProblem(coeffs, FlatBottom(), grid, tg)
        c = Field(np.full(grid.num_points, 0.3), grid)
        state = init_boussinesq(problem, c, c)
        np.testing.assert_allclose(state.predictor[0::2], 0.3, atol=1e-13)
        np.testing.assert_allclose(state.predictor[1::2], 0.3, atol=1e-13)

    def test_matches_hand_assembled_half_step(self, setup):
        eps, grid, tg, coeffs, half = setup
        problem = BoussinesqProblem(coeffs, FlatBottom(), grid, tg)
        state = init_boussinesq(problem, half, half)

        d1 = make_d1(grid)
        d2 = make_d2(grid)
        d3 = make_d3(grid)
        v, eta = half.values, half.values
        f_v = -(d1.apply_values(eta)
                + eps * (0.5 * eta * d1.apply_values(eta)
                         + 1.5 * v * d1.apply_values(v)
                         + coeffs.a1 * d3.apply_values(eta)))
        f_eta = -(d1.apply_values(v)
                  + eps * (0.5 * d1.apply_values(eta * v)
                           + coeffs.a1 * d3.apply_values(v)))
        # invert the (I - eps a D2) factors with a dense solve as the oracle
        n = grid.num_points
        mass_v = np.eye(n) - eps * coeffs.a2 * as_dense(d2)
        mass_e = np.eye(n) - eps * coeffs.a4 * as_dense(d2)
        expected_v = half.values + 0.5 * tg.dt * np.linalg.solve(mass_v, f_v)
        expected_e = half.values + 0.5 * tg.dt * np.linalg.solve(mass_e, f_eta)
        np.testing.assert_allclose(state.predictor[0::2], expected_v, atol=1e-13)
        np.testing.assert_allclose(state.predictor[1::2], expected_e, atol=1e-13)


class TestStep:
    def test_zero_state_stays_zero(self, setup):
        _, grid, tg, coeffs, _ = setup
        problem = BoussinesqProblem(coeffs, FlatBottom(), grid, tg)
        zero = Field(np.zeros(grid.num_points), grid)
        state = init_boussinesq(problem, zero, zero)
        state = step_boussinesq(problem, state)
        np.testing.assert_allclose(state.current[0::2], 0.0, atol=1e-14)
        np.testing.assert_allclose(state.current[1::2], 0.0, atol=1e-14)

    def test_one_step_preserves_h1_eps(self, setup):
        _, grid, tg, coeffs, half = setup
        problem = BoussinesqProblem(coeffs, FlatBottom(), grid, tg)
        state = init_boussinesq(problem, half, half)
        before = discrete_h1_eps(Field(state.current[0::2], grid),
                                 Field(state.current[1::2], grid), coeffs)
        state = step_boussinesq(problem, state)
        after = discrete_h1_eps(Field(state.current[0::2], grid),
                                Field(state.current[1::2], grid), coeffs)
        assert abs(after - before) / before < 1e-10

    def test_bottom_matrix_is_profile_at_nodes(self, setup):
        _, grid, tg, coeffs, _ = setup
        bottom = StepBottom(0.5, 20.0, 1.5)
        problem = BoussinesqProblem(coeffs, bottom, grid, tg)
        np.testing.assert_allclose(problem.bottom_matrix, bottom.sample(grid))
        node = int(round(20.0 / grid.dx))
        assert problem.bottom_matrix[node] == pytest.approx(0.25, abs=1e-12)

    def test_mirror_symmetry_flat_bottom(self, setup):
        # (v, eta) -> (-v(-x), eta(-x)) maps solutions to solutions
        eps, grid, tg, coeffs, half = setup
        problem = BoussinesqProblem(coeffs, FlatBottom(), grid, tg)
        state = init_boussinesq(problem, half, half)
        for _ in range(5):
            state = step_boussinesq(problem, state)

        v0_m = Field(-_mirror(half.values), grid)
        e0_m = Field(_mirror(half.values), grid)
        state_m = init_boussinesq(problem, v0_m, e0_m)
        for _ in range(5):
            state_m = step_boussinesq(problem, state_m)
        np.testing.assert_allclose(
            state_m.current[0::2], -_mirror(state.current[0::2]), atol=1e-10
        )
        np.testing.assert_allclose(
            state_m.current[1::2], _mirror(state.current[1::2]), atol=1e-10
        )

    def test_printed_assembly_differs_but_stays_close(self, setup):
        eps, grid, tg, coeffs, half = setup
        results = {}
        for mode in ("conservative", "weighted"):
            problem = BoussinesqProblem(coeffs, FlatBottom(), grid, tg,
                                        nonlinear_mode=mode)
            state = init_boussinesq(problem, half, half)
            state = step_boussinesq(problem, state)
            results[mode] = state.current[1::2]
        diff = np.max(np.abs(results["conservative"] - results["weighted"]))
        assert 0.0 < diff < 1e-5

    def test_lagged_eta_level_flag(self, setup):
        eps, grid, tg, coeffs, half = setup
        results = {}
        for level in ("n", "predictor"):
            problem = BoussinesqProblem(coeffs, FlatBottom(), grid, tg,
                                        nonlinear_mode="weighted",
                                        lagged_eta_level=level)
            state = init_boussinesq(problem, half, half)
            for _ in range(2):
                state = step_boussinesq(problem, state)
            results[level] = state.current[1::2]
        diff = np.max(np.abs(results["n"] - results["predictor"]))
        assert 0.0 < diff < 1e-6

    def test_unknown_mode_rejected(self, setup):
        _, grid, tg, coeffs, _ = setup
        with pytest.raises(ConfigurationError):
            BoussinesqProblem(coeffs, FlatBottom(), grid, tg, nonlinear_mode="bogus")

    def test_predictor_lagged_level_needs_the_weighted_mode(self, setup):
        # only the weighted assembly reads the lagged eta level
        _, grid, tg, coeffs, _ = setup
        with pytest.raises(ConfigurationError, match="read only by the 'weighted'"):
            BoussinesqProblem(coeffs, FlatBottom(), grid, tg, lagged_eta_level="predictor")


class TestRun:
    def test_zero_run(self, setup):
        _, grid, tg, coeffs, _ = setup
        traj = run_boussinesq(
            BoussinesqProblem(coeffs, FlatBottom(), grid, tg),
            Field(np.zeros(grid.num_points), grid), Field(np.zeros(grid.num_points), grid),
            stride=10,
        )
        assert np.all(traj.v_data == 0.0) and np.all(traj.eta_data == 0.0)
        for data in (traj.v_data, traj.eta_data):
            with pytest.raises(ValueError):
                data[0, 0] = 1.0

    def test_flat_bottom_conservation_over_run(self, setup):
        _, grid, tg, coeffs, half = setup
        traj = run_boussinesq(
            BoussinesqProblem(coeffs, FlatBottom(), grid, tg), half, half, stride=10,
        )
        ref = discrete_h1_eps(half, half, coeffs)
        for i in range(len(traj.step_indices)):
            v = Field(traj.v_data[i], grid)
            eta = Field(traj.eta_data[i], grid)
            assert abs(discrete_h1_eps(v, eta, coeffs) - ref) / ref < 1e-6

    def test_step_bottom_drift_bounded(self):
        # no exact conservation is claimed over topography; drift must stay
        # below 5% over a time span of 1/eps
        eps = 0.2
        grid = Grid1D.from_length(80.0, 0.05)
        tg = TimeGrid.from_final_time(5.0, 0.05)
        coeffs = ModelCoefficients.balanced(eps)
        spec = SolitonSpec(alpha=0.5, shift=-38.0, epsilon=eps)
        half = Field(soliton_field(spec, grid).values / 2.0, grid)
        traj = run_boussinesq(
            BoussinesqProblem(coeffs, StepBottom(0.5, 40.0, 1.5), grid, tg),
            half, half, stride=20,
        )
        ref = discrete_h1_eps(half, half, coeffs)
        drifts = [
            abs(discrete_h1_eps(Field(traj.v_data[i], grid),
                                Field(traj.eta_data[i], grid), coeffs) - ref) / ref
            for i in range(len(traj.step_indices))
        ]
        assert max(drifts) < 0.05

    def test_step_bottom_conserves_h1_eps(self):
        # the conservative assembly conserves the forward-difference energy
        # to round-off over topography as well, not only on a flat bottom
        eps = 0.2
        grid = Grid1D.from_length(80.0, 0.05)
        tg = TimeGrid.from_final_time(5.0, 0.05)
        coeffs = ModelCoefficients.balanced(eps)
        spec = SolitonSpec(alpha=0.5, shift=-38.0, epsilon=eps)
        half = Field(soliton_field(spec, grid).values / 2.0, grid)
        traj = run_boussinesq(
            BoussinesqProblem(coeffs, StepBottom(0.5, 40.0, 1.5), grid, tg),
            half, half, stride=20,
        )
        ref = discrete_h1_eps(half, half, coeffs)
        drifts = [
            abs(discrete_h1_eps(Field(traj.v_data[i], grid),
                                Field(traj.eta_data[i], grid), coeffs) - ref) / ref
            for i in range(len(traj.step_indices))
        ]
        assert len(drifts) > 4 and max(drifts) <= 1e-12

    def test_on_step_sees_every_step_once_in_order(self, setup):
        _, grid, tg, coeffs, half = setup
        problem = BoussinesqProblem(coeffs, StepBottom(0.5, 20.0, 1.5), grid, tg)
        full = run_boussinesq(problem, half, half, stride=1)
        seen = []
        run_boussinesq(problem, half, half, stride=10,
                       on_step=lambda m, z: seen.append((m, z.copy())))
        assert [m for m, _ in seen] == list(range(tg.num_steps + 1))
        for m, z in seen:
            v, eta = full.at_step(m)
            assert np.array_equal(z[0::2], v) and np.array_equal(z[1::2], eta)

    def test_solver_failure_names_its_step(self, setup, monkeypatch):
        _, grid, tg, coeffs, half = setup
        original = StepOperator.solve
        block_solves = []

        def failing_solve(self, rhs, guess=None):
            if self.n == 2 * grid.num_points:  # the per-step block system
                block_solves.append(self.n)
                if len(block_solves) == 3:
                    raise SolverError("planted failure")
            return original(self, rhs, guess)

        monkeypatch.setattr(StepOperator, "solve", failing_solve)
        with pytest.raises(SolverError, match=r"planted failure \(at step 3\)"):
            run_boussinesq(BoussinesqProblem(coeffs, FlatBottom(), grid, tg),
                           half, half, stride=10)

    def test_pair_lookup(self, setup):
        _, grid, tg, coeffs, half = setup
        traj = run_boussinesq(
            BoussinesqProblem(coeffs, FlatBottom(), grid, tg), half, half, stride=25,
        )
        v, eta = traj.at_step(traj.step_of_time(25 * tg.dt))
        np.testing.assert_array_equal(v, traj.v_data[1])
        np.testing.assert_array_equal(eta, traj.eta_data[1])

    def test_block_system_solve_roundtrip(self, setup, rng):
        # solve(A, A x) == x for the coupled per-step system matrix: the run's
        # step operator against the dense matrix the same terms record
        _, grid, tg, coeffs, half = setup
        problem = BoussinesqProblem(coeffs, StepBottom(0.5, 20.0, 1.5), grid, tg)
        state = init_boussinesq(problem, half, half)
        operator = state.operator
        operator.reset()
        problem.add_predictor_terms(operator, state.predictor, state.current)
        reference = DenseRecorder(operator.n, operator.blocks)
        problem.add_constant_terms(reference)
        problem.add_predictor_terms(reference, state.predictor, state.current)
        x = rng.standard_normal(2 * grid.num_points)
        x_hat = operator.solve(reference.matrix @ x)
        assert np.max(np.abs(x_hat - x)) <= 1e-10 * np.max(np.abs(x))

    @pytest.mark.parametrize("mode", ["conservative", "weighted"])
    def test_step_band_matches_scatter_assembly(self, setup, mode):
        # After a few steps (so every slot exists and holds an earlier step's
        # values), one more step's band equals the band assembled the way it
        # was before slots: the constant band copied, then one += scatter per
        # term.
        _, grid, tg, coeffs, half = setup
        problem = BoussinesqProblem(coeffs, StepBottom(0.5, 20.0, 1.5), grid, tg,
                                    nonlinear_mode=mode)
        state = init_boussinesq(problem, half, half)
        for _ in range(3):
            state = step_boussinesq(problem, state)
        operator = state.operator
        reference = _ScatterBand(StepOperator(operator.n, 2, problem.add_constant_terms))
        operator.reset()
        problem.add_predictor_terms(operator, state.predictor, state.current)
        rhs = problem.add_predictor_terms(reference, state.predictor, state.current)
        operator.solve(rhs, state.predictor)
        assert np.array_equal(operator._work, reference.band)

    def test_surfaces_track_scalar_model_at_large_time(self):
        # flat bottom: coupled and uncoupled surfaces agree to within 0.1*alpha
        # at t = 1/eps (the regime where the two-wave reduction is justified)
        eps, alpha = 0.05, 0.5
        grid = Grid1D.from_length(80.0, 0.03)
        tg = TimeGrid.from_final_time(1.0 / eps, 0.03)
        coeffs = ModelCoefficients.balanced(eps)
        spec = SolitonSpec(alpha=alpha, shift=-30.0, epsilon=eps)
        u0 = soliton_field(spec, grid)
        half = Field(u0.values / 2.0, grid)
        from longwave.kdv import KdvProblem, run

        u_traj = run(KdvProblem(eps, grid, tg), u0, stride=tg.num_steps)
        b_traj = run_boussinesq(
            BoussinesqProblem(coeffs, FlatBottom(), grid, tg), half, half,
            stride=tg.num_steps,
        )
        _, eta_b = b_traj.at_step(tg.num_steps)
        eta_k = u_traj.at_step(tg.num_steps) / 2.0
        assert np.max(np.abs(eta_k - eta_b)) < 0.1 * alpha


class _ScatterBand:
    """A step's band as assembled before slots: a copy of the constant band
    of ``constant`` (a freshly built step operator), then each term added
    through one fancy-index += over its scatter indices."""

    def __init__(self, constant: StepOperator):
        self.n, self.blocks = constant.n, constant.blocks
        self.band = constant._work.copy(order="F")
        self._pos, self._k = findiff._fold_layout(self.n, 3 * self.blocks - 1)

    def add_shift(self, values, offset, block=(0, 0), sign=1) -> None:
        row, col = block
        self._add(self.blocks * offset + col - row, row, sign * values)

    def add_diagonal(self, values, block=(0, 0)) -> None:
        self.add_shift(values, 0, block)

    def add_operator(self, op, pre_diag=None, post_diag=None, scale=1.0, block=(0, 0)) -> None:
        row, col = block
        for off, c in zip(op.offsets, op.coeffs):
            contrib = np.full(op.n, scale * c)
            if pre_diag is not None:
                contrib = contrib * pre_diag
            if post_diag is not None:
                contrib = contrib * np.roll(post_diag, -off)
            self._add(self.blocks * off + col - row, row, contrib)

    def _add(self, offset, row, values) -> None:
        flat = self.band.reshape(-1, order="F")
        flat[findiff._band_indices(self._pos, self._k, offset, row, self.blocks)] += values


def test_kept_factors_hold_no_subnormals(monkeypatch):
    # On the step eps=0.1 geometry (n=2000, 4000 unknowns) the fill that
    # couples the two halves of the fold decays through the subnormal range
    # in a plain LU of the step matrix; the factors an LU application hands
    # to the two triangular solves, and the inverse pivots it scales by,
    # hold none of it.
    config = ScenarioConfig(scenario="step", epsilon=0.1, overtime=True)
    grid, time_grid = config.build_grid(), config.build_time_grid()
    problem = BoussinesqProblem(config.build_coefficients(), config.build_bathymetry(),
                                grid, time_grid)
    half = Field(soliton_field(config.build_soliton(), grid).values / 2.0, grid)
    state = init_boussinesq(problem, half, half)
    for _ in range(20):
        state = step_boussinesq(problem, state)
    operator = state.operator

    def subnormals(a):
        return int(np.sum((a != 0.0) & (np.abs(a) < np.finfo(float).tiny)))

    k = operator._k
    plain = np.zeros((3 * k + 1, operator.n), order="F")
    plain[k:] = operator._work
    plain, _, info = findiff.dgbtrf(plain, k, k)
    assert info == 0 and subnormals(plain) > 0
    assert operator.factorizations > 0

    applied = []
    solve = findiff._dtbsv

    def spy(*args):
        # dtbsv's (uplo, trans, diag, n, k, a, lda, x, incx): its band a holds
        # lda rows per column, of which a solve of half-width k reads k + 1
        n, k, lda = (args[i].contents.value for i in (3, 4, 6))
        data = ctypes.cast(args[5], ctypes.POINTER(ctypes.c_double))
        applied.append(np.ctypeslib.as_array(data, shape=(n, lda))[:, :k + 1].copy())
        solve(*args)

    monkeypatch.setattr(findiff, "_dtbsv", spy)
    operator._apply_lu(np.ones(operator.n))
    assert len(applied) == 2
    assert all(subnormals(factor) == 0 for factor in applied)
    assert subnormals(operator._inverse_pivots) == 0
