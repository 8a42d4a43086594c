import numpy as np
import pytest

from longwave import kdv
from longwave.boussinesq import BoussinesqProblem, init_boussinesq
from longwave.errors import (
    ConfigurationError,
    InstabilityError,
    MissingSnapshotError,
)
from longwave.findiff import make_d1, make_d3
from longwave.grid import (
    Field,
    Grid1D,
    ModelCoefficients,
    SolitonSpec,
    StepBottom,
    TimeGrid,
    discrete_l2,
    soliton_field,
)
from longwave.kdv import KdvProblem, Trajectory, init_predictor, run, step


def _mirror(values):
    n = len(values)
    idx = (n - np.arange(n)) % n
    return values[idx]


@pytest.fixture
def setup():
    eps = 0.1
    grid = Grid1D.from_length(40.0, 0.05)
    tg = TimeGrid(60, 0.05)
    spec = SolitonSpec(alpha=0.5, shift=-15.0, epsilon=eps)
    return eps, grid, tg, spec


class TestInitPredictor:
    def test_zero_initial_data_gives_zero_predictor(self, setup):
        eps, grid, tg, _ = setup
        state = init_predictor(KdvProblem(eps, grid, tg), Field(np.zeros(grid.num_points), grid))
        np.testing.assert_allclose(state.predictor, 0.0)
        assert state.step_index == 0

    def test_constant_initial_data_unchanged(self, setup):
        eps, grid, tg, _ = setup
        state = init_predictor(KdvProblem(eps, grid, tg),
                               Field(np.full(grid.num_points, 0.3), grid))
        np.testing.assert_allclose(state.predictor, 0.3, atol=1e-15)

    def test_matches_hand_assembled_half_step(self, setup):
        eps, grid, tg, spec = setup
        u0 = soliton_field(spec, grid)
        state = init_predictor(KdvProblem(eps, grid, tg), u0)
        d1 = make_d1(grid).apply_values(u0.values)
        d3 = make_d3(grid).apply_values(u0.values)
        expected = u0.values + 0.5 * tg.dt * (
            -d1 - eps * (0.75 * u0.values * d1 + d3 / 6.0)
        )
        np.testing.assert_allclose(state.predictor, expected, atol=1e-14)


class TestStep:
    def test_zero_is_fixed_point(self, setup):
        eps, grid, tg, _ = setup
        problem = KdvProblem(eps, grid, tg)
        state = init_predictor(problem, Field(np.zeros(grid.num_points), grid))
        state = step(problem, state)
        np.testing.assert_allclose(state.current, 0.0, atol=1e-14)

    def test_constant_is_fixed_point(self, setup):
        eps, grid, tg, _ = setup
        problem = KdvProblem(eps, grid, tg)
        state = init_predictor(problem, Field(np.full(grid.num_points, 0.4), grid))
        for _ in range(3):
            state = step(problem, state)
        np.testing.assert_allclose(state.current, 0.4, atol=1e-12)

    def test_one_step_preserves_l2(self):
        eps = 0.05
        grid = Grid1D.from_length(80.0, 0.03)
        tg = TimeGrid(10, 0.03)
        spec = SolitonSpec(alpha=0.5, shift=-30.0, epsilon=eps)
        problem = KdvProblem(eps, grid, tg)
        state = init_predictor(problem, soliton_field(spec, grid))
        before = discrete_l2(Field(state.current, grid))
        state = step(problem, state)
        after = discrete_l2(Field(state.current, grid))
        assert abs(after - before) / before < 1e-10

    def test_relaxation_recurrence(self, setup):
        eps, grid, tg, spec = setup
        problem = KdvProblem(eps, grid, tg)
        state = init_predictor(problem, soliton_field(spec, grid))
        pred_before = state.predictor.copy()
        new = step(problem, state)
        np.testing.assert_allclose(
            new.predictor, 2.0 * new.current - pred_before, atol=1e-14
        )

    def test_split_form_close_to_default(self, setup):
        eps, grid, tg, spec = setup
        u0 = soliton_field(spec, grid)
        states = {}
        for mode in ("neighbor_average", "split_form"):
            problem = KdvProblem(eps, grid, tg, nonlinear_mode=mode)
            states[mode] = step(problem, init_predictor(problem, u0))
        diff = np.max(np.abs(states["neighbor_average"].current
                             - states["split_form"].current))
        assert 0.0 < diff < 1e-6  # distinct assemblies, O(eps dt dx^2) apart

    def test_runs_of_one_problem_keep_their_own_state(self, setup):
        # the step operator, its kept LU and the guess history belong to a
        # run, so two runs of one problem stepped alternately match the same
        # runs stepped one after the other, bit for bit
        eps, grid, tg, spec = setup
        problem = KdvProblem(eps, grid, tg)
        u0 = soliton_field(spec, grid)
        starts = [u0, Field(0.5 * _mirror(u0.values), grid)]
        alone = []
        for u0 in starts:
            state = init_predictor(problem, u0)
            for _ in range(12):
                state = step(problem, state)
            alone.append(state.current)
        states = [init_predictor(problem, u0) for u0 in starts]
        for _ in range(12):
            states = [step(problem, state) for state in states]
        for state, expected in zip(states, alone):
            assert np.array_equal(state.current, expected)

    @pytest.mark.parametrize("model", ["K", "B"])
    def test_advancing_a_state_twice_gives_the_same_successor(self, setup, model):
        # a state is a value: its step computes in place only in fresh arrays
        # and writes w into the one history row that its guess does not read,
        # so a second advance with the same kept LU repeats the first bit for bit
        eps, grid, tg, spec = setup
        u0 = soliton_field(spec, grid)
        if model == "K":
            problem = KdvProblem(eps, grid, tg)
            state = init_predictor(problem, u0)
        else:
            problem = BoussinesqProblem(ModelCoefficients.balanced(eps),
                                        StepBottom(0.5, 20.0, 1.5), grid, tg)
            half = Field(u0.values / 2.0, grid)
            state = init_boussinesq(problem, half, half)
        for _ in range(12):
            state = kdv._advance(problem, state)
        current, predictor = state.current.copy(), state.predictor.copy()
        factorizations = state.operator.factorizations
        first = kdv._advance(problem, state)
        second = kdv._advance(problem, state)
        assert state.operator.factorizations == factorizations
        assert np.array_equal(state.current, current)
        assert np.array_equal(state.predictor, predictor)
        assert first.step_index == second.step_index == state.step_index + 1
        assert first.current is not second.current
        assert np.array_equal(first.current, second.current)
        assert np.array_equal(first.predictor, second.predictor)
        assert not np.array_equal(first.current, current)


class TestRun:
    def test_zero_data_all_snapshots_zero(self, setup):
        eps, grid, tg, _ = setup
        traj = run(KdvProblem(eps, grid, tg), Field(np.zeros(grid.num_points), grid), stride=10)
        assert np.all(traj.data == 0.0)
        with pytest.raises(ValueError):
            traj.data[0, 0] = 1.0

    def test_snapshot_plan_includes_final(self, setup):
        eps, grid, tg, spec = setup
        traj = run(KdvProblem(eps, grid, tg), soliton_field(spec, grid), stride=7)
        assert traj.step_indices[0] == 0
        assert traj.step_indices[-1] == tg.num_steps
        assert np.all(np.diff(traj.step_indices) > 0)

    def test_missing_snapshot_raises(self, setup):
        eps, grid, tg, spec = setup
        traj = run(KdvProblem(eps, grid, tg), soliton_field(spec, grid), stride=10)
        with pytest.raises(MissingSnapshotError):
            traj.at_step(5)
        with pytest.raises(MissingSnapshotError):
            traj.at_step(traj.step_of_time(0.05 * 5))
        with pytest.raises(MissingSnapshotError):
            traj.at_step(traj.step_of_time(0.0333))  # not a step multiple

    def test_full_history_detection(self, setup):
        eps, grid, tg, spec = setup
        full = run(KdvProblem(eps, grid, tg), soliton_field(spec, grid), stride=1)
        sparse = run(KdvProblem(eps, grid, tg), soliton_field(spec, grid), stride=10)
        assert full.has_every_step_upto(tg.num_steps)
        assert not sparse.has_every_step_upto(tg.num_steps)
        assert not full.has_every_step_upto(tg.num_steps + 1)
        data = np.zeros((4, grid.num_points))
        gap = Trajectory(grid, tg.dt, [0, 1, 3, 4], data)
        assert gap.has_every_step_upto(1)
        assert not gap.has_every_step_upto(2)
        assert not gap.has_every_step_upto(3)
        negative = Trajectory(grid, tg.dt, [-1, 0, 1, 2], data)
        assert not negative.has_every_step_upto(1)
        assert not negative.has_every_step_upto(2)
        assert not full.has_every_step_upto(-1)

    def test_step_hook_sees_every_step(self, setup):
        eps, grid, tg, spec = setup
        problem = KdvProblem(eps, grid, tg)
        full = run(problem, soliton_field(spec, grid), stride=1)
        seen = []
        run(problem, soliton_field(spec, grid), stride=10,
            on_step=lambda m, u: seen.append((m, u.copy())))
        assert [m for m, _ in seen] == list(range(tg.num_steps + 1))
        assert all(np.array_equal(u, full.at_step(m)) for m, u in seen)

    def test_invalid_stride(self, setup):
        eps, grid, tg, spec = setup
        with pytest.raises(ConfigurationError):
            run(KdvProblem(eps, grid, tg), soliton_field(spec, grid), stride=0)

    def test_memory_guard(self):
        eps = 0.1
        grid = Grid1D(200_000, 0.01)
        tg = TimeGrid(1_000, 0.01)
        with pytest.raises(ConfigurationError, match="1 GB guard"):
            run(KdvProblem(eps, grid, tg), Field(np.zeros(grid.num_points), grid), stride=1)

    def test_work_guard(self, monkeypatch):
        # 1e5 nodes x (1e5 + 1) steps is just above 1e10 node-steps; the
        # guard fires before the run starts
        def no_start(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(kdv, "_start", no_start)
        grid = Grid1D(100_000, 0.01)
        tg = TimeGrid(100_001, 0.01)
        with pytest.raises(ConfigurationError, match="node-steps"):
            run(KdvProblem(0.1, grid, tg), Field(np.zeros(grid.num_points), grid),
                stride=100_001)

    def test_l2_drift_over_run(self):
        eps = 0.2
        grid = Grid1D.from_length(80.0, 0.05)
        tg = TimeGrid.from_final_time(5.0, 0.05)
        spec = SolitonSpec(alpha=0.5, shift=-30.0, epsilon=eps)
        u0 = soliton_field(spec, grid)
        traj = run(KdvProblem(eps, grid, tg), u0, stride=20)
        ref = discrete_l2(u0)
        drifts = [abs(discrete_l2(Field(traj.data[i], grid)) - ref) / ref
                  for i in range(len(traj.step_indices))]
        assert max(drifts) < 1e-6

    def test_halving_step_reduces_error_fourfold(self):
        eps, alpha = 0.1, 0.5
        errors = []
        for d in (0.08, 0.04):
            grid = Grid1D(int(round(40.0 / d)), d)
            tg = TimeGrid(int(round(4.0 / d)), d)
            spec = SolitonSpec(alpha=alpha, shift=-15.0, epsilon=eps)
            traj = run(KdvProblem(eps, grid, tg), soliton_field(spec, grid),
                       stride=tg.num_steps)
            exact = soliton_field(spec, grid, tg.final_time)
            errors.append(np.max(np.abs(traj.at_step(tg.num_steps) - exact.values)))
        assert 3.0 <= errors[0] / errors[1] <= 5.0

    def test_instability_reports_step_index(self, setup, monkeypatch):
        # the per-step non-finite check must fire and carry the step index
        from longwave.findiff import StepOperator

        eps, grid, tg, spec = setup
        problem = KdvProblem(eps, grid, tg)
        state = init_predictor(problem, soliton_field(spec, grid))
        state = step(problem, state)

        def poisoned_solve(self, rhs, guess=None):
            out = np.full_like(np.asarray(rhs, dtype=float), np.inf)
            return out

        monkeypatch.setattr(StepOperator, "solve", poisoned_solve)
        with pytest.raises(InstabilityError) as excinfo:
            step(problem, state)
        assert excinfo.value.step_index == state.step_index + 1
