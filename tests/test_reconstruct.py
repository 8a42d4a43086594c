import gc
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
from conftest import bottom_shift_integral, characteristic_cross_integral
from hypothesis import given, settings, strategies as st

from longwave.boussinesq import BoussinesqProblem, run_boussinesq
from longwave.errors import ConfigurationError, DiagnosticError, MissingSnapshotError
from longwave.findiff import make_d1
from longwave.grid import (
    Field,
    FlatBottom,
    Grid1D,
    ModelCoefficients,
    SinusoidBottom,
    SlowSinusoidBottom,
    SolitonSpec,
    StepBottom,
    TimeGrid,
    bathymetry_from_config,
    discrete_sobolev,
    soliton_field,
)
from longwave.kdv import KdvProblem, Trajectory, run
from longwave.reconstruct import (
    TERM_NAMES,
    _OF_TRAJECTORY,
    _Characteristics,
    _cross_integral_nodes,
    _linear_fit,
    corrector_fields,
    growth_diagnostic,
    topo_modified_surfaces,
)
from longwave.scenarios import ScenarioConfig, run_growth


def _constant_trajectory(grid, steps, value):
    data = np.full((steps + 1, grid.num_points), value)
    return Trajectory(grid, grid.dx, np.arange(steps + 1), data)


@pytest.fixture(scope="module")
def step_run():
    """Right-going solitary wave crossing a smooth step (module-shared)."""
    eps = 0.2
    grid = Grid1D.from_length(80.0, 0.05)
    tg = TimeGrid.from_final_time(12.0, 0.05)
    spec = SolitonSpec(alpha=0.5, shift=-38.0, epsilon=eps)
    traj = run(KdvProblem(eps, grid, tg), soliton_field(spec, grid), stride=1)
    bottom = StepBottom(0.5, 40.0, 1.5)
    coeffs = ModelCoefficients.zero_smoothing(eps)
    return eps, grid, tg, spec, traj, bottom, coeffs


@pytest.fixture(scope="module")
def short_run():
    """Right-going solitary wave on a coarser, shorter periodic grid; the left
    sums of its right-hand nodes wrap through the periodic edge (module-shared)."""
    eps = 0.2
    grid = Grid1D.from_length(40.0, 0.1)
    tg = TimeGrid(60, 0.1)
    spec = SolitonSpec(alpha=0.5, shift=-15.0, epsilon=eps)
    traj = run(KdvProblem(eps, grid, tg), soliton_field(spec, grid), stride=1)
    bottom = StepBottom(0.5, 20.0, 1.5)
    coeffs = ModelCoefficients.zero_smoothing(eps)
    return eps, grid, tg, spec, traj, bottom, coeffs


class TestRefusals:
    """A left-going trajectory is refused before any work: no argument is read."""

    @pytest.mark.parametrize("call", [
        lambda n_traj: topo_modified_surfaces(None, n_traj, None, None, 1.0),
        lambda n_traj: growth_diagnostic(None, n_traj, None, None, 2),
        lambda n_traj: corrector_fields(None, n_traj, None, 1.0),
    ], ids=["topo_modified_surfaces", "growth_diagnostic", "corrector_fields"])
    def test_left_going_trajectory_refused(self, step_run, call):
        traj = step_run[4]
        with pytest.raises(ConfigurationError, match="left-going component is identically zero"):
            call(traj)

    @pytest.mark.parametrize("call", [
        lambda traj, bottom, coeffs: topo_modified_surfaces(traj, None, bottom, coeffs, 0.5),
        lambda traj, bottom, coeffs: growth_diagnostic(traj, None, bottom, coeffs, 2),
        lambda traj, bottom, coeffs: corrector_fields(traj, None, bottom, 0.5),
    ], ids=["topo_modified_surfaces", "growth_diagnostic", "corrector_fields"])
    def test_coupled_trajectory_refused(self, short_run, call):
        # a coupled run stores (v, eta) rows of shape (2, n), not the
        # right-going u the reconstruction reads
        eps, grid, _, _, _, bottom, coeffs = short_run
        tg = TimeGrid(10, grid.dx)
        half = Field(np.zeros(grid.num_points), grid)
        traj = run_boussinesq(BoussinesqProblem(ModelCoefficients.balanced(eps), bottom, grid,
                                                tg), half, half, stride=1)
        assert traj.data.shape == (11, 2, grid.num_points)
        with pytest.raises(ConfigurationError, match=r"shape \(snapshots, n\)"):
            call(traj, bottom, coeffs)


class TestBottomShiftIntegral:
    def test_flat_bottom_vanishes(self):
        assert bottom_shift_integral(FlatBottom(), 4.0, 10.0, "right", 0.05) == 0.0

    def test_step_fully_past_ramp_gives_height_times_time(self):
        # for x - t beyond the ramp the window sits on the plateau
        b = StepBottom(0.5, 10.0, 1.5)
        t = 6.0
        got = bottom_shift_integral(b, t, 25.0, "right", 0.05)
        assert got == pytest.approx(0.5 * t, rel=1e-12)

    def test_slow_sinusoid_closed_form(self):
        eps, amp, dt = 0.1, 0.5, 0.04
        b = SlowSinusoidBottom(amp, eps)
        for t in (2.0, 6.0, 10.0):
            for x in (-3.0, 0.0, 12.34, 70.0):
                got = bottom_shift_integral(b, t, x, "right", dt)
                want = 2 * amp / eps * np.sin(eps * (x - t / 2)) * np.sin(eps * t / 2)
                assert got == pytest.approx(want, abs=1e-4)

    def test_left_direction_mirrors_right(self):
        b = SlowSinusoidBottom(0.5, 0.1)
        t, dt = 4.0, 0.05
        got = bottom_shift_integral(b, t, 7.0, "left", dt)
        # Int_0^t b(x + t - s) ds integrates the same window as the right
        # form anchored at x + t
        want = bottom_shift_integral(b, t, 7.0 + t, "right", dt)
        assert got == pytest.approx(want, rel=1e-12)

    def test_quadrature_error_quarterly_under_halving(self):
        eps, amp = 0.1, 0.5
        b = SlowSinusoidBottom(amp, eps)
        t, x = 4.0, 3.7

        def err(dt):
            want = 2 * amp / eps * np.sin(eps * (x - t / 2)) * np.sin(eps * t / 2)
            return abs(bottom_shift_integral(b, t, x, "right", dt) - want)

        ratio = err(0.08) / err(0.04)
        assert 3.0 <= ratio <= 5.0

    def test_time_not_step_multiple_rejected(self):
        with pytest.raises(ConfigurationError):
            bottom_shift_integral(FlatBottom(), 0.13, 0.0, "right", 0.05)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ConfigurationError):
            bottom_shift_integral(FlatBottom(), 1.0, 0.0, "up", 0.05)


class TestCharacteristicCrossIntegral:
    def test_zero_counter_trajectory(self, step_run):
        _, grid, tg, _, _, bottom, _ = step_run
        zeros = _constant_trajectory(grid, 50, 0.0)
        got = characteristic_cross_integral(bottom, zeros, 50 * grid.dx, 10.0)
        assert got == 0.0

    def test_flat_weight_vanishes(self, step_run):
        _, grid, _, _, _, _, _ = step_run
        ones = _constant_trajectory(grid, 40, 1.0)
        got = characteristic_cross_integral(FlatBottom(), ones, 40 * grid.dx, 10.0)
        assert got == 0.0

    @pytest.mark.parametrize("c, m, nodes", [(0.7, 160, (0, 150, 256, 400)),
                                             (-0.4, 120, (200,))])
    def test_constant_counter_telescopes(self, c, m, nodes):
        # Int_0^t b'(x+t-s) c ds = c (b(x+t) - b(x)) up to quadrature error
        grid = Grid1D(512, 0.05)
        b = StepBottom(0.5, 12.8, 1.5)
        traj = _constant_trajectory(grid, m, c)
        t = m * grid.dx
        for i in nodes:
            x = i * grid.dx
            got = characteristic_cross_integral(b, traj, t, x)
            want = c * (float(b.value(x + t)) - float(b.value(x)))
            assert got == pytest.approx(want, abs=2e-4)

    def test_stride_too_coarse_rejected(self, step_run):
        eps, grid, tg, spec, _, bottom, _ = step_run
        sparse = run(KdvProblem(eps, grid, tg), soliton_field(spec, grid), stride=10)
        with pytest.raises(ConfigurationError):
            characteristic_cross_integral(bottom, sparse, 20 * grid.dx, 10.0)

    def test_off_lattice_point_rejected(self, step_run):
        _, grid, _, _, _, bottom, _ = step_run
        traj = _constant_trajectory(grid, 10, 1.0)
        with pytest.raises(ConfigurationError):
            characteristic_cross_integral(bottom, traj, 10 * grid.dx, 0.123)


def _oracle_nodes(b, traj, m):
    grid = traj.grid
    return np.array([characteristic_cross_integral(b, traj, m * grid.dx, i * grid.dx)
                     for i in range(grid.num_points)])


class TestRunningSum:
    """The per-node running sums against the direct single-node quadrature."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(8, 40), steps=st.integers(1, 30),
           dx=st.sampled_from([0.05, 0.1, 0.5]), seed=st.integers(0, 2**32 - 1),
           source=st.sampled_from(["run", "hand_writeable", "hand_read_only"]),
           order=st.lists(st.integers(0, 30), min_size=1, max_size=6))
    def test_matches_direct_sum(self, n, steps, dx, seed, source, order):
        rng = np.random.default_rng(seed)
        grid = Grid1D(n, dx)
        if source == "run":
            u0 = Field(0.3 * np.sin(2 * np.pi * np.arange(n) / n + rng.uniform(0, 6)), grid)
            traj = run(KdvProblem(0.2, grid, TimeGrid(steps, dx)), u0, stride=1)
        else:
            data = rng.standard_normal((steps + 1, n))
            data.flags.writeable = source != "hand_read_only"
            traj = Trajectory(grid, dx, np.arange(steps + 1), data)
        bottom = StepBottom(rng.uniform(-1, 1), rng.uniform(-steps, n) * dx,
                            rng.uniform(0.5, 5) * dx)
        w_max = np.pi / 4 * abs(bottom.beta0) / bottom.ramp_half_width
        bound = 1e-12 * max(w_max * np.max(np.abs(traj.data)), 1e-300)
        for m in order:
            m = min(m, steps)
            got = _cross_integral_nodes(bottom, traj, m)
            want = _oracle_nodes(bottom, traj, m)
            assert np.max(np.abs(got - want)) <= bound

    def test_frozen_data_and_other_bottom_are_seen(self):
        grid = Grid1D(16, 0.5)
        rng = np.random.default_rng(3)
        data = rng.standard_normal((9, 16))
        before = data.copy()
        traj = Trajectory(grid, grid.dx, np.arange(9), data)
        bottom = StepBottom(0.5, 4.0, 1.0)
        _cross_integral_nodes(bottom, traj, 8)
        with pytest.raises(ValueError):
            traj.data[3] += 1.0
        data[3] += 1.0  # the caller's array, not the trajectory's frozen copy
        np.testing.assert_array_equal(traj.data, before)
        np.testing.assert_allclose(_cross_integral_nodes(bottom, traj, 8),
                                   _oracle_nodes(bottom, traj, 8), atol=1e-13)
        other = StepBottom(-0.3, 2.0, 1.0)
        np.testing.assert_allclose(_cross_integral_nodes(other, traj, 8),
                                   _oracle_nodes(other, traj, 8), atol=1e-13)

    def test_data_cannot_be_replaced(self):
        grid = Grid1D(16, 0.5)
        traj = Trajectory(grid, grid.dx, np.arange(9), np.zeros((9, 16)))
        with pytest.raises(AttributeError):
            traj.data = np.ones((9, 16))
        assert not traj.data.any()

    def test_sum_goes_with_its_trajectory(self, step_run):
        # the module's table is weak-keyed, so it does not keep the trajectory alive
        eps, grid, tg, spec, _, bottom, coeffs = step_run
        traj = run(KdvProblem(eps, grid, TimeGrid(40, tg.dt)), soliton_field(spec, grid),
                   stride=1)
        topo_modified_surfaces(traj, None, bottom, coeffs, 40 * tg.dt)
        assert isinstance(_OF_TRAJECTORY.get(traj), _Characteristics)
        ref = weakref.ref(traj)
        del traj
        gc.collect()
        assert ref() is None

    def test_threads_sharing_a_trajectory_read_the_direct_sums(self):
        # the lock makes finding, advancing and reading a trajectory's sum one
        # step, so threads asking for interleaved steps lose no update
        grid, steps = Grid1D(32, 0.5), 40
        data = np.random.default_rng(5).standard_normal((steps + 1, 32))
        traj = Trajectory(grid, grid.dx, np.arange(steps + 1), data)
        bottom = StepBottom(0.5, 8.0, 1.0)
        want = {m: _oracle_nodes(bottom, traj, m) for m in range(steps + 1)}
        wrong = []

        def ask(seed):
            for m in np.random.default_rng(seed).integers(0, steps + 1, 80).tolist():
                if np.max(np.abs(_cross_integral_nodes(bottom, traj, m) - want[m])) > 1e-12:
                    wrong.append(m)

        threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_loaded_data_is_fed_once(self, step_run, tmp_path, monkeypatch):
        # np.load returns a view of a writeable array; the trajectory freezes
        # a copy, so m reconstructions at increasing steps feed each snapshot
        # of N1's quadrature once, and agree with the run's own
        eps, grid, tg, _, traj, bottom, coeffs = step_run
        path = tmp_path / "u.npy"
        np.save(path, traj.data)
        loaded = Trajectory(grid, tg.dt, traj.step_indices, np.load(path))
        fed = []
        feed = _Characteristics.feed

        def counting_feed(self, values):
            fed.append(None)
            feed(self, values)

        times = [m * tg.dt for m in range(20, tg.num_steps + 1, 20)]
        want = [topo_modified_surfaces(traj, None, bottom, coeffs, t) for t in times]
        monkeypatch.setattr(_Characteristics, "feed", counting_feed)
        for t, expected in zip(times, want):
            got = topo_modified_surfaces(loaded, None, bottom, coeffs, t)
            np.testing.assert_array_equal(got.eta.values, expected.eta.values)
        assert len(fed) == tg.num_steps + 1


class TestCorrectorFields:
    def test_flat_bottom_unidirectional_corrector_vanishes(self, step_run):
        eps, grid, tg, spec, traj, _, coeffs = step_run
        u1 = corrector_fields(traj, None, FlatBottom(), 30 * tg.dt)
        np.testing.assert_allclose(u1.total, 0.0, atol=1e-14)

    def test_step_bottom_reduces_to_two_terms(self, step_run):
        eps, grid, tg, spec, traj, bottom, coeffs = step_run
        m = 120
        t = m * tg.dt
        u1 = corrector_fields(traj, None, bottom, t)
        # the other five terms of the two-wave corrector multiply N0 = 0
        assert list(u1.terms()) == ["bottom_jump", "bottom_integral"]

        # direct per-node oracle for the two surviving terms
        u = traj.at_step(m)
        du = make_d1(grid).apply_values(u)
        nodes = grid.nodes
        jump = u * (np.asarray(bottom.value(nodes))
                    - np.asarray(bottom.value(nodes - t))) / 4.0
        np.testing.assert_allclose(u1.bottom_jump, jump, atol=1e-13)
        integral = np.array([
            bottom_shift_integral(bottom, t, x, "right", tg.dt) for x in nodes[::64]
        ])
        np.testing.assert_allclose(u1.bottom_integral[::64], du[::64] * integral / 2.0,
                                   atol=1e-12)

    def test_breakdown_additivity(self, step_run):
        eps, grid, tg, spec, traj, bottom, coeffs = step_run
        for m in (10, 30, 60):
            u1 = corrector_fields(traj, None, bottom, m * tg.dt)
            total = sum(u1.terms().values())
            scale = max(np.max(np.abs(u1.total)), 1e-30)
            assert np.max(np.abs(total - u1.total)) <= 1e-12 * scale


class TestTopoModifiedSurfaces:
    def test_missing_snapshot(self, step_run):
        _, _, tg, _, traj, _, coeffs = step_run
        with pytest.raises(MissingSnapshotError):
            topo_modified_surfaces(traj, None, FlatBottom(), coeffs, tg.final_time + 1.0)

    def test_flat_bottom_reduces_to_classical(self, step_run):
        eps, grid, tg, spec, traj, _, coeffs = step_run
        t = 60 * tg.dt
        topo = topo_modified_surfaces(traj, None, FlatBottom(), coeffs, t)
        classical = traj.at_step(60) / 2.0
        np.testing.assert_allclose(topo.v.values, classical, atol=1e-14)
        np.testing.assert_allclose(topo.eta.values, classical, atol=1e-14)

    @pytest.mark.parametrize("eta_bracket", ["sign_split", "identical"])
    def test_step_surface_offset_matches_term_oracle_past_ramp(self, step_run, eta_bracket):
        # past the ramp the left-characteristic terms vanish, so both bracket
        # readings must equal the same two-term oracle there
        eps, grid, tg, spec, traj, bottom, coeffs = step_run
        m = 180
        t = m * tg.dt
        topo = topo_modified_surfaces(traj, None, bottom, coeffs, t,
                                      eta_bracket=eta_bracket)
        u = traj.at_step(m)
        offset = topo.eta.values - u / 2.0

        du = make_d1(grid).apply_values(u)
        past = grid.nodes > 41.5  # beyond the ramp end
        nodes = grid.nodes[past]
        integral = np.array([
            bottom_shift_integral(bottom, t, x, "right", tg.dt) for x in nodes
        ])
        jump = np.asarray(bottom.value(nodes)) - np.asarray(bottom.value(nodes - t))
        oracle = eps / 4.0 * (du[past] * integral + 0.5 * u[past] * jump)
        np.testing.assert_allclose(offset[past], oracle, atol=1e-12)

    def test_v_bracket_equals_identical_eta_bracket(self, step_run):
        eps, grid, tg, spec, traj, bottom, coeffs = step_run
        t = 100 * tg.dt
        topo = topo_modified_surfaces(traj, None, bottom, coeffs, t,
                                      eta_bracket="identical")
        classical = traj.at_step(100) / 2.0
        np.testing.assert_allclose(
            topo.v.values - classical,
            topo.eta.values - classical,
            atol=1e-14,
        )

    def test_offset_bounded_by_eps_times_terms(self, step_run):
        # the correction carries an explicit eps/4 prefactor
        eps, grid, tg, spec, traj, bottom, coeffs = step_run
        t = 120 * tg.dt
        topo = topo_modified_surfaces(traj, None, bottom, coeffs, t)
        u = traj.at_step(120)
        offset = np.max(np.abs(topo.eta.values - u / 2.0))
        du = make_d1(grid).apply_values(u)
        beta0 = 0.5
        term_bound = (np.max(np.abs(du)) * beta0 * t
                      + 0.5 * np.max(np.abs(u)) * beta0
                      + 0.5 * beta0 * np.max(np.abs(u)))
        assert offset <= eps / 4.0 * term_bound

    @pytest.mark.parametrize("run_name", ["step_run", "short_run"])
    @pytest.mark.parametrize("bottom_kind", ["step", "sinusoid", "flat"])
    @pytest.mark.parametrize("where", ["zero", "one", "mid", "last"])
    def test_topo_is_classical_plus_corrector_terms(self, request, run_name, bottom_kind,
                                                     where):
        # K_topo = u/2 + eps/2 (U1 +- N1), U1 the two bottom terms of the
        # right-going corrector and N1 the b'-weighted left sum; the terms
        # themselves must match their single-node references
        eps, grid, tg, _, u_traj, _, _ = request.getfixturevalue(run_name)
        bottom = {"step": StepBottom(0.5, grid.length / 2.0, 1.5),
                  "sinusoid": SinusoidBottom(0.5, grid.length / 4.0),
                  "flat": FlatBottom()}[bottom_kind]
        coeffs = ModelCoefficients.balanced(eps)
        m = {"zero": 0, "one": 1, "mid": tg.num_steps // 2, "last": tg.num_steps}[where]
        t = m * tg.dt
        u1 = corrector_fields(u_traj, None, bottom, t)
        n1 = -_cross_integral_nodes(bottom, u_traj, m) / 4.0
        u = u_traj.at_step(m)
        u1_b = u1.bottom_jump + u1.bottom_integral
        scale = max(np.max(np.abs(term)) for term in (u1.bottom_jump, u1.bottom_integral, n1))

        for eta_bracket, eta_sign in (("sign_split", -1.0), ("identical", 1.0)):
            topo = topo_modified_surfaces(u_traj, None, bottom, coeffs, t,
                                          eta_bracket=eta_bracket)
            v = u / 2.0 + eps / 2.0 * (u1_b + n1)
            eta = u / 2.0 + eps / 2.0 * (u1_b + eta_sign * n1)
            np.testing.assert_allclose(topo.v.values, v, rtol=0, atol=1e-14 * scale)
            np.testing.assert_allclose(topo.eta.values, eta, rtol=0, atol=1e-14 * scale)

        d_u = make_d1(grid).apply_values(u)
        for i in range(0, grid.num_points, grid.num_points // 7):
            x = grid.nodes[i]
            jump = u[i] * (float(bottom.value(x)) - float(bottom.value(x - t)))
            integral = d_u[i] * bottom_shift_integral(bottom, t, x, "right", tg.dt)
            cross = -characteristic_cross_integral(bottom, u_traj, t, x)
            assert u1.bottom_jump[i] == pytest.approx(jump / 4.0, abs=1e-13)
            assert u1.bottom_integral[i] == pytest.approx(integral / 2.0, abs=1e-13)
            assert n1[i] == pytest.approx(cross / 4.0, abs=1e-13)


class TestStreamedTopoSum:
    """K_topo from the sum fed during a strided run against a stride-1 run."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(16, 60), steps=st.integers(1, 40), stride=st.integers(1, 45),
           bottom_kind=st.sampled_from(["step", "sinusoid"]),
           eta_bracket=st.sampled_from(["sign_split", "identical"]),
           seed=st.integers(0, 2**32 - 1))
    def test_streamed_equals_stride_one(self, n, steps, stride, bottom_kind, eta_bracket,
                                        seed):
        rng = np.random.default_rng(seed)
        eps, dx = 0.2, 0.25
        grid = Grid1D(n, dx)
        problem = KdvProblem(eps, grid, TimeGrid(steps, dx))
        u0 = Field(0.3 * np.sin(2 * np.pi * np.arange(n) / n + rng.uniform(0, 6)), grid)
        if bottom_kind == "step":
            bottom = StepBottom(rng.uniform(-1, 1), rng.uniform(0, n) * dx,
                                rng.uniform(0.5, 5) * dx)
        else:
            bottom = SinusoidBottom(rng.uniform(-1, 1), rng.uniform(2, n) * dx,
                                    rng.uniform(0, 6))
        coeffs = ModelCoefficients.zero_smoothing(eps)
        full = run(problem, u0, stride=1)
        sparse = run(problem, u0, stride=stride)
        if stride > 1 and sparse.step_indices[1] > 1:
            with pytest.raises(ConfigurationError):
                topo_modified_surfaces(sparse, None, bottom, coeffs,
                                       sparse.times[1], eta_bracket=eta_bracket)
        # the sum fed by the run's hook, K_topo built from the snapshot in hand
        characteristics = _Characteristics(bottom, grid, steps)
        streamed = {}

        def hook(m, u):
            characteristics.feed(u)
            if m in sparse.step_indices:
                streamed[m] = characteristics.surfaces(u, m, characteristics.read(), coeffs,
                                                       eta_bracket)

        assert np.array_equal(run(problem, u0, stride=stride, on_step=hook).data, sparse.data)
        assert sorted(streamed) == sparse.step_indices.tolist()
        for m, (v, eta) in streamed.items():
            want = topo_modified_surfaces(full, None, bottom, coeffs, m * dx,
                                          eta_bracket=eta_bracket)
            assert np.array_equal(v, want.v.values)
            assert np.array_equal(eta, want.eta.values)


class TestGrowthDiagnostic:
    @pytest.mark.parametrize("bottom", [SinusoidBottom(0.3, 10.125, 0.7),
                                        SlowSinusoidBottom(0.5, 0.2),
                                        StepBottom(0.5, 40.0, 1.5)],
                             ids=["sinusoid", "slow_sinusoid", "step"])
    def test_corrector_fields_equal_the_series_bit_for_bit(self, step_run, bottom):
        # both build U1 over the trajectory's last stored step, so the H^2 norm
        # of corrector_fields' total is the diagnostic's own at every step
        eps, grid, tg, _, traj, _, coeffs = step_run
        sparse = Trajectory(grid, tg.dt, traj.step_indices[::10], traj.data[::10])
        assert sparse.step_indices[-1] == tg.num_steps
        diag = growth_diagnostic(sparse, None, bottom, coeffs, s=2)
        for k, t in enumerate(sparse.times):
            u1 = corrector_fields(sparse, None, bottom, t)
            assert discrete_sobolev(Field(u1.total, grid), 2) == diag.u1_norms[k]

    def test_flat_bottom_zero_series(self, step_run):
        eps, grid, tg, spec, traj, _, coeffs = step_run
        diag = growth_diagnostic(traj, None, FlatBottom(), coeffs, s=2)
        np.testing.assert_allclose(diag.u1_norms, 0.0, atol=1e-14)
        assert diag.slope == pytest.approx(0.0, abs=1e-14)

    def test_step_series_grows_linearly_post_crossing(self, step_run):
        eps, grid, tg, spec, traj, bottom, coeffs = step_run
        crossing = (40.0 - 38.0) / spec.speed
        diag = growth_diagnostic(traj, None, bottom, coeffs, s=2,
                                 fit_window=(crossing + 1.0, tg.final_time))
        assert diag.slope > 0.0
        assert diag.r_squared >= 0.95
        # the bottom integral term dominates the growth
        assert diag.term_norms["bottom_integral"][-1] > \
            diag.term_norms["bottom_jump"][-1]

    def test_too_few_snapshots_rejected(self, step_run):
        eps, grid, tg, spec, _, bottom, coeffs = step_run
        short = run(KdvProblem(eps, grid, TimeGrid(2, tg.dt)),
                    soliton_field(spec, grid), stride=1)
        with pytest.raises(DiagnosticError):
            growth_diagnostic(short, None, bottom, coeffs, s=2)

    def test_sobolev_order_limit(self, step_run):
        eps, grid, tg, spec, traj, bottom, coeffs = step_run
        with pytest.raises(ConfigurationError):
            growth_diagnostic(traj, None, bottom, coeffs, s=4)

    def test_fit_window_with_too_few_snapshots_rejected(self, step_run):
        eps, grid, tg, spec, traj, bottom, coeffs = step_run
        with pytest.raises(DiagnosticError, match="fit window contains fewer than 4"):
            growth_diagnostic(traj, None, bottom, coeffs, s=2, fit_window=(0.0, 0.1))


@st.composite
def _series(draw):
    """Strictly increasing times (gaps >= 1e-3) and finite values."""
    n = draw(st.integers(4, 40))
    gaps = draw(st.lists(st.floats(1e-3, 1e2), min_size=n - 1, max_size=n - 1))
    times = np.cumsum([draw(st.floats(-1e3, 1e3)), *gaps])
    return times, np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_series())
def test_linear_fit_is_the_exact_least_squares_line(series):
    # against the line in exact rationals, within n rounding units scaled by
    # the values over the time spread, and by how far the times sit from 0
    times, values = series
    t, y = [Fraction(v) for v in times.tolist()], [Fraction(v) for v in values.tolist()]
    t_mean, y_mean = sum(t) / len(t), sum(y) / len(y)
    exact_slope = (sum((a - t_mean) * (b - y_mean) for a, b in zip(t, y))
                   / sum((a - t_mean) ** 2 for a in t))
    exact_intercept = y_mean - exact_slope * t_mean
    slope, intercept, _ = _linear_fit(times, values)
    t_max, spread = float(np.max(np.abs(times))), float(times[-1] - times[0])
    rounding = 4 * len(times) * np.finfo(float).eps * float(np.max(np.abs(values)))
    slope_tol = rounding / spread * (1.0 + t_max / spread)
    assert abs(float(Fraction(slope) - exact_slope)) <= slope_tol
    assert abs(float(Fraction(intercept) - exact_intercept)) <= slope_tol * t_max + rounding
    # a flat-bottom series, all zeros, fits exactly zero
    assert _linear_fit(times, np.zeros_like(times)) == (0.0, 0.0, 1.0)


# growth sinusoid 0.2 (n = 500, 125 steps) at error stride 3, whose last
# stored step, 125, is 2 after the one before, over three bottoms
_STREAM_BOTTOMS = {
    "step": {"kind": "step", "beta0": 0.5, "center": 8.0, "ramp_half_width": 1.5},
    "sinusoid": {"kind": "sinusoid", "b0": 0.5, "wavelength": 3.0},
    "slow_sinusoid": {"kind": "slow_sinusoid", "amplitude": 0.5, "frequency": 0.2},
}


@pytest.fixture(scope="module")
def stored_growth_run():
    """The growth run's K stored at its error stride (K is bottom-blind)."""
    config = ScenarioConfig(scenario="growth", epsilon=0.2, growth_kind="sinusoid",
                            error_interval=0.12)
    grid, tg = config.build_grid(), config.build_time_grid()
    traj = run(config.build_kdv_problem(grid, tg), soliton_field(config.build_soliton(), grid),
               stride=config.error_stride(tg))
    return traj, config.build_coefficients()


@pytest.mark.parametrize("s", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_STREAM_BOTTOMS))
def test_streamed_series_equals_the_stored_diagnostic(stored_growth_run, kind, s):
    # run_growth feeds U1's norms from K's per-step hook; growth_diagnostic
    # reads the same steps from a stored trajectory: the same bits
    traj, coeffs = stored_growth_run
    bottom = _STREAM_BOTTOMS[kind]
    streamed = run_growth(ScenarioConfig(scenario="growth", epsilon=0.2, growth_kind="sinusoid",
                                         error_interval=0.12, bathymetry=bottom,
                                         sobolev_order=s)).diagnostic
    stored = growth_diagnostic(traj, None, bathymetry_from_config(bottom), coeffs, s=s)
    assert len(stored.times) == 43
    assert np.array_equal(streamed.times, stored.times)
    assert np.array_equal(streamed.u1_norms, stored.u1_norms)
    assert list(streamed.term_norms) == list(stored.term_norms) == list(TERM_NAMES)
    for name in TERM_NAMES:
        assert np.array_equal(streamed.term_norms[name], stored.term_norms[name])
    assert (streamed.slope, streamed.intercept, streamed.r_squared) == \
        (stored.slope, stored.intercept, stored.r_squared)


class TestTransportResidual:
    def test_modified_corrector_removes_bottom_source(self, step_run):
        """Finite-difference transport residual of the full corrector matches
        the bottom source, while the promoted-term reconstruction leaves a
        residual that is exactly zero for a single right-going wave."""
        eps, grid, tg, spec, traj, bottom, coeffs = step_run
        m = 120
        dt = tg.dt
        d1 = make_d1(grid)

        breakdowns = {
            k: corrector_fields(traj, None, bottom, (m + k) * dt)
            for k in (-1, 0, 1)
        }
        u1_prev, u1_now, u1_next = (breakdowns[k].total for k in (-1, 0, 1))
        residual = (u1_next - u1_prev) / (2 * dt) + d1.apply_values(u1_now)

        u = traj.at_step(m)
        du = d1.apply_values(u)
        source = (0.5 * np.asarray(bottom.value(grid.nodes)) * du
                  + 0.25 * np.asarray(bottom.derivative(grid.nodes)) * u)
        # classical corrector balances the bottom source to O(dt^2) + O(eps)
        err = np.max(np.abs(residual - source))
        assert err <= 0.25 * np.max(np.abs(source))

        # with the secular terms promoted into the surfaces, nothing remains
        # of the corrector for a single right-going wave over this bottom
        modified = (u1_now - breakdowns[0].bottom_jump
                    - breakdowns[0].bottom_integral)
        np.testing.assert_allclose(modified, 0.0, atol=1e-14)
