"""The benchmark's output checks reject the program's documented wrong variants.

Run with ``python -m pytest benchmark``.  The runs here use the small step
geometry (eps=0.2, n=1600, 240 steps) so they take a few seconds.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import longwave as lw  # noqa: E402
from longwave.cli import main as longwave_main  # noqa: E402
from tracing import layer_metrics  # noqa: E402


def checks_by_name(results):
    return {c["name"]: c for c in results}


@pytest.mark.parametrize("mode, conserved", [("conservative", True), ("weighted", False)])
def test_energy_check_rejects_weighted_assembly(tmp_path, mode, conserved):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": "step", "epsilon": 0.2,
                                  "boussinesq_nonlinear_mode": mode,
                                  "output_dir": str(tmp_path / "out")}))
    assert longwave_main(["simulate", "--config", str(config)]) == 0
    energy = checks_by_name(checks.simulate_checks(tmp_path / "out"))["energy_drift"]
    assert energy["ok"] is conserved
    if not conserved:
        assert energy["value"] > 1e3 * checks.ENERGY_DRIFT_MAX


@pytest.fixture(scope="module")
def small_step_run():
    config = lw.ScenarioConfig(scenario="step", epsilon=0.2)
    grid, time_grid = config.build_grid(), config.build_time_grid()
    u0 = lw.soliton_field(config.build_soliton(), grid)
    u_traj = lw.run(lw.KdvProblem(config.epsilon, grid, time_grid), u0, stride=1)
    stride = config.error_stride(time_grid)
    error_steps = list(range(stride, time_grid.num_steps + 1, stride))
    return config, u_traj, error_steps


@pytest.mark.parametrize("bracket, agrees", [("sign_split", True), ("identical", False)])
def test_topo_oracle_rejects_identical_bracket(small_step_run, bracket, agrees):
    config, u_traj, error_steps = small_step_run
    dx = u_traj.grid.dx
    sample = checks.oracle_sample(np.random.default_rng(7), error_steps, u_traj.data, dx,
                                  config.alpha, config.epsilon, config.shift, config.bathymetry)
    eta_by_step = {
        m: lw.topo_modified_surfaces(u_traj, None, config.build_bathymetry(),
                                     config.build_coefficients(), m * dx,
                                     eta_bracket=bracket).eta.values
        for m in sample
    }
    results = checks_by_name(checks.topo_checks(u_traj.data, dx, config.epsilon,
                                                config.bathymetry, eta_by_step, sample))
    assert results["topo_oracle"]["ok"] is agrees
    assert results["k_l2_drift"]["ok"]


def test_oracle_fails_without_eta_for_a_sampled_step():
    rows = np.ones((3, 8))
    bottom = {"beta0": 0.5, "center": 0.0, "ramp_half_width": 1.0}
    for eta_by_step, sample in (({}, {2: np.array([0, 3])}), ({}, {})):
        results = checks_by_name(checks.topo_checks(rows, 0.1, 0.1, bottom, eta_by_step, sample))
        assert not results["topo_oracle"]["ok"]


def test_layer_metrics_self_times():
    names = ["scenarios.run_scenario", "kdv.run", "kdv.step", "findiff.CyclicBandedMatrix.solve",
             "grid.Field.__init__", "grid.discrete_l2"]
    # (name, start, end, parent, extra), in call order.
    spans = [
        (0, 0.0, 10.0, -1, 0.0),
        (1, 1.0, 7.0, 0, 800.0),
        (2, 1.0, 4.0, 1, 0.0),
        (3, 1.5, 3.5, 2, 0.0),
        (4, 3.6, 3.7, 2, 0.0),
        (2, 4.0, 7.0, 1, 0.0),
        (3, 4.0, 5.0, 5, 0.0),
        (5, 8.0, 9.0, 0, 0.0),
    ]
    metrics = layer_metrics(names, spans)
    assert metrics["kdv.step_calls"] == 2
    assert metrics["kdv.step_s"] == pytest.approx(6.0)
    assert metrics["kdv.step_self_s"] == pytest.approx(3.0)
    assert metrics["findiff.solve_calls"] == 2
    assert metrics["findiff.solve_us_per_call"] == pytest.approx(1.5e6)
    assert metrics["kdv.traj_mb"] == pytest.approx(800e-6)
    assert metrics["scenarios.driver_self_s"] == pytest.approx(4.0)
    assert metrics["grid.field_inits"] == 1
    assert metrics["grid.norm_s"] == pytest.approx(1.0)
    assert metrics["boussinesq.step_calls"] == 0
