import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from longwave import cli, kdv, reconstruct, scenarios
from longwave.boussinesq import run_boussinesq
from longwave.cli import main
from longwave.errors import ConfigurationError, DiagnosticError
from longwave.findiff import StepOperator
from longwave.grid import Field, Grid1D, SolitonSpec, TimeGrid, soliton_field
from longwave.reconstruct import topo_modified_surfaces
from longwave.scenarios import (
    ScenarioConfig,
    convergence_study,
    reflected_wave_metric,
    relative_linf_error,
    run_growth,
    run_scenario,
    write_convergence_outputs,
    write_growth_outputs,
    write_outputs,
)


# ScenarioConfig(...).to_dict() of every scenario at five eps, with and without
# overtime, as commit 6c6c8b0 filled them; keys read "<scenario[/growth_kind]>
# <eps> <default|overtime>"
PINNED_DEFAULTS = json.loads(
    (Path(__file__).parent / "golden" / "scenario_defaults.json").read_text())



def _readme_default_rows() -> list[tuple]:
    """(name, eps, T, L, dx, x0) of each all-numeric row of the table under
    README's "Scenario defaults"."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("### Scenario defaults")[1].split("\n### ")[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        try:
            values = [float(cell) for cell in cells[1:]]
        except ValueError:
            continue
        if len(values) == 5:
            rows.append((cells[0], *values))
    return rows


README_ROWS = _readme_default_rows()

_SMALL_VALIDATE = {"scenario": "validate", "epsilon": 0.2, "final_time": 1.0,
                   "snapshot_times": [1.0]}
_SIMULATE_STDOUT = """\
scenario=validate epsilon=0.2 T=1
  final err(K vs B)      = 5.081760e-03
  final err(K_topo vs B) = 5.081760e-03
  err vs analytic wave   = 2.031842e-04
  L2 drift max           = 2.346e-10
  H1_eps drift max       = 8.936e-16
"""
# each command's stdout on a cheap config, as the commands printed it when
# each had its own body in cli.py (commit d079877), but for the H1_eps drift:
# B's round-off, as the solver's one BLAS thread sums it; OUT is the output
# directory
PINNED_STDOUT = {
    "simulate": (["simulate", "--config", "CFG", "--out", "OUT"], _SMALL_VALIDATE,
                 "wrote 3 files to OUT\n" + _SIMULATE_STDOUT),
    "simulate-without-out": (["simulate", "--config", "CFG"], _SMALL_VALIDATE,
                             _SIMULATE_STDOUT),
    "growth": (["growth", "--scenario", "sinusoid", "--epsilon", "0.2", "--out", "OUT"], None,
               "growth[sinusoid] epsilon=0.2: slope=2.7380 intercept=2.1337 R^2=0.9575\n"
               "max corrector norm: 14.8318\n"
               "wrote growth.csv to OUT\n"),
    "convergence": (["convergence", "--config", "CFG", "--out", "OUT"],
                    {"scenario": "convergence", "epsilon": 0.2, "final_time": 0.4,
                     "domain_length": 20.0, "dx": 0.1, "shift": -10.0},
                    "deltas: ['0.1', '0.05', '0.025']\n"
                    "scalar-stepper errors: ['4.243e-04', '4.135e-04', '4.104e-04']\n"
                    "scalar-stepper orders: ['0.04', '0.01']\n"
                    "coupled-stepper diffs: ['6.014e-05', '1.509e-05']\n"
                    "coupled-stepper orders: ['1.99']\n"
                    "wrote convergence.json to OUT\n"),
}


def _assert_blas_entry(payload):
    """The ``blas`` entry of a meta.json or convergence.json: the OpenBLAS
    library the solver calls, its build string and its one thread."""
    blas = payload["blas"]
    assert set(blas) == {"library", "config", "threads"}
    assert blas["library"].startswith("libscipy_openblas-") and blas["library"].endswith(".so")
    assert blas["config"].startswith("OpenBLAS ")
    assert blas["threads"] == 1


@pytest.fixture(scope="module")
def step_report():
    """Default step comparison at eps = 0.2 (module-shared: ~2 s)."""
    config = ScenarioConfig(scenario="step", epsilon=0.2)
    return config, run_scenario(config)


class TestScenarioConfig:
    def test_published_defaults(self):
        cases = {
            ("validate", 0.05): (20.0, 80.0, 0.03),
            ("validate", 0.1): (10.0, 80.0, 0.04),
            ("validate", 0.2): (5.0, 80.0, 0.05),
            ("step", 0.05): (89.0, 140.0, 0.03),
            ("step", 0.2): (12.0, 80.0, 0.05),
            ("sinusoid", 0.1): (10.0, 20.0, 0.04),
        }
        for (scenario, eps), (t, ell, d) in cases.items():
            cfg = ScenarioConfig(scenario=scenario, epsilon=eps)
            assert (cfg.final_time, cfg.domain_length, cfg.dx) == (t, ell, d)
            assert cfg.dt == cfg.dx

    @pytest.mark.parametrize("key", sorted(PINNED_DEFAULTS))
    def test_every_default_is_pinned(self, key):
        name, eps, mode = key.split()
        scenario, _, kind = name.partition("/")
        cfg = ScenarioConfig(scenario=scenario, epsilon=float(eps), growth_kind=kind or None,
                             overtime=mode == "overtime")
        assert cfg.to_dict() == PINNED_DEFAULTS[key]

    def test_readme_table_is_read(self):
        assert len(README_ROWS) == 10

    @pytest.mark.parametrize("name,eps,t,ell,d,x0", README_ROWS,
                             ids=[f"{row[0]}-{row[1]:g}" for row in README_ROWS])
    def test_readme_defaults_match_the_code(self, name, eps, t, ell, d, x0):
        scenario, _, kind = name.partition("/")
        cfg = ScenarioConfig(scenario=scenario, epsilon=eps, growth_kind=kind or None)
        assert (cfg.final_time, cfg.domain_length, cfg.dx, -cfg.shift) == (t, ell, d, x0)

    def test_sinusoid_wavelength_follows_epsilon(self):
        cfg = ScenarioConfig(scenario="sinusoid", epsilon=0.1)
        want = (1 + 0.1 * cfg.alpha / 4) / 0.1
        assert cfg.bathymetry["wavelength"] == pytest.approx(want)

    def test_balanced_coefficients_default(self):
        cfg = ScenarioConfig(scenario="step", epsilon=0.2)
        coeffs = cfg.build_coefficients()
        assert coeffs.a1 == pytest.approx(1 / 12, abs=1e-12)
        assert coeffs.a2 == pytest.approx(1 / 12, abs=1e-12)

    def test_growth_uses_zero_smoothing_triple(self):
        cfg = ScenarioConfig(scenario="growth", epsilon=0.2, growth_kind="step")
        coeffs = cfg.build_coefficients()
        assert coeffs.a1 == pytest.approx(1 / 6, abs=1e-12)
        assert coeffs.a2 == 0.0 and coeffs.a4 == 0.0

    def test_partial_smoothing_triple_keeps_given_members(self):
        cfg = ScenarioConfig.from_dict({"scenario": "step", "epsilon": 0.2,
                                        "lambda1": 0.3, "lambda2": 0.3})
        assert (cfg.theta, cfg.lambda1, cfg.lambda2) == (math.sqrt(2.0 / 3.0), 0.3, 0.3)
        with pytest.raises(ConfigurationError, match="inadmissible"):
            ScenarioConfig.from_dict({"scenario": "step", "epsilon": 0.2, "theta": 0.7})

    def test_overtime_sets_final_time(self):
        cfg = ScenarioConfig(scenario="step", epsilon=0.2, overtime=True)
        assert cfg.final_time == pytest.approx(0.2 ** -1.5)

    def test_overtime_with_final_time_rejected(self):
        # overtime would replace the given final_time by epsilon^-1.5
        with pytest.raises(ConfigurationError, match="overtime .* given 1.0; .* final_time"):
            ScenarioConfig(scenario="validate", epsilon=0.2, overtime=True, final_time=1.0)
        # the config echo of an overtime run, which holds epsilon^-1.5, runs again
        echo = json.loads(json.dumps(ScenarioConfig(scenario="step", epsilon=0.2,
                                                    overtime=True).to_dict()))
        assert ScenarioConfig.from_dict(echo).final_time == 0.2 ** -1.5

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(scenario="validate", epsilon=0.1, alpha=0.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"scenario": "validate", "epsilon": 0.1,
                                      "typo_key": 1})

    def test_required_keys(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"scenario": "validate"})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(scenario="tsunami", epsilon=0.1)

    def test_growth_kind_required(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(scenario="growth", epsilon=0.1)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(scenario="validate", epsilon=0.1, growth_kind="step")

    def test_snapshot_outside_window_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(scenario="validate", epsilon=0.2, snapshot_times=[99.0])

    def test_colliding_snapshot_names_rejected(self):
        # steps 200001 and 200002 both print as snapshot_t10000.1.csv under :g
        with pytest.raises(ConfigurationError, match="share file names"):
            ScenarioConfig(scenario="validate", epsilon=0.2, final_time=10000.2,
                           error_interval=0.05, snapshot_times=[10000.05, 10000.1])

    def test_bad_bathymetry_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(scenario="step", epsilon=0.2,
                           bathymetry={"kind": "step", "beta0": 0.5, "nope": 1})

    def test_json_round_trip(self, tmp_path):
        cfg = ScenarioConfig(scenario="sinusoid", epsilon=0.1, output_dir="x")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = ScenarioConfig.from_json(path)
        assert loaded.to_dict() == cfg.to_dict()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_json(path)


class TestMetrics:
    def test_relative_error_identical_fields(self, small_grid, rng):
        f = rng.standard_normal(small_grid.num_points)
        assert relative_linf_error(f, f) == 0.0

    def test_relative_error_scaling(self, small_grid, rng):
        f = rng.standard_normal(small_grid.num_points) + 5.0
        assert relative_linf_error(1.1 * f, f) == pytest.approx(0.1, abs=1e-12)

    def test_relative_error_zero_reference_absolute(self, small_grid):
        a = np.full(small_grid.num_points, 0.25)
        b = np.zeros(small_grid.num_points)
        assert relative_linf_error(a, b) == 0.25

    def test_relative_error_against_scan_oracle(self):
        spec = SolitonSpec(alpha=0.5, shift=-20.0, epsilon=0.1)
        grid = Grid1D(800, 0.05)
        a = soliton_field(spec, grid).values
        b = soliton_field(spec, grid, t=grid.dx / spec.speed).values
        got = relative_linf_error(a, b)
        worst = max(abs(a[i] - b[i]) for i in range(grid.num_points))
        assert got == pytest.approx(worst / max(abs(v) for v in b), rel=1e-12)

    def test_relative_error_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            relative_linf_error(np.zeros(4), np.zeros(5))

    def test_reflected_metric_empty_region(self, small_grid):
        eta = Field(np.zeros(small_grid.num_points), small_grid)
        assert reflected_wave_metric(eta, 0.5, width_param=0.4) == 0.0

    def test_reflected_metric_finds_planted_bump(self):
        grid = Grid1D(400, 0.1)
        values = np.zeros(400)
        values[300] = 1.0            # main crest at x = 30
        values[50] = -0.07           # depression at x = 5
        values[80] = 0.03            # weaker bump at x = 8
        eta = Field(values, grid)
        got = reflected_wave_metric(eta, 30.0, width_param=0.5, multiplier=5.0)
        assert got == -0.07          # signed value of the strongest feature

    def test_reflected_metric_region_cutoff(self):
        grid = Grid1D(400, 0.1)
        values = np.zeros(400)
        values[300] = 1.0
        values[250] = 0.5            # within 5 widths: excluded
        eta = Field(values, grid)
        assert reflected_wave_metric(eta, 30.0, width_param=0.5) == 0.0


class TestRunScenario:
    def test_validate_report_coherent(self):
        config = ScenarioConfig(scenario="validate", epsilon=0.2)
        report = run_scenario(config)
        assert report.error_times[0] == 0.0
        assert report.error_times[-1] == pytest.approx(5.0)
        # identical initial data: zero errors and drifts at t = 0
        assert report.err_kdv[0] == 0.0
        assert report.err_kdv_topo[0] == 0.0
        assert report.l2_drift[0] == 0.0
        # flat bottom, b = b' = 0: K_topo runs its reconstruction and is u/2 to the bit
        assert np.array_equal(report.err_kdv, report.err_kdv_topo)
        final = report.snapshots[-1]
        assert final.eta_kdv_topo.tobytes() == final.eta_kdv.tobytes()
        assert report.validation_error is not None
        assert report.validation_error < 3e-3
        assert len(report.snapshots) == 1

    def test_growth_scenario_runs(self):
        config = ScenarioConfig(scenario="growth", epsilon=0.2, growth_kind="step")
        report = run_growth(config)
        assert report.crossing_time == pytest.approx(2.0 / 1.025, rel=1e-12)
        assert report.diagnostic.slope > 0.0
        assert report.diagnostic.r_squared > 0.95

    @pytest.mark.parametrize("runner,cfg", [
        (run_growth, {"scenario": "growth", "growth_kind": "step", "epsilon": 0.2,
                      "final_time": 60.0}),
        (convergence_study, {"scenario": "convergence", "epsilon": 0.02}),
    ], ids=["growth", "convergence"])
    def test_other_runners_refuse_a_crest_leaving_the_window(self, monkeypatch, runner, cfg):
        # growth step: 38 + 1.025 * 60 = 99.5; convergence: 30 + 1.0025 * 50 = 80.125
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        with pytest.raises(ConfigurationError, match="past the window"):
            runner(ScenarioConfig(**cfg))

    def test_run_scenario_rejects_growth(self):
        config = ScenarioConfig(scenario="growth", epsilon=0.2, growth_kind="step")
        with pytest.raises(ConfigurationError):
            run_scenario(config)

    def test_error_curve_shape_after_crossing(self, step_report):
        config, report = step_report
        crossing = (40.0 + config.shift) / config.build_soliton().speed
        mask = report.error_times >= crossing + 1.0
        err = report.err_kdv[mask]
        # nondecreasing within 5% jitter
        assert np.all(np.diff(err) >= -0.05 * err[:-1])
        assert np.all(report.err_kdv_topo[mask] <= report.err_kdv[mask])

    def test_error_at_reads_the_named_series_only(self, step_report):
        _, report = step_report
        t = report.error_times[3]
        assert report.error_at(t, "kdv") == report.err_kdv[3]
        assert report.error_at(t, "kdv_topo") == report.err_kdv_topo[3]
        for which in ("topo", "kdv-topo", "boussinesq"):
            with pytest.raises(ConfigurationError, match="'kdv' or 'kdv_topo'"):
                report.error_at(t, which)

    def test_reconstruction_cheaper_than_coupled_solve(self, step_report):
        _, report = step_report
        assert report.runtimes["reconstruction"] < report.runtimes["boussinesq_solve"]

    def test_conservation_columns(self, step_report):
        _, report = step_report
        assert report.l2_drift.max() < 1e-6
        assert report.h1eps_drift.max() < 0.05

    def test_wrap_contamination_small(self, step_report):
        _, report = step_report
        assert report.wrap_contamination < 1e-8


    def test_k_stored_at_first_and_last_steps_only(self, monkeypatch):
        # K_topo's characteristic sum is fed and read during the K run, so
        # run_scenario asks for no K snapshot but the first and the last
        calls = []

        def spy(problem, u0, stride=1, **kwargs):
            traj = run(problem, u0, stride=stride, **kwargs)
            calls.append((stride, traj))
            return traj

        run = scenarios.run
        monkeypatch.setattr(scenarios, "run", spy)
        config = ScenarioConfig(scenario="step", epsilon=0.2, final_time=3.0, error_interval=0.5)
        report = run_scenario(config)
        (stride, traj), = calls
        time_grid = config.build_time_grid()
        assert stride == time_grid.num_steps
        assert traj.step_indices.tolist() == [0, time_grid.num_steps]
        error_stride = config.error_stride(time_grid)
        assert error_stride > 1
        assert np.allclose(report.error_times,
                           np.append(np.arange(0, time_grid.num_steps, error_stride),
                                     time_grid.num_steps) * config.dt)

    def test_solver_work_on_step(self, monkeypatch):
        # simulate --scenario step --epsilon 0.2: 240 steps of each model, one
        # solve per step, with the factorizations (dgbtrf calls) the degree-8
        # guess leaves (K 6, B 14) and about two LU applications per solve
        operators = []

        class Recording(StepOperator):
            def __init__(self, n, blocks=1, constant_terms=None):
                super().__init__(n, blocks, constant_terms)
                operators.append(self)

        monkeypatch.setattr(kdv, "StepOperator", Recording)
        run_scenario(ScenarioConfig(scenario="step", epsilon=0.2))
        by_blocks = {operator.blocks: operator for operator in operators}
        assert len(operators) == 2 and sorted(by_blocks) == [1, 2]
        k_operator, b_operator = by_blocks[1], by_blocks[2]
        assert k_operator.factorizations <= 8
        assert b_operator.factorizations <= 18
        for operator in operators:
            assert operator.corrections <= 2.0 * 240

    @pytest.mark.parametrize("eta_bracket", ["sign_split", "identical"])
    @pytest.mark.parametrize("scenario", ["step", "sinusoid"])
    def test_topo_columns_match_stored_trajectory_path(self, scenario, eta_bracket):
        # K_topo built in K's hook from the snapshot in hand equals, to the
        # bit, K_topo from a stride-1 K trajectory through the public
        # topo_modified_surfaces, compared against B stored at the error steps
        config = ScenarioConfig(scenario=scenario, epsilon=0.2, final_time=2.0,
                                error_interval=0.2, topo_eta_bracket=eta_bracket)
        report = run_scenario(config)
        grid, time_grid = config.build_grid(), config.build_time_grid()
        coeffs, bottom = config.build_coefficients(), config.build_bathymetry()
        u0 = soliton_field(config.build_soliton(), grid)
        half = Field(u0.values / 2.0, grid)
        u_traj = kdv.run(config.build_kdv_problem(grid, time_grid), u0, stride=1)
        b_traj = run_boussinesq(config.build_boussinesq_problem(grid, time_grid), half, half,
                                stride=config.error_stride(time_grid))
        width = config.build_soliton().width_param
        err, refl, eta_by_step = [], [], {}
        for m in b_traj.step_indices.tolist():
            eta = topo_modified_surfaces(u_traj, None, bottom, coeffs, m * config.dt,
                                         eta_bracket=eta_bracket).eta
            eta_by_step[m] = eta.values
            err.append(relative_linf_error(eta.values, b_traj.at_step(m)[1]))
            crest = grid.nodes[int(np.argmax(eta.values))]
            refl.append(reflected_wave_metric(eta, crest, width, config.refl_width_multiplier))
        assert np.array_equal(report.err_kdv_topo, err)
        assert np.array_equal(report.refl_topo, refl)
        assert len(report.snapshots) == len(config.snapshot_steps(time_grid)) > 1
        for snap in report.snapshots:
            m = int(round(snap.time / config.dt))
            assert np.array_equal(snap.eta_kdv_topo, eta_by_step[m])


class TestWriteOutputs:
    def test_files_and_round_trip(self, tmp_path):
        config = ScenarioConfig(
            scenario="validate", epsilon=0.2, final_time=1.0,
            snapshot_times=[0.5, 1.0], output_dir=str(tmp_path / "out"),
        )
        report = run_scenario(config)
        paths = write_outputs(report)
        names = {p.name for p in paths}
        assert names == {"snapshot_t0.5.csv", "snapshot_t1.csv", "errors.csv",
                         "meta.json"}

        with open(tmp_path / "out" / "snapshot_t1.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "eta_boussinesq", "eta_kdv", "eta_kdv_topo",
                           "v_boussinesq", "bottom_rescaled"]
        snap = report.snapshots[-1]
        parsed = np.array([[float(v) for v in row] for row in rows[1:]])
        # 17 significant digits reproduce the float64 values bit-exactly
        assert np.array_equal(parsed[:, 0], snap.x)
        assert np.array_equal(parsed[:, 1], snap.eta_boussinesq)
        assert np.array_equal(parsed[:, 5], snap.bottom_rescaled)
        assert np.all(parsed[:, 5] == -1.0)  # flat bottom, rescaled

        with open(tmp_path / "out" / "errors.csv") as fh:
            header = fh.readline().strip()
        assert header == "t,err_kdv,err_kdv_topo,refl_b,refl_kdv,refl_topo,l2_drift,h1eps_drift"

        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["coefficients"]["a1"] == pytest.approx(1 / 12, abs=1e-12)
        assert meta["config"]["scenario"] == "validate"
        assert "scheme_version" in meta
        _assert_blas_entry(meta)

    def test_empty_snapshot_list(self, tmp_path):
        config = ScenarioConfig(
            scenario="validate", epsilon=0.2, final_time=1.0,
            snapshot_times=[], output_dir=str(tmp_path / "out"),
        )
        report = run_scenario(config)
        paths = write_outputs(report)
        assert {p.name for p in paths} == {"errors.csv", "meta.json"}

    def test_deterministic_outputs(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            config = ScenarioConfig(
                scenario="step", epsilon=0.2, final_time=2.0,
                snapshot_times=[2.0], output_dir=str(tmp_path / sub),
            )
            report = run_scenario(config)
            write_outputs(report)
            blobs.append((tmp_path / sub / "snapshot_t2.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_growth_outputs(self, tmp_path):
        config = ScenarioConfig(scenario="growth", epsilon=0.2, growth_kind="step",
                                final_time=6.0, output_dir=str(tmp_path / "g"))
        report = run_growth(config)
        paths = write_growth_outputs(report)
        assert {p.name for p in paths} == {"growth.csv", "meta.json"}
        meta = json.loads((tmp_path / "g" / "meta.json").read_text())
        assert "fit" in meta and "slope" in meta["fit"]
        _assert_blas_entry(meta)
        with open(tmp_path / "g" / "growth.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["t", "u1_norm", "quadratic_difference", "dispersive_difference",
                          "cross_product", "bottom_jump", "counterprop_integral",
                          "bottom_integral", "bottom_derivative_integral"]
        columns = {name: [float(row[k]) for row in rows] for k, name in enumerate(header)}
        # the five terms that multiply N0 = 0 read exactly 0 at every snapshot
        for name in ("quadratic_difference", "dispersive_difference", "cross_product",
                     "counterprop_integral", "bottom_derivative_integral"):
            assert columns[name] == [0.0] * len(rows)
        assert max(columns["bottom_jump"]) > 0.0 and max(columns["bottom_integral"]) > 0.0

    def test_missing_output_dir_rejected(self):
        config = ScenarioConfig(scenario="validate", epsilon=0.2, final_time=1.0)
        report = run_scenario(config)
        with pytest.raises(ConfigurationError):
            write_outputs(report)


class TestConvergenceStudy:
    def test_too_few_levels_rejected(self):
        with pytest.raises(ConfigurationError, match="at least 3 refinement levels"):
            ScenarioConfig(scenario="convergence", epsilon=0.1, refinement_levels=2)

    def test_small_study_orders_near_two(self):
        # coarse, fast variant of the full study: shorter time, smaller domain
        config = ScenarioConfig(
            scenario="convergence", epsilon=0.2, final_time=2.0,
            domain_length=40.0, dx=0.08, shift=-15.0, refinement_levels=3,
        )
        report = convergence_study(config)
        for order in report.kdv_orders:
            assert 1.8 <= order <= 2.2
        for order in report.boussinesq_orders:
            assert 1.8 <= order <= 2.2
        assert report.monotone

    def test_weighted_study_reads_the_lagged_eta_level(self):
        # the weighted assembly's lagged eta factor at level n and at the
        # predictor are different schemes: with the crest inside the window
        # their first B differences are 1.5045e-4 and 1.5324e-4
        first = [
            convergence_study(ScenarioConfig(
                scenario="convergence", epsilon=0.2, final_time=1.0, domain_length=20.0,
                dx=0.1, shift=-10.0, boussinesq_nonlinear_mode="weighted",
                lagged_eta_level=level,
            )).boussinesq_diffs[0]
            for level in ("n", "predictor")
        ]
        assert abs(first[1] - first[0]) > 0.01 * first[0]


class TestCsvRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(0, 2**64 - 1).map(
                lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
            ).filter(math.isfinite),
        ),
        min_size=1, max_size=20,
    ))
    @example(values=[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308])
    def test_float64_round_trips_bit_exactly(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "values.csv"
        column = np.array(values, dtype=np.float64)
        scenarios._write_csv(path, ["x", "minus_x"], [column, -column])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "minus_x"]
        read = np.array([[float(cell) for cell in row] for row in rows[1:]])
        # compare the bits, so that -0.0 and 0.0 differ
        assert read[:, 0].view(np.uint64).tolist() == column.view(np.uint64).tolist()
        assert read[:, 1].view(np.uint64).tolist() == (-column).view(np.uint64).tolist()

    def test_bytes_match_one_format_per_value(self, tmp_path):
        # the reference writer formats each value on its own, non-finite
        # values and an integer column included
        columns = [np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1, -2.5e300]),
                   1.1 * np.arange(8), np.arange(1, 9)]
        path = tmp_path / "table.csv"
        scenarios._write_csv(path, ["a", "b", "c"], columns)
        expected = "a,b,c\n" + "".join(
            ",".join(format(float(column[i]), ".17g") for column in columns) + "\n"
            for i in range(8)
        )
        assert path.read_bytes() == expected.encode()


class _SmallGrid(Grid1D):
    """A grid that refuses to allocate more than 1e6 nodes, so a test of a
    guard against huge grids fails, rather than allocates, when the guard
    does not hold."""

    def __init__(self, num_points, dx):
        assert num_points <= 10**6, f"a grid of {num_points} nodes was built"
        super().__init__(num_points, dx)


def _spy(monkeypatch, name):
    """Record the stride of each call to the stepper run ``name`` that
    ``scenarios`` calls, and run it."""
    calls, original = [], getattr(scenarios, name)

    def spy(problem, *args, stride=1, on_step=None):
        calls.append((problem.time_grid.num_steps, stride))
        return original(problem, *args, stride=stride, on_step=on_step)

    monkeypatch.setattr(scenarios, name, spy)
    return calls


class TestStreaming:
    """Each command's per-snapshot work runs in the per-step hooks of its
    stepper runs, which then store only their first and last steps."""

    def test_growth_runs_k_once_and_stores_two_rows(self, monkeypatch, tmp_path):
        calls = _spy(monkeypatch, "run")
        config = ScenarioConfig(scenario="growth", epsilon=0.2, growth_kind="step",
                                final_time=6.0, output_dir=str(tmp_path))
        report = run_growth(config)
        num_steps = config.build_time_grid().num_steps
        assert calls == [(num_steps, num_steps)]
        assert len(report.diagnostic.times) == num_steps + 1  # stride 1
        assert report.stored_bytes == 8 * 2 * config.build_grid().num_points
        write_growth_outputs(report)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["stored_bytes"] == report.stored_bytes

    def test_simulate_runs_b_once_and_stores_two_rows_of_it(self, monkeypatch, tmp_path):
        k_calls, b_calls = _spy(monkeypatch, "run"), _spy(monkeypatch, "run_boussinesq")
        config = ScenarioConfig(scenario="step", epsilon=0.2, final_time=2.0,
                                error_interval=0.2, output_dir=str(tmp_path))
        report = run_scenario(config)
        num_steps, n = config.build_time_grid().num_steps, config.build_grid().num_points
        assert k_calls == [(num_steps, num_steps)] and b_calls == [(num_steps, num_steps)]
        # B's eta at the 11 error steps, K at steps 0 and N, B's (v, eta) at steps 0 and N
        assert len(report.error_times) == 11
        assert report.stored_bytes == 8 * n * (11 + 2 + 2 * 2)
        write_outputs(report)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["stored_bytes"] == report.stored_bytes

    @pytest.mark.parametrize("command", ["simulate", "growth"])
    def test_hook_time_is_not_stepper_time(self, monkeypatch, command):
        # one 0.5 s pause in the per-snapshot work counts as reconstruction
        # (simulate) or diagnostic (growth), not as time of a stepper run
        if command == "simulate":
            target, config = reconstruct._Characteristics, ScenarioConfig(
                scenario="validate", epsilon=0.2, final_time=1.0)
            name, runner, key, steppers = ("surfaces", run_scenario,
                                           "reconstruction", ("kdv_solve", "boussinesq_solve"))
        else:
            target, config = reconstruct._CorrectorSeries, ScenarioConfig(
                scenario="growth", epsilon=0.2, growth_kind="sinusoid", final_time=1.0)
            name, runner, key, steppers = "record", run_growth, "diagnostic", ("kdv_solve",)
        original, paused = getattr(target, name), []

        def pausing(*args, **kwargs):
            if not paused:
                paused.append(time.sleep(0.5))
            return original(*args, **kwargs)

        monkeypatch.setattr(target, name, pausing)
        runtimes = runner(config).runtimes
        assert paused and runtimes[key] >= 0.5
        for stepper in steppers:
            assert runtimes[stepper] < 0.5

    def test_growth_peak_memory(self):
        # growth sinusoid 0.05: n = 2000 and 101 error steps, which as a stored
        # trajectory alone would hold 1.6 MB; the parent peaked at 3.72 MB
        config = ScenarioConfig(scenario="growth", epsilon=0.05, growth_kind="sinusoid")
        tracemalloc.start()
        try:
            run_growth(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6e6

    def test_convergence_times_each_level(self, tmp_path):
        config = ScenarioConfig(scenario="convergence", epsilon=0.2, final_time=0.4,
                                domain_length=20.0, dx=0.1, shift=-10.0,
                                output_dir=str(tmp_path))
        report = convergence_study(config)
        write_convergence_outputs(report)
        payload = json.loads((tmp_path / "convergence.json").read_text())
        _assert_blas_entry(payload)
        runtimes = payload["runtimes_seconds"]
        assert set(runtimes) == {"kdv_solve", "boussinesq_solve"}
        for seconds in runtimes.values():
            assert len(seconds) == len(report.deltas) and min(seconds) > 0.0


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "longwave.cli", *args],
            capture_output=True, text=True,
        )

    def test_runner_names_are_the_runners_functions(self):
        # the runner refusal names runners by these strings, and the CLI
        # maps each to its command
        scenario_runners = {record.runner for record in scenarios.SCENARIOS.values()}
        command_runners = {command.runner for command in cli._COMMANDS.values()}
        assert scenario_runners == command_runners
        for name in scenario_runners:
            assert getattr(scenarios, name).__name__ == name

    def test_simulate_smoke(self, tmp_path):
        out = tmp_path / "sim"
        proc = self._run("simulate", "--scenario", "validate", "--epsilon", "0.2",
                         "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "errors.csv").exists()
        assert "err vs analytic wave" in proc.stdout

    def test_simulate_with_config_file(self, tmp_path):
        cfg = {"scenario": "validate", "epsilon": 0.2, "final_time": 1.0,
               "snapshot_times": [1.0], "output_dir": str(tmp_path / "cfg_out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = self._run("simulate", "--config", str(path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "cfg_out" / "meta.json").exists()

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": "validate", "epsilon": 0.2,
                                    "mystery": True}))
        proc = self._run("simulate", "--config", str(path))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr

    def test_inadmissible_partial_triple_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": "step", "epsilon": 0.2, "theta": 0.7}))
        proc = self._run("simulate", "--config", str(path))
        assert proc.returncode == 2
        assert "configuration error: inadmissible triple" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("field,value", [
        ("dx", math.nan),
        ("final_time", math.nan),
        ("error_interval", math.nan),
        ("domain_length", math.inf),
        ("epsilon", math.nan),
        ("alpha", math.nan),
        ("shift", -math.inf),
        ("snapshot_times", [1.0, math.nan]),
        ("bathymetry", {"kind": "step", "beta0": math.nan, "center": 40.0,
                        "ramp_half_width": 1.5}),
    ])
    def test_non_finite_config_exits_2(self, tmp_path, field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "step", "epsilon": 0.2, field: value}))
        proc = self._run("simulate", "--config", str(path))
        assert proc.returncode == 2, proc.stderr
        assert f"configuration error: {field} must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("field", ["boussinesq_nonlinear_mode", "kdv_nonlinear_mode",
                                       "lagged_eta_level", "topo_eta_bracket"])
    def test_unknown_mode_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys, field):
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "step", "epsilon": 0.2, field: "bogus"}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert f"configuration error: {field} must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("command,field,value", [
        ("simulate", "bathymetry", {"kind": "step", "beta0": "a", "center": 40.0}),
        ("simulate", "bathymetry", {"kind": "sampled", "nodes": [0.0, 1.0], "values": [0, "x"]}),
        ("convergence", "refinement_levels", 3.5),
        ("simulate", "refl_width_multiplier", "a"),
        ("simulate", "shift", "a"),
        ("simulate", "output_dir", 5),
        ("simulate", "overtime", "no"),
        ("simulate", "sobolev_order", -1),
        ("simulate", "sobolev_order", 4),
        ("simulate", "refl_width_multiplier", 0.0),
        ("simulate", "refl_width_multiplier", -5.0),
        ("simulate", "lagged_eta_level", "predictor"),  # read by the weighted mode only
    ])
    def test_malformed_config_value_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                           command, field, value):
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        scenario = "convergence" if command == "convergence" else "step"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": scenario, "epsilon": 0.2, field: value}))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and field in err

    def test_simulate_refuses_other_scenarios_before_any_run(self, tmp_path, monkeypatch,
                                                             capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "growth", "epsilon": 0.2, "growth_kind": "step"}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "validate/step/sinusoid" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg,message", [
        ({"scenario": "validate", "epsilon": 0.2, "final_time": 1e9}, "node-steps"),
        ({"scenario": "validate", "epsilon": 0.2, "final_time": 10000.2,
          "error_interval": 0.05, "snapshot_times": [10000.05, 10000.1]}, "share file names"),
    ])
    def test_unbounded_or_colliding_run_refused_up_front(self, tmp_path, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(cfg, output_dir=str(tmp_path / "out"))))
        proc = subprocess.run([sys.executable, "-m", "longwave.cli", "simulate",
                               "--config", str(path)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_simulate_guard_counts_k_and_twice_b(self, tmp_path, monkeypatch, capsys):
        # 1600 nodes x 5e6 steps = 8e9 node-steps passes the 1e10 guard of one
        # K run, but the command's K + 2 x B = 2.4e10 is refused before any run
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "validate", "epsilon": 0.2,
                                    "final_time": 2.5e5, "snapshot_times": [2.5e5]}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "node-steps" in capsys.readouterr().err

    def test_simulate_storage_guard_sums_the_command(self, tmp_path, monkeypatch, capsys):
        # 1600 nodes x 100001 error steps: B's eta rows hold 1.28 GB, over the
        # 1 GB guard, and are refused before any run (neither run stores more
        # than two rows)
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "step", "epsilon": 0.2, "final_time": 5000.0,
                                    "error_interval": 0.05}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "1 GB guard" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [{"domain_length": 1e15}, {"domain_length": 1e9},
                                        {"domain_length": 1e300, "dx": 1e-10}])
    def test_unallocatable_grid_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                       window):
        # 2e16 and 2e10 nodes x 100 steps, and a node count past the largest
        # float: refused by the node-step guard before the grid's nodes are
        # allocated, not by a MemoryError or an OverflowError
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "Grid1D", _SmallGrid)
        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "validate", "epsilon": 0.2, **window}))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: run would take") and "node-steps" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,cfg", [
        (["growth", "--scenario", "sinusoid", "--epsilon", "12"], None),
        (None, {"scenario": "growth", "epsilon": 0.2, "growth_kind": "sinusoid",
                "error_interval": 3.0}),
    ])
    def test_growth_snapshot_checks_run_before_the_k_run(self, tmp_path, monkeypatch, capsys,
                                                         argv, cfg):
        # both leave 3 snapshots, known from the plan before K starts
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        if argv is not None:
            assert main([*argv, "--out", str(tmp_path)]) == 2
            assert "growth diagnostic needs >= 4 snapshots, got 3" in capsys.readouterr().err
        else:
            with pytest.raises(DiagnosticError, match=">= 4 snapshots, got 3"):
                run_growth(ScenarioConfig(**cfg))

    @pytest.mark.parametrize("command,cfg,flags", [
        ("simulate", {"overtime": True, "final_time": 1.0}, []),
        ("simulate", {}, ["--scenario", "step", "--epsilon", "0.1"]),
        ("simulate", {}, ["--epsilon", "0"]),
        ("simulate", {}, ["--overtime"]),
        ("convergence", {}, ["--epsilon", "0.1"]),
        ("growth", {}, ["--scenario", "sinusoid"]),
        ("growth", {}, ["--epsilon", "0.1"]),
    ])
    def test_ignored_setting_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                    command, cfg, flags):
        # a config file would override each of these flags, and overtime
        # would replace the config's own final_time
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        scenario = {"simulate": {"scenario": "validate"},
                    "convergence": {"scenario": "convergence"},
                    "growth": {"scenario": "growth", "growth_kind": "step"}}[command]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**scenario, "epsilon": 0.2, **cfg}))
        assert main([command, "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        if flags:
            assert err.startswith(f"configuration error: {flags[0]} cannot override")
        else:
            assert err.startswith("configuration error: overtime") and "final_time" in err

    def test_crest_outside_the_window_exits_2_before_any_run(self, tmp_path, monkeypatch,
                                                             capsys):
        # the default shift -30 puts the crest at x = 30, past a window of 20
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "validate", "epsilon": 0.2,
                                    "domain_length": 20}))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: shift -30 ")
        assert "crest at x = 30" in err and "[0, 20)" in err

    @pytest.mark.parametrize("argv,message", [
        (["--scenario", "validate", "--epsilon", "0.02"],
         "crest goes from x = 30 to x = 80.125 by final_time 50, "
         "past the window [0, domain_length) = [0, 80)"),
        (["--scenario", "sinusoid", "--epsilon", "0.1", "--overtime"],
         "crest goes from x = 2 to x = 34.0355 by final_time 31.64, "
         "past the window [0, domain_length) = [0, 20)"),
        (["--scenario", "validate", "--epsilon", "0.05", "--overtime"],
         "crest goes from x = 30 to x = 119.989 by final_time 89.43,"),
    ], ids=["validate-0.02", "sinusoid-0.1-overtime", "validate-0.05-overtime"])
    def test_crest_leaving_the_window_exits_2_before_any_run(self, monkeypatch, capsys,
                                                             argv, message):
        # the window is periodic and the analytic wave is not: run anyway,
        # validate 0.02 ends 1.0 away from the analytic wave
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        assert main(["simulate", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: the soliton crest") and message in err

    @pytest.mark.parametrize("cfg,message", [
        # 976 steps of 0.05 end at t = 48.8, not at the requested 48.78
        ({"final_time": 48.78},
         "crest goes from x = 30 to x = 80.02 by final_time 48.8, "
         "past the window [0, domain_length) = [0, 80)"),
        # 1333 nodes of 0.06 span 79.98, not the requested 80
        ({"final_time": 48.78, "dx": 0.06},
         "crest goes from x = 30 to x = 79.9995 by final_time 48.78, "
         "past the window [0, domain_length) = [0, 79.98)"),
        ({"final_time": 48.78, "dx": 0.06, "shift": -79.99},
         "shift -79.99 puts the soliton crest at x = 79.99, "
         "outside the window [0, domain_length) = [0, 79.98)"),
    ], ids=["realized-final-time", "realized-length", "crest-outside-realized-length"])
    def test_guards_check_the_realized_window_and_final_time(self, tmp_path, monkeypatch,
                                                             capsys, cfg, message):
        # the run covers N dx and num_steps dt, which round the requested
        # domain_length and final_time to whole steps
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "validate", "epsilon": 0.2, **cfg}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_singular_step_names_step_time_and_norms(self, tmp_path, monkeypatch, capsys):
        # K's fifth step drops its predictor terms and its 2/dt diagonal: the
        # step matrix D1 + eps/6 D3 annihilates constants, so it is singular
        original = kdv.KdvProblem.add_predictor_terms
        calls = []

        def singular_at_step_5(self, target, predictor, current):
            calls.append(None)
            if len(calls) < 5:
                return original(self, target, predictor, current)
            target.add_diagonal(-2.0 / self.time_grid.dt)
            return 2.0 / self.time_grid.dt * current

        cfg = {"scenario": "validate", "epsilon": 0.2, "final_time": 1.0,
               "snapshot_times": [1.0]}
        config = ScenarioConfig(**cfg)
        grid = config.build_grid()
        last = kdv.run(config.build_kdv_problem(grid, TimeGrid(4, config.dt)),
                       soliton_field(config.build_soliton(), grid), stride=4).at_step(4)
        monkeypatch.setattr(kdv.KdvProblem, "add_predictor_terms", singular_at_step_5)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: matrix is singular")
        assert f"(at step 5) at t = {5 * config.dt:.6g};" in err
        assert (f"L2 norm {math.sqrt(grid.dx * float(last @ last)):.6e}, "
                f"max norm {np.max(np.abs(last)):.6e}") in err

    @pytest.mark.parametrize("argv,scenario", [
        (["simulate", "--config", "CFG", "--out", "o"], "validate"),
        (["simulate", "--scenario", "validate", "--epsilon", "0.2", "--out", "o"], None),
        (["convergence", "--config", "CFG", "--out", "o", "--levels", "4"], "convergence"),
        (["convergence", "--epsilon", "0.2", "--out", "o", "--levels", "4"], None),
        (["growth", "--scenario", "step", "--epsilon", "0.2", "--out", "o"], None),
        (["growth", "--config", "CFG", "--out", "o"], "growth"),
    ], ids=["simulate-config", "simulate", "convergence-config", "convergence", "growth",
            "growth-config"])
    def test_flags_are_validated_with_the_config(self, tmp_path, monkeypatch, capsys,
                                                 argv, scenario):
        # each command builds one config, with its flags in it before validation
        validated, ran = [], []
        post_init = ScenarioConfig.__post_init__

        def recording_post_init(self):
            post_init(self)
            validated.append(self.to_dict())

        def runner(config):
            ran.append(config.to_dict())
            raise ConfigurationError("stop before the run")

        monkeypatch.setattr(ScenarioConfig, "__post_init__", recording_post_init)
        for name in ("run_scenario", "convergence_study", "run_growth"):
            monkeypatch.setattr(cli, name, runner)
        path = tmp_path / "cfg.json"
        kind = {"growth_kind": "step"} if scenario == "growth" else {}
        path.write_text(json.dumps({"scenario": scenario, "epsilon": 0.2, **kind}))
        assert main([str(path) if arg == "CFG" else arg for arg in argv]) == 2
        assert "stop before the run" in capsys.readouterr().err
        assert validated == ran and ran[0]["output_dir"] == "o"
        if argv[0] == "convergence":
            assert ran[0]["refinement_levels"] == 4

    def test_missing_epsilon_exits_2(self):
        proc = self._run("simulate", "--scenario", "validate")
        assert proc.returncode == 2

    def test_growth_command(self, tmp_path):
        out = tmp_path / "growth"
        proc = self._run("growth", "--scenario", "step", "--epsilon", "0.2",
                         "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "growth.csv").exists()

    def test_growth_config_of_a_simulate_scenario_names_simulate(self, tmp_path, monkeypatch,
                                                                  capsys):
        # a step config is simulate's: growth refuses it before any run and
        # names the command a CLI user needs
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "step", "epsilon": 0.2}))
        assert main(["growth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "use longwave simulate instead" in capsys.readouterr().err

    @pytest.mark.parametrize("command,bathymetry,named", [
        ("growth", {"kind": "step", "beta0": 0.5, "center": "40"}, "'step' parameter 'center'"),
        ("growth", {"kind": "step", "beta0": True, "center": 40.0}, "'step' parameter 'beta0'"),
        ("simulate", {"kind": "sinusoid", "b0": 0.1, "wavelength": "9.0"},
         "'sinusoid' parameter 'wavelength'"),
        ("simulate", {"kind": "sampled", "nodes": [0.0, 1.0], "values": [0.0, True]},
         "'sampled' parameter 'values'"),
        ("simulate", {"kind": "sampled", "nodes": [0.0, "1"], "values": [0.0, 1.0]},
         "'sampled' parameter 'nodes'"),
    ])
    def test_bathymetry_parameter_that_is_no_number_exits_2(self, tmp_path, monkeypatch, capsys,
                                                             command, bathymetry, named):
        # float() would take True as 1.0 and "40" as 40.0; a bool or a string
        # is refused before any run, naming the kind and the parameter
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        cfg = {"scenario": "growth", "growth_kind": "step"} if command == "growth" \
            else {"scenario": "step"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "epsilon": 0.2, "bathymetry": bathymetry}))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: bathymetry") and named in err

    def test_growth_with_too_few_snapshots_exits_2(self, tmp_path, capsys):
        # eps = 12 leaves 3 snapshots, too few for the growth fit: a
        # DiagnosticError, reported as invalid input and not as a traceback
        argv = ["growth", "--scenario", "sinusoid", "--epsilon", "12", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "growth diagnostic needs >= 4 snapshots, got 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,cfg,message", [
        (["--epsilon", "0.1", "--levels", "9"], None, "convergence study would take"),
        (["--levels", "9"], {"scenario": "convergence", "epsilon": 0.1}, "node-steps"),
        ([], {"scenario": "growth", "epsilon": 0.2, "growth_kind": "step"},
         "needs a convergence scenario"),
        (["--levels", "0"], {"scenario": "convergence", "epsilon": 0.1},
         "at least 3 refinement levels"),
        (["--epsilon", "0.1", "--levels", "1000"], None, "convergence study would take"),
    ])
    def test_convergence_refused_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                 argv, cfg, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        if cfg is not None:
            path = tmp_path / "conv.json"
            path.write_text(json.dumps(cfg))
            argv = ["--config", str(path), *argv]
        assert main(["convergence", *argv]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cfg,message", [
        ({"refinement_levels": 40}, "convergence study would take"),
        ({"domain_length": 24000, "final_time": 0.04, "refinement_levels": 7}, "1 GB guard"),
    ], ids=["work", "storage"])
    def test_convergence_levels_refused_before_their_grids_exist(self, tmp_path, monkeypatch,
                                                                capsys, cfg, message):
        # 40 levels would end at 2000 x 2^39 nodes: the study is refused from
        # its level sizes, before any level's nodes are allocated.  The 24000
        # window passes the node-step guard (6.6e9 over 14 runs), but its
        # finest coupled run would store 1.14 GB: refused before any run
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "Grid1D", _SmallGrid)
        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        path = tmp_path / "conv.json"
        path.write_text(json.dumps({"scenario": "convergence", "epsilon": 0.1, **cfg}))
        assert main(["convergence", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg,advice", [
        ("simulate", {"scenario": "step", "epsilon": 0.2, "final_time": 5000.0,
                      "error_interval": 0.05}, "raise error_interval"),
        ("convergence", {"scenario": "convergence", "epsilon": 0.1, "domain_length": 24000,
                         "final_time": 0.04, "refinement_levels": 7},
         "use fewer refinement levels"),
        ("simulate", {"scenario": "validate", "epsilon": 0.2, "domain_length": 4e6,
                      "final_time": 0.05}, "shorten domain_length"),
    ], ids=["simulate", "convergence", "config"])
    def test_storage_refusal_names_what_a_config_can_set(self, tmp_path, monkeypatch, capsys,
                                                          command, cfg, advice):
        # no command takes a stride, so a storage refusal names the config
        # fields that lower the storage
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "1 GB guard" in err and advice in err and "stride" not in err

    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "step", "--epsilon", "0.1", "--overtime"],
        ["growth", "--scenario", "step", "--epsilon", "0.2"],
        ["convergence", "--epsilon", "0.1"],
        ["growth", "--config"],
    ])
    def test_unusable_out_exits_4_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                 argv, below):
        # --out names a file, or a path below one: the command exits 4 with
        # the error that making the directory raises, and runs no stepper
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        monkeypatch.setattr(scenarios, "run_boussinesq", no_run)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x" if below else tmp_path / "file"
        with pytest.raises(OSError) as made:
            out.mkdir(parents=True, exist_ok=True)
        if argv[-1] == "--config":  # output_dir given in the file, not by --out
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"scenario": "growth", "epsilon": 0.2,
                                        "growth_kind": "step", "output_dir": str(out)}))
            argv = [*argv, str(path)]
        else:
            argv = [*argv, "--out", str(out)]
        assert main(argv) == 4
        assert capsys.readouterr().err == f"I/O error: {made.value}\n"

    def test_convergence_guard_exits_2(self, tmp_path):
        cfg = {"scenario": "convergence", "epsilon": 0.1, "refinement_levels": 1}
        path = tmp_path / "conv.json"
        path.write_text(json.dumps(cfg))
        proc = self._run("convergence", "--config", str(path))
        assert proc.returncode == 2

    @pytest.mark.parametrize("command", ["simulate", "growth"])
    def test_csvs_do_not_depend_on_the_blas_thread_count(self, tmp_path, command):
        written = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            proc = subprocess.run(
                [sys.executable, "-m", "longwave.cli", command, "--scenario", "step",
                 "--epsilon", "0.2", "--out", str(out)],
                capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            written.append({path.name: path.read_bytes() for path in out.glob("*.csv")})
        assert written[0] and written[0] == written[1]

    @pytest.mark.parametrize("name", list(PINNED_STDOUT))
    def test_stdout_is_pinned(self, tmp_path, capsys, name):
        argv, cfg, expected = PINNED_STDOUT[name]
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        if cfg is not None:
            path.write_text(json.dumps(cfg))
        assert main([str(path) if arg == "CFG" else str(out) if arg == "OUT" else arg
                     for arg in argv]) == 0
        assert capsys.readouterr().out.replace(str(out), "OUT") == expected

    def test_growth_config_sets_sobolev_order(self, tmp_path):
        # sobolev_order is read by the growth run only; through --config the
        # command writes the library's growth.csv byte for byte
        fields = {"scenario": "growth", "epsilon": 0.2, "growth_kind": "sinusoid",
                  "final_time": 2.0, "sobolev_order": 3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**fields, "output_dir": str(tmp_path / "cli")}))
        assert main(["growth", "--config", str(path)]) == 0
        report = run_growth(ScenarioConfig(**fields, output_dir=str(tmp_path / "lib")))
        assert report.diagnostic.sobolev_order == 3
        write_growth_outputs(report)
        cli_meta = json.loads((tmp_path / "cli" / "meta.json").read_text())
        assert cli_meta["sobolev_order"] == 3
        assert ((tmp_path / "cli" / "growth.csv").read_bytes()
                == (tmp_path / "lib" / "growth.csv").read_bytes())

    @pytest.mark.parametrize("config", [False, True])
    def test_growth_without_output_dir_exits_2_before_any_run(self, tmp_path, monkeypatch,
                                                              capsys, config):
        def no_run(*args, **kwargs):
            raise AssertionError("a stepper ran")

        monkeypatch.setattr(scenarios, "run", no_run)
        argv = ["growth", "--scenario", "step", "--epsilon", "0.2"]
        if config:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"scenario": "growth", "epsilon": 0.2,
                                        "growth_kind": "step"}))
            argv = ["growth", "--config", str(path)]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        assert capsys.readouterr().err == ("configuration error: growth needs --out or "
                                           "output_dir in the config\n")
        assert sorted(tmp_path.rglob("*")) == before
