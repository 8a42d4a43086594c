"""Scenario configuration, model orchestration, error metrics, and file output.

A scenario runs the same solitary-wave initial data through three models:

* B      -- the coupled symmetric system (reference),
* K      -- the classical reconstruction v = eta = u/2 (bottom-blind),
* K_topo -- the topography-modified reconstruction,

then records the relative L-infinity errors of K and K_topo against B over
time, reflected-wave metrics, conservation drifts, and field snapshots.
Outputs are plain CSV (17 significant digits, so re-reading reproduces the
float64 values bit-exactly) plus a meta.json echoing the full configuration.

Scenario defaults live in one table, ``SCENARIOS`` (the README's "Scenario
defaults" lists it), with dt = dx always.  Growth scenarios integrate the
right-going equation only and track the corrector norm series;
growth/sinusoid scales with 1/eps so runs at different eps see the same
modulation phase.

The three runners (``run_scenario``, ``run_growth``, ``convergence_study``)
start with one prelude, ``_setup``, and refuse a run before their first
stepper call, in one order: a scenario another runner handles
(``_check_runner``, which the CLI also calls with its command names), the
run's node-steps, its storage, and a crest that would leave the window.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import time as _time
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .boussinesq import (
    BOUSSINESQ_NONLINEAR_MODES,
    LAGGED_ETA_LEVELS,
    BoussinesqProblem,
    _refuse_unread_lagged_level,
    run_boussinesq,
)
from .errors import ConfigurationError
from .findiff import blas_info
from .grid import (
    BathymetryProfile,
    Field,
    Grid1D,
    ModelCoefficients,
    SolitonSpec,
    TimeGrid,
    bathymetry_from_config,
    discrete_h1_eps,
    discrete_l2,
    soliton_field,
)
from .kdv import (
    KDV_NONLINEAR_MODES,
    KdvProblem,
    _check_storage,
    _check_work,
    _stored_rows,
    _stored_steps,
    run,
)
from .reconstruct import (
    ETA_BRACKETS,
    GrowthDiagnostic,
    _Characteristics,
    _CorrectorSeries,
)

__all__ = [
    "ScenarioConfig",
    "ComparisonReport",
    "SnapshotRecord",
    "GrowthReport",
    "ConvergenceReport",
    "run_scenario",
    "run_growth",
    "convergence_study",
    "relative_linf_error",
    "reflected_wave_metric",
    "write_outputs",
    "write_growth_outputs",
    "write_convergence_outputs",
]

SCHEME_VERSION = f"longwave/{__version__} crank-nicolson-relaxation"

# (final_time, domain_length, dx, initial crest) of the published runs, by epsilon
_VALIDATE_ROWS = {
    0.05: (20.0, 80.0, 0.03, 30.0),
    0.1: (10.0, 80.0, 0.04, 30.0),
    0.2: (5.0, 80.0, 0.05, 30.0),
}
_STEP_ROWS = {
    0.05: (89.0, 140.0, 0.03, 44.0),
    0.1: (12.0, 80.0, 0.04, 38.0),
    0.2: (12.0, 80.0, 0.05, 38.0),
}


class _Scenario(typing.NamedTuple):
    """What one (scenario, growth_kind) pair selects."""

    runner: str  # name of the function that runs it
    published: dict  # epsilon -> (T, L, dx, crest) of the published runs
    rule: typing.Callable  # epsilon -> (T, L, dx, crest) for any other epsilon
    bottom: typing.Callable  # filled config -> its default bathymetry
    coefficients: typing.Callable  # epsilon -> its default ModelCoefficients
    final_snapshot_only: bool  # else T/4, T/2, 3T/4, T and 1/eps when earlier


_VALIDATE = _Scenario("run_scenario", _VALIDATE_ROWS, lambda eps: (1.0 / eps, 80.0, 0.04, 30.0),
                      lambda cfg: {"kind": "flat"}, ModelCoefficients.balanced, True)
_STEP = _Scenario("run_scenario", _STEP_ROWS,
                  lambda eps: (max(12.0, 1.0 / eps + 2.0), 80.0, 0.04, 38.0),
                  lambda cfg: {"kind": "step", "beta0": 0.5, "center": cfg.domain_length / 2.0,
                               "ramp_half_width": 1.5},
                  ModelCoefficients.balanced, False)

# What each (scenario, growth_kind) selects; the CLI lists the names in this order
SCENARIOS = {
    ("validate", None): _VALIDATE,
    ("step", None): _STEP,
    ("sinusoid", None): _Scenario(
        "run_scenario", {}, lambda eps: (1.0 / eps, 20.0, 0.04, 2.0),
        lambda cfg: {"kind": "sinusoid", "b0": 0.5, "phase": math.pi / 2.0,
                     "wavelength": (1.0 + cfg.epsilon * cfg.alpha / 4.0) / cfg.epsilon},
        ModelCoefficients.balanced, False),
    ("convergence", None): _VALIDATE._replace(runner="convergence_study"),
    ("growth", "step"): _STEP._replace(runner="run_growth",
                                       coefficients=ModelCoefficients.zero_smoothing),
    ("growth", "sinusoid"): _Scenario(
        "run_growth", {}, lambda eps: (1.0 / eps, 4.0 / eps, 0.04, 1.0 / eps),
        lambda cfg: {"kind": "slow_sinusoid", "amplitude": 0.5, "frequency": cfg.epsilon},
        ModelCoefficients.zero_smoothing, False),
}


def _all_finite(value) -> bool:
    """False when a float anywhere in value (lists and dicts included) is NaN or inf."""
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _has_type(value, hint) -> bool:
    """True when value fits the resolved annotation ``hint``; a bool is no number."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, typing.get_args(hint)[0])
                                               for v in value)
    if hint in (int, float):
        number = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, number) and not isinstance(value, bool)
    return isinstance(value, hint)


@dataclass
class ScenarioConfig:
    """Full description of one experiment; mirrors the JSON config schema."""

    scenario: str
    epsilon: float
    final_time: float | None = None
    domain_length: float | None = None
    dx: float | None = None
    alpha: float = 0.5
    shift: float | None = None
    bathymetry: dict | None = None
    theta: float | None = None
    lambda1: float | None = None
    lambda2: float | None = None
    snapshot_times: list[float] | None = None
    output_dir: str | None = None
    error_interval: float | None = None
    overtime: bool = False
    refinement_levels: int = 3
    growth_kind: str | None = None
    sobolev_order: int = 2
    refl_width_multiplier: float = 5.0
    boussinesq_nonlinear_mode: str = "conservative"
    lagged_eta_level: str = "n"
    kdv_nonlinear_mode: str = "neighbor_average"
    topo_eta_bracket: str = "sign_split"

    def __post_init__(self):
        hints = typing.get_type_hints(type(self))
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, hints[f.name]):
                raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}")
            if not _all_finite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value!r}")
        if (self.scenario, self.growth_kind) not in SCENARIOS:
            raise ConfigurationError(f"(scenario, growth_kind) must be one of {list(SCENARIOS)}, "
                                     f"got {(self.scenario, self.growth_kind)}")
        if self.epsilon <= 0.0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.alpha <= 0.0:
            raise ConfigurationError(f"soliton amplitude must be positive, got {self.alpha}")
        if self.refinement_levels < 3:
            raise ConfigurationError(f"refinement_levels {self.refinement_levels} < 3; a "
                                     "convergence study needs at least 3 refinement levels")
        if self.overtime and self.final_time not in (None, self.epsilon ** -1.5):
            raise ConfigurationError(f"overtime sets final_time to epsilon^-1.5, not to the "
                                     f"given {self.final_time}; give overtime or final_time")
        self._fill_defaults()
        self._validate_filled()

    def _fill_defaults(self) -> None:
        record = SCENARIOS[self.scenario, self.growth_kind]
        t_def, l_def, dx_def, x0_def = (record.published.get(self.epsilon)
                                        or record.rule(self.epsilon))
        if self.final_time is None:
            self.final_time = self.epsilon ** -1.5 if self.overtime else t_def
        if self.domain_length is None:
            self.domain_length = l_def
        if self.dx is None:
            self.dx = dx_def
        if self.shift is None:
            self.shift = -x0_def
        defaults = record.coefficients(self.epsilon)
        for name in ("theta", "lambda1", "lambda2"):
            if getattr(self, name) is None:
                setattr(self, name, getattr(defaults, name))
        if self.bathymetry is None:
            self.bathymetry = record.bottom(self)
        if self.error_interval is None:
            target = self.final_time / 100.0
            self.error_interval = max(self.dx, round(target / self.dx) * self.dx)
        if self.snapshot_times is None:
            if record.final_snapshot_only:
                self.snapshot_times = [self.final_time]
            else:
                marks = [0.25, 0.5, 0.75, 1.0]
                times = {round(m * self.final_time, 10) for m in marks}
                if 1.0 / self.epsilon < self.final_time:
                    times.add(1.0 / self.epsilon)
                self.snapshot_times = sorted(times)

    def _validate_filled(self) -> None:
        if self.dx <= 0.0 or self.final_time <= 0.0 or self.domain_length <= 0.0:
            raise ConfigurationError("dx, final_time and domain_length must be positive")
        # before any array of n nodes exists: a run takes >= 1 step, stores >= 2 rows
        n = np.rint(self.domain_length / self.dx)  # a float: inf for a ratio past 1.8e308
        _check_work("run", n * max(1.0, np.rint(self.final_time / self.dt)))
        _check_storage("trajectory storage", 8 * 2 * n, "coarsen dx or shorten domain_length")
        length = self.build_grid().length  # domain_length rounded to whole dx
        if not 0.0 <= -self.shift < length:
            raise ConfigurationError(
                f"shift {self.shift:g} puts the soliton crest at x = {-self.shift:g}, "
                f"outside the window [0, domain_length) = [0, {length:g})"
            )
        if self.error_interval < self.dx - 1e-12:
            raise ConfigurationError("error_interval must be at least one step dx")
        if not 0 <= self.sobolev_order <= 3:
            raise ConfigurationError(
                f"sobolev_order must lie in [0, 3], got {self.sobolev_order}")
        if self.refl_width_multiplier <= 0.0:
            raise ConfigurationError(f"refl_width_multiplier must be positive, "
                                     f"got {self.refl_width_multiplier}")
        for name, allowed in (("boussinesq_nonlinear_mode", BOUSSINESQ_NONLINEAR_MODES),
                              ("kdv_nonlinear_mode", KDV_NONLINEAR_MODES),
                              ("lagged_eta_level", LAGGED_ETA_LEVELS),
                              ("topo_eta_bracket", ETA_BRACKETS)):
            if getattr(self, name) not in allowed:
                raise ConfigurationError(
                    f"{name} must be one of {allowed}, got {getattr(self, name)!r}"
                )
        _refuse_unread_lagged_level(self.boussinesq_nonlinear_mode, self.lagged_eta_level)
        bathymetry_from_config(self.bathymetry)  # raises on bad parameters
        self.build_coefficients()  # raises on an inadmissible triple
        for t in self.snapshot_times:
            if t < -1e-12 or t > self.final_time + 1e-9:
                raise ConfigurationError(
                    f"snapshot time {t} outside the simulated window [0, {self.final_time}]"
                )
        time_grid = self.build_time_grid()
        steps = self.snapshot_steps(time_grid)
        names = [_snapshot_name(m * time_grid.dt) for m in steps]
        if len(set(names)) < len(names):
            raise ConfigurationError(
                f"snapshot steps {steps} share file names {names}; "
                "space the snapshot times further apart"
            )

    # -- derived quantities ------------------------------------------------

    @property
    def dt(self) -> float:
        """Time step; always equal to dx (characteristic-aligned quadrature)."""
        return self.dx

    def build_grid(self) -> Grid1D:
        return Grid1D.from_length(self.domain_length, self.dx)

    def build_time_grid(self) -> TimeGrid:
        return TimeGrid.from_final_time(self.final_time, self.dt)

    def build_coefficients(self) -> ModelCoefficients:
        return ModelCoefficients(self.theta, self.lambda1, self.lambda2, self.epsilon)

    def build_bathymetry(self) -> BathymetryProfile:
        return bathymetry_from_config(self.bathymetry)

    def build_soliton(self) -> SolitonSpec:
        return SolitonSpec(self.alpha, self.shift, self.epsilon)

    def build_kdv_problem(self, grid: Grid1D, time_grid: TimeGrid) -> KdvProblem:
        """K's right-going problem on the given grids (no bottom terms)."""
        return KdvProblem(self.epsilon, grid, time_grid, nonlinear_mode=self.kdv_nonlinear_mode)

    def build_boussinesq_problem(self, grid: Grid1D, time_grid: TimeGrid) -> BoussinesqProblem:
        """B's problem over the configured bottom, with every assembly setting."""
        return BoussinesqProblem(self.build_coefficients(), self.build_bathymetry(), grid,
                                 time_grid, nonlinear_mode=self.boussinesq_nonlinear_mode,
                                 lagged_eta_level=self.lagged_eta_level)

    def error_stride(self, time_grid: TimeGrid) -> int:
        return max(1, min(int(round(self.error_interval / self.dt)), time_grid.num_steps))

    def snapshot_steps(self, time_grid: TimeGrid) -> list[int]:
        """Snapshot times rounded to multiples of the error cadence."""
        stride = self.error_stride(time_grid)
        steps = set()
        for t in self.snapshot_times:
            m = int(round(t / self.dt / stride)) * stride
            steps.add(min(max(m, 0), time_grid.num_steps))
        return sorted(steps)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("config root must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        if "scenario" not in data or "epsilon" not in data:
            raise ConfigurationError("config must provide 'scenario' and 'epsilon'")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigurationError(f"bad config: {exc}") from exc

    @classmethod
    def from_json(cls, path, **overrides) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict({**data, **overrides} if isinstance(data, dict) else data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def relative_linf_error(a, b) -> float:
    """max|a - b| / max|b|, or the absolute max|a| when b vanishes."""
    a_vals = a.values if isinstance(a, Field) else np.asarray(a, dtype=float)
    b_vals = b.values if isinstance(b, Field) else np.asarray(b, dtype=float)
    if a_vals.shape != b_vals.shape or (
        isinstance(a, Field) and isinstance(b, Field) and a.grid != b.grid
    ):
        raise ConfigurationError("fields to compare live on different grids")
    scale = float(np.max(np.abs(b_vals)))
    diff = float(np.max(np.abs(a_vals - b_vals)))
    if scale < 1e-14:
        return float(np.max(np.abs(a_vals)))
    return diff / scale


def reflected_wave_metric(eta: Field, main_wave_position: float,
                          width_param: float, multiplier: float = 5.0) -> float:
    """Signed extremum of eta over the region more than ``multiplier`` widths
    (multiplier/width_param) left of the main crest; 0.0 when that region is
    empty.  The magnitude is max|eta| there; the sign records whether the
    strongest feature is a crest or a depression."""
    nodes = eta.grid.nodes
    cutoff = main_wave_position - multiplier / width_param
    mask = nodes < cutoff
    if not np.any(mask):
        return 0.0
    region = eta.values[mask]
    return float(region[np.argmax(np.abs(region))])


def _main_crest_position(values: np.ndarray, grid: Grid1D) -> float:
    """Position of the global maximum (ties broken by smallest index)."""
    return float(grid.nodes[int(np.argmax(values))])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class SnapshotRecord:
    time: float
    x: np.ndarray
    eta_boussinesq: np.ndarray
    eta_kdv: np.ndarray
    eta_kdv_topo: np.ndarray
    v_boussinesq: np.ndarray
    bottom_rescaled: np.ndarray


@dataclass
class ComparisonReport:
    config: ScenarioConfig
    realized_final_time: float
    error_times: np.ndarray
    err_kdv: np.ndarray
    err_kdv_topo: np.ndarray
    refl_boussinesq: np.ndarray
    refl_kdv: np.ndarray
    refl_topo: np.ndarray
    l2_drift: np.ndarray
    h1eps_drift: np.ndarray
    snapshots: list[SnapshotRecord]
    runtimes: dict[str, float]
    validation_error: float | None
    wrap_contamination: float
    stored_bytes: int  # the trajectories and B's eta rows the run held

    def error_at(self, t: float, which: str = "kdv") -> float:
        """K's (``which="kdv"``) or K_topo's (``"kdv_topo"``) error at the
        error sample nearest t."""
        series = {"kdv": self.err_kdv, "kdv_topo": self.err_kdv_topo}.get(which)
        if series is None:
            raise ConfigurationError(f"which must be 'kdv' or 'kdv_topo', got {which!r}")
        idx = int(np.argmin(np.abs(self.error_times - t)))
        if abs(self.error_times[idx] - t) > self.config.error_interval / 2.0 + 1e-9:
            raise ConfigurationError(f"no error sample near t={t}")
        return float(series[idx])


@dataclass
class GrowthReport:
    config: ScenarioConfig
    diagnostic: GrowthDiagnostic
    crossing_time: float | None
    runtimes: dict[str, float]
    stored_bytes: int


@dataclass
class ConvergenceReport:
    config: ScenarioConfig
    deltas: list[float]
    kdv_errors: list[float]
    kdv_orders: list[float]
    boussinesq_diffs: list[float]
    boussinesq_orders: list[float]
    monotone: bool
    runtimes: dict[str, list[float]]  # per model, one entry per level


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------

def _check_runner(config: ScenarioConfig, runner: str, names: dict | None = None) -> None:
    """Refuse a config whose scenario another runner handles, naming that
    runner; ``names`` maps runners to what the caller calls them (the CLI's
    ``longwave simulate``, ...), else the runners are named as they are."""
    own = SCENARIOS[config.scenario, config.growth_kind].runner
    if own != runner:
        names = names or {}
        handled = dict.fromkeys(key[0] for key, record in SCENARIOS.items()
                                if record.runner == runner)
        raise ConfigurationError(f"{names.get(runner, runner)} needs a {'/'.join(handled)} "
                                 f"scenario, got {config.scenario!r}; use "
                                 f"{names.get(own, own)} instead")


def _check_crest_path(config: ScenarioConfig, grid: Grid1D, time_grid: TimeGrid) -> None:
    """Refuse a run whose crest reaches the window's end N dx by its last step,
    num_steps dt: the wave would wrap, and the analytic reference does not."""
    end = -config.shift + config.build_soliton().speed * time_grid.final_time
    if end >= grid.length:
        raise ConfigurationError(
            f"the soliton crest goes from x = {-config.shift:g} to x = {end:g} by "
            f"final_time {time_grid.final_time:g}, past the window [0, domain_length) = "
            f"[0, {grid.length:g})")


def _timed_run(runner, problem, *fields, stride: int, hook=None):
    """``runner(problem, *fields)`` storing every ``stride``-th step, with
    ``hook`` as its per-step hook; returns the trajectory, the stepper's
    seconds without the hook's, and the hook's seconds."""
    hook_seconds = 0.0

    def timed(m: int, z: np.ndarray) -> None:
        nonlocal hook_seconds
        t0 = _time.perf_counter()
        hook(m, z)
        hook_seconds += _time.perf_counter() - t0

    t0 = _time.perf_counter()
    traj = runner(problem, *fields, stride=stride, on_step=timed if hook else None)
    return traj, _time.perf_counter() - t0 - hook_seconds, hook_seconds


def _analytic_error(u_traj, spec: SolitonSpec, time_grid: TimeGrid) -> float:
    """K's error at the last step against the analytic wave at T."""
    exact = soliton_field(spec, u_traj.grid, time_grid.final_time)
    return relative_linf_error(u_traj.at_step(time_grid.num_steps), exact.values)


def _setup(config: ScenarioConfig, runner: str) -> tuple:
    """The prelude of every runner: refuse a config another runner handles,
    then build the run's grid, time grid, bottom, soliton, initial wave u0
    and error stride."""
    _check_runner(config, runner)
    grid, time_grid = config.build_grid(), config.build_time_grid()
    spec = config.build_soliton()
    return (grid, time_grid, config.build_bathymetry(), spec, soliton_field(spec, grid),
            config.error_stride(time_grid))


def run_scenario(config: ScenarioConfig) -> ComparisonReport:
    """Run the three models of a comparison scenario and collect all metrics.
    B runs first: its per-step hook takes B's own metrics and keeps its eta
    at the error steps, one row each, and its v at the snapshot steps.  K
    then runs, and its hook feeds K_topo's characteristic sum at every step
    and, at each error step, builds K's and K_topo's eta from the snapshot
    in hand and compares them with B's row.  Neither run is stored beyond
    its first and last steps."""
    grid, time_grid, bottom, spec, u0, stride = _setup(config, "run_scenario")
    coeffs = config.build_coefficients()
    half = Field(u0.values / 2.0, grid)
    num_steps = time_grid.num_steps
    _check_work("simulate (K + 2 x B)", 3 * grid.num_points * num_steps)
    # B's eta, n floats per error step
    _check_storage("simulate storage at the error steps",
                   8 * grid.num_points * _stored_rows(num_steps, stride),
                   "raise error_interval, shorten final_time or coarsen dx")
    _check_crest_path(config, grid, time_grid)
    error_steps = _stored_steps(num_steps, stride)
    row_of = {m: row for row, m in enumerate(error_steps.tolist())}
    snapshot_steps = set(config.snapshot_steps(time_grid))
    size = len(error_steps)
    err_k, err_kt, refl_b, refl_k, refl_kt, l2_drift, h1_drift, seam_peaks = (
        np.empty(size) for _ in range(8))
    eta_rows = np.empty((size, grid.num_points))
    v_snapshots = {}
    seam = np.r_[np.arange(grid.num_points - 5, grid.num_points), np.arange(0, 5)]
    k, mult = spec.width_param, config.refl_width_multiplier

    def refl(eta: np.ndarray) -> float:
        return reflected_wave_metric(Field(eta, grid), _main_crest_position(eta, grid), k, mult)

    h1_ref = discrete_h1_eps(half, half, coeffs)

    def b_metrics(m: int, z: np.ndarray) -> None:
        row = row_of.get(m)
        if row is None:
            return
        # contiguous copies of B's fields, as a stored trajectory holds them
        eta_b = eta_rows[row]
        eta_b[:] = z[1::2]
        v_b = z[0::2].copy()
        refl_b[row] = refl(eta_b)
        h1_drift[row] = abs(discrete_h1_eps(Field(v_b, grid), Field(eta_b, grid), coeffs)
                            - h1_ref) / h1_ref
        seam_peaks[row] = float(np.max(np.abs(eta_b[seam]))) / config.alpha
        if m in snapshot_steps:
            v_snapshots[m] = v_b

    b_traj, boussinesq_seconds, b_hook_seconds = _timed_run(
        run_boussinesq, config.build_boussinesq_problem(grid, time_grid), half, half,
        stride=num_steps, hook=b_metrics)

    # K_topo's bottom over the run's lattice: U1's terms, and N1's
    # Int_0^t b'(x+t-s) u(s, x+t-2s) ds fed as K runs
    characteristics = _Characteristics(bottom, grid, num_steps)
    l2_ref = discrete_l2(u0)
    snapshots: list[SnapshotRecord] = []

    def k_metrics(m: int, u: np.ndarray) -> None:
        characteristics.feed(u)
        row = row_of.get(m)
        if row is None:
            return
        eta_b = eta_rows[row]
        eta_k = u / 2.0
        _, eta_kt = characteristics.surfaces(u, m, characteristics.read(), coeffs,
                                             config.topo_eta_bracket)
        err_k[row] = relative_linf_error(eta_k, eta_b)
        err_kt[row] = relative_linf_error(eta_kt, eta_b)
        refl_k[row] = refl(eta_k)
        refl_kt[row] = refl(eta_kt)
        l2_drift[row] = abs(discrete_l2(Field(u, grid)) - l2_ref) / l2_ref
        if m in snapshot_steps:
            snapshots.append(SnapshotRecord(m * time_grid.dt, grid.nodes.copy(), eta_b.copy(),
                                            eta_k, eta_kt, v_snapshots.pop(m),
                                            -1.0 + bottom.sample(grid)))

    u_traj, kdv_seconds, k_hook_seconds = _timed_run(
        run, config.build_kdv_problem(grid, time_grid), u0, stride=num_steps, hook=k_metrics)

    validation_error = _analytic_error(u_traj, spec, time_grid) if bottom.is_flat() else None
    return ComparisonReport(
        config=config,
        realized_final_time=time_grid.final_time,
        error_times=error_steps * time_grid.dt,
        err_kdv=err_k,
        err_kdv_topo=err_kt,
        refl_boussinesq=refl_b,
        refl_kdv=refl_k,
        refl_topo=refl_kt,
        l2_drift=l2_drift,
        h1eps_drift=h1_drift,
        snapshots=snapshots,
        runtimes={
            "kdv_solve": kdv_seconds,
            "boussinesq_solve": boussinesq_seconds,
            "reconstruction": k_hook_seconds + b_hook_seconds,
        },
        validation_error=validation_error,
        wrap_contamination=float(seam_peaks.max()),
        stored_bytes=u_traj.data.nbytes + b_traj.v_data.nbytes + b_traj.eta_data.nbytes
        + eta_rows.nbytes,
    )


def run_growth(config: ScenarioConfig) -> GrowthReport:
    """Right-going run plus corrector-norm series for a growth scenario.  The
    K run's per-step hook feeds the series, so K stores only steps 0 and N."""
    grid, time_grid, bottom, spec, u0, stride = _setup(config, "run_growth")
    _check_crest_path(config, grid, time_grid)
    crossing = fit_window = None
    if config.growth_kind == "step":
        center = config.bathymetry.get("center", config.domain_length / 2.0)
        crossing = (center + config.shift) / spec.speed  # crest starts at -shift
        fit_window = (min(crossing + 1.0, time_grid.final_time - 4 * stride * config.dt),
                      time_grid.final_time)
    series = _CorrectorSeries(bottom, grid, config.sobolev_order,
                              _stored_steps(time_grid.num_steps, stride), fit_window)

    u_traj, kdv_seconds, hook_seconds = _timed_run(
        run, config.build_kdv_problem(grid, time_grid), u0, stride=time_grid.num_steps,
        hook=series.record)
    t1 = _time.perf_counter()
    diag = series.diagnostic()
    return GrowthReport(
        config=config,
        diagnostic=diag,
        crossing_time=crossing,
        runtimes={"kdv_solve": kdv_seconds,
                  "diagnostic": hook_seconds + _time.perf_counter() - t1},
        stored_bytes=u_traj.data.nbytes,
    )


def convergence_study(config: ScenarioConfig) -> ConvergenceReport:
    """Observed orders of both steppers under successive halvings of dx = dt.

    Level k is ``_setup``'s grid and time grid refined by 2^k.  The scalar
    stepper is measured against the analytic solitary wave; the coupled
    stepper against its own next-finer solution (the grids nest, so coarse
    nodes are a subset of fine ones).  A study whose levels add up to more
    node-steps, over both steppers, than one run may take, or whose finest
    coupled run would store more than the 1 GB guard, is refused before any
    grid finer than level 0 is built."""
    grid0, time0, _, spec, _, _ = _setup(config, "convergence_study")
    levels = config.refinement_levels
    # the finest level's refinement 2^(levels - 1) as a float, inf past the
    # largest float; float products then overflow to inf, never raise
    finest = 2.0 ** (levels - 1) if levels <= 1024 else math.inf
    # level k takes 4^k times level 0's node-steps, for each stepper
    _check_work("convergence study", 2.0 * grid0.num_points * time0.num_steps
                * (4.0 * finest * finest - 1.0) / 3.0)
    # the finest coupled run stores two rows of (v, eta)
    _check_storage("convergence study's finest coupled run", 8 * 2 * 2 * grid0.num_points * finest,
                   "use fewer refinement levels or coarsen dx")
    _check_crest_path(config, grid0, time0)

    deltas, kdv_errors, eta_fields = [], [], []
    runtimes = {"kdv_solve": [], "boussinesq_solve": []}
    for k in range(levels):
        grid = Grid1D(grid0.num_points * 2**k, grid0.dx / 2**k)
        time_grid = TimeGrid(time0.num_steps * 2**k, time0.dt / 2**k)
        deltas.append(grid.dx)
        u0 = soliton_field(spec, grid)
        traj, seconds, _ = _timed_run(run, config.build_kdv_problem(grid, time_grid), u0,
                                      stride=time_grid.num_steps)
        runtimes["kdv_solve"].append(seconds)
        kdv_errors.append(_analytic_error(traj, spec, time_grid))

        half = Field(u0.values / 2.0, grid)
        btraj, seconds, _ = _timed_run(run_boussinesq,
                                       config.build_boussinesq_problem(grid, time_grid), half,
                                       half, stride=time_grid.num_steps)
        runtimes["boussinesq_solve"].append(seconds)
        _, eta = btraj.at_step(time_grid.num_steps)
        eta_fields.append(eta)

    kdv_orders = [math.log2(kdv_errors[k] / kdv_errors[k + 1]) for k in range(levels - 1)]
    # level k's nodes are every other node of level k + 1
    b_diffs = [float(np.max(np.abs(eta_fields[k] - eta_fields[k + 1][::2])))
               for k in range(levels - 1)]
    b_orders = [math.log2(b_diffs[k] / b_diffs[k + 1]) for k in range(len(b_diffs) - 1)]
    monotone = all(np.diff(kdv_errors) < 0) and all(np.diff(b_diffs) < 0)
    return ConvergenceReport(
        config=config,
        deltas=deltas,
        kdv_errors=kdv_errors,
        kdv_orders=kdv_orders,
        boussinesq_diffs=b_diffs,
        boussinesq_orders=b_orders,
        monotone=monotone,
        runtimes=runtimes,
    )


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------

def _snapshot_name(time: float) -> str:
    """File name of the snapshot at ``time``; ``:g`` keeps 6 significant digits."""
    return f"snapshot_t{time:g}.csv"


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """One header line, then one line per row of the equal-length columns,
    every value as "%.17g" (round-trip exact)."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(row * table.shape[0] % tuple(table.ravel().tolist()))


def _write_files(report, tables: dict[str, tuple[list[str], list]], json_name: str,
                 extra: dict) -> list[Path]:
    """Write CSV tables {file name: (header, columns)}, then the run's config,
    coefficients, runtimes, BLAS and ``extra`` as one JSON file, into
    report.config.output_dir (created if missing); returns the paths in order."""
    config = report.config
    if config.output_dir is None:
        raise ConfigurationError("config.output_dir is required to write outputs")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, columns) in tables.items():
        _write_csv(out / name, header, columns)
    with open(out / json_name, "w") as fh:
        json.dump({"scheme_version": SCHEME_VERSION, "config": config.to_dict(),
                   "coefficients": dataclasses.asdict(config.build_coefficients()),
                   "runtimes_seconds": report.runtimes, "blas": blas_info(), **extra},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [out / name for name in (*tables, json_name)]


def write_outputs(report: ComparisonReport) -> list[Path]:
    """Write snapshot CSVs, the error time series, and meta.json."""
    tables = {
        _snapshot_name(snap.time): (
            ["x", "eta_boussinesq", "eta_kdv", "eta_kdv_topo", "v_boussinesq",
             "bottom_rescaled"],
            [snap.x, snap.eta_boussinesq, snap.eta_kdv, snap.eta_kdv_topo,
             snap.v_boussinesq, snap.bottom_rescaled],
        )
        for snap in report.snapshots
    }
    tables["errors.csv"] = (
        ["t", "err_kdv", "err_kdv_topo", "refl_b", "refl_kdv", "refl_topo",
         "l2_drift", "h1eps_drift"],
        [report.error_times, report.err_kdv, report.err_kdv_topo,
         report.refl_boussinesq, report.refl_kdv, report.refl_topo,
         report.l2_drift, report.h1eps_drift],
    )
    return _write_files(report, tables, "meta.json", {
        "realized_final_time": report.realized_final_time,
        "validation_error": report.validation_error,
        "wrap_contamination": report.wrap_contamination,
        "stored_bytes": report.stored_bytes,
    })


def write_growth_outputs(report: GrowthReport) -> list[Path]:
    """Write the corrector norm series (growth.csv) and meta.json."""
    diag = report.diagnostic
    header = ["t", "u1_norm"] + list(diag.term_norms)
    cols = [diag.times, diag.u1_norms] + [diag.term_norms[k] for k in diag.term_norms]
    return _write_files(report, {"growth.csv": (header, cols)}, "meta.json", {
        "sobolev_order": diag.sobolev_order,
        "fit": {
            "slope": diag.slope,
            "intercept": diag.intercept,
            "r_squared": diag.r_squared,
            "window": list(diag.fit_window),
        },
        "crossing_time": report.crossing_time,
        "stored_bytes": report.stored_bytes,
    })


def write_convergence_outputs(report: ConvergenceReport) -> list[Path]:
    """Write convergence.json: the orders and errors of every level."""
    return _write_files(report, {}, "convergence.json", {
        "deltas": report.deltas,
        "kdv_errors": report.kdv_errors,
        "kdv_orders": report.kdv_orders,
        "boussinesq_diffs": report.boussinesq_diffs,
        "boussinesq_orders": report.boussinesq_orders,
        "monotone": report.monotone,
    })
