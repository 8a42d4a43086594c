"""Coupled Crank-Nicolson relaxation stepper for the symmetric long-wave system.

The system integrated here, for velocity v and surface elevation eta over a
bottom profile b, is

    (1 - eps a2 dxx) v_t + eta_x
        + eps [ 1/2 eta eta_x + 3/2 v v_x - 1/2 b eta_x + a1 eta_xxx ] = 0
    (1 - eps a4 dxx) eta_t + v_x
        + eps [ 1/2 ((eta - b) v)_x + a1 v_xxx ] = 0

with admissible coefficients (a1 = a3, a2, a4 >= 0).  It conserves the
eps-weighted energy |v|^2 + |eta|^2 + eps a2 |v_x|^2 + eps a4 |eta_x|^2.

Both unknowns are advanced together by one cyclic banded solve per step with
the unknowns interleaved as (v_0, eta_0, v_1, eta_1, ...), which keeps the
bandwidth at 5.  The relaxation predictors (v, eta)^{n+1/2} freeze the
nonlinear factors exactly as in the scalar stepper.

Two assemblies of the nonlinear/bottom terms are provided:

* ``conservative`` (default): pairs each first-order term with its exact
  discrete-skew-symmetric partner,

      3/2 v v_x     -> eps/2 [ diag(v^p) D1 + D1 diag(v^p) ] w_v
      1/2 eta eta_x -> eps/2 diag(eta^p) D1 w_eta
      1/2 ((eta-b) v)_x -> eps/2 D1 diag(eta^p - b) w_v,

  so the discrete energy (with the D2-based derivative term) telescopes to
  round-off every step, for flat and uneven bottoms alike.

* ``weighted``: the per-node weightings with the neighbour-averaged
  predictor factors and the bottom entering both equations as
  (I - eps/2 B) D1; its energy defect is O(dx^2) per step and drifts over
  long runs, so it is kept for sensitivity studies only.  Its lagged
  eta-factor can be read at time level n (default) or at the predictor
  (``lagged_eta_level``).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, GridMismatchError, InstabilityError
from .findiff import CyclicBandedMatrix, make_d1, make_d2, make_d3
from .grid import (
    BathymetryProfile,
    Field,
    FlatBottom,
    Grid1D,
    ModelCoefficients,
    TimeGrid,
)
from .kdv import PairTrajectory, _drive

__all__ = [
    "BoussinesqProblem",
    "BoussinesqState",
    "init_boussinesq",
    "step_boussinesq",
    "run_boussinesq",
]


class BoussinesqProblem:
    """Coefficients, bottom profile and discretization for one run."""

    def __init__(self, coeffs: ModelCoefficients, bathymetry: BathymetryProfile,
                 grid: Grid1D, time_grid: TimeGrid,
                 nonlinear_mode: str = "conservative",
                 lagged_eta_level: str = "n"):
        if nonlinear_mode not in ("conservative", "weighted"):
            raise ConfigurationError(f"unknown nonlinear_mode {nonlinear_mode!r}")
        if lagged_eta_level not in ("n", "predictor"):
            raise ConfigurationError("lagged_eta_level must be 'n' or 'predictor'")
        self.coeffs = coeffs
        self.bathymetry = bathymetry if bathymetry is not None else FlatBottom()
        self.grid = grid
        self.time_grid = time_grid
        self.nonlinear_mode = nonlinear_mode
        self.lagged_eta_level = lagged_eta_level
        self.bottom_matrix = self.bathymetry.sample(grid)
        self._d1 = make_d1(grid)
        self._d2 = make_d2(grid)
        self._d3 = make_d3(grid)

    def _mass_apply(self, which: str, values: np.ndarray) -> np.ndarray:
        """(I - eps a D2) values for a = a2 (velocity) or a4 (surface)."""
        a = self.coeffs.a2 if which == "v" else self.coeffs.a4
        if a == 0.0:
            return values.copy()
        return values - self.coeffs.epsilon * a * self._d2.apply_values(values)

    def _mass_solve(self, which: str, rhs: np.ndarray) -> np.ndarray:
        a = self.coeffs.a2 if which == "v" else self.coeffs.a4
        if a == 0.0:
            return rhs.copy()
        matrix = CyclicBandedMatrix(self.grid.num_points, max_offset=1)
        matrix.add_diagonal(1.0)
        matrix.add_operator(self._d2, scale=-self.coeffs.epsilon * a)
        return matrix.solve(rhs)

    def rhs(self, v: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Explicit right-hand side of (v_t, eta_t) = F(v, eta), mass matrices inverted."""
        eps, a1 = self.coeffs.epsilon, self.coeffs.a1
        b = self.bottom_matrix
        dv = self._d1.apply_values(v)
        de = self._d1.apply_values(eta)
        f_v = (
            (1.0 - eps / 2.0 * b) * de
            + eps * (0.5 * eta * de + 1.5 * v * dv + a1 * self._d3.apply_values(eta))
        )
        if self.nonlinear_mode == "conservative":
            flux = self._d1.apply_values((eta - b) * v)
            f_eta = dv + eps * (0.5 * flux + a1 * self._d3.apply_values(v))
        else:
            f_eta = (
                (1.0 - eps / 2.0 * b) * dv
                + eps * (0.5 * (eta * dv + v * de) + a1 * self._d3.apply_values(v))
            )
        return -self._mass_solve("v", f_v), -self._mass_solve("eta", f_eta)


class BoussinesqState:
    """State after n steps: both fields, both predictors, and the step index."""

    def __init__(self, v_current: Field, eta_current: Field,
                 v_predictor: Field, eta_predictor: Field,
                 step_index: int, dt: float):
        grids = {f.grid for f in (v_current, eta_current, v_predictor, eta_predictor)}
        if len(grids) != 1:
            raise GridMismatchError("state fields live on different grids")
        self.v_current = v_current
        self.eta_current = eta_current
        self.v_predictor = v_predictor
        self.eta_predictor = eta_predictor
        self.step_index = int(step_index)
        self.dt = float(dt)

    @property
    def time(self) -> float:
        return self.step_index * self.dt


def init_boussinesq(problem: BoussinesqProblem, v0: Field, eta0: Field) -> BoussinesqState:
    """Start a run: predictors are an explicit half-step from (v0, eta0)."""
    if v0.grid != problem.grid or eta0.grid != problem.grid:
        raise GridMismatchError("initial data does not live on the problem grid")
    dt = problem.time_grid.dt
    f_v, f_eta = problem.rhs(v0.values, eta0.values)
    vp = v0.values + 0.5 * dt * f_v
    ep = eta0.values + 0.5 * dt * f_eta
    if not (np.all(np.isfinite(vp)) and np.all(np.isfinite(ep))):
        raise InstabilityError("non-finite predictor during initialization", step_index=0)
    return BoussinesqState(
        v0.copy(), eta0.copy(), Field(vp, problem.grid), Field(ep, problem.grid), 0, dt
    )


class _BlockSystem:
    """Interleaved 2N cyclic banded system over unknowns (w_v, w_eta) per node."""

    V, ETA = 0, 1

    def __init__(self, n: int):
        self.n = n
        self.matrix = CyclicBandedMatrix(2 * n, max_offset=5)

    def add_diag(self, row: int, col: int, values) -> None:
        self.matrix.add_strided_band(col - row, np.broadcast_to(values, (self.n,)),
                                     row_start=row, row_step=2)

    def add_op(self, row: int, col: int, op, pre_diag=None, post_diag=None,
               scale: float = 1.0) -> None:
        for off, c in zip(op.offsets, op.coeffs):
            vals = np.full(self.n, scale * c)
            if pre_diag is not None:
                vals = vals * pre_diag
            if post_diag is not None:
                vals = vals * np.roll(post_diag, -off)
            self.matrix.add_strided_band(2 * off + col - row, vals,
                                         row_start=row, row_step=2)


def _assemble_block(problem: BoussinesqProblem, vp: np.ndarray, ep: np.ndarray,
                    eta_n: np.ndarray, dt: float) -> tuple[_BlockSystem, np.ndarray]:
    """System acting on the interleaved half-sums, plus any explicit rhs pieces.

    Returns the block system and an rhs correction (to be added to the
    telescoped mass-matrix rhs)."""
    coeffs = problem.coeffs
    eps, a1, a2, a4 = coeffs.epsilon, coeffs.a1, coeffs.a2, coeffs.a4
    b = problem.bottom_matrix
    d1, d2, d3 = problem._d1, problem._d2, problem._d3
    n = problem.grid.num_points
    sys = _BlockSystem(n)
    V, ETA = _BlockSystem.V, _BlockSystem.ETA
    rhs_fix = np.zeros(2 * n)

    # Mass terms (2/dt)(I - eps a D2) on each unknown.
    sys.add_diag(V, V, 2.0 / dt)
    sys.add_diag(ETA, ETA, 2.0 / dt)
    if a2 != 0.0:
        sys.add_op(V, V, d2, scale=-2.0 * eps * a2 / dt)
    if a4 != 0.0:
        sys.add_op(ETA, ETA, d2, scale=-2.0 * eps * a4 / dt)

    # Dispersive terms.
    sys.add_op(V, ETA, d3, scale=eps * a1)
    sys.add_op(ETA, V, d3, scale=eps * a1)

    if problem.nonlinear_mode == "conservative":
        # v-equation: (I - eps/2 B) D1 w_eta + eps/2 eta^p D1 w_eta
        sys.add_op(V, ETA, d1, scale=1.0)
        sys.add_op(V, ETA, d1, pre_diag=b, scale=-eps / 2.0)
        sys.add_op(V, ETA, d1, pre_diag=ep, scale=eps / 2.0)
        # v-equation: eps/2 [ diag(v^p) D1 + D1 diag(v^p) ] w_v
        sys.add_op(V, V, d1, pre_diag=vp, scale=eps / 2.0)
        sys.add_op(V, V, d1, post_diag=vp, scale=eps / 2.0)
        # eta-equation: D1 w_v + eps/2 D1 diag(eta^p - b) w_v
        sys.add_op(ETA, V, d1, scale=1.0)
        sys.add_op(ETA, V, d1, post_diag=ep - b, scale=eps / 2.0)
    else:
        smoothed_vp = vp + 0.5 * (np.roll(vp, -1) + np.roll(vp, 1))
        smoothed_ep = 0.5 * (np.roll(ep, -1) + np.roll(ep, 1))
        dvp = d1.apply_values(vp)
        dep = d1.apply_values(ep)
        # v-equation: (I - eps/2 B) D1 w_eta then the two per-node weightings.
        sys.add_op(V, ETA, d1, scale=1.0)
        sys.add_op(V, ETA, d1, pre_diag=b, scale=-eps / 2.0)
        sys.add_op(V, V, d1, pre_diag=smoothed_vp, scale=eps / 2.0)
        sys.add_diag(V, V, eps / 2.0 * dvp)
        sys.add_op(V, ETA, d1, pre_diag=ep, scale=eps / 3.0)
        sys.add_diag(V, ETA, eps / 6.0 * dep)
        # eta-equation, with the lagged eta factor fully explicit.
        sys.add_op(ETA, V, d1, scale=1.0)
        sys.add_op(ETA, V, d1, pre_diag=b, scale=-eps / 2.0)
        sys.add_op(ETA, V, d1, pre_diag=smoothed_ep, scale=eps / 3.0)
        sys.add_op(ETA, V, d1, pre_diag=smoothed_vp, scale=eps / 6.0)
        sys.add_diag(ETA, V, eps / 6.0 * dvp)
        lagged = ep if problem.lagged_eta_level == "predictor" else eta_n
        lag_factor = 0.5 * (np.roll(lagged, -1) + np.roll(lagged, 1)) - 0.5 * lagged
        rhs_fix[1::2] -= eps / 3.0 * dep * lag_factor
    return sys, rhs_fix


def step_boussinesq(problem: BoussinesqProblem, state: BoussinesqState) -> BoussinesqState:
    """Advance one time step: one interleaved banded solve, predictors relaxed."""
    dt = problem.time_grid.dt
    vp, ep = state.v_predictor.values, state.eta_predictor.values
    vn, en = state.v_current.values, state.eta_current.values
    sys, rhs_fix = _assemble_block(problem, vp, ep, en, dt)
    rhs = np.empty(2 * problem.grid.num_points)
    rhs[0::2] = 2.0 / dt * problem._mass_apply("v", vn)
    rhs[1::2] = 2.0 / dt * problem._mass_apply("eta", en)
    rhs += rhs_fix
    w = sys.matrix.solve(rhs)
    v_next = 2.0 * w[0::2] - vn
    eta_next = 2.0 * w[1::2] - en
    next_index = state.step_index + 1
    if not (np.all(np.isfinite(v_next)) and np.all(np.isfinite(eta_next))):
        raise InstabilityError(
            f"non-finite solution at step {next_index}", step_index=next_index
        )
    return BoussinesqState(
        Field(v_next, problem.grid),
        Field(eta_next, problem.grid),
        Field(2.0 * v_next - vp, problem.grid),
        Field(2.0 * eta_next - ep, problem.grid),
        next_index,
        dt,
    )


def run_boussinesq(problem: BoussinesqProblem, v0: Field, eta0: Field,
                   stride: int = 1) -> PairTrajectory:
    """Integrate over the full time grid, storing every stride-th pair.

    The returned ``v_data`` and ``eta_data`` arrays are read-only."""
    plan, (v_data, eta_data) = _drive(
        problem, lambda: init_boussinesq(problem, v0, eta0), step_boussinesq,
        ("v_current", "eta_current"), stride,
    )
    return PairTrajectory(problem.grid, problem.time_grid.dt, plan, v_data, eta_data)
