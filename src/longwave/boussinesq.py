"""Coupled Crank-Nicolson relaxation stepper for the symmetric long-wave system.

The system integrated here, for velocity v and surface elevation eta over a
bottom profile b, is

    (1 - eps a2 dxx) v_t + eta_x
        + eps [ 1/2 eta eta_x + 3/2 v v_x - 1/2 b eta_x + a1 eta_xxx ] = 0
    (1 - eps a4 dxx) eta_t + v_x
        + eps [ 1/2 ((eta - b) v)_x + a1 v_xxx ] = 0

with admissible coefficients (a1 = a3, a2, a4 >= 0).  It conserves the
eps-weighted energy |v|^2 + |eta|^2 + eps a2 |v_x|^2 + eps a4 |eta_x|^2.

Both unknowns are advanced together as one interleaved array
z = (v_0, eta_0, v_1, eta_1, ...), which keeps the bandwidth at 5.  The run
state, the predictor start and the relaxation step are the scalar stepper's
(``kdv.RelaxationState``, one step-operator solve per step); this module
supplies ``rhs(z)``, ``add_constant_terms`` (the mass terms, the linear D1
and D3 terms and every bottom term, folded once per run) and
``add_predictor_terms`` (the nonlinear terms frozen at the predictor, and the
rhs), whose terms go into the 2x2 blocks (equation, unknown) of the run's
``StepOperator`` with blocks=2; ``rhs`` inverts the mass terms with a
one-off blocks=1 ``StepOperator`` solve each.

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
  (``lagged_eta_level``).  This assembly is not mirror-symmetric: its
  explicit lagged term eps/3 D1(eta^p) * lag_factor in the eta rows holds no
  v factor, so (v, eta) -> (-v(-x), eta(-x)) does not map a weighted run onto
  itself even on a flat bottom (on the eps = 0.2 soliton, n = 800, the
  mirrored run differs by 1.0e-3 in eta after 5 steps).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .findiff import StepOperator, make_d1, make_d2, make_d3
from .grid import (
    BathymetryProfile,
    Field,
    FlatBottom,
    Grid1D,
    ModelCoefficients,
    TimeGrid,
    _shifted,
)
from .kdv import PairTrajectory, RelaxationState, _advance, _drive, _start

__all__ = [
    "BoussinesqProblem",
    "init_boussinesq",
    "step_boussinesq",
    "run_boussinesq",
]

BOUSSINESQ_NONLINEAR_MODES = ("conservative", "weighted")
LAGGED_ETA_LEVELS = ("n", "predictor")

# Blocks (equation row, unknown column) of the interleaved system.
_VV, _VE, _EV, _EE = (0, 0), (0, 1), (1, 0), (1, 1)


class BoussinesqProblem:
    """Coefficients, bottom profile and discretization for one run."""

    blocks = 2  # fields per node in the unknown: (v, eta)

    def __init__(self, coeffs: ModelCoefficients, bathymetry: BathymetryProfile,
                 grid: Grid1D, time_grid: TimeGrid,
                 nonlinear_mode: str = "conservative",
                 lagged_eta_level: str = "n"):
        if nonlinear_mode not in BOUSSINESQ_NONLINEAR_MODES:
            raise ConfigurationError(
                f"nonlinear_mode must be one of {BOUSSINESQ_NONLINEAR_MODES}, "
                f"got {nonlinear_mode!r}"
            )
        if lagged_eta_level not in LAGGED_ETA_LEVELS:
            raise ConfigurationError(
                f"lagged_eta_level must be one of {LAGGED_ETA_LEVELS}, got {lagged_eta_level!r}"
            )
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

    def _mass_apply(self, a: float, values: np.ndarray) -> np.ndarray:
        """(I - eps a D2) values, for a = a2 (velocity) or a4 (surface)."""
        return values - self.coeffs.epsilon * a * self._d2.apply_values(values)

    def _mass_solve(self, a: float, rhs: np.ndarray) -> np.ndarray:
        operator = StepOperator(self.grid.num_points)
        operator.add_diagonal(1.0)
        operator.add_operator(self._d2, scale=-self.coeffs.epsilon * a)
        return operator.solve(rhs)

    def rhs(self, z: np.ndarray) -> np.ndarray:
        """Explicit right-hand side F(z) of z_t = F(z), mass matrices inverted,
        for the interleaved z = (v_0, eta_0, v_1, eta_1, ...)."""
        eps, a1 = self.coeffs.epsilon, self.coeffs.a1
        b = self.bottom_matrix
        v, eta = z[0::2], z[1::2]
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
        out = np.empty_like(z)
        out[0::2] = -self._mass_solve(self.coeffs.a2, f_v)
        out[1::2] = -self._mass_solve(self.coeffs.a4, f_eta)
        return out

    def add_constant_terms(self, target) -> None:
        """The step-matrix terms that stay fixed over a run: the mass terms
        (2/dt)(I - eps a D2), the linear D1 and D3 terms and every bottom term."""
        coeffs = self.coeffs
        eps, a1, a2, a4 = coeffs.epsilon, coeffs.a1, coeffs.a2, coeffs.a4
        dt = self.time_grid.dt
        b = self.bottom_matrix
        d1, d2, d3 = self._d1, self._d2, self._d3

        target.add_diagonal(2.0 / dt, _VV)
        target.add_diagonal(2.0 / dt, _EE)
        target.add_operator(d2, scale=-2.0 * eps * a2 / dt, block=_VV)
        target.add_operator(d2, scale=-2.0 * eps * a4 / dt, block=_EE)
        target.add_operator(d3, scale=eps * a1, block=_VE)
        target.add_operator(d3, scale=eps * a1, block=_EV)
        # v-equation: (I - eps/2 B) D1 w_eta
        target.add_operator(d1, scale=1.0, block=_VE)
        target.add_operator(d1, pre_diag=b, scale=-eps / 2.0, block=_VE)
        target.add_operator(d1, scale=1.0, block=_EV)
        if self.nonlinear_mode == "conservative":
            # eta-equation: D1 w_v - eps/2 D1 diag(b) w_v
            target.add_operator(d1, post_diag=b, scale=-eps / 2.0, block=_EV)
        else:
            # eta-equation: (I - eps/2 B) D1 w_v
            target.add_operator(d1, pre_diag=b, scale=-eps / 2.0, block=_EV)

    def add_predictor_terms(self, target, predictor: np.ndarray,
                            current: np.ndarray) -> np.ndarray:
        """Add the nonlinear terms frozen at the predictor and return the rhs,
        (2/dt)(I - eps a D2) z^n per field plus the explicit lagged-eta term
        of the weighted assembly."""
        coeffs = self.coeffs
        eps, a2, a4 = coeffs.epsilon, coeffs.a2, coeffs.a4
        dt = self.time_grid.dt
        d1 = self._d1
        vp, ep = predictor[0::2], predictor[1::2]
        rhs = np.empty(2 * self.grid.num_points)
        rhs[0::2] = 2.0 / dt * self._mass_apply(a2, current[0::2])
        rhs[1::2] = 2.0 / dt * self._mass_apply(a4, current[1::2])

        if self.nonlinear_mode == "conservative":
            # v-equation: eps/2 eta^p D1 w_eta + eps/2 [ diag(v^p) D1 + D1 diag(v^p) ] w_v
            target.add_operator(d1, pre_diag=ep, scale=eps / 2.0, block=_VE)
            target.add_operator(d1, pre_diag=vp, scale=eps / 2.0, block=_VV)
            target.add_operator(d1, post_diag=vp, scale=eps / 2.0, block=_VV)
            # eta-equation: eps/2 D1 diag(eta^p) w_v
            target.add_operator(d1, post_diag=ep, scale=eps / 2.0, block=_EV)
        else:
            smoothed_vp = vp + 0.5 * (_shifted(vp, 1) + _shifted(vp, -1))
            smoothed_ep = 0.5 * (_shifted(ep, 1) + _shifted(ep, -1))
            dvp = d1.apply_values(vp)
            dep = d1.apply_values(ep)
            # v-equation: the two per-node weightings.
            target.add_operator(d1, pre_diag=smoothed_vp, scale=eps / 2.0, block=_VV)
            target.add_diagonal(eps / 2.0 * dvp, _VV)
            target.add_operator(d1, pre_diag=ep, scale=eps / 3.0, block=_VE)
            target.add_diagonal(eps / 6.0 * dep, _VE)
            # eta-equation, with the lagged eta factor fully explicit.
            target.add_operator(d1, pre_diag=smoothed_ep, scale=eps / 3.0, block=_EV)
            target.add_operator(d1, pre_diag=smoothed_vp, scale=eps / 6.0, block=_EV)
            target.add_diagonal(eps / 6.0 * dvp, _EV)
            lagged = ep if self.lagged_eta_level == "predictor" else current[1::2]
            lag_factor = 0.5 * (_shifted(lagged, 1) + _shifted(lagged, -1)) - 0.5 * lagged
            rhs[1::2] -= eps / 3.0 * dep * lag_factor
        return rhs


def init_boussinesq(problem: BoussinesqProblem, v0: Field, eta0: Field) -> RelaxationState:
    """Start a run: the predictors are an explicit half-step from (v0, eta0)."""
    if v0.grid != problem.grid or eta0.grid != problem.grid:
        raise GridMismatchError("initial data does not live on the problem grid")
    z = np.empty(2 * problem.grid.num_points)
    z[0::2], z[1::2] = v0.values, eta0.values
    return _start(problem, z)


def step_boussinesq(problem: BoussinesqProblem, state: RelaxationState) -> RelaxationState:
    """Advance one time step: one interleaved banded solve, predictors relaxed."""
    return _advance(problem, state)


def run_boussinesq(problem: BoussinesqProblem, v0: Field, eta0: Field,
                   stride: int = 1, on_step=None) -> PairTrajectory:
    """Integrate over the full time grid, storing every stride-th pair.

    ``on_step(m, z)`` is called at step 0 and after every step with the
    interleaved z = (v_0, eta_0, v_1, eta_1, ...) (see ``kdv._drive``).  The
    returned ``v_data`` and ``eta_data`` arrays are read-only."""
    plan, (v_data, eta_data) = _drive(
        problem, lambda: init_boussinesq(problem, v0, eta0), step_boussinesq, stride, on_step,
    )
    return PairTrajectory(problem.grid, problem.time_grid.dt, plan, v_data, eta_data)
