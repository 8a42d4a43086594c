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
    _padded,
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


def _refuse_unread_lagged_level(nonlinear_mode: str, lagged_eta_level: str) -> None:
    """Only the weighted assembly reads ``lagged_eta_level``; any other mode
    would run a "predictor" level as if it were "n"."""
    if lagged_eta_level != "n" and nonlinear_mode != "weighted":
        raise ConfigurationError(
            f"lagged_eta_level {lagged_eta_level!r} is read only by the 'weighted' "
            f"nonlinear mode, not by {nonlinear_mode!r}"
        )


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
        _refuse_unread_lagged_level(nonlinear_mode, lagged_eta_level)
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
        # (2/dt)(I - eps a D2) z = own * z_i - neighbours * (z_{i-1} + z_{i+1})
        # per interleaved unknown, a = a2 for v and a4 for eta
        self._mass_neighbours = np.empty(2 * grid.num_points)
        self._mass_neighbours[0::2] = coeffs.epsilon * coeffs.a2
        self._mass_neighbours[1::2] = coeffs.epsilon * coeffs.a4
        self._mass_neighbours *= 2.0 / (time_grid.dt * grid.dx**2)
        self._mass_own = 2.0 / time_grid.dt + 2.0 * self._mass_neighbours

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
        """Add the nonlinear terms frozen at the predictor, one ``add_shift``
        per band entry, and return the rhs, (2/dt)(I - eps a D2) z^n per
        field plus the explicit lagged-eta term of the weighted assembly.

        Both come from padded copies of the interleaved z, whose entry
        2i + 2 + f is field f at node i, so a node's neighbours are slices."""
        eps = self.coeffs.epsilon
        left, right = self._d1.coeffs  # D1's weights of node i - 1 and i + 1
        z = _padded(predictor, 2)
        padded = _padded(current, 2)
        rhs = self._mass_own * current
        rhs -= self._mass_neighbours * (padded[:-4] + padded[4:])

        if self.nonlinear_mode == "conservative":
            c = eps / 2.0 * right  # and eps/2 times D1's weight of node i - 1 is -c
            # eta_term[i] = c eta^p_{i-1} for i = 0..n+1, pairs[i] = c (v^p_{i-1} + v^p_i)
            eta_term = c * z[1::2]
            pairs = c * (z[0:-2:2] + z[2::2])
            # v-equation: eps/2 eta^p D1 w_eta + eps/2 [ diag(v^p) D1 + D1 diag(v^p) ] w_v
            target.add_shift(eta_term[1:-1], 1, _VE)
            target.add_shift(eta_term[1:-1], -1, _VE, sign=-1)
            target.add_shift(pairs[1:], 1, _VV)
            target.add_shift(pairs[:-1], -1, _VV, sign=-1)
            # eta-equation: eps/2 D1 diag(eta^p) w_v
            target.add_shift(eta_term[2:], 1, _EV)
            target.add_shift(eta_term[:-2], -1, _EV, sign=-1)
        else:
            vp, ep = predictor[0::2], predictor[1::2]
            v_before, v_after, e_before, e_after = z[0:-4:2], z[4::2], z[1:-4:2], z[5::2]
            smoothed_vp = vp + 0.5 * (v_after + v_before)
            smoothed_ep = 0.5 * (e_after + e_before)
            dvp = left * v_before + right * v_after
            dep = left * e_before + right * e_after
            # v-equation: the two per-node weightings.
            target.add_shift(eps / 2.0 * left * smoothed_vp, -1, _VV)
            target.add_shift(eps / 2.0 * right * smoothed_vp, 1, _VV)
            target.add_shift(eps / 2.0 * dvp, 0, _VV)
            target.add_shift(eps / 3.0 * left * ep, -1, _VE)
            target.add_shift(eps / 3.0 * right * ep, 1, _VE)
            target.add_shift(eps / 6.0 * dep, 0, _VE)
            # eta-equation, with the lagged eta factor fully explicit.
            for offset, c in ((-1, left), (1, right)):
                target.add_shift(eps / 3.0 * c * smoothed_ep + eps / 6.0 * c * smoothed_vp,
                                 offset, _EV)
            target.add_shift(eps / 6.0 * dvp, 0, _EV)
            lagged = z if self.lagged_eta_level == "predictor" else padded
            lag_factor = 0.5 * (lagged[5::2] + lagged[1:-4:2]) - 0.5 * lagged[3:-2:2]
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
