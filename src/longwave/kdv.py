"""Crank-Nicolson relaxation stepper for the fast-time dispersive wave equation.

The equation solved here is the right-going, flat-bottom one,

    u_t + u_x + eps * [ 3/4 u u_x + 1/6 u_xxx ] = 0,

the uncoupled K of the long-wave system.  Every run starts from
v0 = eta0 = u0/2, so the left-going profile is identically zero and this one
equation carries K; the bottom enters only the reconstruction
(``reconstruct``) and the coupled model (``boussinesq``).

Time discretization is Crank-Nicolson with the relaxation treatment of the
nonlinearity: the nonlinear factor is frozen at a predictor u^{n+1/2} that
satisfies u^n = (u^{n+1/2} + u^{n-1/2})/2, so each step solves one linear
system and no nonlinear iteration is needed.  With w = (u^{n+1} + u^n)/2 the
default per-node update reads

    (u^{n+1}_i - u^n_i)/dt + (D1 w)_i
      + eps * [ 1/4 (u^p_i + (u^p_{i+1} + u^p_{i-1})/2) (D1 w)_i
              + 1/4 w_i (D1 u^p)_i + 1/6 (D3 w)_i ] = 0.

The 1/4-weighted neighbour average does not conserve the discrete L2 norm
exactly: over the shipped scenarios its relative drift reads 4.8e-9
(``validate`` 0.1) to 7.7e-6 (the default ``sinusoid`` 0.1, whose initial
data is cut at the seam).  The alternative assembly ("split_form") uses the
exactly skew-symmetric pair eps/4 * (u^p D1 w + D1(u^p w)) instead, and one
of its steps conserves the discrete L2 norm to round-off for any data; both
are second order and agree to O(dx^2).

The relaxation step itself is shared with the coupled stepper.  A run state
(``RelaxationState``) holds two raw arrays, the unknown z^n and its predictor
z^{n+1/2}, where z is u here and the interleaved (v_0, eta_0, v_1, eta_1, ...)
for the coupled system.  A problem supplies ``rhs(z)``, the explicit F of
z_t = F(z) that starts the predictor at z^0 + dt/2 F(z^0), and the banded
matrix of the half-sum w in two parts: ``add_constant_terms(target)``, the
terms fixed over a run (the 2/dt mass terms, the linear D1, D3 and D2 terms,
every bottom term), and ``add_predictor_terms(target, predictor, current)``,
the nonlinear terms frozen at the predictor, returning the right-hand side.
``_start`` gives the constant terms to the run's ``StepOperator``, which the
state carries.  Each step resets the operator, adds the predictor terms, one
``add_shift`` per band entry computed from a padded copy of the predictor,
and solves for w (``findiff.StepOperator.solve``) from the degree-8
extrapolation of the last nine w,

    w_n ~ sum_{j=1..9} (-1)^(j+1) C(9, j) w_{n-j},

one matrix-vector product over the run's w history (a ring of ten rows,
also carried by the state, so two runs of one problem never share it; the
first steps extrapolate from the w there are, the first from the
predictor).  The step then sets z^{n+1} = 2w - z^n and relaxes the
predictor to 2 z^{n+1} - z^{n+1/2}, in place in two fresh arrays, so the
state it started from keeps its own.
``_drive`` is the one run loop of both steppers, with one per-step hook.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    ConfigurationError,
    GridMismatchError,
    InstabilityError,
    MissingSnapshotError,
    SolverError,
)
from .findiff import StepOperator, make_d1, make_d3
from .grid import Field, Grid1D, TimeGrid, _padded

__all__ = [
    "Trajectory",
    "KdvProblem",
    "RelaxationState",
    "init_predictor",
    "step",
    "run",
]

_MEMORY_GUARD_BYTES = 1 << 30  # refuse trajectories above 1 GB
_WORK_GUARD_NODE_STEPS = 1e10  # refuse runs above ~3 h at 1e6 node-steps/s

KDV_NONLINEAR_MODES = ("neighbor_average", "split_form")


class Trajectory:
    """Time-indexed snapshots of one solver run at steps m*stride (plus the
    final step).  ``data`` holds one row per stored step: K's u, shape
    (snapshots, n), or B's (v, eta), shape (snapshots, 2, n), so
    ``v, eta = at_step(m)`` unpacks a B row.  It is frozen at construction
    (``_frozen``) and has no setter, so anything computed from it once stays
    valid for the trajectory's life."""

    def __init__(self, grid: Grid1D, dt: float, step_indices: np.ndarray, data: np.ndarray):
        self.grid = grid
        self.dt = float(dt)
        self.step_indices = np.asarray(step_indices, dtype=int)
        if np.any(np.diff(self.step_indices) <= 0):
            raise ConfigurationError("snapshot steps must be strictly increasing")
        self._row_of = {int(m): i for i, m in enumerate(self.step_indices)}
        self._data = _frozen(data)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def times(self) -> np.ndarray:
        return self.step_indices * self.dt

    def step_of_time(self, t: float) -> int:
        m = int(round(t / self.dt))
        if abs(m * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise MissingSnapshotError(f"time {t} is not a step multiple of dt={self.dt}")
        return m

    def row_for_step(self, m: int) -> int:
        if m not in self._row_of:
            raise MissingSnapshotError(f"no snapshot stored at step {m} (t={m * self.dt})")
        return self._row_of[m]

    def at_step(self, m: int) -> np.ndarray:
        return self.data[self.row_for_step(m)]

    def has_every_step_upto(self, m: int) -> bool:
        """True when steps 0..m are all stored (stride-1 storage): the steps
        are strictly increasing integers, so steps[0] = 0 and steps[m] = m
        leave no room for a gap."""
        steps = self.step_indices
        return bool(0 <= m < len(steps) and steps[0] == 0 and steps[m] == m)


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only array, copied once when it or any array it views
    is writeable (``np.load`` returns a view of a writeable array)."""
    a = base = np.asarray(a)
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            a = a.copy()
            break
        base = base.base
    a.flags.writeable = False
    return a


class KdvProblem:
    """The right-going, flat-bottom equation on one grid and time grid."""

    blocks = 1  # fields per node in the unknown

    def __init__(self, epsilon: float, grid: Grid1D, time_grid: TimeGrid,
                 nonlinear_mode: str = "neighbor_average"):
        if epsilon <= 0.0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        if nonlinear_mode not in KDV_NONLINEAR_MODES:
            raise ConfigurationError(
                f"nonlinear_mode must be one of {KDV_NONLINEAR_MODES}, got {nonlinear_mode!r}"
            )
        self.epsilon = float(epsilon)
        self.grid = grid
        self.time_grid = time_grid
        self.nonlinear_mode = nonlinear_mode
        self._d1 = make_d1(grid)
        self._d3 = make_d3(grid)

    def rhs(self, values: np.ndarray) -> np.ndarray:
        """Explicit spatial right-hand side F(u) of u_t = F(u)."""
        eps = self.epsilon
        du = self._d1.apply_values(values)
        return -(du + eps * (0.75 * values * du + 1.0 / 6.0 * self._d3.apply_values(values)))

    def add_constant_terms(self, target) -> None:
        """The step-matrix terms that stay fixed over a run: (2/dt) I + L_0."""
        eps, dt = self.epsilon, self.time_grid.dt
        target.add_diagonal(2.0 / dt)
        target.add_operator(self._d1)
        target.add_operator(self._d3, scale=eps / 6.0)

    def add_predictor_terms(self, target, predictor: np.ndarray,
                            current: np.ndarray) -> np.ndarray:
        """Add the nonlinear terms frozen at the predictor, one ``add_shift``
        per band entry, and return the rhs (2/dt) u^n."""
        # D1 weighs u_{i+1} by c and u_{i-1} by -c
        c = self.epsilon / 4.0 * self._d1.coeffs[1]
        padded = _padded(predictor, 1)
        if self.nonlinear_mode == "neighbor_average":
            before, after = padded[:-2], padded[2:]
            term = c * (predictor + 0.5 * (after + before))
            target.add_shift(term, 1)
            target.add_shift(term, -1, sign=-1)
            target.add_shift(c * (after - before), 0)
        else:
            # eps/4 (diag(u^p) D1 + D1 diag(u^p)), both terms in one entry:
            # pairs[i] = c (u_{i-1} + u_i)
            pairs = c * (padded[:-1] + padded[1:])
            target.add_shift(pairs[1:], 1)
            target.add_shift(pairs[:-1], -1, sign=-1)
        return 2.0 / self.time_grid.dt * current


class RelaxationState:
    """State after n steps of one run: raw arrays of the unknown z^n and its
    predictor z^{n+1/2} (the coupled stepper's z interleaves
    (v_0, eta_0, v_1, eta_1, ...)), the step index, and the run's step
    operator and w history.  The history holds the half-sums w of the solves
    in ring rows, w_m in row m mod 10; the guess of a step reads the nine rows
    before its own.  A state is advanced by the problem that started it, and
    advancing it never writes into its arrays: until a later step of the run
    is taken, advancing it again gives the same successor."""

    def __init__(self, current: np.ndarray, predictor: np.ndarray, step_index: int,
                 operator: StepOperator, history: np.ndarray):
        self.current = current
        self.predictor = predictor
        self.step_index = int(step_index)
        self.operator = operator
        self.history = history


# The guess extrapolates the last nine w (degree 8); the ring keeps one row
# more, so the row a step writes is none that its guess reads.
_GUESS_DEPTH = 9


@functools.cache
def _guess_weights(known: int, row: int) -> np.ndarray:
    """Weights over the history rows of the degree known - 1 extrapolation
    sum_{j=1..known} (-1)^(j+1) C(known, j) w_{m-j} to w_m, w_m's row being
    ``row``; read-only, as calls share it."""
    weights = np.zeros(_GUESS_DEPTH + 1)
    for j in range(1, known + 1):
        weights[(row - j) % weights.size] = (-1) ** (j + 1) * math.comb(known, j)
    weights.flags.writeable = False
    return weights


def _start(problem, current: np.ndarray) -> RelaxationState:
    """First predictor: an explicit half-step z + dt/2 F(z) of either model;
    the run's step operator and w history are built here, once."""
    dt = problem.time_grid.dt
    predictor = current + 0.5 * dt * problem.rhs(current)
    if not np.all(np.isfinite(predictor)):
        raise InstabilityError("non-finite predictor during initialization", step_index=0)
    blocks = problem.blocks
    size = blocks * problem.grid.num_points
    operator = StepOperator(size, blocks, problem.add_constant_terms)
    return RelaxationState(current, predictor, 0, operator, np.zeros((_GUESS_DEPTH + 1, size)))


def _advance(problem, state: RelaxationState) -> RelaxationState:
    """One relaxation step of either model: solve for the half-sum w at the
    frozen predictor, set z^{n+1} = 2w - z^n, then relax the predictor.

    The solve starts from the polynomial extrapolation of the last (up to)
    nine w, one matrix-vector product over the history; the first step
    starts from the predictor.  w goes into its history row."""
    operator, history, m = state.operator, state.history, state.step_index
    operator.reset()
    rhs = problem.add_predictor_terms(operator, state.predictor, state.current)
    row = m % len(history)
    guess = _guess_weights(min(m, _GUESS_DEPTH), row) @ history if m else state.predictor
    w = operator.solve(rhs, guess)
    history[row] = w
    current = np.multiply(w, 2.0)
    current -= state.current
    if not np.isfinite(current).all():
        raise InstabilityError("non-finite solution", step_index=m + 1)
    predictor = np.multiply(current, 2.0)
    predictor -= state.predictor
    return RelaxationState(current, predictor, m + 1, operator, history)


def init_predictor(problem: KdvProblem, u0: Field) -> RelaxationState:
    """Start a run: the first predictor is an explicit half-step from u0."""
    if u0.grid != problem.grid:
        raise GridMismatchError("initial data does not live on the problem grid")
    return _start(problem, u0.values.copy())


def step(problem: KdvProblem, state: RelaxationState) -> RelaxationState:
    """Advance one time step; the predictor follows the relaxation recurrence."""
    return _advance(problem, state)


def _check_work(what: str, work: float,
                advice: str = "shorten final_time or coarsen the grid") -> None:
    """Refuse work above the node-step guard, with ``advice`` on what to
    change; a run's node-steps are its unknowns x its time steps."""
    if work > _WORK_GUARD_NODE_STEPS:
        hours = (f", about {work / 1e6 / 3600:.3g} h at 1e6 node-steps/s"
                 if math.isfinite(work) else "")
        raise ConfigurationError(f"{what} would take {work:.3g} node-steps{hours} "
                                 f"(> {_WORK_GUARD_NODE_STEPS:.0e} guard); {advice}")


def _check_storage(what: str, nbytes: float,
                   advice: str = "increase the stride or coarsen the run") -> None:
    """Refuse storage above the 1 GB guard, with ``advice`` on what to change."""
    if nbytes > _MEMORY_GUARD_BYTES:
        raise ConfigurationError(
            f"{what} would need {nbytes / 2**30:.2f} GB (> 1 GB guard); {advice}")


def _stored_rows(num_steps: int, stride: int) -> int:
    """Snapshots a run stores: every stride-th step plus the final one."""
    return -(-num_steps // stride) + 1


def _stored_steps(num_steps: int, stride: int) -> np.ndarray:
    """The steps of those snapshots, in order."""
    return np.append(np.arange(0, num_steps, stride), num_steps)


def _failed_step(exc: SolverError, state: RelaxationState, problem) -> SolverError:
    """``exc`` as raised by the step after ``state``, the last finite state
    of ``problem``'s run: the same error type, naming the failed step, its
    time and that state's norms in its message and attributes."""
    step_index, z = state.step_index + 1, state.current
    time = step_index * problem.time_grid.dt
    l2, peak = math.sqrt(problem.grid.dx * float(z @ z)), float(np.max(np.abs(z)))
    return type(exc)(
        f"{exc} (at step {step_index}) at t = {time:.6g}; last finite state: "
        f"L2 norm {l2:.6e}, max norm {peak:.6e}",
        step_index=step_index, time=time, l2_norm=l2, max_norm=peak,
    )


def _drive(problem, start, advance, stride: int, on_step=None):
    """Run loop shared by both steppers.

    Refuses runs above the node-step or the 1 GB storage guard before any
    work, builds the initial state with ``start()``, then applies
    ``advance(problem, state)`` over the time grid.  The ``problem.blocks`` fields
    interleaved in the unknown are stored at every stride-th step plus the
    final one; a SolverError is re-raised naming its step, the step's time
    and the norms of the last finite state (``_failed_step``).  Returns the
    stored step indices and a read-only array of shape (snapshots, blocks, n),
    which a trajectory then holds, or a row-block view of, without a copy.

    ``on_step(m, z)``, the one per-step hook, is called with the step index
    and ``state.current`` (z^m, which no later step writes into) after the
    start and after every step, so it sees the steps the run does not store.
    """
    n, num_steps = problem.grid.num_points, problem.time_grid.num_steps
    blocks = problem.blocks
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    _check_work("run", blocks * n * num_steps)
    shape = (_stored_rows(num_steps, stride), blocks, n)
    _check_storage("trajectory storage", 8 * shape[0] * shape[1] * shape[2])
    plan = _stored_steps(num_steps, stride)
    data = np.empty(shape)
    state = start()
    on_step = on_step or (lambda m, z: None)
    on_step(0, state.current)
    for row, target in enumerate(plan):
        while state.step_index < target:
            try:
                state = advance(problem, state)
            except SolverError as exc:
                raise _failed_step(exc, state, problem) from exc
            on_step(state.step_index, state.current)
        data[row] = state.current.reshape(n, blocks).T
    data.flags.writeable = False
    return plan, data


def run(problem: KdvProblem, u0: Field, stride: int = 1, on_step=None) -> Trajectory:
    """Integrate over the full time grid, storing every stride-th field.

    ``on_step(m, u)`` is called at step 0 and after every step (see
    ``_drive``).  The returned ``data``, of shape (snapshots, n), is read-only."""
    plan, data = _drive(problem, lambda: init_predictor(problem, u0), step, stride, on_step)
    return Trajectory(problem.grid, problem.time_grid.dt, plan, data[:, 0])
