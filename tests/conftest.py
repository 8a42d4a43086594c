import numpy as np
import pytest

from longwave.errors import ConfigurationError
from longwave.grid import Field, Grid1D, ModelCoefficients, SolitonSpec


@pytest.fixture
def small_grid():
    return Grid1D(64, 0.25)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def soliton_spec():
    return SolitonSpec(alpha=0.5, shift=-8.0, epsilon=0.2)


@pytest.fixture
def balanced_coeffs():
    return ModelCoefficients.balanced(0.2)


def random_field(grid: Grid1D, rng, scale: float = 1.0) -> Field:
    return Field(scale * rng.standard_normal(grid.num_points), grid)


def as_dense(op) -> np.ndarray:
    """The n x n matrix of a ``CyclicBandedOperator``."""
    dense = np.zeros((op.n, op.n))
    rows = np.arange(op.n)
    for off, c in zip(op.offsets, op.coeffs):
        dense[rows, (rows + off) % op.n] += c
    return dense


def characteristic_cross_integral(b, traj, t: float, x: float) -> float:
    """Int_0^t b'(x+t-s) u(s, x+t-s) ds at one node, N1's characteristic sum
    over the right-going trajectory without its -1/4.  A direct O(m) sum over
    the m+1 snapshots with the trapezoid rule (dt = dx), kept as the
    reference for the running sums of ``reconstruct``.  ``x`` must be a node
    and ``traj`` must be stored at every step up to t."""
    grid = traj.grid
    n, dt = grid.num_points, grid.dx
    if traj.dt != dt:
        raise ConfigurationError(f"the reference needs dt == dx, got {traj.dt} and {dt}")
    i = int(round(x / dt))
    if abs(i * dt - x) > 1e-9 * max(1.0, abs(x)) or not 0 <= i < n:
        raise ConfigurationError(f"x={x} is not a node of the trajectory grid")
    m = traj.step_of_time(t)
    if m == 0:
        return 0.0
    if not traj.has_every_step_upto(m):
        raise ConfigurationError(f"the trajectory is not stored at every step up to {m}")
    steps = np.arange(m + 1)
    y = i + m - steps
    vals = traj.data[steps, y % n] * np.asarray(b.derivative(y * dt), dtype=float)
    return float(np.dot(_trapezoid_weights(m, dt), vals))


def bottom_shift_integral(b, t: float, x: float, direction: str, dt: float) -> float:
    """Int_0^t b(x - t + s) ds ('right') or Int_0^t b(x + t - s) ds ('left'),
    composite trapezoid with step dt; works for any real x.  A direct sum at
    one point, kept as the reference for U1's prefix sums in ``reconstruct``."""
    m = int(round(t / dt))
    if abs(m * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ConfigurationError(f"t={t} is not a multiple of the quadrature step {dt}")
    if m == 0:
        return 0.0
    s = np.arange(m + 1) * dt
    if direction == "right":
        pts = x - t + s
    elif direction == "left":
        pts = x + t - s
    else:
        raise ConfigurationError(f"direction must be 'right' or 'left', got {direction!r}")
    vals = np.asarray(b.value(pts), dtype=float)
    return float(np.dot(_trapezoid_weights(m, dt), vals))


def _trapezoid_weights(m: int, dt: float) -> np.ndarray:
    weights = np.full(m + 1, dt)
    weights[0] = weights[-1] = dt / 2.0
    return weights


class DenseRecorder:
    """Dense reference for the step-matrix assembly: takes the calls a
    ``StepOperator`` takes (n unknowns interleaving ``blocks`` fields per node)
    and adds each term, scale * diag(pre) @ as_dense(op) @ diag(post) or
    diag(values) @ S^offset, into its block of the dense ``matrix``."""

    def __init__(self, n: int, blocks: int = 1):
        self.n, self.blocks = n, blocks
        self.matrix = np.zeros((n, n))

    def _block(self, block):
        row, col = block
        return self.matrix[row::self.blocks, col::self.blocks]

    def add_shift(self, values, offset, block=(0, 0), sign=1) -> None:
        nodes = np.arange(self.n // self.blocks)
        self._block(block)[nodes, (nodes + offset) % nodes.size] += sign * values

    def add_diagonal(self, values, block=(0, 0)) -> None:
        self.add_shift(values, 0, block)

    def add_operator(self, op, pre_diag=None, post_diag=None, scale=1.0, block=(0, 0)) -> None:
        ones = np.ones(op.n)
        pre = ones if pre_diag is None else pre_diag
        post = ones if post_diag is None else post_diag
        self._block(block)[...] += scale * np.diag(pre) @ as_dense(op) @ np.diag(post)
