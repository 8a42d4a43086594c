import numpy as np
import pytest

from longwave.grid import Field, Grid1D, ModelCoefficients, SolitonSpec, TimeGrid


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


class DenseRecorder:
    """Dense reference for the step-matrix assembly: takes the calls a
    ``StepOperator`` takes (n unknowns interleaving ``blocks`` fields per node)
    and adds each term, scale * diag(pre) @ as_dense(op) @ diag(post), into
    its block of the dense ``matrix``."""

    def __init__(self, n: int, blocks: int = 1):
        self.n, self.blocks = n, blocks
        self.matrix = np.zeros((n, n))

    def _block(self, block):
        row, col = block
        return self.matrix[row::self.blocks, col::self.blocks]

    def add_diagonal(self, values, block=(0, 0)) -> None:
        nodes = self.n // self.blocks
        self._block(block)[...] += np.diag(np.broadcast_to(values, (nodes,)))

    def add_operator(self, op, pre_diag=None, post_diag=None, scale=1.0, block=(0, 0)) -> None:
        ones = np.ones(op.n)
        pre = ones if pre_diag is None else pre_diag
        post = ones if post_diag is None else post_diag
        self._block(block)[...] += scale * np.diag(pre) @ as_dense(op) @ np.diag(post)
