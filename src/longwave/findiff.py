"""Periodic centered difference operators and a cyclic banded linear solver.

The three stencils used by the time steppers are the classical centered
discretizations on a periodic grid:

    (D1 u)_i = (u_{i+1} - u_{i-1}) / (2 dx)
    (D2 u)_i = (u_{i+1} - 2 u_i + u_{i-1}) / dx^2
    (D3 u)_i = (u_{i+2} - 2 u_{i+1} + 2 u_{i-1} - u_{i-2}) / (2 dx^3)

D1 and D3 are exactly antisymmetric and D2 exactly symmetric with respect to
the discrete inner product, which is what makes the conservation structure of
the steppers hold at the discrete level.

Per-step linear systems are cyclic banded matrices (band plus wrap-around
corners), assembled by one path: each term is a stencil between two diagonal
matrices, placed into block (row, col) of a matrix whose unknowns interleave
``blocks`` fields per node (one for the scalar stepper, two for the coupled
one, whose stencil offset o then becomes band offset 2o + col - row).
Ordering the unknowns as 0, n-1, 1, n-2, ... folds the ring so that every
cyclic neighbour is at most 2p positions away: a cyclic band of half-width p
becomes an ordinary band of half-width 2p, which one LAPACK banded LU factors
and solves for every n, with no corner correction.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import GridMismatchError, SolverError
from .grid import Field, Grid1D

__all__ = [
    "CyclicBandedOperator",
    "CyclicBandedMatrix",
    "make_d1",
    "make_d2",
    "make_d3",
    "apply",
    "solve",
]

# Residual acceptance threshold for solve(): ||A x - b||_inf <= RTOL * ||b||_inf.
_SOLVE_RTOL = 1e-10
# Pivot guard: the "pivot below 1e-14" abort, relative to the largest |U_ii|.
_PIVOT_RTOL = 1e-14


class CyclicBandedOperator:
    """Translation-invariant periodic stencil: (A u)_i = sum_j c_j u_{(i+off_j) mod n}."""

    def __init__(self, offsets, coeffs, n: int):
        offsets = tuple(int(o) for o in offsets)
        coeffs = tuple(float(c) for c in coeffs)
        if len(offsets) != len(coeffs):
            raise ValueError("offsets and coeffs must have equal length")
        if len(set(offsets)) != len(offsets):
            raise ValueError("duplicate stencil offsets")
        if max(abs(o) for o in offsets) > 2:
            raise ValueError("stencil offsets wider than +-2 are not supported")
        self.offsets = offsets
        self.coeffs = coeffs
        self.n = int(n)

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        if values.shape != (self.n,):
            raise GridMismatchError(
                f"operator dimension {self.n} does not match vector length {values.shape}"
            )
        out = np.zeros_like(values)
        for off, c in zip(self.offsets, self.coeffs):
            out += c * np.roll(values, -off)
        return out

    def as_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        rows = np.arange(self.n)
        for off, c in zip(self.offsets, self.coeffs):
            dense[rows, (rows + off) % self.n] += c
        return dense


def make_d1(grid: Grid1D) -> CyclicBandedOperator:
    """Centered first derivative."""
    h = grid.dx
    return CyclicBandedOperator((-1, 1), (-0.5 / h, 0.5 / h), grid.num_points)


def make_d2(grid: Grid1D) -> CyclicBandedOperator:
    """Centered second derivative."""
    h = grid.dx
    return CyclicBandedOperator((-1, 0, 1), (1.0 / h**2, -2.0 / h**2, 1.0 / h**2), grid.num_points)


def make_d3(grid: Grid1D) -> CyclicBandedOperator:
    """Five-point antisymmetric centered third derivative."""
    h = grid.dx
    s = 1.0 / (2.0 * h**3)
    return CyclicBandedOperator((-2, -1, 1, 2), (-s, 2.0 * s, -2.0 * s, s), grid.num_points)


def apply(op: CyclicBandedOperator, f: Field) -> Field:
    """Matrix-vector product with periodic wrap."""
    return Field(op.apply_values(f.values), f.grid)


@functools.lru_cache(maxsize=32)
def _fold_layout(n: int, offsets: tuple[int, ...]):
    """Folded positions, half-bandwidth k and band-storage scatter indices.

    Node i sits at folded position pos[i]; each entry keeps
    |pos[i] - pos[j]| <= 2p.  LAPACK band storage for dgbtrf holds folded
    A[r, c] at ab[2k + r - c, c], under k extra rows for the pivoting
    fill-in; ``scatter[j]`` is the Fortran-order flat index in ab of
    A[i, (i + offsets[j]) mod n] for every row i.  The arrays are read-only
    because every call with the same (n, offsets) shares them.
    """
    nodes = np.arange(n)
    pos = np.where(nodes < (n + 1) // 2, 2 * nodes, 2 * (n - 1 - nodes) + 1)
    k = min(2 * max((abs(off) for off in offsets), default=0), n - 1)
    scatter = []
    for off in offsets:
        cols = np.roll(pos, -off)  # folded column of A[i, (i + off) mod n]
        idx = 2 * k + pos - cols + cols * (3 * k + 1)
        idx.flags.writeable = False
        scatter.append(idx)
    pos.flags.writeable = False
    return pos, k, tuple(scatter)


class CyclicBandedMatrix:
    """Cyclic banded matrix with position-dependent band entries.

    Storage is dense-in-band: ``data[offset][i]`` holds A[i, (i+offset) mod n].
    With ``blocks`` interleaved fields per node, block (row, col) couples field
    ``row`` of a node to field ``col`` of its neighbours; every term the
    steppers assemble is A[row, col] += scale * diag(pre) @ Op @ diag(post).
    """

    def __init__(self, n: int, blocks: int = 1):
        self.n = int(n)
        self.blocks = int(blocks)
        self.data = {}

    def _band(self, offset: int) -> np.ndarray:
        if offset not in self.data:
            self.data[offset] = np.zeros(self.n)
        return self.data[offset]

    def add_diagonal(self, values, block: tuple[int, int] = (0, 0)) -> None:
        """A[row, col] += diag(values): values per node, or one scalar."""
        row, col = block
        self._band(col - row)[row::self.blocks] += values

    def add_operator(self, op: CyclicBandedOperator, pre_diag=None, post_diag=None,
                     scale: float = 1.0, block: tuple[int, int] = (0, 0)) -> None:
        """A[row, col] += scale * diag(pre_diag) @ op @ diag(post_diag) (diags optional)."""
        if op.n * self.blocks != self.n:
            raise GridMismatchError("operator dimension does not match matrix")
        row, col = block
        for off, c in zip(op.offsets, op.coeffs):
            contrib = np.full(op.n, scale * c)
            if pre_diag is not None:
                contrib = contrib * pre_diag
            if post_diag is not None:
                contrib = contrib * np.roll(post_diag, -off)
            self._band(self.blocks * off + col - row)[row::self.blocks] += contrib

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.n,):
            raise GridMismatchError("vector length does not match matrix dimension")
        out = np.zeros_like(x, dtype=float)
        for off, vals in self.data.items():
            out += vals * np.roll(x, -off)
        return out

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        rows = np.arange(self.n)
        for off, vals in self.data.items():
            dense[rows, (rows + off) % self.n] += vals
        return dense

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs to ||A x - rhs||_inf <= 1e-10 ||rhs||_inf.

        One LAPACK banded LU (dgbtrf/dgbtrs) of the folded system, whatever
        n is.  A zero pivot, a pivot below 1e-14 of the largest, or a
        residual above the bound raises SolverError.
        """
        rhs = np.asarray(rhs, dtype=float)
        n = self.n
        if rhs.shape != (n,):
            raise GridMismatchError("rhs length does not match matrix dimension")
        offsets = tuple(self.data)
        pos, k, scatter = _fold_layout(n, offsets)
        # Fortran order lets dgbtrf factor ab in place instead of a copy.
        ab = np.zeros((3 * k + 1, n), order="F")
        flat = ab.reshape(-1, order="F")
        for off, idx in zip(offsets, scatter):
            flat[idx] += self.data[off]
        lu, piv, info = dgbtrf(ab, k, k, overwrite_ab=True)
        pivots = np.abs(lu[2 * k])
        if info != 0 or pivots.min() <= _PIVOT_RTOL * pivots.max():
            raise SolverError(f"matrix is singular or ill-conditioned (dgbtrf info={info})")
        folded = np.empty(n)
        folded[pos] = rhs
        y, _ = dgbtrs(lu, k, k, folded, piv, overwrite_b=True)
        x = y[pos]
        self._check_residual(x, rhs)
        return x

    def _check_residual(self, x: np.ndarray, rhs: np.ndarray) -> None:
        residual = np.max(np.abs(self.matvec(x) - rhs))
        scale = max(np.max(np.abs(rhs)), 1e-300)
        if not np.isfinite(residual) or residual > _SOLVE_RTOL * scale:
            raise SolverError(
                f"solver residual {residual:.3e} exceeds {_SOLVE_RTOL:.1e} * ||rhs||_inf"
            )


def solve(matrix: CyclicBandedMatrix, rhs: np.ndarray) -> np.ndarray:
    """Functional form of CyclicBandedMatrix.solve."""
    return matrix.solve(rhs)
