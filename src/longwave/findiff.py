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
corners), held and assembled by ``StepOperator`` alone: each term is a
stencil between two diagonal matrices, placed into block (row, col) of a
matrix whose unknowns interleave ``blocks`` fields per node (one for the
scalar stepper, two for the coupled one, whose stencil offset o then becomes
band offset 2o + col - row, so a +-2-node stencil reaches 3 blocks - 1).
Ordering the unknowns as 0, n-1, 1, n-2, ... folds the ring so that every
cyclic neighbour is at most 2p positions away: a cyclic band of half-width p
becomes an ordinary band of half-width 2p, which one LAPACK banded LU
factors for every n, with no corner correction.

A run solves one such system per step, and most of its matrix does not
change: a ``StepOperator`` holds the constant part once and the few band
entries the per-step part touches; its docstring and ``solve``'s state the
slot, refinement and refactor rules.

``dgbmv``, ``dtbsv``, ``idamax`` and ``dgbtrf`` are called through ctypes in
``scipy.libs/libscipy_openblas-*.so``, the OpenBLAS that scipy's wheel ships
and its compiled wrappers call, so results are theirs bit for bit; no scipy
module is imported.  The names and 32-bit integers were checked on scipy
1.17.1 only; no such library, or more than one, fails at import.  The
library runs on one thread, the caller's: loaded first here, it starts no
thread pool.  So no sum is split by the host's thread count, and B's
results do not depend on it; a ``scipy.linalg`` in the same process shares
the setting.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os

import numpy as np

from .errors import GridMismatchError, SolverError
from .grid import Grid1D, _padded


__all__ = [
    "CyclicBandedOperator",
    "StepOperator",
    "blas_info",
    "make_d1",
    "make_d2",
    "make_d3",
]

# Residual acceptance threshold: ||A x - b||_inf <= RTOL * ||b||_inf.
_SOLVE_RTOL = 1e-10
# Pivot guard: the "pivot below 1e-14" abort, relative to the largest |U_ii|.
_PIVOT_RTOL = 1e-14
# Refinement with a kept LU ends once ||d_k||^2 / ||d_{k-1}|| <= this * ||x||.
_REFINE_RTOL = 1e-15
# Corrections a kept LU takes per solve; one more marks it for refactoring.
_KEPT_LU_CORRECTIONS = 2
# dgbtrf calls per factorization: one may meet interchanges and find a new row
# order, the next factors in it and meets none; the third is a spare.
_ORDER_TRIES = 3
# Factor entries below the smallest normal float are set to 0: the fill that couples the
# two halves of the fold decays into subnormals, which slow every solve.
_TINY = np.finfo(float).tiny
_FLUSH_CHUNK = 1 << 13
_OPENBLAS_FILES = "libscipy_openblas-*.so"
_C_TYPES = {bytes: ctypes.c_char, float: ctypes.c_double, int: ctypes.c_int}


def _load_openblas(directory: str) -> ctypes.CDLL:
    """The one OpenBLAS library of scipy's wheel in ``directory``, set to run
    every call on the calling thread.  Loaded with OPENBLAS_NUM_THREADS=1, a
    first load starts no thread pool; the variable is then restored, or
    removed, as it was found.  A library loaded before keeps its pool idle."""
    paths = glob.glob(os.path.join(directory, _OPENBLAS_FILES))
    if len(paths) != 1:
        raise ImportError(f"{len(paths)} files match {_OPENBLAS_FILES} in {directory}, not one")
    found = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        library = ctypes.CDLL(paths[0])
    finally:
        if found is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = found
    library.scipy_openblas_set_num_threads(1)
    return library


_scipy = importlib.util.find_spec("scipy")  # locates the package without importing it
if _scipy is None:
    raise ImportError("scipy is not installed; findiff calls the OpenBLAS its wheel ships")
_openblas = _load_openblas(
    os.path.join(os.path.dirname(_scipy.submodule_search_locations[0]), "scipy.libs"))
# No argtypes: they would convert on every call the pointers _by_reference builds once.
_dgbmv, _dtbsv, _idamax, _dgbtrf = (getattr(_openblas, f"scipy_{name}_")
                                   for name in ("dgbmv", "dtbsv", "idamax", "dgbtrf"))
_dgbmv.restype = _dtbsv.restype = _dgbtrf.restype = None
_openblas.scipy_openblas_get_config.restype = ctypes.c_char_p


def _by_reference(*values) -> tuple:
    """Fortran arguments: an array's data (the pointer holds the array), or a
    new C char, double or 32-bit int holding a scalar."""
    refs = []
    for value in values:
        if isinstance(value, np.ndarray):
            if value.dtype not in (np.float64, np.intc) or not value.flags.f_contiguous:
                raise ValueError(f"BLAS needs Fortran-ordered float64 or C int, not {value.dtype}")
            refs.append(value.ctypes.data_as(ctypes.c_void_p))
        elif isinstance(value, int) and not -2**31 <= value < 2**31:
            raise OverflowError(f"{value} does not fit a 32-bit BLAS integer")
        else:
            refs.append(ctypes.pointer(_C_TYPES[type(value)](value)))
    return tuple(refs)


def _peak(v: np.ndarray, amax_args: tuple) -> float:
    """max |v_i| by one idamax call over its arguments (n, v, 1).  idamax skips
    NaN, so this sizes only the rhs, x and the corrections: a NaN in any of
    them reaches the residual, whose ``_norm`` every acceptance checks."""
    return abs(v[_idamax(*amax_args) - 1])


def dgbtrf(ab: np.ndarray, kl: int, ku: int):
    """LAPACK's banded LU of ``ab`` (dgbtrf's storage, kl rows of fill above
    the band), in place: returns ab, the 0-based pivots and info."""
    piv, info = np.empty(ab.shape[1], dtype=np.intc), ctypes.c_int()
    _dgbtrf(*_by_reference(piv.size, piv.size, kl, ku, ab, ab.shape[0], piv), ctypes.byref(info))
    return ab, piv - 1, info.value


def blas_info() -> dict:
    """The OpenBLAS library the solver calls: file name, build configuration, threads."""
    return {"library": os.path.basename(_openblas._name),
            "config": _openblas.scipy_openblas_get_config().decode(),
            "threads": _openblas.scipy_openblas_get_num_threads()}


class CyclicBandedOperator:
    """Translation-invariant periodic stencil: (A u)_i = sum_j c_j u_{(i+off_j) mod n}."""

    def __init__(self, offsets, coeffs, n: int):
        offsets = tuple(int(o) for o in offsets)
        coeffs = tuple(float(c) for c in coeffs)
        if len(offsets) != len(coeffs):
            raise ValueError("offsets and coeffs must have equal length")
        if len(set(offsets)) != len(offsets):
            raise ValueError("duplicate stencil offsets")
        self._width = max(abs(o) for o in offsets)
        if self._width > 2:
            raise ValueError("stencil offsets wider than +-2 are not supported")
        self.offsets = offsets
        self.coeffs = coeffs
        self.n = int(n)

    def _neighbours(self, values: np.ndarray) -> list[np.ndarray]:
        """values[(i + off) mod n] for each offset: slices of one padded copy."""
        w, padded = self._width, _padded(values, self._width)
        return [padded[w + off:w + off + self.n] for off in self.offsets]

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """The stencil's terms summed in offset order, from the first."""
        if values.shape != (self.n,):
            raise GridMismatchError(
                f"operator dimension {self.n} does not match vector length {values.shape}"
            )
        neighbours = self._neighbours(values)
        out = self.coeffs[0] * neighbours[0]
        for c, shifted in zip(self.coeffs[1:], neighbours[1:]):
            out += c * shifted
        return out


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


def _fold_layout(n: int, reach: int):
    """Folded positions and half-bandwidth k.

    Node i sits at folded position pos[i]; an entry at cyclic offset
    |o| <= reach keeps |pos[i] - pos[j]| <= 2 reach.
    """
    nodes = np.arange(n)
    pos = np.where(nodes < (n + 1) // 2, 2 * nodes, 2 * (n - 1 - nodes) + 1)
    return pos, min(2 * reach, n - 1)


def _band_indices(pos: np.ndarray, k: int, offset: int, row: int, blocks: int) -> np.ndarray:
    """Flat indices of A[u, (u + offset) mod n] over the rows u = row mod
    blocks in band storage, shape (2k + 1, n) in Fortran order, which holds
    folded A[r, c] at [k + r - c, c]."""
    u = np.arange(row, pos.size, blocks)
    return k + pos[u] + 2 * k * pos[(u + offset) % pos.size]


class StepOperator:
    """Folded banded system A = C + V of one run, solved with a kept LU.

    The ``n`` unknowns interleave ``blocks`` fields per node.  Every term is
    A[row, col] += scale * diag(pre) @ Op @ diag(post), placed at band offset
    blocks * off + col - row over the rows row::blocks, or one stencil entry
    of it, A[row, col] += diag(values) @ S^off (``add_shift``); a stencil
    reaches at most +-2 nodes, so the band reaches 3 blocks - 1.
    Every term goes to a slot: the entries A[u, (u + offset) mod n] of the
    rows u = row mod blocks, keyed by (offset mod n, row), so offsets that
    alias at small n share one.  A slot is a slice of one value buffer, made
    the first time a term reaches it, with the flat band indices of its
    entries and their values in the work band at that moment.
    ``constant_terms(self)``, called once when built, adds the constant part
    C through ``add_operator`` and ``add_diagonal`` into slots over the zero
    band; they go into the work band with one indexed assignment, and the
    slot table starts empty again, so every later slot starts from C.
    ``reset()`` starts a step with every slot equal to C; the per-step part
    V is then added to the slots, and ``solve(rhs, guess)`` writes the slots
    into the work band, then refines from the guess with the LU of an
    earlier step, refactoring the work band when that LU no longer converges
    in two corrections.

    The LU is P A = L U with one row order P per run: the first
    factorization takes the order of partial pivoting, every later one
    factors P A and must meet no interchange (one that does adopts the new
    order and factors again).  L (unit lower) and U1 (unit upper, U's rows
    over their pivots) are kept as two band arrays over the one LU buffer,
    with the entries below the smallest normal float set to 0, and D^-1 as
    the inverse pivots, so applying the LU is a gather by P (a copy when P
    is the identity), two unit-diagonal band solves and one multiply.
    ``factorizations`` (dgbtrf calls) and ``corrections`` (LU applications)
    count the solver's work.  The work band, the slots, the solve's vectors
    and the LU buffer are allocated per operator (the LU buffer again when
    the order changes), so a run holds its own.
    """

    def __init__(self, n: int, blocks: int = 1, constant_terms=None):
        self.n, self.blocks = int(n), int(blocks)
        self._reach = 3 * self.blocks - 1
        self._pos, self._k = _fold_layout(self.n, self._reach)
        # dgbmv needs at least 2k + 1 rows; rows past n meet only zero storage
        self._rows = max(self.n, 2 * self._k + 1)
        self._work = np.zeros((2 * self._k + 1, self.n), order="F")
        self._work_flat = self._work.reshape(-1, order="F")
        self._clear_slots()
        if constant_terms is not None:
            # C goes through the slots over the zero band, then into the band
            constant_terms(self)
            self._work_flat[self._indices] = self._values
            self._clear_slots()
        self._residual_buffer = np.zeros(self._rows)
        # folded rhs, iterate and correction of a solve, and the norms' scratch
        self._b, self._x, self._correction, self._scratch = (np.empty(self.n) for _ in range(4))
        self._gbmv_args = _by_reference(b"N", self._rows, self.n, self._k, self._k, -1.0,
                                        self._work, 2 * self._k + 1, self._x, 1, 1.0,
                                        self._residual_buffer, 1)
        self._b_amax, self._x_amax, self._d_amax = (
            _by_reference(self.n, v, 1) for v in (self._b, self._x, self._correction))
        self._half = (self.n + 1) // 2
        self._set_order(np.arange(self.n))
        self._kept = False
        self._stale = False
        self.factorizations = 0
        self.corrections = 0

    def add_shift(self, values, offset: int, block: tuple[int, int] = (0, 0),
                  sign: int = 1) -> None:
        """A[row, col] += sign * diag(values) @ S^offset, where (S^offset u)_i =
        u_{(i + offset) mod n}: values per node, or one scalar; a sign of -1
        subtracts them, with no negated copy."""
        row, col = block
        self._add(self.blocks * offset + col - row, row, values, sign)

    def add_diagonal(self, values, block: tuple[int, int] = (0, 0)) -> None:
        """A[row, col] += diag(values): values per node, or one scalar."""
        self.add_shift(values, 0, block)

    def add_operator(self, op: CyclicBandedOperator, pre_diag=None, post_diag=None,
                     scale: float = 1.0, block: tuple[int, int] = (0, 0)) -> None:
        """A[row, col] += scale * diag(pre_diag) @ op @ diag(post_diag) (diags optional)."""
        if op.n * self.blocks != self.n:
            raise GridMismatchError("operator dimension does not match matrix")
        # a missing diag is the exact factor 1.0
        pre = 1.0 if pre_diag is None else pre_diag
        posts = [1.0] * len(op.offsets) if post_diag is None else op._neighbours(post_diag)
        for off, c, post in zip(op.offsets, op.coeffs, posts):
            self.add_shift(scale * c * pre * post, off, block)

    def _set_order(self, order: np.ndarray) -> None:
        """Adopt the row order P (row i of P A is row order[i] of A), with the
        half-widths of P A, its LU buffer, and L and U as band arrays over it:
        dgbtrf leaves U(i, j) and L(i, j) at row kl + ku + i - j of column j,
        so U is the buffer entered kl rows on and L the buffer entered
        kl + ku rows on, both with its leading dimension."""
        k, n = self._k, self.n
        self._order = order
        shift = order - np.arange(n)
        self._moves_rows = bool(shift.any())
        self._kl = kl = min(k - int(shift.min()), n - 1)
        self._ku = ku = min(k + int(shift.max()), n - 1)
        size = (2 * kl + ku + 1) * n
        buffer = np.zeros(size + kl + ku)
        self._lu = buffer[:size].reshape((-1, n), order="F")
        self._upper = buffer[kl:kl + size].reshape((-1, n), order="F")
        self._lower = buffer[kl + ku:kl + ku + size].reshape((-1, n), order="F")
        self._lower_solve, self._upper_solve = (  # dtbsv's, in place in _correction
            _by_reference(uplo, b"N", b"U", n, w, band, 2 * kl + ku + 1, self._correction, 1)
            for uplo, w, band in ((b"L", kl, self._lower), (b"U", ku, self._upper)))
        # The rows of P A that P moves, as flat indices of (P A)[i, c] in the
        # LU buffer (c (2 kl + ku) + kl + ku + i) and of A[order[i], c] in the
        # work band (c 2k + k + order[i]): every c with |order[i] - c| <= k
        # is fetched, every other c with |i - c| <= k is cleared.
        moved = np.flatnonzero(shift)
        window = k + int(np.abs(shift).max())
        cols = moved[:, None] + np.arange(-window, window + 1)
        rows = np.broadcast_to(moved[:, None], cols.shape)
        source = rows + shift[moved][:, None]
        fetch = (np.abs(source - cols) <= k) & (cols >= 0) & (cols < n)
        clear = (np.abs(rows - cols) <= k) & (cols >= 0) & (cols < n) & ~fetch
        self._fetch_lu = cols[fetch] * (2 * kl + ku) + kl + ku + rows[fetch]
        self._fetch_work = cols[fetch] * 2 * k + k + source[fetch]
        self._clear = cols[clear] * (2 * kl + ku) + kl + ku + rows[clear]

    def reset(self) -> None:
        """Start a step: every slot holds the constant part alone."""
        np.copyto(self._values, self._constants)

    def _add(self, offset: int, row: int, values, sign: int = 1) -> None:
        if abs(offset) > self._reach:
            raise GridMismatchError(
                f"band offset {offset} lies outside the constant band (+-{self._reach})"
            )
        start = self._slots.get((offset % self.n, row))
        if start is None:
            start = self._new_slot(offset, row)
        slot = self._values[start:start + self.n // self.blocks]
        if sign > 0:
            slot += values
        else:
            slot -= values

    def _clear_slots(self) -> None:
        """Start an empty slot table: slot key -> start of its slice in
        _values, _indices and _constants."""
        self._slots = {}
        self._values = np.empty(0)
        self._indices = np.empty(0, dtype=np.intp)
        self._constants = np.empty(0)

    def _new_slot(self, offset: int, row: int) -> int:
        """Append the slot of A[u, (u + offset) mod n] over the rows u = row
        mod blocks, holding the band's values of those entries; returns its
        start."""
        indices = _band_indices(self._pos, self._k, offset, row, self.blocks)
        start = self._values.size
        self._slots[(offset % self.n, row)] = start
        constants = self._work_flat[indices]
        self._indices = np.concatenate((self._indices, indices))
        self._constants = np.concatenate((self._constants, constants))
        self._values = np.concatenate((self._values, constants))
        return start

    def solve(self, rhs: np.ndarray, guess: np.ndarray | None = None) -> np.ndarray:
        """Solve A x = rhs to ||A x - rhs||_inf <= 1e-10 ||rhs||_inf for the
        current work band.

        With a kept LU and a guess: corrections x <- x + LU^-1 (rhs - A x),
        accepted once ||d_k||^2 / ||d_{k-1}|| <= 1e-15 ||x|| and the residual
        meets the bound.  Two corrections are the rule; a third is taken
        while each correction at least halves the previous one, and then the
        next solve refactors.  Otherwise the work band is factored again and
        one correction with the fresh LU is taken from the last iterate (the
        guess when the kept LU was not tried) if its residual is below
        ||rhs||_inf: a correction small against x carries the LU's rounding
        only on its own size.  With no such iterate, or when the corrected
        one misses the bound, x = LU^-1 rhs.  A zero pivot, a pivot below
        1e-14 of the largest, or a direct solve above the residual bound
        raises SolverError.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise GridMismatchError("rhs length does not match matrix dimension")
        self._work_flat[self._indices] = self._values
        b, x = self._b, self._x
        self._fold(rhs, b)
        scale = max(_peak(b, self._b_amax), 1e-300)
        bound = _SOLVE_RTOL * scale
        if guess is not None:
            self._fold(guess, x)
            residual = self._residual()
        if self._kept and guess is not None and not self._stale:
            last = None
            for count in range(1, _KEPT_LU_CORRECTIONS + 2):
                d = self._apply_lu(residual)
                x += d
                residual = self._residual()
                size = _peak(d, self._d_amax)
                if (last is not None
                        and size * size <= _REFINE_RTOL * _peak(x, self._x_amax) * last
                        and self._norm(residual) <= bound):
                    # a step that needed more than two corrections: refactor next time
                    self._stale = count > _KEPT_LU_CORRECTIONS
                    return self._unfold(x)
                if last is not None and size > 0.5 * last:
                    break  # the kept LU no longer halves the error
                last = size
        self._factor()
        if guess is not None and self._norm(residual) < scale:
            x += self._apply_lu(residual)
            if self._norm(self._residual()) <= bound:
                return self._unfold(x)
        x[:] = self._apply_lu(b)
        residual = self._norm(self._residual())
        if not np.isfinite(residual) or residual > bound:
            raise SolverError(
                f"solver residual {residual:.3e} exceeds {_SOLVE_RTOL:.1e} * ||rhs||_inf"
            )
        return self._unfold(x)

    def _fold(self, values: np.ndarray, out: np.ndarray) -> None:
        """``values`` in folded order into ``out``: node i < ceil(n/2) at 2i,
        the others at the odd positions from the last node down."""
        half = self._half
        out[0::2] = values[:half]
        out[1::2] = values[half:][::-1]

    def _unfold(self, x: np.ndarray) -> np.ndarray:
        """The folded ``x`` in node order, as a new array."""
        out = np.empty(self.n)
        half = self._half
        out[:half] = x[0::2]
        out[half:] = x[1::2][::-1]
        return out

    def _norm(self, v: np.ndarray) -> float:
        """||v||_inf of an n-vector, through the operator's scratch buffer; NaN
        if v holds one."""
        return np.abs(v, out=self._scratch).max()

    def _factor(self) -> None:
        """P A = L U of the work band, in place in the one LU buffer, kept as
        the unit band arrays L and U1 and the inverse pivots of U = diag(U) U1."""
        self._kept = False
        for _ in range(_ORDER_TRIES):
            kl, ku, lu = self._kl, self._ku, self._lu
            self._load(lu)
            lu, piv, info = dgbtrf(lu, kl, ku)
            self.factorizations += 1
            moved = np.flatnonzero(piv != np.arange(self.n, dtype=piv.dtype))
            if info != 0 or moved.size == 0:
                break
            self._reorder(piv, moved)
        else:
            raise SolverError("the row order of the LU did not settle")
        pivots = np.abs(lu[kl + ku])
        if info != 0 or pivots.min() <= _PIVOT_RTOL * pivots.max():
            raise SolverError(f"matrix is singular or ill-conditioned (dgbtrf info={info})")
        # U1 holds U's rows over their pivots; U(i, j) sits at row kl + ku + i - j of column j
        self._inverse_pivots = 1.0 / lu[kl + ku]
        for s in range(1, ku + 1):
            lu[kl + ku - s, s:] *= self._inverse_pivots[:self.n - s]
        lu[kl + ku] = 1.0
        flat = lu.reshape(-1, order="F")
        for i in range(0, flat.size, _FLUSH_CHUNK):
            chunk = flat[i:i + _FLUSH_CHUNK]
            magnitude = np.abs(chunk)
            chunk[(magnitude < _TINY) & (magnitude > 0.0)] = 0.0
        self._kept, self._stale = True, False

    def _load(self, lu: np.ndarray) -> None:
        """P A into the LU buffer, in dgbtrf's layout: (P A)[i, c] at row
        kl + ku + i - c of column c, the kl rows above it 0.  The band of A
        is copied as if P kept every row; the rows P moves are then fetched
        from their rows of A."""
        kl, ku, k = self._kl, self._ku, self._k
        lu[:kl + ku - k] = 0.0
        lu[kl + ku - k:kl + ku + k + 1] = self._work
        lu[kl + ku + k + 1:] = 0.0
        flat = lu.reshape(-1, order="F")
        flat[self._clear] = 0.0
        flat[self._fetch_lu] = self._work_flat[self._fetch_work]

    def _reorder(self, piv: np.ndarray, moved: np.ndarray) -> None:
        """Adopt as P the interchanges ``piv`` applied to the current order."""
        order = self._order.tolist()
        for j in moved.tolist():
            i = int(piv[j])
            order[i], order[j] = order[j], order[i]
        self._set_order(np.array(order))

    def _apply_lu(self, r: np.ndarray) -> np.ndarray:
        """(L U)^-1 P r in the operator's correction buffer, valid until the
        next call: the rows of r in the run's order, the unit lower solve, the
        inverse pivots, the unit upper solve."""
        self.corrections += 1
        d = self._correction
        if self._moves_rows:
            np.take(r, self._order, out=d, mode="clip")
        else:
            np.copyto(d, r)
        _dtbsv(*self._lower_solve)
        d *= self._inverse_pivots
        _dtbsv(*self._upper_solve)
        return d

    def _residual(self) -> np.ndarray:
        """b - A x in folded order for the solve's b and x, against the current
        work band, in the operator's residual buffer: valid until the next call."""
        y = self._residual_buffer
        y[:self.n] = self._b
        y[self.n:] = 0.0
        _dgbmv(*self._gbmv_args)
        return y[:self.n]
