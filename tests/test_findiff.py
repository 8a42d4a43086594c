import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import blas, lapack

from longwave import findiff
from longwave.errors import GridMismatchError, SolverError
from longwave.findiff import (
    CyclicBandedOperator,
    StepOperator,
    make_d1,
    make_d2,
    make_d3,
)
from longwave.grid import Grid1D
from conftest import DenseRecorder, as_dense, random_field


def _inner(grid, a, b):
    return grid.dx * float(np.dot(a, b))


class TestStencils:
    def test_d1_hand_check(self):
        # n=4, dx=1: evaluate the raw stencil arithmetic directly.
        op = CyclicBandedOperator((-1, 1), (-0.5, 0.5), 4)
        out = op.apply_values(np.array([0.0, 1.0, 0.0, -1.0]))
        np.testing.assert_allclose(out, [1.0, 0.0, -1.0, 0.0])

    def test_d2_hand_check(self):
        op = CyclicBandedOperator((-1, 0, 1), (1.0, -2.0, 1.0), 4)
        out = op.apply_values(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [-2.0, 1.0, 0.0, 1.0])

    def test_d3_matches_dense_stencil(self):
        grid = Grid1D(8, 0.5)
        op = make_d3(grid)
        dense = as_dense(op)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(8)
        np.testing.assert_allclose(op.apply_values(u), dense @ u, atol=1e-13)

    def test_constants_annihilated(self):
        grid = Grid1D(32, 0.1)
        c = np.full(32, 3.7)
        for make in (make_d1, make_d2, make_d3):
            np.testing.assert_allclose(make(grid).apply_values(c), 0.0, atol=1e-11)

    @pytest.mark.parametrize("make,order,deriv", [
        (make_d1, 1, lambda q, x: q * np.cos(q * x)),
        (make_d2, 2, lambda q, x: -q**2 * np.sin(q * x)),
        (make_d3, 3, lambda q, x: -q**3 * np.cos(q * x)),
    ])
    def test_sine_wave_accuracy(self, make, order, deriv):
        grid = Grid1D(256, 40.0 / 256)
        q = 2 * np.pi / grid.length
        u = np.sin(q * grid.nodes)
        exact = deriv(q, grid.nodes)
        err = np.max(np.abs(make(grid).apply_values(u) - exact))
        assert err < 10.0 * grid.dx**2 * q ** (order + 2)

    @pytest.mark.parametrize("make", [make_d1, make_d2, make_d3])
    def test_second_order_convergence(self, make):
        def max_err(n):
            grid = Grid1D(n, 40.0 / n)
            q = 2 * np.pi / grid.length
            u = np.sin(q * grid.nodes)
            out = make(grid).apply_values(u)
            if make is make_d1:
                exact = q * np.cos(q * grid.nodes)
            elif make is make_d2:
                exact = -q**2 * np.sin(q * grid.nodes)
            else:
                exact = -q**3 * np.cos(q * grid.nodes)
            return np.max(np.abs(out - exact))

        order = math.log2(max_err(128) / max_err(256))
        assert 1.9 <= order <= 2.1

    def test_apply_wrapper_and_dimension_check(self, small_grid, rng):
        f = random_field(small_grid, rng)
        d1 = make_d1(small_grid)
        out = d1.apply_values(f.values)
        np.testing.assert_allclose(out, as_dense(d1) @ f.values, atol=1e-12)
        with pytest.raises(GridMismatchError):
            d1.apply_values(np.zeros(10))

    def test_apply_matches_dense_on_random(self, rng):
        grid = Grid1D(32, 0.2)
        f = rng.standard_normal(32)
        for make in (make_d1, make_d2, make_d3):
            op = make(grid)
            np.testing.assert_allclose(op.apply_values(f), as_dense(op) @ f, atol=1e-13)

    def test_identity_operator(self, rng):
        op = CyclicBandedOperator((0,), (1.0,), 16)
        f = rng.standard_normal(16)
        np.testing.assert_allclose(op.apply_values(f), f)

    @pytest.mark.parametrize("make", [make_d1, make_d2, make_d3])
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(8, 60), dx=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_neighbours_match_a_roll_oracle_bit_for_bit(self, make, n, dx, seed):
        # each term c_j values[(i + off_j) mod n] by np.roll, summed in offset
        # order from the first term; signed zeros included
        rng = np.random.default_rng(seed)
        grid = Grid1D(n, dx)
        op = make(grid)
        values, post = (np.where(rng.random(n) < 0.2, rng.choice([0.0, -0.0], n),
                                 rng.standard_normal(n)) for _ in range(2))
        terms = [c * np.roll(values, -off) for off, c in zip(op.offsets, op.coeffs)]
        oracle = terms[0]
        for term in terms[1:]:
            oracle = oracle + term
        assert op.apply_values(values).tobytes() == oracle.tobytes()

        recorded = []

        class Recorder(StepOperator):
            def add_shift(self, values, offset, block=(0, 0), sign=1):
                recorded.append((offset, values))

        Recorder(n).add_operator(op, post_diag=post, scale=0.3)
        assert [offset for offset, _ in recorded] == list(op.offsets)
        for (_, contrib), off, c in zip(recorded, op.offsets, op.coeffs):
            assert contrib.tobytes() == (0.3 * c * np.roll(post, -off)).tobytes()


class TestOperatorAlgebra:
    def test_d1_antisymmetric(self, rng):
        grid = Grid1D(48, 0.3)
        d1 = make_d1(grid)
        for _ in range(3):
            f, g = rng.standard_normal(48), rng.standard_normal(48)
            lhs = _inner(grid, d1.apply_values(f), g) + _inner(grid, f, d1.apply_values(g))
            scale = max(abs(_inner(grid, d1.apply_values(f), g)), 1.0)
            assert abs(lhs) < 1e-12 * scale

    def test_d3_antisymmetric(self, rng):
        grid = Grid1D(48, 0.3)
        d3 = make_d3(grid)
        f, g = rng.standard_normal(48), rng.standard_normal(48)
        lhs = _inner(grid, d3.apply_values(f), g) + _inner(grid, f, d3.apply_values(g))
        assert abs(lhs) < 1e-12 * max(abs(_inner(grid, d3.apply_values(f), g)), 1.0)

    def test_d2_symmetric_and_negative(self, rng):
        grid = Grid1D(48, 0.3)
        d2 = make_d2(grid)
        f, g = rng.standard_normal(48), rng.standard_normal(48)
        lhs = _inner(grid, d2.apply_values(f), g)
        rhs = _inner(grid, f, d2.apply_values(g))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert _inner(grid, d2.apply_values(f), f) <= 1e-12


def _write(target, terms):
    """A[row, col] += diag(pre_diag) @ S^offset per (offset, block, pre_diag) term."""
    n = target.n // target.blocks
    for off, block, pre in terms:
        target.add_operator(CyclicBandedOperator((off,), (1.0,), n), pre_diag=pre, block=block)


def _operator(n, blocks, add_terms):
    """A step operator over n unknowns whose constant part ``add_terms(target)``
    writes, and the dense matrix the same calls write into a DenseRecorder."""
    reference = DenseRecorder(n, blocks)
    add_terms(reference)
    return StepOperator(n, blocks, add_terms), reference.matrix


def _uniform(rng, scale=1.0):
    return lambda n: scale * rng.uniform(-1.0, 1.0, n)


def _random_band(n, blocks, p, draw):
    """Entries draw(n) at every band offset within +-p that a +-2-node stencil
    reaches, over every block, as (offset, block, pre_diag) triples."""
    return [(off, (row, col), draw(n))
            for row in range(blocks) for col in range(blocks) for off in range(-2, 3)
            if abs(blocks * off + col - row) <= p]


def _dominant_terms(n, blocks, shift, size):
    """A[u, u + shift] = size for every unknown u, as block terms."""
    terms = []
    for row in range(blocks):
        col = (row + shift) % blocks
        terms.append(((row + shift - col) // blocks, (row, col), np.full(n, size)))
    return terms


def _shapes(low=0):
    """(blocks, half-width p) draws: a +-2-node stencil reaches band offsets
    within 3 blocks - 1, so wide folds come from blocks = 2 (the coupled layout)."""
    return st.sampled_from([1, 2]).flatmap(
        lambda blocks: st.tuples(st.just(blocks), st.integers(low, 3 * blocks - 1)))


def _random_operator(n, rng):
    """Standard normal bands of half-width 2 plus 4 on the diagonal."""
    terms = _random_band(n, 1, 2, rng.standard_normal) + _dominant_terms(n, 1, 0, 4.0)
    return _operator(n, 1, lambda target: _write(target, terms))


class TestSolve:
    def test_identity_returns_rhs(self, rng):
        n = 32
        operator, _ = _operator(n, 1, lambda target: target.add_diagonal(np.ones(n)))
        rhs = rng.standard_normal(n)
        np.testing.assert_allclose(operator.solve(rhs), rhs, atol=1e-14)

    def test_diffusion_like_matches_dense(self, rng):
        grid = Grid1D(32, 0.5)

        def terms(target):
            target.add_diagonal(np.ones(32))
            target.add_operator(make_d2(grid), scale=0.1)

        operator, dense = _operator(32, 1, terms)
        rhs = rng.standard_normal(32)
        x = operator.solve(rhs)
        x_dense = np.linalg.solve(dense, rhs)
        np.testing.assert_allclose(x, x_dense, atol=1e-12)

    def test_singular_matrix_raises(self):
        # all-ones five-band circulant; its symbol 1 + 2cos(t) + 2cos(2t)
        # vanishes at t = 2*pi/5, so n = 20 makes the matrix rank-deficient
        n = 20
        ones5 = CyclicBandedOperator((-2, -1, 0, 1, 2), (1.0,) * 5, n)
        operator, dense = _operator(n, 1, lambda target: target.add_operator(ones5))
        assert np.linalg.matrix_rank(dense) < n
        with pytest.raises(SolverError):
            operator.solve(np.ones(n))

    def test_random_band_matches_dense(self, rng):
        n = 200
        operator, dense = _random_operator(n, rng)
        rhs = rng.standard_normal(n)
        x = operator.solve(rhs)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), atol=1e-10)

    def test_residual_contract(self, rng):
        n = 300
        operator, dense = _random_operator(n, rng)
        rhs = rng.standard_normal(n)
        x = operator.solve(rhs)
        residual = np.max(np.abs(dense @ x - rhs))
        assert residual <= 1e-10 * np.max(np.abs(rhs))

    def test_matrix_assembly_matches_dense_construction(self, rng):
        # identity plus scaled stencils: the recorder checked entry by entry on
        # a small n, the operator by the residual of its solve against it
        grid = Grid1D(12, 0.4)
        pre = rng.standard_normal(12)
        post = rng.standard_normal(12)

        def terms(target):
            target.add_diagonal(2.0 * np.ones(12))
            target.add_operator(make_d1(grid), pre_diag=pre, scale=0.3)
            target.add_operator(make_d3(grid), post_diag=post, scale=-0.1)

        operator, recorded = _operator(12, 1, terms)
        dense = (
            2.0 * np.eye(12)
            + 0.3 * np.diag(pre) @ as_dense(make_d1(grid))
            - 0.1 * as_dense(make_d3(grid)) @ np.diag(post)
        )
        np.testing.assert_allclose(recorded, dense, atol=1e-13)
        rhs = rng.standard_normal(12)
        assert np.max(np.abs(dense @ operator.solve(rhs) - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_solve_after_assemble_roundtrip(self, rng, monkeypatch):
        # solve(A, A @ x) == x for a stepper-like system matrix through a step
        # operator, with the LU buffer factored in place on both the first and
        # a repeat call; this matrix pivots, so the first solve factors twice
        # (once to find the row order, once in it)
        in_place = []
        factor = findiff.dgbtrf

        def spy(ab, kl, ku):
            copied, _, _ = lapack.dgbtrf(ab, kl, ku)  # factors a copy, leaves ab as it is
            lu, piv, info = factor(ab, kl, ku)
            # the factors overwrite the operator's own LU buffer
            in_place.append(lu is ab is operator._lu and lu.tobytes() == copied.tobytes())
            return lu, piv, info

        monkeypatch.setattr(findiff, "dgbtrf", spy)
        grid = Grid1D(128, 0.05)
        pre = rng.standard_normal(128) * 0.1

        def terms(target):
            target.add_diagonal(np.full(128, 2.0 / 0.05))
            target.add_operator(make_d1(grid))
            target.add_operator(make_d3(grid), scale=0.2 / 6.0)
            target.add_operator(make_d1(grid), pre_diag=pre)

        operator, dense = _operator(128, 1, terms)
        x = rng.standard_normal(128)
        for _ in range(2):
            x_hat = operator.solve(dense @ x)
            assert np.max(np.abs(x_hat - x)) <= 1e-10 * np.max(np.abs(x))
        assert in_place == [True, True, True]

    def test_rhs_dimension_check(self):
        operator = StepOperator(16, constant_terms=lambda target: target.add_diagonal(1.0))
        with pytest.raises(GridMismatchError):
            operator.solve(np.ones(8))

    def test_interleaved_strided_bands(self, rng):
        # two interleaved unknowns with distinct diagonals
        def terms(target):
            target.add_diagonal(np.full(4, 2.0), block=(0, 0))
            target.add_diagonal(np.full(4, 3.0), block=(1, 1))
            target.add_diagonal(np.full(4, 0.5), block=(0, 1))

        operator, dense = _operator(8, 2, terms)
        assert dense[0, 0] == 2.0 and dense[1, 1] == 3.0
        assert dense[2, 3] == 0.5 and dense[3, 2] == 0.0
        rhs = rng.standard_normal(8)
        np.testing.assert_allclose(operator.solve(rhs), np.linalg.solve(dense, rhs), atol=1e-14)


def _dominant_operator(n, blocks, p, rng, extra=0.0):
    """Random bands in [-1, 1] plus a diagonal (4 p + 2, then ``extra``) that
    outweighs them even after aliasing."""
    terms = _random_band(n, blocks, p, _uniform(rng)) + _dominant_terms(n, blocks, 0, 4 * p + 2)
    if extra:
        terms += _dominant_terms(n, blocks, 0, extra)
    return _operator(blocks * n, blocks, lambda target: _write(target, terms))


class TestSolveProperties:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 300), shape=_shapes(), seed=st.integers(0, 2**32 - 1))
    # blocks * n <= 2p makes stencil offsets alias onto the same entry
    @example(n=1, shape=(2, 5), seed=1)
    @example(n=2, shape=(1, 1), seed=2)
    @example(n=4, shape=(1, 2), seed=3)
    @example(n=5, shape=(2, 5), seed=4)
    @example(n=6, shape=(2, 5), seed=5)
    def test_matches_dense_and_meets_residual_contract(self, n, shape, seed):
        blocks, p = shape
        rng = np.random.default_rng(seed)
        operator, dense = _dominant_operator(n, blocks, p, rng)
        rhs = rng.standard_normal(blocks * n)
        x = operator.solve(rhs)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=0, atol=1e-12)
        assert np.max(np.abs(dense @ x - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), scale=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1),
           stencil=st.sampled_from(["d1", "d2", "ones5"]))
    def test_singular_circulants_raise(self, n, scale, seed, stencil):
        # D1 and D2 annihilate constants at every n; the all-ones five-band
        # symbol vanishes at 2*pi/5, so it is singular when 5 divides n.
        offsets, coeffs = {
            "d1": ((-1, 1), (-0.5, 0.5)),
            "d2": ((-1, 0, 1), (1.0, -2.0, 1.0)),
            "ones5": ((-2, -1, 0, 1, 2), (1.0,) * 5),
        }[stencil]
        if stencil == "ones5":
            n = 5 * max(1, n // 5)
        op = CyclicBandedOperator(offsets, coeffs, n)
        operator = StepOperator(n, 1, lambda target: target.add_operator(op, scale=scale))
        with pytest.raises(SolverError):
            operator.solve(np.random.default_rng(seed).standard_normal(n))


def _step(operator, constant, terms):
    """Write one step's terms into the operator; return the dense matrix, the
    constant part plus the terms as a DenseRecorder builds them."""
    reference = DenseRecorder(operator.n, operator.blocks)
    reference.matrix += constant
    _write(reference, terms)
    operator.reset()
    _write(operator, terms)
    return reference.matrix


def _band_matrix(operator):
    """The n x n matrix that the operator's work band holds, unfolded; the
    band holds every entry within the folded half-width."""
    pos, k = operator._pos, operator._k
    rows, cols = np.meshgrid(pos, pos, indexing="ij")  # folded place of A[i, j]
    inside = np.abs(rows - cols) <= k
    dense = np.zeros((operator.n, operator.n))
    dense[inside] = operator._work[(k + rows - cols)[inside], cols[inside]]
    return dense


class TestStepOperator:
    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 300), shape=_shapes(), seed=st.integers(0, 2**32 - 1),
           guess=st.sampled_from(["zero", "random", "adversarial", "near"]),
           drift=st.sampled_from([1e-9, 1e-5, 1e-2, 1.0]))
    # blocks * n <= 2p makes stencil offsets alias onto the same entry, and the
    # folded half-width k = blocks * n - 1 leaves fewer rows than the banded
    # matvec needs
    @example(n=1, shape=(2, 5), seed=1, guess="near", drift=1e-9)
    @example(n=2, shape=(1, 1), seed=2, guess="random", drift=1e-5)
    @example(n=4, shape=(1, 2), seed=3, guess="near", drift=1e-9)
    @example(n=5, shape=(2, 5), seed=4, guess="adversarial", drift=1e-2)
    @example(n=6, shape=(2, 5), seed=5, guess="near", drift=1e-9)
    def test_steps_match_dense_and_meet_residual_contract(self, n, shape, seed, guess, drift):
        # The constant part is fixed, the per-step part drifts by ``drift``
        # between steps; the first LU comes from an unrelated per-step part.
        blocks, p = shape
        size = blocks * n
        rng = np.random.default_rng(seed)
        # 2 p + 1 more on the diagonal keeps C + V dominant
        operator, constant = _dominant_operator(n, blocks, p, rng, extra=2 * p + 1)
        _step(operator, constant, _random_band(n, blocks, p, _uniform(rng)))
        operator.solve(rng.standard_normal(size))
        terms = _random_band(n, blocks, p, _uniform(rng))
        for _ in range(4):
            terms = [(off, block, pre + drift * rng.uniform(-1.0, 1.0, n))
                     for off, block, pre in terms]
            dense = _step(operator, constant, terms)
            rhs = rng.standard_normal(size)
            expected = np.linalg.solve(dense, rhs)
            start = {
                "zero": np.zeros(size),
                "random": rng.standard_normal(size),
                "adversarial": np.full(size, np.nan) if rng.random() < 0.5 else 1e12 * rhs,
                "near": expected + 1e-9 * rng.standard_normal(size),
            }[guess]
            x = operator.solve(rhs, start)
            np.testing.assert_allclose(x, expected, rtol=0,
                                       atol=1e-12 * np.max(np.abs(expected)))
            assert np.max(np.abs(dense @ x - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 40), shape=_shapes(), seed=st.integers(0, 2**32 - 1),
           masks=st.lists(st.integers(0, 2**21 - 1), min_size=1, max_size=6))
    # fewer pairs than the step before, none, then a pair first added late;
    # blocks * n <= 2p makes pairs alias onto one slot
    @example(n=30, shape=(2, 5), seed=1, masks=[0xFFFFF, 0x00F0F, 0, 0x30000, 0xFFFFF])
    @example(n=1, shape=(2, 5), seed=2, masks=[0x00003, 0, 0x1FFFFF, 0x00100])
    @example(n=2, shape=(1, 2), seed=3, masks=[0x1F, 0x01, 0x10, 0])
    @example(n=3, shape=(2, 4), seed=4, masks=[0, 0x0FF00, 0x000FF])
    def test_each_step_matrix_matches_dense(self, n, shape, seed, masks):
        # Each step adds the terms of a random band that its mask selects
        # (bits 0-19; bit 20 adds them all twice); the work band holds exactly
        # the recorder's constant part once built, and its matrix after each solve.
        blocks, p = shape
        rng = np.random.default_rng(seed)
        operator, constant = _dominant_operator(n, blocks, p, rng, extra=4 * p + 2)
        np.testing.assert_array_equal(_band_matrix(operator), constant)
        for mask in masks:
            band = _random_band(n, blocks, p, _uniform(rng))
            terms = [term for i, term in enumerate(band) if mask >> i & 1]
            if mask >> 20 & 1:
                terms += terms
            dense = _step(operator, constant, terms)
            operator.solve(rng.standard_normal(blocks * n))
            np.testing.assert_array_equal(_band_matrix(operator), dense)

    def test_far_kept_lu_refactors_and_keeps_the_bound(self, rng):
        n = 64
        operator, constant = _dominant_operator(n, 1, 2, rng)
        _step(operator, constant, _random_band(n, 1, 2, _uniform(rng, 1e-7)))
        operator.solve(rng.standard_normal(n))
        assert operator.factorizations == 1
        # a nearby step reuses the LU ...
        _step(operator, constant, _random_band(n, 1, 2, _uniform(rng, 1e-7)))
        operator.solve(rng.standard_normal(n), np.zeros(n))
        assert operator.factorizations == 1
        # ... a far one cannot, and its answer is as tight as a direct solve;
        # that matrix is no longer dominant and pivots, so its factorization
        # takes two dgbtrf calls (one finds the new row order, one uses it)
        dense = _step(operator, constant, _random_band(n, 1, 2, _uniform(rng, 5.0)))
        rhs = rng.standard_normal(n)
        x = operator.solve(rhs, np.zeros(n))
        assert operator.factorizations == 3
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("where", [0, 17, 63])
    def test_guess_with_one_nan_entry_gets_the_dense_solution(self, rng, where):
        # idamax, which sizes x and the corrections, skips NaN; a NaN in one
        # entry of the guess still reaches every residual the solve accepts
        n = 64
        operator, constant = _dominant_operator(n, 1, 2, rng)
        _step(operator, constant, _random_band(n, 1, 2, _uniform(rng, 1e-7)))
        operator.solve(rng.standard_normal(n))
        dense = _step(operator, constant, _random_band(n, 1, 2, _uniform(rng, 1e-7)))
        rhs = rng.standard_normal(n)
        expected = np.linalg.solve(dense, rhs)
        guess = expected.copy()
        guess[where] = np.nan
        x = operator.solve(rhs, guess)
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))

    def test_nan_in_rhs_raises(self, rng):
        n = 64
        operator, _ = _dominant_operator(n, 1, 2, rng)
        rhs = rng.standard_normal(n)
        rhs[17] = np.nan
        with pytest.raises(SolverError):
            operator.solve(rhs, np.zeros(n))

    def test_corrected_iterate_missing_the_bound_falls_back_to_a_direct_solve(self):
        # -D2 + 1e-8 I is nearly singular on constants.  A guess 1e7 off
        # along them has a residual below ||rhs||, but the correction that
        # cancels the offset leaves rounding of about 1e7 * 1e-16 in x, above
        # the bound; x = LU^-1 rhs meets it.
        n = 64

        def terms(target):
            target.add_operator(CyclicBandedOperator((-1, 0, 1), (-1.0, 2.0, -1.0), n))
            target.add_diagonal(np.full(n, 1e-8))

        operator, dense = _operator(n, 1, terms)
        rhs = np.sin(2 * np.pi * np.arange(n) / n)
        expected = np.linalg.solve(dense, rhs)
        x = operator.solve(rhs, expected + 1e7)
        assert operator.corrections == 2  # the correction, then the direct solve
        assert np.max(np.abs(dense @ x - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), scale=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1),
           stencil=st.sampled_from(["d1", "d2"]))
    def test_singular_step_raises(self, n, scale, seed, stencil):
        # C = scale I is regular; the per-step part turns it into a singular
        # circulant (D1 or D2, both annihilate constants), with a kept LU of C.
        rng = np.random.default_rng(seed)
        operator = StepOperator(n, constant_terms=lambda target: target.add_diagonal(scale))
        operator.solve(rng.standard_normal(n))
        operator.reset()
        ones = np.ones(n)
        d1 = CyclicBandedOperator((-1, 1), (-0.5, 0.5), n)
        d2 = CyclicBandedOperator((-1, 0, 1), (1.0, -2.0, 1.0), n)
        operator.add_operator(d1 if stencil == "d1" else d2, scale=scale)
        operator.add_diagonal(-scale * ones)
        with pytest.raises(SolverError):
            operator.solve(rng.standard_normal(n), rng.standard_normal(n))

    def test_term_outside_constant_band_rejected(self):
        # the band reaches 3 blocks - 1, as far as a +-2-node stencil within
        # the blocks goes; a block index past the fields reaches further
        with pytest.raises(GridMismatchError):
            StepOperator(16).add_diagonal(np.ones(16), block=(0, 3))
        with pytest.raises(GridMismatchError):
            StepOperator(32, 2).add_operator(make_d3(Grid1D(16, 0.1)), block=(0, 2))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), shape=_shapes(low=1),
           shifts=st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1])),
           switch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    # blocks * n <= 2p makes stencil offsets alias onto the same entry
    @example(n=1, shape=(2, 5), shifts=(1, -1), switch=1, seed=1)
    @example(n=3, shape=(1, 2), shifts=(1, 0), switch=2, seed=2)
    @example(n=40, shape=(2, 5), shifts=(-1, 1), switch=2, seed=3)
    def test_row_order_path_matches_dense(self, n, shape, shifts, switch, seed):
        # Every row has one dominant entry at unknown offset shifts[0]: 0
        # needs no interchange, +-1 makes partial pivoting reorder the folded
        # rows.  From step ``switch`` on, a three times larger entry at
        # shifts[1] moves the pivot order in the middle of the run.
        blocks, p = shape
        rng = np.random.default_rng(seed)
        size = 4.0 * (2 * p + 1)  # twice the random part of a row
        terms = (_random_band(n, blocks, p, _uniform(rng))
                 + _dominant_terms(n, blocks, shifts[0], size))
        operator, constant = _operator(blocks * n, blocks, lambda target: _write(target, terms))
        x = None
        for step in range(6):
            terms = _random_band(n, blocks, p, _uniform(rng))
            if step >= switch:
                terms += _dominant_terms(n, blocks, shifts[1], 3.0 * size)
            dense = _step(operator, constant, terms)
            rhs = rng.standard_normal(blocks * n)
            x = operator.solve(rhs, x)
            expected = np.linalg.solve(dense, rhs)
            assert np.max(np.abs(dense @ x - rhs)) <= 1e-10 * np.max(np.abs(rhs))
            np.testing.assert_allclose(x, expected, rtol=0,
                                       atol=1e-12 * np.max(np.abs(expected)))

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 60), shape=_shapes(low=1), shift=st.sampled_from([-1, 0, 1]),
           seed=st.integers(0, 2**32 - 1))
    # blocks * n <= 2p makes stencil offsets alias onto the same entry
    @example(n=1, shape=(2, 5), shift=1, seed=1)
    @example(n=40, shape=(1, 2), shift=0, seed=2)
    @example(n=40, shape=(2, 5), shift=-1, seed=3)
    def test_unit_diagonal_application_matches_dense_solve(self, n, shape, shift, seed):
        # The kept factors are L (unit lower), U1 (unit upper) and the inverse
        # pivots of U = diag(U) U1.  One application solves with the factored
        # P A in folded order, on the identity order (shift 0) and on the
        # order that partial pivoting finds for a dominant off-diagonal entry.
        blocks, p = shape
        rng = np.random.default_rng(seed)
        terms = (_random_band(n, blocks, p, _uniform(rng))
                 + _dominant_terms(n, blocks, shift, 4.0 * (2 * p + 1)))
        operator, dense = _operator(blocks * n, blocks, lambda target: _write(target, terms))
        operator.solve(rng.standard_normal(blocks * n))
        if shift == 0:
            assert not operator._moves_rows
        folded = np.empty_like(dense)
        folded[np.ix_(operator._pos, operator._pos)] = dense
        factored = folded[operator._order]  # P A: row i is row order[i] of A
        r = rng.standard_normal(blocks * n)
        expected = np.linalg.solve(factored, r[operator._order])
        np.testing.assert_allclose(operator._apply_lu(r), expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))

    def test_moved_pivot_order_is_adopted_once(self, rng):
        # The dominant entry sits above the diagonal, so the first
        # factorization finds the row order and the second uses it; moving it
        # below the diagonal makes the kept order meet interchanges once, after
        # which the new order factors with none.
        n = 64
        terms = _random_band(n, 1, 2, _uniform(rng)) + _dominant_terms(n, 1, 1, 20.0)
        operator, constant = _operator(n, 1, lambda target: _write(target, terms))
        operator.solve(rng.standard_normal(n))
        assert operator.factorizations == 2
        operator.solve(rng.standard_normal(n))
        assert operator.factorizations == 3
        for calls in (5, 6):
            dense = _step(operator, constant, _dominant_terms(n, 1, -1, 60.0))
            rhs = rng.standard_normal(n)
            x = operator.solve(rhs)
            assert operator.factorizations == calls
            np.testing.assert_allclose(x, np.linalg.solve(dense, rhs),
                                       rtol=0, atol=1e-12 * np.max(np.abs(x)))


def _fresh_interpreter(code, **variables):
    """Run ``code`` in a new interpreter that imports longwave from this tree,
    with the environment ``variables`` set (None: unset)."""
    src = str(Path(findiff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **variables)
    env = {name: value for name, value in env.items() if value is not None}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _filled(operator, seed):
    """``operator`` with its work band, LU buffer and solve vectors drawn from
    ``seed``: uniform entries of size at most 1/4, so the unit solves stay finite."""
    rng = np.random.default_rng(seed)
    for array in (operator._work, operator._lu.base, operator._b, operator._x):
        array[...] = 0.25 * rng.uniform(-1.0, 1.0, array.shape)
    return rng


class TestOpenBlasBinding:
    """findiff calls scipy's OpenBLAS through ctypes: each routine gives, bit for
    bit, what scipy's compiled wrapper of it gives."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 40), blocks=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
    @example(n=3, blocks=2, seed=0)  # 2k + 1 = 11 rows over 6 columns
    def test_dgbmv_residual(self, n, blocks, seed):
        operator = StepOperator(blocks * n, blocks)
        _filled(operator, seed)
        rows, k = operator._rows, operator._k
        y = np.zeros(rows)
        y[:operator.n] = operator._b
        expected = blas.dgbmv(rows, operator.n, k, k, -1.0, operator._work, operator._x,
                              beta=1.0, y=y)
        assert operator._residual().tobytes() == expected[:operator.n].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 40), blocks=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
           reorder=st.booleans())
    def test_dtbsv_unit_solves(self, n, blocks, seed, reorder):
        operator = StepOperator(blocks * n, blocks)
        if reorder:  # a new row order reallocates the LU buffer the solves read
            operator._set_order(np.random.default_rng(seed).permutation(operator.n))
        rng = _filled(operator, seed)
        for args, k, band, lower in ((operator._lower_solve, operator._kl, operator._lower, 1),
                                     (operator._upper_solve, operator._ku, operator._upper, 0)):
            x = rng.standard_normal(operator.n)
            operator._correction[:] = x
            findiff._dtbsv(*args)
            expected = blas.dtbsv(k, band, x, lower=lower, diag=1)
            assert operator._correction.tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                           max_size=30))
    @example(values=[math.nan, 1.0, -2.0])
    @example(values=[math.nan, math.nan])
    def test_idamax_skips_nan_as_scipy_does(self, values):
        operator = StepOperator(len(values))
        for v, args in ((operator._b, operator._b_amax), (operator._x, operator._x_amax),
                        (operator._correction, operator._d_amax)):
            v[:] = values
            assert findiff._idamax(*args) - 1 == blas.idamax(v)
            assert np.array_equal(findiff._peak(v, args), abs(v[blas.idamax(v)]), equal_nan=True)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 40), kl=st.integers(0, 6), ku=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1), zero_column=st.none() | st.integers(0, 39))
    @example(n=5, kl=2, ku=1, seed=0, zero_column=2)
    def test_dgbtrf(self, n, kl, ku, seed, zero_column):
        kl, ku = min(kl, n - 1), min(ku, n - 1)
        rng = np.random.default_rng(seed)
        ab = np.zeros((2 * kl + ku + 1, n), order="F")
        ab[kl:] = rng.standard_normal((kl + ku + 1, n))
        if zero_column is not None:
            ab[:, zero_column % n] = 0.0  # singular: a zero pivot, info > 0
        lu, piv, info = lapack.dgbtrf(ab, kl, ku)
        mine = ab.copy(order="F")
        got = findiff.dgbtrf(mine, kl, ku)
        assert got[0] is mine and got[0].tobytes() == lu.tobytes()
        assert np.array_equal(got[1], piv) and got[2] == info
        assert (info > 0) == (zero_column is not None)

    def test_cli_import_loads_no_scipy_module(self):
        out = _fresh_interpreter(
            "import sys, longwave.cli\n"
            "maps = open('/proc/self/maps').read()\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')),\n"
            "      '_fblas' in maps, '_flapack' in maps, 'libscipy_openblas' in maps)"
        )
        assert out.strip() == "[] False False True"

    @pytest.mark.parametrize("first", ["numpy", "scipy.linalg"])
    @pytest.mark.parametrize("found", ["2", None])
    def test_import_starts_no_thread_pool(self, first, found):
        # the variables the benchmark sets for its workers; a scipy.linalg
        # imported first has loaded the library, and its pool, already
        out = _fresh_interpreter(
            f"import os, {first}\n"
            "before = len(os.listdir('/proc/self/task'))\n"
            "import longwave\n"
            "print(len(os.listdir('/proc/self/task')) - before,\n"
            "      os.environ.get('OPENBLAS_NUM_THREADS'), longwave.blas_info()['threads'])",
            OPENBLAS_NUM_THREADS=found, OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
        assert out.split() == ["0", str(found), "1"]

    @pytest.mark.parametrize("copies", [0, 2])
    def test_no_single_library_names_the_directory(self, tmp_path, copies):
        for i in range(copies):
            (tmp_path / f"libscipy_openblas-{i}.so").write_bytes(b"")
        with pytest.raises(ImportError, match=f"{copies} files match") as excinfo:
            findiff._load_openblas(str(tmp_path))
        assert str(tmp_path) in str(excinfo.value)
