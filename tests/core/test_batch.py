"""Batched-engine semantics: shapes, layouts, metadata, eig-count contract.

The batched execution engine must (a) accept any reasonable memory layout,
(b) agree with the seed's column-loop numerics within the analog noise
floor, and (c) honour the persistent-circuit contract — exactly one
eigendecomposition per tile per programming event, invalidated by
programming/refresh and (for PINV only) by ladder moves.
"""

import numpy as np
import pytest

from repro.analog import dynamics
from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.workloads.matrices import gram, wishart
from tests.reference_engines import column_loop


def _fresh_solver() -> GramcSolver:
    """An identically-seeded solver per call — for bit-exact comparisons."""
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(num_macros=8, rows=32, cols=32), rng=np.random.default_rng(99)
        ),
        rng=np.random.default_rng(17),
    )


def _rng() -> np.random.Generator:
    return np.random.default_rng(20260729)


class TestBatchShapes:
    def test_empty_batch_mvm(self, small_solver, rng):
        op = small_solver.compile(rng.uniform(-1, 1, size=(8, 8)))
        result = op.mvm(np.zeros((8, 0)))
        assert result.value.shape == (8, 0)
        assert result.attempts == 0
        assert result.columns == 0
        assert result.input_scales.shape == (0,)
        assert result.per_column_attempts.shape == (0,)
        assert result.column_saturated.shape == (0,)

    def test_empty_batch_lstsq(self, small_solver, rng):
        op = small_solver.compile(rng.standard_normal((20, 4)), AMCMode.PINV)
        result = op.lstsq(np.zeros((20, 0)))
        assert result.value.shape == (4, 0)
        assert result.attempts == 0

    def test_single_column_matches_vector_solve(self, rng):
        """A ``(n, 1)`` batch is the vector solve, column-shaped."""
        matrix = wishart(10, rng=rng) + 0.6 * np.eye(10)
        b = rng.uniform(-1, 1, 10)
        vec = _fresh_solver().compile(matrix, AMCMode.INV).solve(b)
        col = _fresh_solver().compile(matrix, AMCMode.INV).solve(b[:, None])
        assert col.value.shape == (10, 1)
        np.testing.assert_allclose(col.value[:, 0], vec.value, rtol=0, atol=1e-12)
        assert col.input_scales.shape == (1,)
        assert col.input_scales[0] == pytest.approx(vec.input_scale)

    def test_single_column_matches_vector_mvm(self, rng):
        matrix = rng.uniform(-1, 1, size=(12, 12))
        x = rng.uniform(-1, 1, 12)
        vec = _fresh_solver().compile(matrix).mvm(x)
        col = _fresh_solver().compile(matrix).mvm(x[:, None])
        np.testing.assert_allclose(col.value[:, 0], vec.value, rtol=0, atol=1e-12)

    def test_fortran_order_is_bit_identical(self, rng):
        """Memory layout must not leak into the numerics."""
        matrix = rng.uniform(-1, 1, size=(12, 12))
        batch = rng.uniform(-1, 1, size=(12, 9))
        c_result = _fresh_solver().compile(matrix).mvm(np.ascontiguousarray(batch))
        f_result = _fresh_solver().compile(matrix).mvm(np.asfortranarray(batch))
        np.testing.assert_array_equal(c_result.value, f_result.value)

    def test_non_contiguous_batch(self, rng):
        """A strided view (every other column) solves like its copy."""
        matrix = wishart(8, rng=rng) + 0.6 * np.eye(8)
        wide = rng.uniform(-1, 1, size=(8, 12))
        view = wide[:, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        strided = _fresh_solver().compile(matrix, AMCMode.INV).solve(view)
        copied = _fresh_solver().compile(matrix, AMCMode.INV).solve(view.copy())
        np.testing.assert_array_equal(strided.value, copied.value)
        assert strided.value.shape == (8, 6)

    def test_per_column_metadata_present(self, rng):
        matrix = wishart(10, rng=rng) + 0.6 * np.eye(10)
        batch = rng.uniform(-1, 1, size=(10, 5))
        batch[:, 2] *= 100.0  # one loud column gets its own input scale
        result = _fresh_solver().compile(matrix, AMCMode.INV).solve(batch)
        assert result.input_scales.shape == (5,)
        assert result.per_column_attempts.shape == (5,)
        assert result.column_saturated.shape == (5,)
        # Per-column scaling: the loud column scales ~100× its siblings.
        assert result.input_scales[2] > 20.0 * result.input_scales[0]
        # The scalar field keeps its historical worst-column meaning.
        assert result.input_scale == pytest.approx(float(np.max(result.input_scales)))


class TestColumnLoopEquivalence:
    """Fixed-RNG agreement between the batched engine and the seed's loop."""

    def test_mvm(self, rng):
        matrix = rng.uniform(-1, 1, size=(16, 16))
        batch = rng.uniform(-1, 1, size=(16, 8))
        batched = _fresh_solver().compile(matrix).mvm(batch)
        loop_op = _fresh_solver().compile(matrix)
        loop = np.stack([loop_op.mvm(batch[:, j]).value for j in range(8)], axis=1)
        scale = np.linalg.norm(batched.reference)
        assert np.linalg.norm(batched.value - loop) / scale < 0.1
        assert batched.relative_error < 0.35

    def test_inv(self, rng):
        matrix = wishart(12, rng=rng) + 0.6 * np.eye(12)
        batch = rng.uniform(-1, 1, size=(12, 8))
        batched = _fresh_solver().compile(matrix, AMCMode.INV).solve(batch)
        loop_op = _fresh_solver().compile(matrix, AMCMode.INV)
        loop = column_loop(loop_op, batch, loop_op.solve, np.linalg.inv(matrix) @ batch)
        scale = np.linalg.norm(batched.reference)
        assert np.linalg.norm(batched.value - loop.value) / scale < 0.15
        assert batched.relative_error < 0.5
        assert loop.relative_error < 0.5

    def test_pinv(self, rng):
        matrix = rng.standard_normal((20, 4))
        batch = rng.uniform(-1, 1, size=(20, 6))
        batched = _fresh_solver().compile(matrix, AMCMode.PINV).lstsq(batch)
        loop_op = _fresh_solver().compile(matrix, AMCMode.PINV)
        loop = column_loop(loop_op, batch, loop_op.lstsq, np.linalg.pinv(matrix) @ batch)
        scale = np.linalg.norm(batched.reference)
        assert np.linalg.norm(batched.value - loop.value) / scale < 0.2
        assert batched.relative_error < 0.4
        assert loop.relative_error < 0.4

    def test_egv(self, rng):
        """EGV has no right-hand side; the persistent circuit must keep
        reproducing the seed-quality eigenvector across repeated solves."""
        matrix = gram(rng.standard_normal((12, 4)))
        op = _fresh_solver().compile(matrix, AMCMode.EGV)
        first = op.eigvec()
        second = op.eigvec()
        assert abs(first.value @ first.reference) > 0.9
        assert abs(second.value @ second.reference) > 0.9
        assert abs(first.value @ second.value) > 0.95


class TestEigCountContract:
    """One ``np.linalg.eig`` per tile per programming event — no more."""

    def test_inv_batch_single_eig(self, rng):
        matrix = wishart(16, rng=rng) + 0.6 * np.eye(16)
        batch = rng.uniform(-1, 1, size=(16, 32))
        op = _fresh_solver().compile(matrix, AMCMode.INV)
        before = dynamics.eig_call_count()
        op.solve(batch)
        assert dynamics.eig_call_count() - before == 1
        op.solve(batch)  # resident circuit: no further decomposition
        op.solve(rng.uniform(-1, 1, 16))  # vector path shares it too
        assert dynamics.eig_call_count() - before == 1

    def test_refresh_invalidates_decomposition(self, rng):
        matrix = wishart(10, rng=rng) + 0.6 * np.eye(10)
        op = _fresh_solver().compile(matrix, AMCMode.INV)
        op.solve(rng.uniform(-1, 1, 10))
        before = dynamics.eig_call_count()
        op.refresh()  # re-program: new conductances, stale decomposition
        op.solve(rng.uniform(-1, 1, 10))
        assert dynamics.eig_call_count() - before == 1

    def test_inv_ladder_move_keeps_decomposition(self, rng):
        """INV's loop matrix is independent of g_f: auto-ranging register
        moves must not re-decompose."""
        matrix = wishart(10, rng=rng) + 0.6 * np.eye(10)
        op = _fresh_solver().compile(matrix, AMCMode.INV)
        op.solve(rng.uniform(-1, 1, 10))
        tile = op.tiles[0]
        before = dynamics.eig_call_count()
        tile.primary.set_g_f(tile.primary.config.g_f * 2.0)
        op.solve(rng.uniform(-1, 1, 10))
        assert dynamics.eig_call_count() - before == 0

    def test_circuit_system_views_share_one_decomposition(self, rng):
        """``circuit.system(b)`` views delegate to the circuit's cache: a
        decomposition triggered through any view is computed once, even
        when the first query comes through a view."""
        from repro.analog.inv import InvCircuit

        g = np.eye(6) * 1e-3 + 1e-5 * rng.standard_normal((6, 6))
        circuit = InvCircuit(np.abs(g))
        before = dynamics.eig_call_count()
        assert circuit.system(np.ones(6)).is_stable == circuit.system(np.zeros(6)).is_stable
        circuit.static_solve(np.ones(6))
        assert dynamics.eig_call_count() - before == 1

    def test_reprogramming_rebuilds_circuit(self, rng):
        """The macro-level cache drops its circuit when the array rewrites."""
        solver = _fresh_solver()
        op = solver.compile(rng.uniform(-1, 1, size=(8, 8)))
        op.mvm(rng.uniform(-1, 1, 8))
        macro = op.tiles[0].primary
        key_before, circuit_before = macro._circuits["mvm"]
        op.refresh()
        op.mvm(rng.uniform(-1, 1, 8))
        key_after, circuit_after = macro._circuits["mvm"]
        assert key_after != key_before
        assert circuit_after is not circuit_before
