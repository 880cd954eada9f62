"""The compute backend: how a solver gets one, and the NumPy kernels."""

import numpy as np
import pytest

from repro.core.backend import Backend, NumpyBackend
from repro.core.solver import GramcSolver
from repro.system.gramc import GramcChip


class TestSelection:
    def test_default_is_numpy(self):
        backend = GramcSolver().backend
        assert backend.name == "numpy"
        assert isinstance(backend, Backend)

    def test_resolve_passes_instances_through(self):
        backend = NumpyBackend()
        assert GramcSolver(backend=backend).backend is backend
        chip = GramcChip(backend=backend)
        assert chip.backend is backend
        assert chip.solver.backend is backend


class TestChipIntegration:
    def test_chip_rejects_unknown_backend_at_construction(self):
        # Backends are objects, not names: a string fails at construction
        # rather than on the first sweep.
        with pytest.raises(TypeError, match="backend"):
            GramcChip(backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            GramcSolver(backend="numpy")


class TestNumpyKernels:
    def test_batched_matmul_matches_per_slice(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5, 5))
        x = rng.normal(size=(4, 5, 3))
        backend = NumpyBackend()
        for column_independent in (False, True):
            out = backend.batched_matmul(a, x, column_independent=column_independent)
            for t in range(4):
                np.testing.assert_allclose(out[t], a[t] @ x[t], rtol=1e-12)

    def test_batched_matmul_column_independent_is_bitwise_per_slice(self):
        """The stacked einsum must reproduce the 2-D deterministic kernel
        bit for bit — the property the grid engine's contract rests on."""
        from repro.analog import determinism

        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 17, 17))
        a[:, 11:, :] = 0.0  # a ragged zero-padded slice in the stack
        a[:, :, 13:] = 0.0
        x = rng.normal(size=(6, 17, 9))
        out = NumpyBackend().batched_matmul(a, x, column_independent=True)
        for t in range(6):
            expected = np.einsum("ij,jk->ik", np.ascontiguousarray(a[t]), np.ascontiguousarray(x[t]))
            assert np.array_equal(out[t], expected)
            with determinism.column_independent_apply(True):
                assert np.array_equal(out[t], determinism.apply_matrix(a[t], x[t]))

    def test_batched_lu_solve_matches_scipy(self):
        from scipy.linalg import lu_factor, lu_solve

        rng = np.random.default_rng(2)
        mats = rng.normal(size=(5, 8, 8)) + 8.0 * np.eye(8)
        rhs = rng.normal(size=(5, 8, 4))
        factors = [lu_factor(m) for m in mats]
        lu = np.stack([f[0] for f in factors])
        piv = np.stack([f[1] for f in factors]).astype(np.int32)
        out = NumpyBackend().batched_lu_solve(lu, piv, rhs)
        for t in range(5):
            assert np.array_equal(out[t], lu_solve(factors[t], rhs[t]))
