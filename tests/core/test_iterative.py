"""Hybrid analog/digital iterative solver tests."""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.iterative import AnalogIterativeSolver
from repro.core.solver import GramcError
from repro.workloads.matrices import diagonally_dominant, wishart


@pytest.fixture()
def spd_system(rng):
    matrix = wishart(20, rng=rng) + 0.6 * np.eye(20)
    b = rng.uniform(-1, 1, 20)
    return matrix, b


class TestRichardson:
    def test_converges_digitally(self, small_solver, spd_system):
        matrix, b = spd_system
        hybrid = AnalogIterativeSolver(small_solver, use_analog=False)
        result = hybrid.richardson(matrix, b, tolerance=1e-8, max_iterations=2000)
        assert result.converged
        exact = np.linalg.solve(matrix, b)
        assert np.linalg.norm(result.solution - exact) / np.linalg.norm(exact) < 1e-6

    def test_analog_reaches_error_floor(self, small_solver, spd_system):
        matrix, b = spd_system
        hybrid = AnalogIterativeSolver(small_solver, use_analog=True)
        result = hybrid.richardson(matrix, b, tolerance=0.05, max_iterations=300)
        # The inexact-matvec floor: the residual must fall well below 1
        # even though exact convergence is impossible.
        assert result.final_residual < 0.3
        assert result.analog_matvecs > 0

    def test_residuals_decrease_initially(self, small_solver, spd_system):
        matrix, b = spd_system
        hybrid = AnalogIterativeSolver(small_solver, use_analog=False)
        result = hybrid.richardson(matrix, b, tolerance=1e-12, max_iterations=30)
        assert result.residual_norms[5] < result.residual_norms[0]

    def test_rejects_non_square(self, small_solver):
        hybrid = AnalogIterativeSolver(small_solver)
        with pytest.raises(GramcError):
            hybrid.richardson(np.ones((3, 4)), np.zeros(3))


class TestJacobi:
    def test_converges_on_dominant_matrix(self, small_solver, rng):
        matrix = diagonally_dominant(16, dominance=2.0, rng=rng)
        b = rng.uniform(-1, 1, 16)
        hybrid = AnalogIterativeSolver(small_solver, use_analog=False)
        result = hybrid.jacobi(matrix, b, tolerance=1e-8, max_iterations=500)
        assert result.converged
        exact = np.linalg.solve(matrix, b)
        assert np.linalg.norm(result.solution - exact) / np.linalg.norm(exact) < 1e-6

    def test_analog_jacobi_floor(self, small_solver, rng):
        matrix = diagonally_dominant(16, dominance=2.0, rng=rng)
        b = rng.uniform(-1, 1, 16)
        hybrid = AnalogIterativeSolver(small_solver, use_analog=True)
        result = hybrid.jacobi(matrix, b, tolerance=0.05, max_iterations=200)
        assert result.final_residual < 0.3

    def test_zero_diagonal_rejected(self, small_solver):
        hybrid = AnalogIterativeSolver(small_solver)
        matrix = np.ones((4, 4)) - np.eye(4)
        with pytest.raises(GramcError):
            hybrid.jacobi(matrix, np.ones(4))


class TestConjugateGradient:
    def test_digital_cg_is_exact(self, small_solver, spd_system):
        matrix, b = spd_system
        hybrid = AnalogIterativeSolver(small_solver, use_analog=False)
        result = hybrid.conjugate_gradient(matrix, b, tolerance=1e-10)
        assert result.converged
        exact = np.linalg.solve(matrix, b)
        assert np.linalg.norm(result.solution - exact) / np.linalg.norm(exact) < 1e-8

    def test_analog_cg_reaches_inexact_floor(self, small_solver, spd_system):
        """With η-inexact matvecs CG stalls near the η·κ floor, not at zero."""
        matrix, b = spd_system
        hybrid = AnalogIterativeSolver(small_solver, use_analog=True)
        iterated = hybrid.conjugate_gradient(matrix, b, tolerance=0.02, max_iterations=150)
        # It makes real progress from the cold start…
        assert iterated.final_residual < 0.5 * iterated.residual_norms[0]
        # …but cannot certify exact convergence with noisy products.
        exact = np.linalg.solve(matrix, b)
        error = np.linalg.norm(iterated.solution - exact) / np.linalg.norm(exact)
        assert error < 0.6

    def test_tiled_system_beyond_one_array(self, small_solver, rng):
        """A 60-unknown SPD system on 32-wide arrays, two ways.

        The direct INV loop cannot span two arrays, but ``compile`` routes
        square oversized operands through the blocked tile-grid
        engine (2×2 grid here) — and analog-matvec CG still produces a
        usable answer too, limited by the inexact-matvec floor η·κ (η is
        the ~10–20 % analog error at 4 bits).
        """
        matrix = wishart(60, rng=rng) + 0.8 * np.eye(60)
        b = rng.uniform(-1, 1, 60)
        exact = np.linalg.solve(matrix, b)
        blocked_op = small_solver.compile(matrix, AMCMode.INV)  # blocked grid
        blocked = blocked_op.solve(b)
        blocked_op.unpin()  # the CG operand below needs the grid's macros
        assert blocked.sweeps is not None and blocked.sweeps >= 1
        blocked_error = np.linalg.norm(blocked.value - exact) / np.linalg.norm(exact)
        assert blocked_error < 0.6
        hybrid = AnalogIterativeSolver(small_solver, use_analog=True)
        result = hybrid.conjugate_gradient(matrix, b, tolerance=0.05, max_iterations=150)
        error = np.linalg.norm(result.solution - exact) / np.linalg.norm(exact)
        assert error < 0.6
        assert result.final_residual < 0.5 * result.residual_norms[0]


class TestSeededSolve:
    def test_seed_reduces_matvec_count(self, small_solver, spd_system):
        matrix, b = spd_system
        hybrid = AnalogIterativeSolver(small_solver, use_analog=True)
        seeded = hybrid.seeded_solve(matrix, b, tolerance=0.05, max_iterations=150)
        cold = hybrid.conjugate_gradient(matrix, b, tolerance=0.05, max_iterations=150)
        assert seeded.final_residual <= cold.residual_norms[0]


class TestHandleRewiring:
    """The sweep loops run on one compiled handle — no facade, no hashing."""

    def test_zero_rehash_and_zero_reprogramming_across_sweeps(
        self, small_solver, spd_system, monkeypatch
    ):
        from repro.core import solver as solver_module

        matrix, b = spd_system
        keys = {"count": 0}
        original = solver_module._operand_key

        def counting(m, mode, tag=""):
            keys["count"] += 1
            return original(m, mode, tag)

        monkeypatch.setattr(solver_module, "_operand_key", counting)
        hybrid = AnalogIterativeSolver(small_solver, use_analog=True)
        acquisitions_before = small_solver.pool.acquisitions
        result = hybrid.richardson(matrix, b, tolerance=1e-6, max_iterations=30)
        assert result.analog_matvecs >= 30  # floor-limited: every sweep ran
        # One compile = one key computation, however many sweeps ran —
        # not one O(n²) operand hash per matvec.
        assert keys["count"] == 1
        assert small_solver.pool.acquisitions == acquisitions_before + 1

    def test_programming_independent_of_iteration_count(self, rng):
        """Crossbar write activity must not scale with sweep count."""
        from repro.core.pool import MacroPool, PoolConfig
        from repro.core.solver import GramcSolver

        matrix = wishart(16, rng=rng) + 0.8 * np.eye(16)
        b = rng.uniform(-1, 1, 16)

        def versions_after(iterations: int) -> list[int]:
            solver = GramcSolver(
                pool=MacroPool(
                    PoolConfig(num_macros=8, rows=32, cols=32),
                    rng=np.random.default_rng(99),
                ),
                rng=np.random.default_rng(17),
            )
            hybrid = AnalogIterativeSolver(solver, use_analog=True)
            hybrid.jacobi(matrix, b, tolerance=1e-12, max_iterations=iterations)
            return [m.array.version for m in solver.pool.macros]

        assert versions_after(1) == versions_after(40)

    def test_seeded_solve_uses_blocked_seed_beyond_one_array(self, small_solver, rng):
        """seeded_solve on a 48-unknown system (32-wide arrays) seeds from
        the blocked tile-grid solve instead of starting CG cold."""
        from repro.workloads.matrices import block_dominant

        matrix = block_dominant(48, 32, rng=rng)
        b = rng.uniform(-1, 1, 48)
        hybrid = AnalogIterativeSolver(small_solver, use_analog=True)
        seeded = hybrid.seeded_solve(matrix, b, tolerance=0.05, max_iterations=120)
        # The blocked seed starts CG below the cold-start residual.
        assert seeded.residual_norms[0] < 0.5
