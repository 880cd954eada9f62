"""Blocked refinement: one preconditioning sweep per ``rtol`` step.

Counters only, no wall clock.  The blocked system is the refine bench's:
256 unknowns on a 4×4 grid of 64-wide tiles, 8-bit level map.  The
flexible-GMRES loop uses one analog sweep as its preconditioner, so
slow splittings cost steps, not sweeps per step.
"""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool, PoolConfig
from repro.core.refine import DEFAULT_MAX_STEPS, _column_norms, scaled_norm
from repro.core.solver import GramcSolver
from repro.programming.levels import LevelMap
from repro.workloads.matrices import block_dominant

_SIZE = 256
_TILE = 64

TOLERANCE_SWEPT_DISPATCHES = 779
"""Refine dispatches of the 32-RHS 256×256/4×4 ``rtol=1e-10`` solve
when every correction was swept to ``tolerance=1e-3``."""


def _bench_solver() -> GramcSolver:
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(
                num_macros=40,
                rows=_TILE,
                cols=_TILE,
                level_map=LevelMap(num_levels=256),
            ),
            rng=np.random.default_rng(20260729),
        ),
        rng=np.random.default_rng(17),
    )


def _system(coupling: float, columns: int):
    rng = np.random.default_rng(3)
    matrix = block_dominant(_SIZE, _TILE, coupling=coupling, rng=rng)
    return matrix, rng.uniform(-1, 1, size=(_SIZE, columns))


def _column_residuals(matrix, b, x) -> np.ndarray:
    return np.linalg.norm(b - matrix @ x, axis=0) / np.linalg.norm(b, axis=0)


class TestSlowSplittings:
    @pytest.mark.parametrize(
        "coupling, method",
        [(0.04, "jacobi"), (0.08, "gauss-seidel"), (0.08, "jacobi")],
    )
    def test_meets_rtol_within_the_default_budget(self, coupling, method):
        """Splittings on which a stationary one-sweep loop crawls or
        diverges still meet 1e-10 within the default budget when one
        sweep is only the preconditioner."""
        matrix, b = _system(coupling, columns=8)
        op = _bench_solver().compile(matrix, AMCMode.INV)
        result = op.solve(b, rtol=1e-10, method=method)
        assert result.converged and result.per_column_converged.all()
        assert result.refine_steps <= DEFAULT_MAX_STEPS
        assert _column_residuals(matrix, b, result.value).max() <= 1e-10
        op.close()

    def test_too_strong_coupling_ends_unconverged_honestly(self):
        """At coupling 0.10 one sweep is too poor a preconditioner for
        1e-10 within the budget: the solve returns unconverged, names its
        worst columns and reports the float64 residuals it left."""
        matrix, b = _system(0.10, columns=8)
        op = _bench_solver().compile(matrix, AMCMode.INV)
        result = op.solve(b, rtol=1e-10)
        assert result.converged is False
        assert result.worst_columns
        assert result.refine_steps == DEFAULT_MAX_STEPS
        np.testing.assert_allclose(
            result.per_column_residual,
            _column_residuals(matrix, b, result.value),
            rtol=1e-9,
        )
        op.close()


class TestCountersAndVerdict:
    def test_refine_dispatches_a_third_of_tolerance_swept(self):
        """The bench solve: same-seed chips agree on every counter, and
        the corrections cost at most a third of the swept dispatches."""
        matrix, b = _system(0.04, columns=32)
        counters = []
        for _ in range(2):
            solver = _bench_solver()
            op = solver.compile(matrix, AMCMode.INV)
            op.solve(b)  # warm: program + range once
            before = solver.refine_dispatches
            result = op.solve(b, rtol=1e-10)
            counters.append(
                (
                    solver.refine_dispatches - before,
                    result.refine_steps,
                    result.sweeps,
                    result.engine_dispatches,
                    result.value.tobytes(),
                )
            )
            op.close()
        assert counters[0] == counters[1]
        refine_dispatches, steps, sweeps, _, _ = counters[0]
        assert refine_dispatches <= TOLERANCE_SWEPT_DISPATCHES // 3
        assert sweeps == steps + 1  # one-sweep base, one-sweep steps

    @pytest.mark.parametrize(
        "method, expected",
        [("gauss-seidel", [(7, 90), (8, 94)]), ("jacobi", [(9, 33), (9, 25)])],
    )
    def test_rtol_none_sweeps_and_dispatches_unchanged(self, method, expected):
        """Without ``rtol`` the tolerance/stall sweep loop is untouched."""
        matrix, b = _system(0.04, columns=8)
        op = _bench_solver().compile(matrix, AMCMode.INV)
        counts = []
        for _ in range(2):
            result = op.solve(b, method=method)
            counts.append((result.sweeps, result.engine_dispatches))
        assert counts == expected
        op.close()

    def test_converged_is_the_contract_verdict(self):
        matrix, b = _system(0.04, columns=4)
        op = _bench_solver().compile(matrix, AMCMode.INV)
        met = op.solve(b, rtol=1e-10)
        assert met.converged is True and met.per_column_converged.all()
        assert "not-converged" not in repr(met)
        starved = op.solve(b, rtol=1e-10, max_refine_steps=2)
        assert starved.converged is False
        assert "not-converged" in repr(starved)
        op.close()


class TestExtremeScales:
    def test_norms_are_exact_in_range_and_finite_at_its_edges(self):
        rng = np.random.default_rng(9)
        block = rng.normal(size=(40, 3))
        plain = [np.linalg.norm(np.ascontiguousarray(block[:, j])) for j in range(3)]
        assert np.array_equal(_column_norms(block), plain)  # bit for bit
        top = np.full((4, 2), np.finfo(float).max / 3)
        np.testing.assert_allclose(_column_norms(top), 2 * top[0], rtol=1e-15)
        assert scaled_norm(top) == pytest.approx(np.sqrt(8) * top[0, 0], rel=1e-15)
        bottom = np.full(4, 1e-310)
        assert scaled_norm(bottom) == pytest.approx(2e-310, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_tiled_rhs_near_float_limits_meets_rtol(self, scale):
        """Residual norms and the DAC divisor are scale-safe: the answer
        at 1e±300 is the unit answer scaled, and every reported number
        stays finite."""
        matrix, b = _system(0.04, columns=4)
        op = _bench_solver().compile(matrix, AMCMode.INV)
        result = op.solve(b * scale, rtol=1e-8)
        assert result.converged and result.per_column_converged.all()
        assert np.isfinite(result.value).all()
        for number in (
            result.refined_residual,
            result.residual_floor,
            *result.per_column_residual,
            *result.refine_residual_trace,
        ):
            assert np.isfinite(number)
        # Re-check in unit scale, where float64 has room to spare.
        assert _column_residuals(matrix, b, result.value / scale).max() <= 1e-8
        op.close()

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_single_array_rhs_near_float_limits_meets_rtol(self, scale):
        rng = np.random.default_rng(4)
        matrix = np.eye(24) * 4.0 + rng.normal(scale=0.3, size=(24, 24)) / 24
        b = rng.uniform(-1, 1, (24, 3))
        op = _bench_solver().compile(matrix, AMCMode.INV)
        result = op.solve(b * scale, rtol=1e-8)
        assert result.per_column_converged.all()
        assert np.isfinite(result.value).all()
        assert np.isfinite(result.refined_residual)
        assert _column_residuals(matrix, b, result.value / scale).max() <= 1e-8
        op.close()
