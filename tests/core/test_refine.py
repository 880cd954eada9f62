"""Digital iterative refinement: the ``solve(rtol=...)`` accuracy contract.

Three layers under test: the pure loop (:mod:`repro.core.refine`, driven
with synthetic ``resolve`` callables so contraction/divergence are exact),
the single-array :meth:`AnalogOperator.solve` path, and the blocked
:meth:`TiledOperator.solve` path (corrections re-solved as sweeps on the
resident grid — zero reprogramming)."""

import numpy as np
import pytest

from repro.analog import determinism
from repro.analog.topologies import AMCMode
from repro.core.errors import ConvergenceError, ShapeError
from repro.core.pool import MacroPool, PoolConfig
from repro.core.refine import (
    DEFAULT_MAX_STEPS,
    RefineReport,
    as_rtol_vector,
    refine_solution,
)
from repro.core.solver import GramcSolver
from repro.core.tiled import TiledOperator
from repro.programming.levels import LevelMap
from repro.workloads.matrices import block_dominant


def _solver(
    num_macros: int = 36,
    size: int = 32,
    levels: int = 256,
    pool_seed: int = 11,
    solver_seed: int = 7,
) -> GramcSolver:
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(
                num_macros=num_macros,
                rows=size,
                cols=size,
                level_map=LevelMap(num_levels=levels),
            ),
            rng=np.random.default_rng(pool_seed),
        ),
        rng=np.random.default_rng(solver_seed),
    )


def _well_conditioned(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.eye(n) * 4.0 + rng.normal(scale=0.3, size=(n, n)) / n


class TestRtolVector:
    def test_scalar_broadcasts(self):
        np.testing.assert_array_equal(as_rtol_vector(1e-8, 3), np.full(3, 1e-8))

    def test_vector_passes_through_with_inf(self):
        targets = as_rtol_vector(np.array([1e-10, np.inf]), 2)
        assert targets[0] == 1e-10 and np.isinf(targets[1])

    def test_wrong_shape_is_a_shape_error(self):
        with pytest.raises(ShapeError):
            as_rtol_vector(np.array([1e-8, 1e-8]), 3)

    @pytest.mark.parametrize("bad", [0.0, -1e-8, float("nan")])
    def test_nonpositive_or_nan_rejected(self, bad):
        with pytest.raises(ValueError):
            as_rtol_vector(bad, 2)


class TestPureLoop:
    """The loop itself, with synthetic solvers of known quality."""

    def _system(self, n=8, k=3, seed=0):
        rng = np.random.default_rng(seed)
        matrix = _well_conditioned(n, rng)
        b = rng.normal(size=(n, k))
        return matrix, b

    def test_contracts_with_an_inexact_resolve(self):
        """An η-relative-error solver contracts the residual geometrically
        until rtol, exactly the mixed-precision recipe."""
        matrix, b = self._system()
        exact_inverse = np.linalg.inv(matrix)
        rng = np.random.default_rng(1)

        def eta_resolve(r, _sweeps=1):
            d = exact_inverse @ r
            return d * (1.0 + 0.05 * rng.uniform(-1, 1, size=d.shape))

        x0 = eta_resolve(b)
        x, report = refine_solution(
            matrix, b, x0, eta_resolve, as_rtol_vector(1e-12, b.shape[1])
        )
        assert isinstance(report, RefineReport)
        assert report.converged and report.per_column_converged.all()
        assert report.residual <= 1e-12
        assert 0 < report.steps < DEFAULT_MAX_STEPS
        # Strictly contracting accuracy-vs-steps curve, analog answer first.
        trace = report.residual_trace
        assert len(trace) == report.steps + 1
        assert all(b_ < a for a, b_ in zip(trace, trace[1:]))

    def test_converged_columns_drop_out_of_corrections(self):
        """Per-column masking: a converged column must never be re-solved."""
        matrix, b = self._system(k=4)
        exact_inverse = np.linalg.inv(matrix)
        widths = []

        def exact_resolve(r, _sweeps):
            widths.append(r.shape[1])
            return exact_inverse @ r

        # Column 0 starts exact (converged at step 0); the rest start at zero.
        x0 = np.zeros_like(b)
        x0[:, 0] = np.linalg.solve(matrix, b[:, 0])
        _, report = refine_solution(
            matrix, b, x0, exact_resolve, as_rtol_vector(1e-12, 4)
        )
        assert report.converged
        assert widths  # at least one correction happened
        assert all(width <= 3 for width in widths)

    def test_inf_targets_skip_refinement_entirely(self):
        matrix, b = self._system(k=2)
        calls = []

        def never(r, _sweeps):  # pragma: no cover - must not run
            calls.append(r)
            return r

        x, report = refine_solution(
            matrix, b, np.zeros_like(b), never,
            as_rtol_vector(np.array([np.inf, np.inf]), 2),
        )
        assert not calls
        assert report.steps == 0
        assert report.per_column_converged.all()

    def test_divergence_raises_structured_error(self):
        """A resolve that amplifies (η·κ ≥ 1 regime) must be detected and
        reported with the step trace attached."""
        matrix, b = self._system()
        wrong = 3.0 * np.linalg.inv(matrix)  # overshoots every correction

        with pytest.raises(ConvergenceError) as excinfo:
            refine_solution(
                matrix, b, np.zeros_like(b), lambda r, _sweeps: wrong @ r,
                as_rtol_vector(1e-12, b.shape[1]),
            )
        error = excinfo.value
        assert error.steps is not None and error.steps >= 1
        assert error.residual_trace is not None
        assert len(error.residual_trace) == error.steps + 1
        assert "ill-conditioned" in str(error)

    def test_budget_exhaustion_returns_honestly(self):
        """Stagnation inside the divergence band exits with converged=False
        — budget exhaustion is an honest answer, not an exception."""
        matrix, b = self._system()
        exact_inverse = np.linalg.inv(matrix)

        # A barely-contracting solver: legal (never trips the divergence
        # ratio) but far too slow for a 2-step budget.
        def slow(r, _sweeps):
            return 0.05 * (exact_inverse @ r)

        x, report = refine_solution(
            matrix, b, np.zeros_like(b), slow,
            as_rtol_vector(1e-14, b.shape[1]), max_steps=2,
        )
        assert report.steps == 2
        assert not report.converged
        assert not report.per_column_converged.any()

    def test_zero_rhs_column_is_judged_absolutely(self):
        matrix, b = self._system(k=2)
        b[:, 1] = 0.0
        exact_inverse = np.linalg.inv(matrix)
        x, report = refine_solution(
            matrix, b, np.zeros_like(b), lambda r, _sweeps: exact_inverse @ r,
            as_rtol_vector(1e-12, 2),
        )
        assert report.converged
        np.testing.assert_allclose(x[:, 1], 0.0, atol=1e-12)


class TestAnalogOperatorRtol:
    def test_contract_met_on_single_array(self, rng):
        solver = _solver()
        matrix = _well_conditioned(24, rng)
        b = rng.uniform(-1, 1, (24, 5))
        op = solver.compile(matrix, AMCMode.INV)
        plain = op.solve(b)
        refined = op.solve(b, rtol=1e-10)
        residual = np.linalg.norm(b - matrix @ refined.value) / np.linalg.norm(b)
        assert residual <= 1e-9  # independent re-measurement (10x slack)
        assert refined.refined_residual <= 1e-10
        assert refined.refine_steps > 0
        assert refined.per_column_converged.shape == (5,)
        assert refined.per_column_converged.all()
        assert refined.per_column_residual.shape == (5,)
        # The plain analog answer sits at the quantization/noise floor.
        assert plain.refine_steps is None
        assert refined.refine_residual_trace[0] > 100 * refined.refined_residual
        op.close()

    def test_loose_rtol_refines_zero_steps(self, rng):
        solver = _solver()
        matrix = _well_conditioned(16, rng)
        b = rng.uniform(-1, 1, (16, 3))
        op = solver.compile(matrix, AMCMode.INV)
        result = op.solve(b, rtol=0.9)
        assert result.refine_steps == 0
        assert result.per_column_converged.all()
        assert len(result.refine_residual_trace) == 1
        op.close()

    def test_vector_rhs_keeps_vector_shape(self, rng):
        solver = _solver()
        matrix = _well_conditioned(16, rng)
        b = rng.uniform(-1, 1, 16)
        op = solver.compile(matrix, AMCMode.INV)
        result = op.solve(b, rtol=1e-8)
        assert result.value.shape == (16,)
        assert result.per_column_converged.shape == (1,)
        assert result.refined_residual <= 1e-8
        op.close()

    def test_near_singular_operand_diverges_structurally(self, rng):
        """η·κ ≥ 1: refinement on a near-singular operand must raise the
        structured error, not silently return garbage."""
        solver = _solver()
        n = 16
        # Condition number ~1e9: far beyond what ~1e-2 analog accuracy
        # can refine (η·κ >> 1).
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)))
        singular_values = np.logspace(0, -9, n)
        matrix = (u * singular_values) @ v.T
        b = rng.uniform(-1, 1, (n, 2))
        op = solver.compile(matrix, AMCMode.INV)
        with pytest.raises(ConvergenceError) as excinfo:
            op.solve(b, rtol=1e-12)
        assert excinfo.value.steps is not None
        assert excinfo.value.residual_trace is not None
        op.close()

    def test_refinement_counters_charge_solver_and_stats(self, rng):
        solver = _solver()
        matrix = _well_conditioned(16, rng)
        b = rng.uniform(-1, 1, (16, 2))
        op = solver.compile(matrix, AMCMode.INV)
        steps_before = solver.refine_steps
        result = op.solve(b, rtol=1e-10)
        assert solver.refine_steps - steps_before == result.refine_steps
        assert solver.refine_dispatches > 0
        if solver.stats is not None:
            assert solver.stats.refine_steps == solver.refine_steps
        op.close()


class TestTiledOperatorRtol:
    def test_contract_met_on_blocked_grid(self, rng):
        solver = _solver()
        matrix = block_dominant(96, 32, rng=rng)
        b = rng.uniform(-1, 1, (96, 6))
        op = solver.compile(matrix, AMCMode.INV)
        assert isinstance(op, TiledOperator)
        op.solve(b)  # warm: program + range once
        events_before = op.program_events
        refined = op.solve(b, rtol=1e-10)
        assert op.program_events == events_before  # zero reprogramming
        residual = np.linalg.norm(b - matrix @ refined.value) / np.linalg.norm(b)
        assert residual <= 1e-9
        assert refined.refined_residual <= 1e-10
        assert refined.per_column_converged.all()
        # Correction sweeps are accounted on top of the base solve's: one
        # base sweep plus one sweep per refinement step.
        assert refined.sweeps == refined.refine_steps + 1
        assert refined.residual_floor <= 1e-9
        op.close()

    def test_mixed_rtol_columns_refine_independently(self, rng):
        solver = _solver()
        matrix = block_dominant(64, 32, rng=rng)
        b = rng.uniform(-1, 1, (64, 3))
        op = solver.compile(matrix, AMCMode.INV)
        op.solve(b)
        targets = np.array([1e-10, np.inf, 1e-4])
        result = op.solve(b, rtol=targets)
        assert result.per_column_converged.all()
        assert result.per_column_residual[0] <= 1e-10
        assert result.per_column_residual[2] <= 1e-4
        # The opted-out column stays at the analog floor...
        assert result.per_column_residual[1] > 1e-4
        # ...and is excluded from the scalar contract verdict.
        assert result.refined_residual <= 1e-4
        op.close()

    def test_empty_batch_with_rtol(self, rng):
        solver = _solver()
        matrix = block_dominant(64, 32, rng=rng)
        op = solver.compile(matrix, AMCMode.INV)
        result = op.solve(np.zeros((64, 0)), rtol=1e-10)
        assert result.refine_steps == 0
        assert result.per_column_converged.shape == (0,)
        op.close()


class TestBitwiseDeterminism:
    def test_refined_columns_are_batch_independent(self):
        """Under column-independent deterministic mode on a noiseless
        stack, a column's *refined* answer must be bitwise identical
        whether it was solved alone or inside a batch — residuals are
        evaluated through the deterministic kernel, and converged-column
        masking must not perturb the survivors."""
        from repro.analog.opamp import OpAmpParams
        from repro.converters.adc import ADCParams
        from repro.converters.dac import DACParams
        from repro.devices.constants import DeviceStack, VariabilityParams

        def make_noiseless_solver(seed: int) -> GramcSolver:
            # Twin discipline from tests/serve/conftest.py: identical
            # seeds + zero noise sigmas => bitwise-identical stacks.
            pool = MacroPool(
                PoolConfig(
                    num_macros=4,
                    rows=16,
                    cols=16,
                    stack=DeviceStack(
                        variability=VariabilityParams(read_noise_sigma=0.0)
                    ),
                    opamp=OpAmpParams(noise_sigma=0.0),
                    dac=DACParams(noise_sigma=0.0),
                    adc=ADCParams(noise_sigma=0.0),
                ),
                rng=np.random.default_rng(seed),
            )
            return GramcSolver(pool=pool, rng=np.random.default_rng(seed + 1))

        rng = np.random.default_rng(5)
        n = 16
        matrix = _well_conditioned(n, rng)
        batch = rng.uniform(-1, 1, (n, 3))

        with determinism.column_independent_apply(True):
            twin_a = make_noiseless_solver(seed=7)
            op_a = twin_a.compile(matrix, AMCMode.INV)
            together = op_a.solve(batch, rtol=1e-10)

            twin_b = make_noiseless_solver(seed=7)
            op_b = twin_b.compile(matrix, AMCMode.INV)
            alone = [
                op_b.solve(batch[:, [j]], rtol=1e-10) for j in range(3)
            ]

        for j in range(3):
            assert np.array_equal(together.value[:, j], alone[j].value[:, 0])
