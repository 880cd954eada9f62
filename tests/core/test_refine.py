"""Digital refinement: the ``solve(rtol=...)`` accuracy contract.

Three layers under test: the pure flexible-GMRES loop
(:mod:`repro.core.refine`, driven with synthetic ``resolve`` callables so
the preconditioner's quality is known), the single-array
:meth:`AnalogOperator.solve` path, and the blocked
:meth:`TiledOperator.solve` path (one preconditioning sweep per step on
the resident grid — zero reprogramming)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analog import determinism
from repro.analog.topologies import AMCMode
from repro.core.errors import ShapeError
from repro.core.pool import MacroPool, PoolConfig
from repro.core.refine import (
    DEFAULT_MAX_STEPS,
    RESTART,
    RefineReport,
    as_rtol_vector,
    refine_solution,
    refine_solve_result,
)
from repro.core.results import SolveResult
from repro.core.solver import GramcSolver
from repro.core.tiled import TiledOperator
from repro.obs.cost import CostAccumulator
from repro.programming.levels import LevelMap
from repro.workloads.matrices import block_dominant, wishart


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


def _near_singular(n: int, rng: np.random.Generator) -> np.ndarray:
    """Condition number 1e9: far beyond what ~1e-2 analog accuracy and
    float64 residuals (rounding ~1e-16·κ) can refine to 1e-12."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (u * np.logspace(0, -9, n)) @ v.T


def _assert_measured_residuals(matrix, b, x, reported) -> None:
    """``reported`` is the float64 re-measure ``‖b_j − A·x_j‖/‖b_j‖``, up
    to the rounding of computing ``A·x`` itself (n·ε·‖A‖·‖x_j‖)."""
    b_norms = np.linalg.norm(b, axis=0)
    measured = np.linalg.norm(b - matrix @ x, axis=0) / b_norms
    rounding = (
        matrix.shape[0] * np.finfo(float).eps * np.linalg.norm(matrix, 2)
        * np.linalg.norm(x, axis=0) / b_norms
    )
    assert np.all(np.abs(np.asarray(reported) - measured) <= 1e-9 * measured + rounding)


def _refined(matrix, b, x0, resolve, rtol, max_steps=DEFAULT_MAX_STEPS) -> SolveResult:
    """The pure loop wrapped as a handle wraps it (verdict, worst columns)."""
    base = SolveResult(mode=AMCMode.INV, value=x0, reference=np.linalg.solve(matrix, b))
    return refine_solve_result(
        base,
        matrix=matrix,
        b=b,
        rtol=rtol,
        max_steps=max_steps,
        solve_correction=lambda v: SimpleNamespace(
            value=resolve(v), attempts=1, stable=True, saturated=False
        ),
        solver=SimpleNamespace(engine_dispatches=0, cost=CostAccumulator()),
    )


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

        def eta_resolve(r):
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

        def exact_resolve(r):
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

        def never(r):  # pragma: no cover - must not run
            calls.append(r)
            return r

        x, report = refine_solution(
            matrix, b, np.zeros_like(b), never,
            as_rtol_vector(np.array([np.inf, np.inf]), 2),
        )
        assert not calls
        assert report.steps == 0
        assert report.per_column_converged.all()

    def test_rank_deficient_resolve_ends_unconverged_honestly(self):
        """A preconditioner blind to half the space (an analog solve that
        cannot see some directions) cannot meet the target: the solve
        spends its budget and returns, unconverged, with its offenders
        named and its residuals re-measured — it does not raise."""
        matrix, b = self._system()
        blind = np.linalg.inv(matrix)
        blind[4:] = 0.0  # corrections never move the last four unknowns

        result = _refined(
            matrix, b, np.zeros_like(b), lambda r: blind @ r,
            as_rtol_vector(1e-12, b.shape[1]), max_steps=10,
        )
        assert result.converged is False
        assert not result.per_column_converged.any()
        assert result.refine_steps == 10
        assert len(result.refine_residual_trace) == result.refine_steps + 1
        assert 0 < len(result.worst_columns) <= b.shape[1]
        _assert_measured_residuals(matrix, b, result.value, result.per_column_residual)

    def test_budget_exhaustion_returns_honestly(self):
        """A resolve that always answers the same direction makes FGMRES
        stagnate: the budget runs out and the result says so —
        exhaustion is an honest answer, not an exception."""
        matrix, b = self._system()
        direction = np.random.default_rng(2).normal(size=(matrix.shape[0], 1))

        def stuck(r):
            return np.repeat(direction, r.shape[1], axis=1)

        x, report = refine_solution(
            matrix, b, np.zeros_like(b), stuck,
            as_rtol_vector(1e-14, b.shape[1]), max_steps=6,
        )
        assert report.steps == 6
        assert not report.converged
        assert not report.per_column_converged.any()
        _assert_measured_residuals(matrix, b, x, report.per_column_residual)
        # The residual never grows: the trace ends at or below the seed's.
        assert report.residual_trace[-1] <= report.residual_trace[0]

    def test_zero_rhs_column_is_judged_absolutely(self):
        matrix, b = self._system(k=2)
        b[:, 1] = 0.0
        exact_inverse = np.linalg.inv(matrix)
        x, report = refine_solution(
            matrix, b, np.zeros_like(b), lambda r: exact_inverse @ r,
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

    def test_near_singular_operand_ends_unconverged_honestly(self, rng):
        """η·κ ≫ 1: refinement on a near-singular operand cannot meet
        1e-12; it must say so with honest residuals, not claim success
        and not raise."""
        solver = _solver()
        matrix = _near_singular(16, rng)
        b = rng.uniform(-1, 1, (16, 2))
        op = solver.compile(matrix, AMCMode.INV)
        result = op.solve(b, rtol=1e-12)
        assert result.converged is False
        assert not result.per_column_converged.all()
        assert result.worst_columns
        assert result.refine_steps == DEFAULT_MAX_STEPS
        _assert_measured_residuals(matrix, b, result.value, result.per_column_residual)
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

    def test_residual_floor_measured_once_per_refined_solve(self, rng, monkeypatch):
        """The floor describes the returned answer, so an ``rtol`` solve
        measures it once, after refinement — not on the base step too."""
        solver = _solver()
        matrix = block_dominant(64, 32, rng=rng)
        b = rng.uniform(-1, 1, (64, 3))
        op = solver.compile(matrix, AMCMode.INV)
        calls = []
        measure = TiledOperator._residual_floor

        def spy(self, b, value):
            calls.append(value)
            return measure(self, b, value)

        monkeypatch.setattr(TiledOperator, "_residual_floor", spy)
        refined = op.solve(b, rtol=1e-10)
        assert len(calls) == 1
        assert calls[0] is refined.value
        residual = np.linalg.norm(b - matrix @ refined.value) / np.linalg.norm(b)
        assert refined.residual_floor == pytest.approx(residual, rel=1e-6)
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


class TestWishartRidgeOperands:
    """``wishart(n) + ridge·I`` at κ ≈ 2–24, one RHS, default chip (the
    256-unknown operands run on a 2×2 tile grid): every operand meets
    ``rtol=1e-8``, re-checked in float64.  A stationary refinement loop
    (one analog solve per correction) diverges on every row with κ ≥ 8."""

    @pytest.mark.parametrize(
        "n, ridge",
        [(64, 2.0), (64, 0.3), (64, 0.05), (64, 0.01), (256, 2.0), (256, 0.3), (256, 0.05)],
    )
    def test_meets_rtol(self, n, ridge):
        matrix = wishart(n, rng=np.random.default_rng(0)) + ridge * np.eye(n)
        b = np.random.default_rng(1).standard_normal(n)
        with GramcSolver().compile(matrix, AMCMode.INV) as op:
            result = op.solve(b, rtol=1e-8)
        assert result.converged and result.refine_steps <= DEFAULT_MAX_STEPS
        assert np.linalg.norm(b - matrix @ result.value) <= 1e-8 * np.linalg.norm(b)


class TestBitwiseDeterminism:
    def test_refined_columns_are_batch_independent(self):
        """Under column-independent deterministic mode on a noiseless
        stack, a column's *refined* answer must be bitwise identical
        whether it was solved alone or inside a batch — residuals are
        evaluated through the deterministic kernel, and converged-column
        masking must not perturb the survivors.  That holds for every
        per-column field the serve layer scatters to a caller (value,
        residual, verdict), and for the batch's worst residual."""
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

        for seed in (4, 5, 7, 9, 12):
            rng = np.random.default_rng(seed)
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
                assert together.per_column_residual[j] == alone[j].per_column_residual[0]
                assert together.per_column_converged[j] == alone[j].per_column_converged[0]
            assert together.refined_residual == max(a.refined_residual for a in alone)

    def test_columns_out_of_lockstep_match_their_solo_runs(self):
        """The loop's gather/scatter path, bitwise against the view path.

        A block-diagonal operand gives each column its own block and its
        own preconditioner: column 0 meets its target in a few steps,
        column 1 opts out (``inf``), column 2 never meets an unreachable
        target and runs past ``RESTART``, and column 3's preconditioner
        is blind to half its block, so its steps turn unusable and its
        cycle restarts early.  In the batch the columns sit at different
        cycle positions and never form a whole active set; alone, each
        runs in lockstep with itself.  Every column's value, residual and
        verdict must be the same bits either way."""
        rng = np.random.default_rng(3)
        sizes = (6, 6, 40, 8)
        edges = np.cumsum((0,) + sizes)
        n = int(edges[-1])
        matrix = np.zeros((n, n))
        precondition = np.zeros((n, n))
        b = np.zeros((n, len(sizes)))
        for c, (lo, hi) in enumerate(zip(edges, edges[1:])):
            block = _well_conditioned(hi - lo, rng)
            if c == 2:  # eigenvalues spread over three decades
                block += np.diag(np.logspace(0, 3, hi - lo))
            matrix[lo:hi, lo:hi] = block
            inverse = np.linalg.inv(block)
            if c == 2:
                inverse = np.eye(hi - lo) / 30.0  # weak: slow to contract
            elif c == 3:
                inverse[(hi - lo) // 2 :] = 0.0  # blind to half the block
            else:
                inverse = inverse @ (np.eye(hi - lo) + 0.05 * rng.normal(size=inverse.shape))
            precondition[lo:hi, lo:hi] = inverse
            b[lo:hi, c] = rng.normal(size=hi - lo)
        rtol = np.array([1e-12, np.inf, 1e-17, 1e-12])
        max_steps = 45
        widths = []

        def resolve(v):
            # Column by column, each contiguous, so a column's correction
            # never depends on the batch it rides in.
            widths.append(v.shape[1])
            columns = [np.ascontiguousarray(v[:, c]) for c in range(v.shape[1])]
            return np.stack([precondition @ column for column in columns], axis=1)

        with determinism.column_independent_apply(True):
            x, report = refine_solution(
                matrix, b, np.zeros_like(b), resolve, rtol, max_steps=max_steps
            )
            solo = [
                refine_solution(
                    matrix, b[:, [c]], np.zeros((n, 1)), resolve, rtol[[c]],
                    max_steps=max_steps,
                )
                for c in range(len(sizes))
            ]

        assert report.steps == max_steps > RESTART
        assert report.per_column_converged.tolist() == [True, True, False, False]
        assert len(set(widths)) > 1  # columns dropped out of the batch
        for c, (x_alone, alone) in enumerate(solo):
            assert np.array_equal(x[:, c], x_alone[:, 0])
            assert report.per_column_residual[c] == alone.per_column_residual[0]
            assert report.per_column_converged[c] == alone.per_column_converged[0]
