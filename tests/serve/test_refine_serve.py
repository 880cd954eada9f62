"""Mixed-``rtol`` coalescing: the accuracy contract through the serve layer.

Requests with different refinement targets (including none at all) must
share one analog step per window and refine independently: a no-``rtol``
sibling's answer stays bitwise identical to a sequential solve on a twin
chip, while each refining caller gets *its own* contract verdict
(per-column convergence, worst-of-its-columns residual) sliced out of the
window result."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.analog import column_independent_apply
from repro.analog.topologies import AMCMode
from repro.core.errors import ConvergenceError, ShapeError
from repro.serve import ServeError, SolveService, TenantQuota

pytestmark = pytest.mark.asyncio

N = 12


def _problem(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    a = np.eye(N) * 2.0 + rng.normal(0.0, 0.05, (N, N))
    b = rng.normal(0.0, 1.0, (N, 4))
    b /= np.max(np.abs(b), axis=0)
    return a, b


async def test_mixed_rtol_window_refines_independently(solver_twins):
    """One refining client + one plain client in the same window: the
    plain client is bitwise undisturbed, the refining client converges."""
    serve_solver, reference_solver = solver_twins
    rng = np.random.default_rng(11)
    a, b = _problem(rng)

    # Twin reference: the plain client's answer with nobody refining.
    with column_independent_apply():
        with reference_solver.compile(a, AMCMode.INV) as op:
            op.solve(b)  # warm-up
            expected_plain = op.solve(b[:, 3]).value.copy()

    service = SolveService(serve_solver)
    service.register_tenant("precise", TenantQuota())
    service.register_tenant("casual", TenantQuota())
    async with service:
        op = await service.compile("precise", a, AMCMode.INV)
        await service.solve("precise", op, b)  # same warm-up batch
        refine_dispatches = serve_solver.refine_dispatches
        refined, plain = await asyncio.gather(
            service.solve("precise", op, b[:, :3], rtol=1e-10),
            service.solve("casual", op, b[:, 3]),
        )
        refine_dispatches = serve_solver.refine_dispatches - refine_dispatches
    # The window coalesced: one batched engine call carried both.
    assert service.stats.engine_calls == 2  # warm-up + the window
    assert refined.refined_residual <= 1e-10
    assert refined.refine_steps > 0
    assert refined.per_column_converged.shape == (3,)
    assert refined.per_column_converged.all()
    # The casual sibling: no refine metadata, bitwise-identical answer.
    assert plain.refine_steps is None
    assert plain.per_column_converged is None
    assert np.array_equal(plain.value, expected_plain)
    # Refinement is billed to the caller that contracted for it: the
    # plain rider pays none of the window's refine work.
    assert refine_dispatches > 0
    assert refined.cost.refine_dispatches == refine_dispatches
    assert plain.cost.refine_dispatches == 0
    assert plain.cost.refine_steps == 0
    assert plain.cost.refine_macs == 0


async def test_each_refining_caller_gets_its_own_verdict(solver_twins):
    serve_solver, _ = solver_twins
    rng = np.random.default_rng(12)
    a, b = _problem(rng)
    service = SolveService(serve_solver)
    service.register_tenant("tight", TenantQuota())
    service.register_tenant("loose", TenantQuota())
    async with service:
        op = await service.compile("tight", a, AMCMode.INV)
        await service.solve("tight", op, b)  # warm-up
        tight, loose = await asyncio.gather(
            service.solve("tight", op, b[:, :2], rtol=1e-10),
            service.solve("loose", op, b[:, 2:], rtol=1e-4),
        )
    assert tight.refined_residual <= 1e-10
    assert loose.refined_residual <= 1e-4
    assert tight.per_column_converged.shape == (2,)
    assert loose.per_column_converged.shape == (2,)
    assert tight.per_column_residual.max() <= 1e-10
    # The loose caller's verdict is its own, not the window's worst.
    assert loose.refined_residual >= tight.refined_residual


async def test_unmet_rtol_fails_only_its_own_request(solver_twins):
    """A refining request whose columns miss their rtol gets a structured
    ConvergenceError (its own worst columns, the residual trace) and bumps
    its tenant's ``failed`` count; a refining sibling that met its target
    and an rtol-less rider in the same window are answered normally."""
    serve_solver, _ = solver_twins
    rng = np.random.default_rng(16)
    a, b = _problem(rng)
    service = SolveService(serve_solver)
    for tenant in ("tight", "loose", "casual"):
        service.register_tenant(tenant, TenantQuota())
    async with service:
        op = await service.compile("tight", a, AMCMode.INV)
        await service.solve("tight", op, b)  # warm-up
        calls = service.stats.engine_calls
        tight, loose, casual = await asyncio.gather(
            # 1e-18 is below float64 rounding: no solver can meet it.
            service.solve("tight", op, b[:, :2], rtol=1e-18),
            service.solve("loose", op, b[:, 2], rtol=1e-8),
            service.solve("casual", op, b[:, 3]),
            return_exceptions=True,
        )
        assert service.stats.engine_calls == calls + 1  # one window
    assert isinstance(tight, ConvergenceError)
    assert tight.worst_columns and set(tight.worst_columns) <= {0, 1}
    assert tight.steps is not None and tight.steps > 0
    assert len(tight.residual_trace) == tight.steps + 1
    assert loose.per_column_converged.all() and loose.refined_residual <= 1e-8
    assert casual.per_column_converged is None
    assert service.stats.tenant("tight").failed == 1
    assert service.stats.tenant("loose").failed == 0
    assert service.stats.tenant("casual").failed == 0


async def test_vector_request_with_rtol_squeezes_back(solver_twins):
    serve_solver, _ = solver_twins
    rng = np.random.default_rng(13)
    a, b = _problem(rng)
    service = SolveService(serve_solver)
    service.register_tenant("v", TenantQuota())
    async with service:
        op = await service.compile("v", a, AMCMode.INV)
        result = await service.solve("v", op, b[:, 0], rtol=1e-8)
    assert result.value.shape == (N,)
    assert result.per_column_converged.shape == (1,)
    assert result.refined_residual <= 1e-8


async def test_rtol_rejected_for_non_solve_kinds(solver_twins):
    serve_solver, _ = solver_twins
    rng = np.random.default_rng(14)
    a, b = _problem(rng)
    service = SolveService(serve_solver)
    service.register_tenant("t", TenantQuota())
    async with service:
        op = await service.compile("t", a, AMCMode.MVM)
        with pytest.raises(ServeError, match="refinement contract"):
            await service.submit("t", op, "mvm", b[:, 0], rtol=1e-8)


async def test_bad_rtol_rejected_in_caller_context(solver_twins):
    """A malformed rtol fails the submit itself — it must never reach a
    window where it could poison coalesced siblings."""
    serve_solver, _ = solver_twins
    rng = np.random.default_rng(15)
    a, b = _problem(rng)
    service = SolveService(serve_solver)
    service.register_tenant("t", TenantQuota())
    async with service:
        op = await service.compile("t", a, AMCMode.INV)
        with pytest.raises(ShapeError):
            await service.solve("t", op, b[:, :2], rtol=np.array([1e-8] * 3))
        with pytest.raises(ValueError):
            await service.solve("t", op, b[:, 0], rtol=-1e-8)
        # The service is still healthy after the rejected submits.
        ok = await service.solve("t", op, b[:, 0], rtol=1e-6)
        assert ok.refined_residual <= 1e-6
