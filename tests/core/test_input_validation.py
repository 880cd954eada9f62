"""Inputs are checked once, at the public entry points.

NaN, infinity and complex values must be refused with a structured error
before any engine call: NaN/inf raises :class:`InputError` (a
``GramcError`` and a ``ValueError``), a complex array raises
``TypeError``.  None of them may leak a library error from inside a
kernel, come back as a NaN answer, or be silently cast to real.  The
same holds for the operand at compile, where an empty matrix is a
:class:`ShapeError`.  A wrong shape, mode, ``rtol`` or tiled ``method``
and a closed handle are refused at the same boundary, and no refusal
writes the ledger, dispatches the engine or ticks the fault clock."""

from __future__ import annotations

import asyncio
import warnings

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.errors import GramcError, InputError, ShapeError
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.core.tiled import TiledOperator
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.serve import ServeConfig, SolveService, TenantQuota
from repro.workloads.matrices import block_dominant

N = 8


def _solver() -> GramcSolver:
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(num_macros=16, rows=16, cols=16), rng=np.random.default_rng(3)
        ),
        rng=np.random.default_rng(4),
    )


def _bad(kind: str, n: int) -> np.ndarray:
    values = np.ones(n)
    if kind == "complex":
        return values + 1j
    values[n // 2] = np.nan if kind == "nan" else np.inf
    return values


#: Compiled handles by kind: (operand, mode, compile options).
HANDLES = {
    "mvm": (2.0 * np.eye(N), AMCMode.MVM, {}),
    "inv": (2.0 * np.eye(N), AMCMode.INV, {}),
    "pinv": (np.eye(2 * N, N) * 2.0, AMCMode.PINV, {}),
    "egv": (2.0 * np.eye(N), AMCMode.EGV, {}),
    "tiled": (block_dominant(24, 8, rng=np.random.default_rng(5)), AMCMode.INV, {"tile": 8}),
}


def _compile(solver, kind: str):
    matrix, mode, options = HANDLES[kind]
    op = solver.compile(matrix, mode, **options)
    assert isinstance(op, TiledOperator) == (kind == "tiled")
    return op


#: Every public entry point that takes a payload:
#: name -> (handle kind, leading dimension, call(op, values, **options)).
ENTRY_POINTS = {
    "mvm": ("mvm", N, lambda op, v: op.mvm(v)),
    "matmul": ("mvm", N, lambda op, v: op @ v),
    "rmatmul": ("mvm", N, lambda op, v: v @ op),
    "solve": ("inv", N, lambda op, v, **kw: op.solve(v, **kw)),
    "solve_rtol": ("inv", N, lambda op, v: op.solve(v, rtol=1e-8)),
    "solve_batch": ("inv", N, lambda op, v, **kw: op.solve(np.stack([v, v], 1), **kw)),
    "lstsq": ("pinv", 2 * N, lambda op, v: op.lstsq(v)),
    "tiled_solve": ("tiled", 24, lambda op, v, **kw: op.solve(v, **kw)),
    "tiled_solve_rtol": ("tiled", 24, lambda op, v: op.solve(v, rtol=1e-8)),
    "tiled_mvm": ("tiled", 24, lambda op, v: op.mvm(v)),
}


@pytest.mark.parametrize("kind", ["nan", "inf", "complex"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_values_are_refused_at_the_entry_point(entry, kind):
    handle, n, call = ENTRY_POINTS[entry]
    op = _compile(_solver(), handle)
    expected = TypeError if kind == "complex" else InputError
    with warnings.catch_warnings():
        # A complex array must never reach a silent real cast.
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        with pytest.raises(expected, match="complex" if kind == "complex" else "NaN"):
            call(op, _bad(kind, n))


def _bad_operand(kind: str) -> np.ndarray:
    if kind == "empty":
        return np.zeros((0, 0))
    matrix = 2.0 * np.eye(N)
    if kind == "complex":
        return matrix + 1j
    matrix[1, 2] = np.nan if kind == "nan" else np.inf
    return matrix


#: Refused compile operands: kind -> (error, message fragment).
OPERAND_REFUSALS = {
    "nan": (InputError, "NaN"),
    "inf": (InputError, "NaN"),
    "complex": (TypeError, "complex"),
    "empty": (ShapeError, "non-empty"),
}


def _service_compile(solver, matrix, mode, **kwargs):
    async def run():
        service = SolveService(solver, ServeConfig())
        service.register_tenant("t", TenantQuota())
        async with service:
            await service.compile("t", matrix, mode, **kwargs)

    asyncio.run(run())


COMPILERS = {
    "solver": lambda solver, matrix, mode, **kw: solver.compile(matrix, mode, **kw),
    "service": _service_compile,
}


@pytest.mark.parametrize("via", sorted(COMPILERS))
@pytest.mark.parametrize(
    "mode, options",
    [(AMCMode.MVM, {}), (AMCMode.INV, {}), (AMCMode.INV, {"tile": 4})],
    ids=["mvm", "inv", "inv_tiled"],
)
@pytest.mark.parametrize("kind", sorted(OPERAND_REFUSALS))
def test_bad_operands_are_refused_at_compile(kind, mode, options, via):
    """A refused compile claims no macro and writes nothing to the ledger."""
    solver = _solver()
    free, before = solver.pool.free_count, solver.cost.snapshot()
    expected, match = OPERAND_REFUSALS[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        with pytest.raises(expected, match=match):
            COMPILERS[via](solver, _bad_operand(kind), mode, **options)
    assert solver.pool.free_count == free
    assert solver.cost.total == before


def test_input_error_is_a_structured_value_error():
    assert issubclass(InputError, GramcError)
    assert issubclass(InputError, ValueError)


def test_refusal_happens_before_any_engine_call():
    solver = _solver()
    op = solver.compile(2.0 * np.eye(N), AMCMode.INV)
    before = solver.cost.snapshot()
    with pytest.raises(InputError):
        op.solve(_bad("nan", N))
    assert solver.cost.total == before


def test_finite_extremes_still_solve():
    """The check is for non-finite values only: huge and tiny finite
    right-hand sides keep solving."""
    solver = _solver()
    op = solver.compile(2.0 * np.eye(N), AMCMode.INV)
    for scale in (1e-300, 1e300):
        result = op.solve(np.full(N, scale), rtol=1e-8)
        assert np.all(np.isfinite(result.value))
        assert result.converged


# ----------------------------------------------------------- refusal matrix
#
# A refused call must leave the chip exactly as it found it: no ledger
# write, no engine dispatch, and — on a chip with a fault plan — no tick
# of the fault clock (a tick fires scheduled faults and drift, so a bad
# argument would otherwise degrade the hardware).


def _fault_solver() -> tuple[GramcSolver, FaultInjector]:
    solver = _solver()
    return solver, FaultInjector(FaultPlan.canonical(), solver.pool)


def _assert_refused(solver, injector, call) -> None:
    before = solver.cost.snapshot()
    dispatches, clock, fired = solver.engine_dispatches, injector.clock, len(injector.log)
    with pytest.raises((GramcError, TypeError)):
        call()
    assert solver.cost.total == before
    assert solver.engine_dispatches == dispatches
    assert (injector.clock, len(injector.log)) == (clock, fired)


#: The handle of the wrong mode for each single-array kind (a tiled grid
#: is INV-only, so it has no wrong mode to be called in).
WRONG_MODE = {"mvm": "inv", "inv": "mvm", "pinv": "inv", "egv": "mvm"}

CALLS = {**ENTRY_POINTS, "eigvec": ("egv", N, lambda op, v: op.eigvec())}


def _refusal_cases():
    for entry, (kind, _, _) in CALLS.items():
        cases = ["closed"] + (["wrong_mode"] if kind in WRONG_MODE else [])
        if entry != "eigvec":
            cases += ["wrong_rows", "3d"]
        for case in cases:
            yield entry, case


@pytest.mark.parametrize("entry, case", sorted(_refusal_cases()))
def test_refusals_leave_the_chip_untouched(entry, case):
    kind, n, call = CALLS[entry]
    solver, injector = _fault_solver()
    op = _compile(solver, WRONG_MODE[kind] if case == "wrong_mode" else kind)
    if case == "closed":
        op.close()
    values = {"wrong_rows": np.ones(n + 1), "3d": np.ones((n, 1, 1))}.get(case, np.ones(n))
    _assert_refused(solver, injector, lambda: call(op, values))


@pytest.mark.parametrize("entry", ["solve", "mvm", "tiled_solve"])
def test_zero_column_calls_return_empty_on_a_faulted_chip(entry):
    """A zero-column batch is accepted under fault supervision and comes
    back empty: the health monitor has nothing to observe in it."""
    kind, n, call = ENTRY_POINTS[entry]
    solver, _ = _fault_solver()
    result = call(_compile(solver, kind), np.zeros((n, 0)))
    assert result.value.shape == (n, 0)
    assert result.columns == 0


BAD_RTOLS = {"zero": 0.0, "negative": -1.0, "nan": np.nan, "wrong_length": np.full(3, 1e-6)}


@pytest.mark.parametrize("rtol", sorted(BAD_RTOLS))
@pytest.mark.parametrize("entry", ["solve", "solve_batch", "solve_empty", "tiled_solve"])
def test_bad_rtol_is_refused_before_the_solve(entry, rtol):
    kind, n, call = ENTRY_POINTS["solve" if entry == "solve_empty" else entry]
    payload = np.zeros((n, 0)) if entry == "solve_empty" else np.ones(n)
    solver, injector = _fault_solver()
    op = _compile(solver, kind)
    _assert_refused(solver, injector, lambda: call(op, payload, rtol=BAD_RTOLS[rtol]))


def test_unknown_tiled_method_is_refused_before_the_solve():
    solver, injector = _fault_solver()
    op = _compile(solver, "tiled")
    _assert_refused(solver, injector, lambda: op.solve(np.ones(24), method="sor"))
