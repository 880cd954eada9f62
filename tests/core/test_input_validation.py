"""Inputs are checked once, at the public entry points.

NaN, infinity and complex values must be refused with a structured error
before any engine call: NaN/inf raises :class:`InputError` (a
``GramcError`` and a ``ValueError``), a complex array raises
``TypeError``.  None of them may leak a library error from inside a
kernel, come back as a NaN answer, or be silently cast to real."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.errors import GramcError, InputError
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.core.tiled import TiledOperator
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


def _entry_points():
    """(name, call(solver, values)) for every public entry point."""
    eye = 2.0 * np.eye(N)
    grid = block_dominant(24, 8, rng=np.random.default_rng(5))
    tall = np.eye(2 * N, N) * 2.0

    def tiled(solver):
        op = solver.compile(grid, AMCMode.INV, tile=8)
        assert isinstance(op, TiledOperator)
        return op

    return {
        "mvm": (N, lambda s, v: s.compile(eye).mvm(v)),
        "matmul": (N, lambda s, v: s.compile(eye) @ v),
        "rmatmul": (N, lambda s, v: v @ s.compile(eye)),
        "solve": (N, lambda s, v: s.compile(eye, AMCMode.INV).solve(v)),
        "solve_rtol": (
            N, lambda s, v: s.compile(eye, AMCMode.INV).solve(v, rtol=1e-8)
        ),
        "solve_batch": (
            N, lambda s, v: s.compile(eye, AMCMode.INV).solve(np.stack([v, v], 1))
        ),
        "lstsq": (2 * N, lambda s, v: s.compile(tall, AMCMode.PINV).lstsq(v)),
        "tiled_solve": (24, lambda s, v: tiled(s).solve(v)),
        "tiled_solve_rtol": (24, lambda s, v: tiled(s).solve(v, rtol=1e-8)),
        "tiled_mvm": (24, lambda s, v: tiled(s).mvm(v)),
    }


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("kind", ["nan", "inf", "complex"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_values_are_refused_at_the_entry_point(entry, kind):
    n, call = ENTRY_POINTS[entry]
    solver = _solver()
    expected = TypeError if kind == "complex" else InputError
    with warnings.catch_warnings():
        # A complex array must never reach a silent real cast.
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        with pytest.raises(expected, match="complex" if kind == "complex" else "NaN"):
            call(solver, _bad(kind, n))


def test_input_error_is_a_structured_value_error():
    assert issubclass(InputError, GramcError)
    assert issubclass(InputError, ValueError)


def test_refusal_happens_before_any_engine_call():
    solver = _solver()
    op = solver.compile(2.0 * np.eye(N), AMCMode.INV)
    dispatches = solver.engine_dispatches
    counts = dict(solver.solve_counts)
    with pytest.raises(InputError):
        op.solve(_bad("nan", N))
    assert solver.engine_dispatches == dispatches
    assert solver.solve_counts == counts


def test_finite_extremes_still_solve():
    """The check is for non-finite values only: huge and tiny finite
    right-hand sides keep solving."""
    solver = _solver()
    op = solver.compile(2.0 * np.eye(N), AMCMode.INV)
    for scale in (1e-300, 1e300):
        result = op.solve(np.full(N, scale), rtol=1e-8)
        assert np.all(np.isfinite(result.value))
        assert result.converged
