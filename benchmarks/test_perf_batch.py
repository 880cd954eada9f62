"""Batched-engine throughput: 64-RHS MVM and INV through one circuit.

The acceptance bar for the batched execution engine:

* a 64-column batched 32×32 MVM must beat the seed-style column loop by
  ≥ 10× wall clock;
* a batched INV solve must perform **exactly one** ``np.linalg.eig`` per
  tile per programming event (the persistent-circuit contract), asserted
  via the engine's eig counter;

and the measured numbers land in ``BENCH_batch.json`` at the repo root so
CI can archive throughput over time.  Sizes are deliberately small — this
doubles as the CI smoke step.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.analog import dynamics
from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.obs.report import solve_breakdown
from repro.workloads.matrices import wishart

_REPO_ROOT = Path(__file__).resolve().parents[1]
_BENCH_JSON = _REPO_ROOT / "BENCH_batch.json"

_SIZE = 32
_COLUMNS = 64
_LOOP_REPEATS = 2
_BATCH_REPEATS = 10


def _solver() -> GramcSolver:
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(num_macros=8, rows=_SIZE, cols=_SIZE),
            rng=np.random.default_rng(20260729),
        ),
        rng=np.random.default_rng(17),
    )


_MIN_SPEEDUP = 10.0
_MVM_RELATIVE_ERROR_MAX = 0.35
_INV_RELATIVE_ERROR_MAX = 0.6
_EIGS_PER_PROGRAMMING_EVENT = 1


@pytest.fixture(scope="module")
def bench_payload(write_bench):
    payload: dict = {
        "config": {
            "matrix": f"{_SIZE}x{_SIZE}",
            "columns": _COLUMNS,
            "loop_repeats": _LOOP_REPEATS,
            "batch_repeats": _BATCH_REPEATS,
        },
        "invariants": {
            "min_speedup": _MIN_SPEEDUP,
            "mvm_relative_error_max": _MVM_RELATIVE_ERROR_MAX,
            "inv_relative_error_max": _INV_RELATIVE_ERROR_MAX,
            "eigs_per_programming_event": _EIGS_PER_PROGRAMMING_EVENT,
        },
        "results": {},
    }
    yield payload
    write_bench(_BENCH_JSON, payload)


def test_perf_batch_mvm(bench_payload, best_of):
    """64-RHS MVM: one engine call vs the seed's 64 column calls."""
    rng = np.random.default_rng(1)
    matrix = rng.uniform(-1, 1, size=(_SIZE, _SIZE))
    batch = rng.uniform(-1, 1, size=(_SIZE, _COLUMNS))

    solver = _solver()
    op = solver.compile(matrix)
    op.mvm(batch)  # warm the resident circuit + ranging

    t_batch = best_of(_BATCH_REPEATS, lambda: op.mvm(batch))

    def column_loop():
        for j in range(_COLUMNS):
            op.mvm(batch[:, j])

    column_loop()  # warm the vector-path ranging state
    t_loop = best_of(_LOOP_REPEATS, column_loop)

    result = op.mvm(batch)
    speedup = t_loop / t_batch
    bench_payload["results"]["mvm"] = {
        "batch_seconds": t_batch,
        "column_loop_seconds": t_loop,
        "speedup": speedup,
        "columns_per_second": _COLUMNS / t_batch,
        "relative_error": result.relative_error,
    }
    print(
        f"\nMVM {_SIZE}x{_SIZE}, {_COLUMNS} RHS: batch {t_batch * 1e3:.2f} ms, "
        f"column loop {t_loop * 1e3:.2f} ms -> {speedup:.1f}x"
    )
    assert result.relative_error < _MVM_RELATIVE_ERROR_MAX
    assert speedup >= _MIN_SPEEDUP


def test_perf_batch_inv(bench_payload, best_of):
    """64-RHS INV solve: one settling event, one eig per programming event."""
    rng = np.random.default_rng(2)
    matrix = wishart(_SIZE, rng=rng) + 0.6 * np.eye(_SIZE)
    batch = rng.uniform(-1, 1, size=(_SIZE, _COLUMNS))

    solver = _solver()
    op = solver.compile(matrix, AMCMode.INV)

    eig_before = dynamics.eig_call_count()
    first = op.solve(batch)
    eigs_first = dynamics.eig_call_count() - eig_before
    # One tile, freshly programmed: exactly one decomposition, shared by
    # all 64 columns and every ranging attempt.
    assert eigs_first == 1

    t_batch = best_of(_BATCH_REPEATS, lambda: op.solve(batch))
    assert dynamics.eig_call_count() - eig_before == 1  # still the same one

    reference = np.linalg.inv(matrix) @ batch
    t_loop = best_of(
        _LOOP_REPEATS, lambda: op._batched(batch, op.solve, reference)
    )

    speedup = t_loop / t_batch
    bench_payload["results"]["inv"] = {
        "batch_seconds": t_batch,
        "column_loop_seconds": t_loop,
        "speedup": speedup,
        "columns_per_second": _COLUMNS / t_batch,
        "relative_error": first.relative_error,
        "eigs_per_programming_event": eigs_first,
    }
    # Where one steady-state batched INV solve spends its modeled
    # time/energy — re-validated arithmetically by check_invariants.py.
    bench_payload["breakdown"] = solve_breakdown(op.solve(batch))
    print(
        f"\nINV {_SIZE}x{_SIZE}, {_COLUMNS} RHS: batch {t_batch * 1e3:.2f} ms, "
        f"column loop {t_loop * 1e3:.2f} ms -> {speedup:.1f}x "
        f"({eigs_first} eig per programming event)"
    )
    assert first.relative_error < _INV_RELATIVE_ERROR_MAX
    assert speedup >= _MIN_SPEEDUP
