"""Blocked-engine throughput: a 256-unknown solve on a 4×4 tile grid.

The direct INV topology stops at one array (64 unknowns in this bench's
pool); the blocked :class:`TiledOperator` engine breaks that wall by
sweeping block-Jacobi / block-Gauss-Seidel updates across a grid of INV
diagonal tiles and MVM coupling tiles.  The acceptance bar:

* a 64-column blocked solve must beat the per-column loop by ≥ 5× wall
  clock (every per-tile step is one batched engine call, not k of them);
* relative error ≤ 0.05 against ``np.linalg.solve`` (8-bit level map);
* **zero reprogramming events per solve** — the grid is programmed once
  and pinned, and repeated solves must not touch a single conductance.

Measured numbers land in ``BENCH_blocked.json`` at the repo root with the
invariants embedded, so CI can archive throughput over time and
re-validate the claims straight from the artifact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.obs.report import solve_breakdown
from repro.programming.levels import LevelMap
from repro.workloads.matrices import block_dominant

_REPO_ROOT = Path(__file__).resolve().parents[1]
_BENCH_JSON = _REPO_ROOT / "BENCH_blocked.json"

_SIZE = 256
_TILE = 64
_COLUMNS = 64
_LEVELS = 256
_BATCH_REPEATS = 3

_MIN_SPEEDUP = 5.0
_MAX_RELATIVE_ERROR = 0.05
_REPROGRAMMING_EVENTS = 0


def _solver() -> GramcSolver:
    # 40 macros of 64×64: the 4×4 grid needs 32 (every block is a
    # paired-array differential plane pair), leaving headroom.  The 8-bit
    # level map is the accuracy knob: 16 levels would bury the 5 % bar
    # under quantization noise alone.
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(
                num_macros=40,
                rows=_TILE,
                cols=_TILE,
                level_map=LevelMap(num_levels=_LEVELS),
            ),
            rng=np.random.default_rng(20260729),
        ),
        rng=np.random.default_rng(17),
    )


@pytest.fixture(scope="module")
def bench_payload(write_bench):
    payload: dict = {
        "config": {
            "matrix": f"{_SIZE}x{_SIZE}",
            "tile": _TILE,
            "grid": f"{_SIZE // _TILE}x{_SIZE // _TILE}",
            "columns": _COLUMNS,
            "levels": _LEVELS,
            "batch_repeats": _BATCH_REPEATS,
        },
        "invariants": {
            "min_speedup": _MIN_SPEEDUP,
            "relative_error_max": _MAX_RELATIVE_ERROR,
            "reprogramming_events_per_solve": _REPROGRAMMING_EVENTS,
        },
        "results": {},
    }
    yield payload
    write_bench(_BENCH_JSON, payload)


def test_perf_blocked_inv(bench_payload, best_of):
    """256×256 blocked solve, 64 RHS: batch pipeline vs per-column loop."""
    rng = np.random.default_rng(3)
    matrix = block_dominant(_SIZE, _TILE, rng=rng)
    batch = rng.uniform(-1, 1, size=(_SIZE, _COLUMNS))
    vector = batch[:, 0].copy()

    solver = _solver()
    op = solver.compile(matrix, AMCMode.INV)
    assert op.grid == (_SIZE // _TILE, _SIZE // _TILE)

    first = op.solve(batch)  # warm the resident circuits + ranging
    events_before = op.program_events

    t_vector = best_of(_BATCH_REPEATS, lambda: op.solve(vector))
    t_batch = best_of(_BATCH_REPEATS, lambda: op.solve(batch))

    def column_loop():
        for j in range(_COLUMNS):
            op.solve(batch[:, j])

    t_loop = best_of(1, column_loop)
    reprogramming = op.program_events - events_before

    result = op.solve(batch)
    speedup = t_loop / t_batch
    bench_payload["results"]["blocked_inv"] = {
        "vector_seconds": t_vector,
        "batch_seconds": t_batch,
        "column_loop_seconds": t_loop,
        "speedup": speedup,
        "columns_per_second": _COLUMNS / t_batch,
        "relative_error": result.relative_error,
        "sweeps": result.sweeps,
        "residual_floor": result.residual_floor,
        "reprogramming_events_per_solve": reprogramming,
        "macros": op.macros,
    }
    # Where one steady-state blocked solve spends its modeled time/energy
    # — re-validated arithmetically by check_invariants.py.
    bench_payload["breakdown"] = solve_breakdown(result)
    print(
        f"\nblocked INV {_SIZE}x{_SIZE} on a {op.grid[0]}x{op.grid[1]} grid, "
        f"{_COLUMNS} RHS: batch {t_batch * 1e3:.1f} ms, column loop "
        f"{t_loop * 1e3:.1f} ms -> {speedup:.1f}x "
        f"({result.sweeps} sweeps, residual floor {result.residual_floor:.4f}, "
        f"{reprogramming} reprogramming events)"
    )
    assert result.relative_error <= _MAX_RELATIVE_ERROR
    assert reprogramming == _REPROGRAMMING_EVENTS
    assert speedup >= _MIN_SPEEDUP
    assert first.relative_error <= 2 * _MAX_RELATIVE_ERROR
    op.close()
