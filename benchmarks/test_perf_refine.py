"""Iterative-refinement accuracy/perf smoke: ``solve(rtol=...)`` as a contract.

The blocked analog engine stalls at an O(η·κ) residual floor (~4e-2 on
this bench's 256×256 / 4×4-grid system — see ``BENCH_blocked.json``).
Digital refinement (:mod:`repro.core.refine`) turns that floor into a
*contract*: measure the float64 residual, precondition a flexible-GMRES
step with one sweep on the already-programmed grid, repeat.  The acceptance bars:

* ``solve(rtol=1e-10)`` must actually deliver ≤ 1e-10 — a residual
  improvement of ≥ 10⁶ over the raw analog floor;
* **zero reprogramming events** across the whole refined solve — every
  correction re-solve rides the resident grid;
* the per-step residual trace must contract geometrically (each step
  strictly below the floor of the step before it);
* refinement cost is bounded by a deterministic counter, not a clock:
  the engine dispatches the corrections spend stay at most a third of
  the 815 that tolerance-swept corrections used to take on this system.
  The flexible-GMRES loop (one preconditioning sweep per step) runs it
  in 100.

Measured numbers land in ``BENCH_refine.json`` with the invariants
embedded, so CI re-validates the accuracy claim from the artifact itself
(``benchmarks/check_invariants.py``).  One refined solve is also traced,
and ``host_split`` records where its host time went: self-time of the
``refine_step`` spans (the FGMRES host loop and the correction
bookkeeping around each sweep), of the sweeps and engine dispatches, and
of the rest (the tiled solve around them) — each no more than the traced
wall, which the invariant check re-verifies; no wall-clock bound.
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
_BENCH_JSON = _REPO_ROOT / "BENCH_refine.json"

_SIZE = 256
_TILE = 64
_COLUMNS = 32
_LEVELS = 256
_RTOL = 1e-10
_REPEATS = 2

_MIN_IMPROVEMENT = 1e6
_REPROGRAMMING_EVENTS = 0
_TOLERANCE_SWEPT_DISPATCHES = 815
"""Refine dispatches of this solve when every correction was a blocked
solve swept to ``tolerance=1e-3`` (up to 40 sweeps each)."""
_MAX_REFINE_DISPATCHES = _TOLERANCE_SWEPT_DISPATCHES // 3


_SWEEP_LAYERS = ("grid_engine", "backend")
"""Layers of the ``sweep`` and ``engine_dispatch`` spans (perfbench's
``layer_of``)."""


def _host_split(layers: dict[str, float], wall: float) -> dict:
    """A traced solve's host self-time, split around its refine steps."""
    refine_step = layers.pop("refine", 0.0)
    sweep_engine = sum(layers.pop(layer, 0.0) for layer in _SWEEP_LAYERS)
    return {
        "refine_step_s": refine_step,
        "sweep_engine_s": sweep_engine,
        "rest_s": sum(layers.values()),
        "traced_wall_s": wall,
    }


def _solver() -> GramcSolver:
    # Same chip sizing as the blocked bench: 40 macros of 64×64 with an
    # 8-bit level map — the analog floor this bench starts from is the
    # floor BENCH_blocked.json records.
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
            "rtol": _RTOL,
        },
        "invariants": {
            "min_refined_residual_improvement": _MIN_IMPROVEMENT,
            "reprogramming_events_per_solve": _REPROGRAMMING_EVENTS,
            "refined_residual_max": _RTOL,
            "max_refine_dispatches": _MAX_REFINE_DISPATCHES,
        },
        "results": {},
    }
    yield payload
    write_bench(_BENCH_JSON, payload)


def test_perf_refined_blocked_solve(bench_payload, best_of, traced_layers):
    """256×256 blocked solve refined from the analog floor to 1e-10."""
    rng = np.random.default_rng(3)
    matrix = block_dominant(_SIZE, _TILE, rng=rng)
    batch = rng.uniform(-1, 1, size=(_SIZE, _COLUMNS))

    solver = _solver()
    op = solver.compile(matrix, AMCMode.INV)
    assert op.grid == (_SIZE // _TILE, _SIZE // _TILE)

    op.solve(batch)  # warm the resident circuits + ranging

    def residual(x: np.ndarray) -> float:
        return float(
            np.linalg.norm(batch - matrix @ x) / np.linalg.norm(batch)
        )

    analog = op.solve(batch)
    analog_floor = residual(analog.value)

    events_before = op.program_events
    dispatches_before = solver.refine_dispatches
    refined = op.solve(batch, rtol=_RTOL)
    reprogramming = op.program_events - events_before
    refine_dispatches = solver.refine_dispatches - dispatches_before

    achieved = residual(refined.value)
    improvement = analog_floor / max(achieved, np.finfo(float).tiny)

    t_analog = best_of(_REPEATS, lambda: op.solve(batch))
    t_refined = best_of(_REPEATS, lambda: op.solve(batch, rtol=_RTOL))
    host_split = _host_split(*traced_layers(lambda: op.solve(batch, rtol=_RTOL)))

    bench_payload["results"]["refined_blocked_inv"] = {
        "analog_floor": analog_floor,
        "refined_residual": refined.refined_residual,
        "achieved_residual": achieved,
        "residual_improvement": improvement,
        "refine_steps": refined.refine_steps,
        "sweeps": refined.sweeps,
        "refine_dispatches": refine_dispatches,
        "residual_trace": list(refined.refine_residual_trace),
        "analog_seconds": t_analog,
        "refined_seconds": t_refined,
        "refined_over_analog": t_refined / t_analog,
        "reprogramming_events_per_solve": reprogramming,
        "macros": op.macros,
        "host_split": host_split,
    }
    # Where the refined solve spends its modeled time/energy — refinement
    # must show up as separately-attributed digital work.
    bench_payload["breakdown"] = solve_breakdown(refined)
    print(
        f"\nrefined blocked INV {_SIZE}x{_SIZE}, {_COLUMNS} RHS: analog "
        f"floor {analog_floor:.2e} -> {achieved:.2e} in "
        f"{refined.refine_steps} steps ({improvement:.1e}x better, "
        f"{reprogramming} reprogramming events; refined solve "
        f"{t_refined / t_analog:.1f}x the analog wall-clock)"
    )

    # The contract itself.
    assert refined.refined_residual <= _RTOL
    assert achieved <= 10 * _RTOL  # independent float64 re-measurement
    assert bool(refined.per_column_converged.all())
    assert improvement >= _MIN_IMPROVEMENT

    # Program once, refine many: corrections never touch a conductance.
    assert reprogramming == _REPROGRAMMING_EVENTS
    assert refine_dispatches > 0  # the work split is observable

    # Geometric contraction: every step strictly improves on the last.
    trace = refined.refine_residual_trace
    assert all(later < earlier for earlier, later in zip(trace, trace[1:]))

    # Refinement cost, counted: corrections are sweeps, not full solves.
    assert refine_dispatches <= _MAX_REFINE_DISPATCHES
    op.close()
