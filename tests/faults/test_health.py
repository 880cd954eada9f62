"""HealthMonitor: earned detection signals and the healing ladder."""

from __future__ import annotations

import numpy as np

from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool, PoolConfig
from repro.core.results import SolveResult
from repro.core.solver import GramcSolver
from repro.faults import DriftOnset, FaultInjector, FaultPlan, StuckCells
from repro.obs.registry import MetricsRegistry
from repro.programming.levels import LevelMap
from repro.system.gramc import GramcChip
from repro.workloads.matrices import block_dominant


def make_stack(plan=None, num_macros=4, n=16, registry=None):
    pool = MacroPool(
        PoolConfig(num_macros=num_macros, rows=n, cols=n),
        rng=np.random.default_rng(5),
    )
    injector = FaultInjector(plan or FaultPlan(), pool, registry=registry)
    solver = GramcSolver(pool=pool, rng=np.random.default_rng(6))
    return pool, injector, solver


def _Result(macro_ids=(0,), **fields) -> SolveResult:
    """A SolveResult carrying only the health-relevant fields."""
    return SolveResult(AMCMode.INV, np.zeros(1), np.zeros(1), macro_ids=macro_ids, **fields)


class _OneBlock:
    """Stands in for a single-array handle: one tile evaluation per attempt."""

    block_count = 1


def test_scores_start_healthy_and_clamp():
    _, injector, _ = make_stack()
    monitor = injector.monitor
    assert monitor.score(0) == 1.0
    monitor.penalize([0], 5.0)
    assert monitor.score(0) == 0.0
    monitor.reward([0], 5.0)
    assert monitor.score(0) == 1.0


def test_detection_is_earned_not_oracled():
    """Silent degradations (drift, stuck cells) leave scores untouched at
    injection time — only the macro-death peripheral check is free."""
    plan = FaultPlan(
        events=(
            DriftOnset(tick=1, macro=0),
            StuckCells(tick=1, macro=1, fraction=0.05),
        )
    )
    _, injector, _ = make_stack(plan)
    injector.advance()
    assert injector.monitor.score(0) == 1.0
    assert injector.monitor.score(1) == 1.0


def test_observe_solve_penalizes_refinement_regressions():
    _, injector, _ = make_stack()
    monitor = injector.monitor
    monitor.observe_solve(
        _OneBlock(), _Result(refine_residual_trace=[1e-6, 1e-3])  # residual grew
    )
    assert monitor.score(0) < 1.0
    before = monitor.score(0)
    monitor.observe_solve(
        _OneBlock(), _Result(per_column_converged=np.array([True, False]))
    )
    assert monitor.score(0) < before


def test_observe_solve_rewards_clean_solves():
    _, injector, _ = make_stack()
    monitor = injector.monitor
    monitor.penalize([0], 0.3)
    degraded = monitor.score(0)
    monitor.observe_solve(_OneBlock(), _Result())
    assert monitor.score(0) > degraded


def test_ranging_retries_are_a_signal():
    _, injector, _ = make_stack()
    monitor = injector.monitor
    monitor.observe_solve(_OneBlock(), _Result(attempts=5))
    assert monitor.score(0) < 1.0


def test_canaries_catch_silent_drift_on_idle_operators():
    """No tenant queries the operator; the canary sweep still notices the
    conductances walked away."""
    plan = FaultPlan(
        seconds_per_tick=36000.0,
        canary_interval=1,
        events=(DriftOnset(tick=1, macro=0),),
    )
    pool, injector, solver = make_stack(plan)
    rng = np.random.default_rng(7)
    a = np.eye(8) * 4 + rng.normal(0, 0.2, (8, 8))
    op = solver.compile(a, AMCMode.INV)
    macro_ids = tuple(op.resident_macro_ids())
    for _ in range(6):
        injector.advance()
    assert injector.monitor.canary_runs >= 1
    assert injector.monitor.canary_failures >= 1
    assert min(injector.monitor.score(m) for m in macro_ids) < 1.0


def test_reverify_heals_drift_in_place():
    """Rung 2: targeted re-verify rewrites only the drifted cells and the
    operator solves accurately again — no quarantine, no migration."""
    plan = FaultPlan(
        seconds_per_tick=36000.0, events=(DriftOnset(tick=1, macro=0),)
    )
    pool, injector, solver = make_stack(plan)
    rng = np.random.default_rng(8)
    a = np.eye(8) * 4 + rng.normal(0, 0.2, (8, 8))
    op = solver.compile(a, AMCMode.INV)
    for _ in range(5):
        injector.advance()
    report = injector.monitor.heal_operator(op)
    assert report["cells_reverified"] > 0
    assert not report["quarantined_macros"]
    b = rng.normal(0, 1, 8)
    result = op.solve(b, rtol=1e-8)
    assert bool(np.all(result.per_column_converged))


def test_heal_quarantines_hopeless_macros_and_operator_migrates():
    """Rung 4: a macro too stuck to re-verify or reprogram is quarantined;
    the operator transparently re-homes onto healthy macros on next use."""
    plan = FaultPlan(events=(StuckCells(tick=1, macro=0, fraction=0.4),))
    pool, injector, solver = make_stack(plan)
    rng = np.random.default_rng(9)
    a = np.eye(8) * 4 + rng.normal(0, 0.2, (8, 8))
    op = solver.compile(a, AMCMode.INV)
    first_home = tuple(op.resident_macro_ids())
    injector.advance()  # 40% of macro 0's cells latch
    report = injector.monitor.heal_operator(op)
    assert 0 in report["quarantined_macros"]
    assert 0 in pool.quarantined
    result = op.solve(rng.normal(0, 1, 8), rtol=1e-6)
    second_home = tuple(op.resident_macro_ids())
    assert 0 not in second_home
    assert second_home != first_home
    assert bool(np.all(result.per_column_converged))


def test_health_scores_export_to_registry():
    registry = MetricsRegistry()
    _, injector, _ = make_stack(registry=registry)
    injector.monitor.penalize([2], 0.25)
    gauge = registry.gauge(
        "gramc_macro_health",
        "Per-macro health score (1 healthy, 0 dead)",
        ("macro",),
    )
    assert gauge.labels("2").value == 0.75


def test_snapshot_carries_the_evidence_trail():
    plan = FaultPlan(events=(StuckCells(tick=1, macro=0, fraction=0.05),))
    _, injector, _ = make_stack(plan)
    injector.advance()
    injector.monitor.penalize([0], 0.5)
    snap = injector.monitor.snapshot()
    assert snap["clock"] == 1
    assert snap["events"][0]["kind"] == "stuck_cells"
    assert snap["scores"][0] == 0.5
    assert snap["quarantined"] == []


def test_fault_free_refined_tiled_solve_earns_a_reward():
    """A healthy 256×256/4×4 refined solve takes ten one-sweep steps;
    judged per sweep (and its attempts per tile evaluation) it is
    healthy evidence."""
    rng = np.random.default_rng(3)
    matrix = block_dominant(256, 64, rng=rng)
    batch = rng.uniform(-1, 1, size=(256, 4))
    chip = GramcChip(
        PoolConfig(num_macros=40, rows=64, cols=64, level_map=LevelMap(num_levels=256)),
        rng=np.random.default_rng(20260808),
        faults=FaultPlan(),
    )
    op = chip.compile(matrix, AMCMode.INV)
    monitor = chip.faults.monitor
    macro_ids = tuple(op.macro_ids)
    monitor.penalize(macro_ids, 0.3)
    before = [monitor.score(m) for m in macro_ids]
    result = op.solve(batch, rtol=1e-10)
    assert result.converged and result.refine_steps >= 10
    after = [monitor.score(m) for m in macro_ids]
    assert all(a > b for a, b in zip(after, before))
