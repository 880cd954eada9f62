"""FaultInjector: the logical clock, event firing, drift, and supervision."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.errors import DegradedChipError, ShapeError
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.faults import (
    DriftOnset,
    FaultInjector,
    FaultPlan,
    LineOpen,
    MacroDeath,
    StuckCells,
)


def make_pool(num_macros: int = 4, n: int = 16) -> MacroPool:
    return MacroPool(
        PoolConfig(num_macros=num_macros, rows=n, cols=n),
        rng=np.random.default_rng(3),
    )


def test_clock_advances_once_per_outer_operation():
    injector = FaultInjector(FaultPlan(), make_pool())
    assert injector.clock == 0 and not injector.busy
    with injector.operation():
        assert injector.busy
        with injector.operation():  # nested: a tiled block step / canary
            assert injector.clock == 1
        assert injector.clock == 1
    with injector.operation():
        pass
    assert injector.clock == 2 and not injector.busy


def test_events_fire_on_schedule_and_are_logged():
    pool = make_pool()
    plan = FaultPlan(
        seed=11,
        events=(
            StuckCells(tick=1, macro=0, fraction=0.05),
            LineOpen(tick=2, macro=1, axis=1, index=3),
        ),
    )
    injector = FaultInjector(plan, pool)
    injector.advance()
    assert [e["kind"] for e in injector.log] == ["stuck_cells"]
    assert pool.macros[0].array.fault_fraction() > 0.0
    injector.advance()
    assert [e["kind"] for e in injector.log] == ["stuck_cells", "line_open"]
    # A whole column of macro 1 reads open.
    faults = pool.macros[1].array._faults
    assert np.all(faults[:, 3] == -1)


def test_stuck_cells_are_deterministic_under_the_plan_seed():
    def fault_mask(seed):
        pool = make_pool()
        injector = FaultInjector(
            FaultPlan(seed=seed, events=(StuckCells(tick=1, macro=0, fraction=0.1),)),
            pool,
        )
        injector.advance()
        return pool.macros[0].array._faults.copy()

    assert np.array_equal(fault_mask(42), fault_mask(42))
    assert not np.array_equal(fault_mask(42), fault_mask(43))


def test_drift_moves_stored_conductances_and_bumps_version():
    pool = make_pool()
    array = pool.macros[0].array
    array.program_targets(np.full(array.shape, 50e-6))
    before = array.stored_conductances().copy()
    version_before = array.version
    plan = FaultPlan(
        seconds_per_tick=3600.0, events=(DriftOnset(tick=1, macro=0),)
    )
    injector = FaultInjector(plan, pool)
    injector.advance(3)
    after = array.stored_conductances()
    assert array.version > version_before  # resident circuits invalidate
    assert not np.allclose(before, after)


def test_reprogram_rebaselines_drift():
    """A write-verify pass refreshes the filaments: drift restarts from
    the fresh conductances instead of compounding the stale baseline."""
    pool = make_pool()
    array = pool.macros[0].array
    targets = np.full(array.shape, 50e-6)
    array.program_targets(targets)
    plan = FaultPlan(
        seconds_per_tick=36000.0, events=(DriftOnset(tick=1, macro=0),)
    )
    injector = FaultInjector(plan, pool)
    injector.advance(4)
    drifted = array.stored_conductances().copy()
    array.program_targets(targets)  # heal rung 3: full reprogram
    injector.advance()  # re-baselines; elapsed=0 for the fresh write
    fresh = array.stored_conductances()
    assert np.abs(fresh - targets).mean() < np.abs(drifted - targets).mean()


def test_macro_death_quarantines_and_migrates():
    pool = make_pool(num_macros=4)
    plan = FaultPlan(events=(MacroDeath(tick=1, macro=0),))
    injector = FaultInjector(plan, pool)
    evicted = []
    pool.acquire("victim", 1, on_evict=evicted.append)
    assert pool.macros[0] in [pool.macros[i] for i in pool._owners["victim"]]
    injector.advance()
    assert 0 in pool.quarantined
    assert evicted == ["victim"]  # handle marked stale -> re-homes on next use
    assert injector.monitor.score(0) == 0.0
    # The dead macro never returns through acquire.
    grants = pool.acquire("next", 3)
    assert pool.macros[0] not in grants


def test_supervised_solve_heals_and_raises_structured_error():
    pool = make_pool()
    injector = FaultInjector(FaultPlan(), pool)

    class FakeOperator:
        key = "fake-operator"
        mode = AMCMode.INV
        resident = False  # heal ladder counts it as a migration

        def tile_handles(self):
            return [self]

    attempts = []

    def failing_attempt():
        attempts.append(1)

        class R:
            per_column_converged = np.array([False])
            macro_ids = ()

        return R()

    with pytest.raises(DegradedChipError) as excinfo:
        injector.supervised_solve(FakeOperator(), failing_attempt, rtol=1e-8)
    assert len(attempts) == 2  # exactly one retry after healing
    error = excinfo.value
    assert error.health is not None and "scores" in error.health
    assert error.healing is not None and error.healing["migrated_tiles"] >= 1


def test_chip_level_wiring_reaches_operator_solves():
    """GramcChip(faults=...) ticks the clock once per accepted top-level
    solve — including every block step of a tiled solve under one tick;
    a refused call does not tick it."""
    from repro.system.gramc import GramcChip

    rng = np.random.default_rng(0)
    a = np.eye(8) * 4 + rng.normal(0, 0.2, (8, 8))
    chip = GramcChip(
        PoolConfig(num_macros=4, rows=16, cols=16), faults=FaultPlan()
    )
    op = chip.compile(a, AMCMode.INV)
    for expected in (1, 2, 3):
        op.solve(rng.normal(0, 1, 8))
        assert chip.clock == expected
        with pytest.raises(ShapeError):
            op.solve(np.ones(5))
        assert chip.clock == expected


def test_env_variable_wires_a_plan(monkeypatch):
    from repro.system.gramc import GramcChip

    monkeypatch.setenv("REPRO_FAULTS", "canonical")
    chip = GramcChip(PoolConfig(num_macros=4, rows=16, cols=16))
    assert chip.faults is not None
    assert chip.faults.plan == FaultPlan.canonical()
    monkeypatch.delenv("REPRO_FAULTS")
    assert GramcChip(PoolConfig(num_macros=4, rows=16, cols=16)).faults is None


def test_solver_binding_enables_canaries():
    pool = make_pool()
    injector = FaultInjector(FaultPlan(canary_interval=1), pool)
    solver = GramcSolver(pool=pool, rng=np.random.default_rng(1))
    assert solver.health_monitor is injector.monitor
    rng = np.random.default_rng(2)
    a = np.eye(8) * 4 + rng.normal(0, 0.2, (8, 8))
    op = solver.compile(a, AMCMode.INV)
    op.solve(rng.normal(0, 1, 8))
    # The canary sweep ran on the resident operator during the tick.
    assert injector.monitor.canary_runs >= 1
