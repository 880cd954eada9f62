"""The fault injector: a seeded degradation engine over one macro pool.

The injector owns the chip's **logical clock**.  Operator handles enter
:meth:`FaultInjector.operation` once per accepted top-level call; the
outermost entry advances the clock by one tick, fires every scheduled
:class:`~repro.faults.plan.FaultPlan` event that came due, and re-applies
retention drift to every drifting macro.  Nested entries (a tiled solve
delegating to a block handle, a canary, a healing retry) never re-advance
— the substrate is frozen for the duration of one logical operation, so
the numerics the layers above reason about stay consistent.

Every perturbation lands through the crossbar's physics-path injection
API (``inject_conductances`` / ``inject_stuck_faults``), which bumps the
array ``version`` — the same invalidation signal programming uses — so
resident macro circuits and grid-engine stack slices rebuild themselves
on exactly the affected tiles, with no fault-specific cache plumbing.

With no plan configured nothing here is ever constructed; the fault-free
path stays bitwise identical to a build without this package.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.errors import ConvergenceError, DegradedChipError
from repro.faults.health import HealthMonitor
from repro.faults.plan import (
    DriftOnset,
    FaultPlan,
    LineOpen,
    MacroDeath,
    StuckCells,
)
from repro.obs import trace


class FaultInjector:
    """Applies one :class:`FaultPlan` to one pool, tick by logical tick."""

    def __init__(
        self,
        plan: FaultPlan,
        pool,
        *,
        monitor: HealthMonitor | None = None,
        registry=None,
    ):
        self.plan = plan
        self.pool = pool
        self.clock = 0
        self.rng = np.random.default_rng(plan.seed)
        self.monitor = monitor or HealthMonitor(pool, plan=plan, registry=registry)
        self.monitor.bind_injector(self)
        self.log: list[dict] = []
        """Chronological record of every fired event (kind, macro, tick,
        and per-kind detail) — the evidence trail in health snapshots."""
        self._pending = sorted(
            plan.events, key=lambda event: event.tick
        )
        self._drift: dict[int, dict] = {}
        self._depth = 0
        pool.fault_injector = self

    # ----------------------------------------------------------------- the clock

    @property
    def busy(self) -> bool:
        """Whether a logical operation is already in flight.  Operator
        entry points check this to run nested calls (tiled block steps,
        canaries, healing retries) bare instead of re-supervising them."""
        return self._depth > 0

    @contextmanager
    def operation(self):
        """One logical chip operation; the outermost entry ticks the clock."""
        self._depth += 1
        try:
            if self._depth == 1:
                self.advance()
            yield
        finally:
            self._depth -= 1

    def advance(self, ticks: int = 1) -> int:
        """Advance the logical clock, firing due events and drift."""
        for _ in range(int(ticks)):
            self.clock += 1
            while self._pending and self._pending[0].tick <= self.clock:
                self._fire(self._pending.pop(0))
            self._apply_drift()
            interval = self.plan.canary_interval
            if interval > 0 and self.clock % interval == 0:
                self.monitor.run_canaries()
        return self.clock

    # ------------------------------------------------------------------- events

    def _fire(self, event) -> None:
        detail: dict = {}
        with trace.span("fault_inject", kind=event.kind, macro=event.macro):
            if isinstance(event, StuckCells):
                detail = self._fire_stuck(event)
            elif isinstance(event, DriftOnset):
                detail = self._fire_drift(event)
            elif isinstance(event, LineOpen):
                detail = self._fire_open(event)
            elif isinstance(event, MacroDeath):
                detail = self._fire_death(event)
        entry = {
            "kind": event.kind,
            "macro": event.macro,
            "tick": self.clock,
            **detail,
        }
        self.log.append(entry)
        self.monitor.record_fault(entry)

    def _array(self, macro_id: int):
        return self.pool.macros[macro_id].array

    def _fire_stuck(self, event: StuckCells) -> dict:
        array = self._array(event.macro)
        draw = self.rng.random(array.shape)
        delta = np.zeros(array.shape, dtype=np.int8)
        on_cut = event.fraction * event.stuck_on_fraction
        delta[draw < on_cut] = 1
        delta[(draw >= on_cut) & (draw < event.fraction)] = -1
        stuck = array.inject_stuck_faults(delta)
        return {"cells": stuck, "fraction": array.fault_fraction()}

    def _fire_drift(self, event: DriftOnset) -> dict:
        array = self._array(event.macro)
        self._drift[event.macro] = {
            "baseline": array.stored_conductances(),
            "tick0": self.clock,
            "version": array.version,
            "time_scale": event.time_scale,
        }
        return {"time_scale": event.time_scale}

    def _fire_open(self, event: LineOpen) -> dict:
        array = self._array(event.macro)
        delta = np.zeros(array.shape, dtype=np.int8)
        if event.axis == 0:
            delta[event.index, :] = -1
        else:
            delta[:, event.index] = -1
        stuck = array.inject_stuck_faults(delta)
        return {"axis": event.axis, "index": event.index, "cells": stuck}

    def _fire_death(self, event: MacroDeath) -> dict:
        # Peripheral death is detectable by the chip's own built-in
        # checks, so — unlike the silent degradations above — it goes
        # straight to quarantine; the evicted operator re-homes on next
        # use.  Everything else must be *detected* before it is healed.
        self.pool.quarantine(event.macro)
        self.monitor.mark_dead(event.macro)
        return {"quarantined": True}

    def _apply_drift(self) -> None:
        quarantined = self.pool.quarantined
        for macro_id, state in self._drift.items():
            if macro_id in quarantined:
                continue
            array = self._array(macro_id)
            if array.version != state["version"]:
                # Someone reprogrammed (or re-verified) the array since the
                # last drift application: the write refreshed the filament
                # states, so drift restarts from the fresh conductances.
                state["baseline"] = array.stored_conductances()
                state["tick0"] = self.clock
                state["version"] = array.version
                continue
            elapsed = (
                (self.clock - state["tick0"])
                * self.plan.seconds_per_tick
                * state["time_scale"]
            )
            if elapsed <= 0.0:
                continue
            array.inject_conductances(
                self.plan.retention.drifted(state["baseline"], elapsed)
            )
            state["version"] = array.version

    # -------------------------------------------------------------- supervision

    def supervised_solve(self, operator, attempt, *, rtol=None):
        """Run one solve under fault supervision: observe, heal, retry once.

        The attempt's outcome feeds the health monitor.  If the solve
        fails (a :class:`ConvergenceError` from the analog loop, or an
        ``rtol`` result whose contract is unmet — ``_contract_met``
        False, since refinement returns rather than raises), the
        escalation ladder runs and the solve retries exactly once; a
        second failure raises a structured :class:`DegradedChipError`
        carrying the health snapshot — never a silently wrong answer.
        """
        monitor = self.monitor
        with self.operation():
            if monitor.needs_healing(operator):
                monitor.heal_operator(operator)
            first_error: ConvergenceError | None = None
            try:
                result = attempt()
            except ConvergenceError as error:
                monitor.observe_divergence(operator, error)
                first_error = error
                result = None
            if result is not None:
                monitor.observe_solve(operator, result)
                if _contract_met(result, rtol):
                    return result
            healing = monitor.heal_operator(operator)
            try:
                result = attempt()
            except ConvergenceError as error:
                monitor.observe_divergence(operator, error)
                raise DegradedChipError(
                    "solve failed even after self-healing "
                    f"({_ladder_summary(healing)}): {error}",
                    health=monitor.snapshot(),
                    healing=healing,
                ) from (first_error or error)
            monitor.observe_solve(operator, result)
            if not _contract_met(result, rtol):
                raise DegradedChipError(
                    "rtol contract unmet after self-healing "
                    f"({_ladder_summary(healing)}); refusing to return a "
                    "degraded answer",
                    health=monitor.snapshot(),
                    healing=healing,
                )
            return result

    def supervised_op(self, operator, attempt):
        """Tick + observe wrapper for non-``rtol`` operations (MVM etc.)."""
        with self.operation():
            result = attempt()
        self.monitor.observe_solve(operator, result)
        return result

    def snapshot(self) -> dict:
        return {
            "clock": self.clock,
            "pending_events": len(self._pending),
            "fired_events": list(self.log),
            "drifting_macros": sorted(self._drift),
            "plan": self.plan.describe(),
        }


def _contract_met(result, rtol) -> bool:
    return rtol is None or bool(np.all(result.per_column_converged))


def _ladder_summary(healing: dict) -> str:
    return (
        f"{healing.get('retunes', 0)} retunes, "
        f"{healing.get('cells_reverified', 0)} cells re-verified, "
        f"{healing.get('reprogrammed_tiles', 0)} tiles reprogrammed, "
        f"{len(healing.get('quarantined_macros', ()))} macros quarantined"
    )
