"""Drift-aware health monitoring and the self-healing escalation ladder.

The monitor never sees the fault plan's contents — detection is earned
from signals the stack already produces for free:

* **refinement regressions** — a ``refine_residual_trace`` that worsens,
  contracts too slowly per sweep, or leaves columns unconverged;
* **ranging retries** — per-column auto-ranging attempts far above the
  steady-state norm of one attempt per tile evaluation;
* **write-verify pulse counts** — a targeted re-verify that has to
  rewrite a large share of a tile's cells means the cells are drifting;
* **canary solves** — a cheap known-RHS solve against each resident
  operator every N logical ticks, catching silent drift on operators
  nobody is querying.

Scores live in ``[0, 1]`` per macro (1 healthy, 0 dead) and are exported
as the ``gramc_macro_health`` gauge in the chip's metrics registry.

Healing escalates through four rungs, cheapest first::

    retune (set_g_f)  →  targeted re-verify  →  full reprogram  →  quarantine
      register move       rewrite only the       same tile, fresh     + migration
      only                drifted cells          write-verify pass    to a healthy macro

Each rung is applied per *tile handle*, so healing one block of a
:class:`~repro.core.tiled.TiledOperator` reprograms only that tile and
rebuilds only its stack slice.
"""

from __future__ import annotations

import numpy as np

from repro.analog.topologies import AMCMode
from repro.faults.plan import FaultPlan
from repro.obs import trace

_REVERIFY_FAIL_FRACTION = 0.01
"""A heal rung passes when at most this fraction of a tile's healthy
cells stays out of band after the rewrite.  Judging the *fraction* (not
the max) keeps the criterion robust to write-verify's own cycle-to-cycle
spread: on a large tile the worst of thousands of fresh lognormal draws
routinely lands several sigma out, and a max-based pass would escalate
perfectly healthy silicon straight to quarantine."""

_SLOW_SWEEP_CONTRACTION = 0.5
"""Refinement is "slow" when the residual trace shrinks by less than
half per sweep on average.  Healthy block-dominant grids contract by
0.2–0.5 per sweep (Gauss-Seidel and Jacobi) and a single-array step by
η ≈ 4e-2; judging per sweep rather than per refinement step keeps the
signal independent of how many sweeps each step was given."""

_FAULT_PENALTIES = {
    # Only hardware-detectable events move scores at injection time;
    # silent degradations (drift, stuck cells) must be earned through
    # the signals above.
    "macro_death": 1.0,
}


class HealthMonitor:
    """Per-macro health scores plus the healing ladder over one pool."""

    def __init__(
        self,
        pool,
        *,
        plan: FaultPlan | None = None,
        registry=None,
    ):
        self.pool = pool
        self.plan = plan or FaultPlan()
        self._scores: dict[int, float] = {}
        self._injector = None
        self._solver = None
        self.canary_runs = 0
        self.canary_failures = 0
        self.heal_reports: list[dict] = []
        self._gauge = None
        self._fault_counter = None
        self._heal_counter = None
        if registry is not None:
            self._gauge = registry.gauge(
                "gramc_macro_health",
                "Per-macro health score (1 healthy, 0 dead)",
                ("macro",),
            )
            self._fault_counter = registry.counter(
                "gramc_fault_events_total",
                "Fault-plan events fired, by kind",
                ("kind",),
            )
            self._heal_counter = registry.counter(
                "gramc_healing_actions_total",
                "Self-healing ladder actions taken, by rung",
                ("action",),
            )

    # ------------------------------------------------------------------- wiring

    def bind_injector(self, injector) -> None:
        self._injector = injector

    def bind_solver(self, solver) -> None:
        """Called by the solver at construction; enables canary sweeps."""
        self._solver = solver

    # ------------------------------------------------------------------- scores

    def score(self, macro_id: int) -> float:
        return self._scores.get(macro_id, 1.0)

    def scores(self) -> dict[int, float]:
        return {i: self.score(i) for i in range(len(self.pool.macros))}

    def _set_score(self, macro_id: int, value: float) -> None:
        value = float(min(1.0, max(0.0, value)))
        self._scores[macro_id] = value
        if self._gauge is not None:
            self._gauge.labels(str(macro_id)).set(value)

    def penalize(self, macro_ids, amount: float) -> None:
        for macro_id in macro_ids:
            self._set_score(int(macro_id), self.score(int(macro_id)) - amount)

    def reward(self, macro_ids, amount: float = 0.02) -> None:
        quarantined = self.pool.quarantined
        for macro_id in macro_ids:
            macro_id = int(macro_id)
            if macro_id in quarantined:
                continue
            self._set_score(macro_id, self.score(macro_id) + amount)

    def mark_dead(self, macro_id: int) -> None:
        self._set_score(int(macro_id), 0.0)

    # ------------------------------------------------------------ signal intake

    def record_fault(self, entry: dict) -> None:
        """Injector hook: log + count an event (scores mostly untouched)."""
        if self._fault_counter is not None:
            self._fault_counter.labels(entry["kind"]).inc()
        penalty = _FAULT_PENALTIES.get(entry["kind"])
        if penalty:
            self.penalize([entry["macro"]], penalty)

    def observe_solve(self, operator, result) -> None:
        """Consume one solve's free health signals (a zero-column result
        carries none)."""
        macro_ids = result.macro_ids
        if not macro_ids or result.columns == 0:
            return
        penalty = 0.0
        if result.saturated or not result.stable:
            penalty += 0.1
        attempts = result.per_column_attempts
        if attempts is None:
            attempts = result.attempts
        if np.max(attempts) > 3 * _tile_evaluations(operator, result):
            penalty += 0.05
        trace_values = result.refine_residual_trace
        if trace_values is not None and len(trace_values) >= 2:
            if trace_values[-1] > trace_values[0]:
                penalty += 0.2
            elif _contraction_per_sweep(result, trace_values) > _SLOW_SWEEP_CONTRACTION:
                penalty += 0.1
        per_column = result.per_column_converged
        if per_column is not None and not bool(np.all(per_column)):
            penalty += 0.25
        if penalty > 0.0:
            self.penalize(macro_ids, penalty)
        else:
            self.reward(macro_ids)

    def observe_divergence(self, operator, error) -> None:
        """The analog loop failed outright — strong evidence against the
        whole tile set."""
        self.penalize(self._operator_macros(operator), 0.5)

    def observe_reverify(
        self, macro_ids, cells_rewritten: int, region_cells: int
    ) -> None:
        """Write-verify pulse-count signal: heavy rewrites mean heavy drift."""
        if region_cells and cells_rewritten / region_cells > 0.05:
            self.penalize(macro_ids, 0.1)

    # ------------------------------------------------------------------ canaries

    def run_canaries(self) -> int:
        """Cheap known-RHS checks on every resident operator.

        Catches silent drift on idle-but-resident operators: the canary
        residual is computed digitally against the true matrix, so a
        drifting tile shows up even when no tenant is querying it.
        Returns the number of canaries run.
        """
        if self._solver is None:
            return 0
        ran = 0
        for operator in self._solver.resident_operators().values():
            mode = operator.mode
            if mode not in (AMCMode.INV, AMCMode.MVM) or not operator.resident:
                continue
            matrix = np.asarray(operator.matrix, dtype=float)
            rhs = np.ones(matrix.shape[0])
            with trace.span("canary", operator=operator.key[:12]):
                try:
                    if mode is AMCMode.INV:
                        # A blocked canary bounds its sweeps; a one-block
                        # grid solves directly and ignores the bounds.
                        if operator.block_count > 1:
                            result = operator.solve(
                                rhs, tolerance=1e-2, max_sweeps=8
                            )
                        else:
                            result = operator.solve(rhs)
                        x = np.asarray(result.value, dtype=float)
                        residual = np.linalg.norm(
                            matrix @ x - rhs
                        ) / np.linalg.norm(rhs)
                    else:
                        result = operator.mvm(rhs)
                        y = np.asarray(result.value, dtype=float)
                        reference = matrix @ rhs
                        residual = np.linalg.norm(y - reference) / max(
                            np.linalg.norm(reference), 1e-30
                        )
                except Exception:
                    # A canary that cannot even run is itself a signal.
                    self.penalize(self._operator_macros(operator), 0.3)
                    self.canary_runs += 1
                    self.canary_failures += 1
                    ran += 1
                    continue
            ran += 1
            self.canary_runs += 1
            if residual > self.plan.canary_threshold:
                self.canary_failures += 1
                self.penalize(self._operator_macros(operator), 0.3)
        return ran

    # ------------------------------------------------------------------- healing

    def needs_healing(self, operator) -> bool:
        """Proactive trigger: any resident macro scored below threshold."""
        threshold = self.plan.heal_score_threshold
        return any(
            self.score(macro_id) < threshold
            for macro_id in self._operator_macros(operator)
        )

    def heal_operator(self, operator) -> dict:
        """Run the escalation ladder over the operator's tile handles."""
        report = {
            "retunes": 0,
            "cells_reverified": 0,
            "reprogrammed_tiles": 0,
            "quarantined_macros": [],
            "migrated_tiles": 0,
        }
        band = self.plan.reverify_band
        with trace.span("heal", operator=operator.key[:12]):
            for handle in operator.tile_handles():
                if not handle.resident:
                    # Already evicted (quarantine, preemption, death): the
                    # next use re-homes it onto healthy macros — that *is*
                    # the migration rung, no further action here.
                    report["migrated_tiles"] += 1
                    self._count_heal("migrate")
                    continue
                macro_ids = handle.resident_macro_ids()
                # Rung 1 — in-place retune: re-select the feedback ladder
                # (register write only); clears a mis-ranged g_f and costs
                # nothing if the ladder is already right.
                for tile in handle._tiles:
                    tile.primary.set_g_f(tile.primary.config.g_f)
                    report["retunes"] += 1
                self._count_heal("retune")
                # Rung 2 — targeted re-verify: rewrite only the cells that
                # drifted out of band.
                stats = handle.reverify_tiles(band=band)
                report["cells_reverified"] += stats["cells_rewritten"]
                if stats["cells_rewritten"]:
                    self._count_heal("reverify")
                self.observe_reverify(
                    macro_ids, stats["cells_rewritten"], stats["region_cells"]
                )
                if self._rung_passed(handle, stats):
                    self.reward(macro_ids, 1.0)
                    continue
                # Rung 3 — full reprogram on the same tile: a fresh
                # write-verify pass, and (crucially) a recomputed digital
                # stuck-cell compensation for MVM planes.
                handle.refresh()
                report["reprogrammed_tiles"] += 1
                self._count_heal("reprogram")
                stats = handle.reverify_tiles(band=band, apply=False)
                if self._rung_passed(handle, stats):
                    self.reward(macro_ids, 1.0)
                    continue
                # Rung 4 — quarantine + migration: the silicon cannot hold
                # the values (or a non-MVM tile is too stuck to trust).
                for macro_id in macro_ids:
                    if self.pool.quarantine(macro_id):
                        report["quarantined_macros"].append(int(macro_id))
                        self.mark_dead(macro_id)
                report["migrated_tiles"] += 1
                self._count_heal("quarantine")
        if self._injector is not None:
            report["tick"] = self._injector.clock
        self.heal_reports.append(report)
        return report

    def _rung_passed(self, handle, stats: dict) -> bool:
        """Whether a heal rung restored the tile to trustworthy shape."""
        region = stats["region_cells"] or 1
        settled = stats["out_of_band"] / region <= _REVERIFY_FAIL_FRACTION
        stuck_ok = (
            stats["stuck_fraction"] <= self.plan.quarantine_stuck_fraction
            # MVM planes compensate stuck cells digitally (the solver
            # rebuilds the fault correction at each reprogram); analog
            # feedback modes cannot, so their stuck budget is strict.
            or handle.mode is AMCMode.MVM
        )
        return settled and stuck_ok

    # ------------------------------------------------------------------ plumbing

    def _operator_macros(self, operator) -> tuple:
        """The resident macros of the operator's tile handles (an evicted
        one has none to score)."""
        ids: list[int] = []
        for handle in operator.tile_handles():
            if handle.resident:
                ids.extend(handle.resident_macro_ids())
        return tuple(ids)

    def _count_heal(self, action: str) -> None:
        if self._heal_counter is not None:
            self._heal_counter.labels(action).inc()

    def snapshot(self) -> dict:
        """The health snapshot attached to ``DegradedChipError``."""
        low = {
            macro_id: score
            for macro_id, score in sorted(self._scores.items())
            if score < 1.0
        }
        snapshot = {
            "scores": {int(k): float(v) for k, v in low.items()},
            "quarantined": sorted(self.pool.quarantined),
            "canary": {
                "runs": self.canary_runs,
                "failures": self.canary_failures,
            },
            "heal_reports": list(self.heal_reports),
        }
        if self._injector is not None:
            snapshot["clock"] = self._injector.clock
            snapshot["events"] = list(self._injector.log)
        return snapshot


def _tile_evaluations(operator, result) -> int:
    """Tile evaluations behind a result's attempt counts at one attempt
    each — the steady-state ranging norm.  A single-array result is one
    evaluation; a blocked one evaluates every tile once per sweep of its
    analog step (the base sweep of a refined solve: its per-column
    arrays describe that step)."""
    sweeps = result.sweeps
    if sweeps is None or result.refine_steps is not None:
        sweeps = 1
    return max(operator.block_count * sweeps, 1)


def _contraction_per_sweep(result, trace_values) -> float:
    """Geometric-mean residual contraction per sweep over a refined solve
    (its base sweep and one sweep per refinement step)."""
    first, last = float(trace_values[0]), float(trace_values[-1])
    if first <= 0.0:
        return 0.0
    return (last / first) ** (1.0 / result.sweeps)
