"""Per-solve cost capture: what one solve spent, by physical category.

:class:`CostAccumulator` is the chip's **one ledger** of hardware
activity: every analog solve, DAC/ADC conversion, engine kernel,
refinement step and write pulse is written to it exactly once, by the
operator handles, the grid engine and the ISA controller alike.
``ChipStats`` reads (and prices) its chip-lifetime totals; a solve
captures the **delta attributable to it** so
:func:`repro.obs.report.solve_breakdown` can answer "where did *this*
solve spend its time and energy" — the question every perf PR must
answer before claiming a speedup.

The model (constants and pricing in :mod:`repro.obs.report`, figures
from the AMC/IMC literature):

* **analog settling** — Σ settling time over analog tile solves;
  energy is the amp-seconds integral × ``POWER_OPAMP``;
* **conversion** — DAC/ADC conversions at every analog tile boundary
  (mixed-signal; counted per column element per ranging attempt);
* **digital engine** — multiply-accumulates executed by the digital
  engine's batched kernels (the grid engine's stacked MVM/INV stages and
  their ranging retries), at ``DIGITAL_MACS_PER_CYCLE`` per cycle;
* **refinement** — float64 MACs of the refinement loop: residuals,
  ``A·z`` products, orthogonalisation and updates (a subset of digital
  work, attributed separately
  because the ``rtol`` contract buys accuracy with exactly these);
* **programming** — write pulses (only non-zero when a solve triggered
  (re)programming);
* **queue wait** — serve-layer time between admission and dispatch
  (zero energy; filled in by the serve layer).

Capture is **always on** (a handful of float adds per dispatch — no
measurable overhead), so ``result.cost`` is never None-surprising.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields

__all__ = ["CostAccumulator", "PULSES_PER_CELL", "SolveCost", "ledger_count"]

PULSES_PER_CELL = 9
"""Mean write-verify pulses per programmed cell (the physical model's)."""


@dataclass
class SolveCost:
    """Additive cost counters for one solve (or one accumulation window)."""

    analog_settling_s: float = 0.0
    """Σ settling time across analog tile solves (serialised model)."""
    amp_seconds: float = 0.0
    """Σ (active amplifiers × settling time) — drives op-amp energy."""
    mvm_solves: int = 0
    """Analog tile solves by mode (one field per ``AMCMode`` value)."""
    inv_solves: int = 0
    pinv_solves: int = 0
    egv_solves: int = 0
    dac_conversions: int = 0
    adc_conversions: int = 0
    engine_macs: int = 0
    """Multiply-accumulates in the digital engine's kernels (MVM stages,
    INV equilibrium applies, digital accumulation)."""
    refine_macs: int = 0
    """Float64 MACs spent by the refinement loop (residuals, ``A·z``
    products, orthogonalisation, updates)."""
    engine_dispatches: int = 0
    refine_steps: int = 0
    refine_dispatches: int = 0
    """The slice of ``engine_dispatches`` issued by refinement corrections."""
    stack_rebuilds: int = 0
    """Grid-engine stacked slices invalidated and recopied."""
    cells_programmed: int = 0
    write_pulses: int = 0
    queue_wait_s: float = 0.0
    """Serve-layer wait between admission and dispatch (0 outside serve)."""
    host_s: float = 0.0
    """Wall-clock of the host-side solve call (simulator time, not part
    of the modeled hardware latency; kept for calibration)."""

    def _zip(self, other: object, op) -> "SolveCost":
        # Instance dicts hold exactly the fields, in declaration order.
        if not isinstance(other, SolveCost):
            return NotImplemented
        return SolveCost(*map(op, vars(self).values(), vars(other).values()))

    def __add__(self, other: "SolveCost") -> "SolveCost":
        return self._zip(other, operator.add)

    def __sub__(self, other: "SolveCost") -> "SolveCost":
        return self._zip(other, operator.sub)

    def copy(self) -> "SolveCost":
        return SolveCost(*vars(self).values())

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(SolveCost)}

    def scaled(self, fraction: float) -> "SolveCost":
        """A proportional share of this cost (coalesced-batch slicing).

        Column counts of a coalesced engine call are attributed to each
        caller by their column fraction; integer counters round to the
        nearest integer so a full-batch sum stays within ±len(requests).
        """
        out = SolveCost()
        for f in fields(SolveCost):
            value = getattr(self, f.name) * fraction
            setattr(out, f.name, round(value) if f.type == "int" else value)
        return out


class CostAccumulator:
    """The chip's always-on cost ledger.

    ``ChipStats`` owns one per chip and a ``GramcSolver(stats=...)``
    adopts it (a bare solver keeps its own).  Every accounting site adds
    into :attr:`total`; a solve captures its share with ``snapshot()`` /
    ``delta(before)``.  The serve layer funnels all chip work through one
    executor thread, so no lock is needed.
    """

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = SolveCost()

    def snapshot(self) -> SolveCost:
        return self.total.copy()

    def delta(self, before: SolveCost) -> SolveCost:
        return self.total - before

    # -- recording (called from solver/engine hot paths) ---------------------

    def add_analog(self, mode: str, amplifiers: int, settling_time: "float | None") -> None:
        """One analog solve of ``mode`` (an ``AMCMode`` value) with
        ``amplifiers`` active op-amps; a ``None`` settling time counts
        the solve but adds no time."""
        settling = 0.0 if settling_time is None else settling_time
        self.add_solves(mode, 1, settling, amplifiers * settling)

    def add_solves(
        self, mode: str, count: int, settling_s: float = 0.0, amp_seconds: float = 0.0
    ) -> None:
        """``count`` analog solves of ``mode`` in one update, with their
        summed settling time and amp-seconds."""
        field = f"{mode}_solves"
        setattr(self.total, field, getattr(self.total, field) + count)
        self.total.analog_settling_s += settling_s
        self.total.amp_seconds += amp_seconds

    def add_conversions(self, dac: int = 0, adc: int = 0) -> None:
        self.total.dac_conversions += dac
        self.total.adc_conversions += adc

    def add_engine_macs(self, macs: int) -> None:
        self.total.engine_macs += macs

    def add_refine(self, steps: int, dispatches: int, macs: int) -> None:
        """One refined solve: its steps, the slice of ``engine_dispatches``
        its preconditioner solves issued, and its float64 MACs."""
        self.total.refine_steps += steps
        self.total.refine_macs += macs
        self.total.refine_dispatches += dispatches

    def add_stack_rebuilds(self, count: int) -> None:
        self.total.stack_rebuilds += count

    def add_dispatches(self, count: int = 1) -> None:
        self.total.engine_dispatches += count

    def add_programming(self, cells: int) -> None:
        """A bulk write of ``cells`` cells at :data:`PULSES_PER_CELL`."""
        self.total.cells_programmed += cells
        self.total.write_pulses += PULSES_PER_CELL * cells


def ledger_count(name: str) -> property:
    """A read-only counter of a ledger owner, backed by ``cost.total.<name>``."""
    return property(
        lambda self: getattr(self.cost.total, name),
        doc=f"``{name}`` so far, read from the cost ledger.",
    )
