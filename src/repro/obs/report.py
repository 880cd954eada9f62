"""Per-solve / per-window time-and-energy breakdown reports.

:func:`solve_breakdown` turns a :class:`~repro.obs.cost.SolveCost` (or a
``SolveResult`` carrying one, or a batch of either) into the
analog-settling / conversion / digital-engine / refinement /
programming / queue-wait attribution table that the ISSUE's north star
demands: percentages sum to 100 ± float noise, analog and digital time
separately totalled.  ``benchmarks/`` embeds the returned dict as the
``breakdown`` block of every ``BENCH_*.json``, and
``benchmarks/check_invariants.py`` re-validates its arithmetic.

This is the one cost model: it prices a solve here and the chip's
lifetime ledger in ``ChipStats.estimated_energy/latency``.  The paper
reports no performance table, so the constants below are an
*extension*: published AMC component figures, documented per constant.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.obs.cost import SolveCost

__all__ = ["format_breakdown", "solve_breakdown", "window_breakdown"]

# Energy model constants (order-of-magnitude figures from the AMC/IMC
# literature; see e.g. ISAAC/PRIME-class accelerator papers).
ENERGY_DAC_CONVERSION = 2e-12
"""Joules per 8-bit DAC conversion."""

ENERGY_ADC_CONVERSION = 8e-12
"""Joules per 8-bit ADC conversion."""

ENERGY_WRITE_PULSE = 1e-11
"""Joules per programming pulse (SET/RESET, 30 ns at ~100 µA·V scale)."""

POWER_OPAMP = 5e-4
"""Watts per active OPA during an analog solve."""

DIGITAL_CYCLE_TIME = 1e-9
"""Seconds per digital controller cycle (1 GHz)."""

ENERGY_DIGITAL_CYCLE = 5e-12
"""Joules per digital controller cycle."""

# Time model constants for the per-solve breakdown (same literature; the
# conversion times bracket published 8-bit SAR ADC / current-steering
# DAC figures, the write-pulse time is the 30 ns SET/RESET pulse).
TIME_DAC_CONVERSION = 5e-9
"""Seconds per 8-bit DAC conversion."""

TIME_ADC_CONVERSION = 1e-8
"""Seconds per 8-bit ADC conversion."""

TIME_WRITE_PULSE = 3e-8
"""Seconds per programming pulse."""

DIGITAL_MACS_PER_CYCLE = 128
"""Multiply-accumulates the digital engine retires per cycle (a modest
128-lane MAC array — how engine kernels convert to cycles)."""

#: Breakdown components in presentation order: (name, domain).
COMPONENTS = (
    ("analog_settling", "analog"),
    ("conversion", "mixed"),
    ("digital_engine", "digital"),
    ("refinement", "digital"),
    ("programming", "mixed"),
    ("queue_wait", "wait"),
)


def _extract_cost(source: object) -> SolveCost:
    """A SolveCost from a cost, a result carrying one, or a batch of either."""
    if isinstance(source, SolveCost):
        return source
    cost = getattr(source, "cost", None)
    if isinstance(cost, SolveCost):
        return cost
    if isinstance(source, Iterable):
        total = SolveCost()
        empty = True
        for item in source:
            total = total + _extract_cost(item)
            empty = False
        if not empty:
            return total
    raise TypeError(
        f"solve_breakdown needs a SolveCost, a result with .cost, or an "
        f"iterable of those; got {type(source).__name__}"
    )


def _cycles(macs: int) -> int:
    """Controller cycles the digital engine needs for ``macs`` MACs."""
    return math.ceil(macs / DIGITAL_MACS_PER_CYCLE)


def _component_costs(cost: SolveCost) -> dict[str, tuple[float, float]]:
    """(time_s, energy_J) per component under the documented model."""
    engine_cycles = _cycles(cost.engine_macs)
    refine_cycles = _cycles(cost.refine_macs)
    return {
        "analog_settling": (
            cost.analog_settling_s,
            cost.amp_seconds * POWER_OPAMP,
        ),
        "conversion": (
            cost.dac_conversions * TIME_DAC_CONVERSION
            + cost.adc_conversions * TIME_ADC_CONVERSION,
            cost.dac_conversions * ENERGY_DAC_CONVERSION
            + cost.adc_conversions * ENERGY_ADC_CONVERSION,
        ),
        "digital_engine": (
            engine_cycles * DIGITAL_CYCLE_TIME,
            engine_cycles * ENERGY_DIGITAL_CYCLE,
        ),
        "refinement": (
            refine_cycles * DIGITAL_CYCLE_TIME,
            refine_cycles * ENERGY_DIGITAL_CYCLE,
        ),
        "programming": (
            cost.write_pulses * TIME_WRITE_PULSE,
            cost.write_pulses * ENERGY_WRITE_PULSE,
        ),
        "queue_wait": (cost.queue_wait_s, 0.0),
    }


def solve_breakdown(source: object) -> dict:
    """The time/energy attribution table for one solve (or a window).

    ``source`` may be a :class:`SolveCost`, any object with a ``.cost``
    attribute (``SolveResult``), or an iterable of either (a serve
    window).  Returns::

        {
          "components": [
            {"component", "domain", "time_s", "energy_J",
             "time_pct", "energy_pct"}, ...
          ],
          "total_time_s": ..., "total_energy_J": ...,
          "analog_time_s": ..., "digital_time_s": ...,
          "mixed_time_s": ..., "wait_time_s": ...,
          "analog_time_pct": ..., "digital_time_pct": ...,
          "counters": {raw SolveCost fields},
        }

    ``time_pct`` (and ``energy_pct``) sum to 100 ± float noise whenever
    the corresponding total is non-zero — an arithmetic identity the
    invariant checker re-verifies from the JSON artifact.
    """
    cost = _extract_cost(source)
    per_component = _component_costs(cost)
    total_time = sum(t for t, _ in per_component.values())
    total_energy = sum(e for _, e in per_component.values())
    components: list[dict] = []
    domain_time: dict[str, float] = {}
    for name, domain in COMPONENTS:
        time_s, energy_j = per_component[name]
        domain_time[domain] = domain_time.get(domain, 0.0) + time_s
        components.append(
            {
                "component": name,
                "domain": domain,
                "time_s": time_s,
                "energy_J": energy_j,
                "time_pct": (100.0 * time_s / total_time) if total_time > 0 else 0.0,
                "energy_pct": (
                    (100.0 * energy_j / total_energy) if total_energy > 0 else 0.0
                ),
            }
        )
    return {
        "components": components,
        "total_time_s": total_time,
        "total_energy_J": total_energy,
        "analog_time_s": domain_time.get("analog", 0.0),
        "digital_time_s": domain_time.get("digital", 0.0),
        "mixed_time_s": domain_time.get("mixed", 0.0),
        "wait_time_s": domain_time.get("wait", 0.0),
        "analog_time_pct": (
            100.0 * domain_time.get("analog", 0.0) / total_time if total_time > 0 else 0.0
        ),
        "digital_time_pct": (
            100.0 * domain_time.get("digital", 0.0) / total_time if total_time > 0 else 0.0
        ),
        "counters": cost.as_dict(),
    }


def window_breakdown(results: "Iterable[object]") -> dict:
    """Aggregate breakdown over a serve window (iterable of results/costs)."""
    return solve_breakdown(results)


def _si_time(seconds: float) -> str:
    if seconds == 0:
        return "0"
    for unit, scale in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6), ("ns", 1e-9)):
        if abs(seconds) >= scale:
            return f"{seconds / scale:.3g} {unit}"
    return f"{seconds:.3g} s"


def _si_energy(joules: float) -> str:
    if joules == 0:
        return "0"
    for unit, scale in (("J", 1.0), ("mJ", 1e-3), ("uJ", 1e-6), ("nJ", 1e-9), ("pJ", 1e-12)):
        if abs(joules) >= scale:
            return f"{joules / scale:.3g} {unit}"
    return f"{joules:.3g} J"


def format_breakdown(breakdown: dict) -> str:
    """The breakdown as a GitHub-flavoured markdown table (for PRs/CI)."""
    lines = [
        "| component | domain | time | time % | energy | energy % |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for row in breakdown["components"]:
        lines.append(
            f"| {row['component']} | {row['domain']} "
            f"| {_si_time(row['time_s'])} | {row['time_pct']:.1f} "
            f"| {_si_energy(row['energy_J'])} | {row['energy_pct']:.1f} |"
        )
    lines.append(
        f"| **total** |  | **{_si_time(breakdown['total_time_s'])}** | 100.0 "
        f"| **{_si_energy(breakdown['total_energy_J'])}** | 100.0 |"
    )
    lines.append("")
    lines.append(
        f"analog {breakdown['analog_time_pct']:.1f}% / "
        f"digital {breakdown['digital_time_pct']:.1f}% of modeled time"
    )
    return "\n".join(lines)
