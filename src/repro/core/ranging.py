"""DAC/ADC auto-ranging through the g_f register ladder.

The digital controller's one cheap knob during a solve is the feedback /
input-conductance ladder ``g_f`` — rewriting it touches a register, never
the programmed conductances.  Every tile runs its first attempt inside a
stacked stage of :mod:`repro.core.grid_engine`; only a tile whose attempt
saturated or under-used the converters enters the loops below, which
take that attempt as their first result and run each retry through the
macro's one-slot chain (``compute_mvm`` / ``compute_inv`` /
``compute_pinv``).

**Saturated** means one thing: a column whose amplifier output hit the
op-amp rail or left the ADC's ``[−v_ref, v_ref]`` span.  The conversion
point decides it where the ADC samples
(:meth:`repro.converters.adc.ADC.saturated_columns`) and stores it as
``solution.column_saturated``; the loops here read that flag and never
look at a converter themselves.

Two gain senses exist:

* **MVM** — the TIA gain is ``1/g_f``: a saturated output wants a
  *larger* ``g_f``, an under-ranged one a smaller one
  (:func:`autorange_mvm`).
* **INV / PINV** — the output amplitude is proportional to ``g_f``
  directly, and when the ladder floor is reached while still saturated
  the controller falls back to shrinking the inputs, trading DAC
  resolution for range (:func:`autorange_gain_batch`).

Batch semantics: the ladder is one register per tile, so a batched solve
shares a single ``g_f`` chosen by the *worst* column (any saturated
column shrinks it; the largest column peak drives re-gaining), while the
input-shrink fallback is applied per column — only the saturated
columns lose DAC resolution.  A vector is a batch of one column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.macro.amc_macro import AMCMacro, MacroResult
from repro.macro.registers import g_f_code_for
from repro.obs import trace

MIN_INPUT_SCALE = float(np.finfo(float).tiny)
"""Floor on a right-hand side's DAC divisor: the smallest normal float64.
Every nonzero column still ranges to the full DAC span, down to the
bottom of the float64 range — a 1e-300 right-hand side solves like a
unit one; the floor only keeps the divisor itself normal."""


def autorange_mvm(
    compute: Callable[[], MacroResult],
    primary: AMCMacro,
    partners: Sequence[AMCMacro] = (),
    *,
    target: float,
    max_attempts: int,
    first: MacroResult | None = None,
) -> tuple[MacroResult, int]:
    """Range one tile's multiply (TIA gain ∝ 1/g_f).

    Returns ``(result, attempts)`` where ``result`` is the last
    conversion; its ``solution.column_saturated`` is the post-ranging
    saturation state.  ``compute`` may return batched conversions
    ``(rows, k)``; the shared ladder then follows the worst column.
    ``first`` is an attempt that already ran (a stacked stage's);
    ``compute`` then runs the retries.
    """
    with trace.span("autorange", kind="mvm") as sp:
        result = first if first is not None else compute()
        attempts = 1
        while attempts < max_attempts:
            peak = float(np.max(np.abs(result.raw)))
            g_f = primary.config.g_f
            if result.solution.saturated:
                desired = g_f * 4.0
            elif 0.0 < peak < 0.25 * target:
                desired = g_f * peak / target
            else:
                break
            if g_f_code_for(desired) == primary.config.g_f_code:
                break  # ladder already at its limit — skip the no-op rewrite + re-run
            primary.set_g_f(desired)
            for partner in partners:
                partner.set_g_f(desired)
            result = compute()
            attempts += 1
        sp.set(attempts=attempts, saturated=result.solution.saturated)
        return result, attempts


@dataclass
class BatchGainRangingOutcome:
    """Final state of a batched INV/PINV ranging loop.  The last
    conversion's ``result.solution`` holds its stability and per-column
    post-ranging saturation state."""

    result: MacroResult
    value: np.ndarray
    """Problem-unit solution block ``(n, k)``."""
    attempts: int
    """Engine evaluations of the whole batch (not per column — every
    re-range re-runs all columns through the shared circuit at once)."""
    input_scales: np.ndarray
    """Per-column input divisors ``(k,)`` — the input-shrink fallback only
    touches the saturated columns."""


def autorange_gain_batch(
    compute: Callable[[np.ndarray], MacroResult],
    primary: AMCMacro,
    to_value: Callable[[MacroResult, np.ndarray, float], np.ndarray],
    *,
    scales: np.ndarray,
    target: float,
    max_attempts: int,
    first: MacroResult | None = None,
) -> BatchGainRangingOutcome:
    """Range a matrix-right-hand-side feedback solve through one circuit.

    ``compute(scales)`` runs the whole block with column ``j`` divided by
    ``scales[j]``; ``to_value(result, scales, g_f)`` converts the raw
    block back to problem units.  The feedback ladder is a single shared
    register, so the *worst* column picks ``g_f``: any saturated column
    shrinks it, and only when every column is under-ranged does the gain
    grow (sized by the largest peak).  At the ladder floor the input-shrink
    fallback halves the range of exactly the saturated columns.  ``first``
    is an attempt that already ran at ``scales``; ``compute`` then runs
    the retries.
    """
    if max_attempts < 1:
        raise ValueError("auto-ranging needs at least one attempt")
    scales = np.array(scales, dtype=float)
    columns = scales.size
    value = np.zeros(0)
    result: MacroResult | None = None
    attempts = 0
    applied_scales = scales
    with trace.span("autorange", kind="gain_batch", columns=columns) as sp:
        for attempts in range(1, max_attempts + 1):
            result = first if attempts == 1 and first is not None else compute(scales)
            applied_scales = scales
            g_f = primary.config.g_f
            value = to_value(result, scales, g_f)
            column_saturated = result.solution.column_saturated
            peak = float(np.max(np.abs(result.raw))) if result.raw.size else 0.0
            if np.any(column_saturated):
                desired = g_f / 4.0
            elif 0.0 < peak < 0.25 * target:
                desired = g_f * target / peak
            else:
                break
            actual = primary.set_g_f(desired)
            if abs(actual - g_f) < 1e-15:
                if np.any(column_saturated):
                    # Ladder floor reached and columns still saturated: shrink the
                    # inputs of exactly those columns (the others keep their
                    # full DAC resolution).
                    scales = np.where(column_saturated, scales * 2.0, scales)
                    continue
                break  # ladder limit reached
        sp.set(attempts=attempts)
    assert result is not None
    return BatchGainRangingOutcome(
        result=result,
        value=value,
        attempts=attempts,
        # The scales the final solve actually ran with: when the attempt
        # budget runs out right after an input-shrink, the doubled scales
        # were never applied and must not be reported.
        input_scales=applied_scales,
    )
