"""Common result container for the four AMC circuit topologies."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analog.dynamics import TransientResult


@dataclass
class CircuitSolution:
    """Outputs of one analog solve, in volts at the OPA outputs.

    ``column_saturated`` is the per-column saturation flag ``(k,)`` — a
    vector solve is one column.  A circuit sets it where its amplifiers
    hit a rail (:meth:`~repro.analog.opamp.OpAmpParams.clamp_columns`);
    the conversion point adds the columns that leave the ADC range
    (:meth:`~repro.converters.adc.ADC.saturated_columns`).  The digital
    controller treats a saturated column as invalid and re-runs it at
    another gain (the auto-ranging loops in :mod:`repro.core.ranging`).
    """

    outputs: np.ndarray
    column_saturated: np.ndarray
    top: np.ndarray | None = None
    """Per-column maximum (``top``) and minimum (``low``) of the clamped
    outputs, which the converter range test reads; ``None`` for EGV."""
    low: np.ndarray | None = None
    stable: bool = True
    settling_time: float | None = None
    transient: TransientResult | None = field(default=None, repr=False)

    @classmethod
    def clamped(cls, outputs: np.ndarray, clamp, **fields) -> "CircuitSolution":
        """``outputs`` with the one-slot ``(railed, top, low)`` of their clamp."""
        railed, top, low = clamp
        return cls(outputs, railed[0], top[0], low[0], **fields)

    @property
    def saturated(self) -> bool:
        """Whether any column is saturated."""
        return bool(self.column_saturated.any())

    @property
    def ok(self) -> bool:
        """True when the solve is electrically valid (stable, not saturated)."""
        return self.stable and not self.saturated
