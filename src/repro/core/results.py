"""Result containers for the high-level GRAMC solver API."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.analog.topologies import AMCMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.cost import SolveCost


@dataclass(repr=False)
class SolveResult:
    """One matrix problem solved on the analog system.

    ``value`` is the analog answer converted back to problem units;
    ``reference`` is the float64 numpy answer (the paper's "numerical
    results from Python") computed on the *original* matrix — so
    ``relative_error`` bundles quantization, programming, circuit and
    converter errors exactly as the paper's Fig. 4 does.
    """

    mode: AMCMode
    value: np.ndarray
    reference: np.ndarray
    attempts: int = 1
    input_scale: float = 1.0
    stable: bool = True
    saturated: bool = False
    """Whether any column ended saturated after auto-ranging: an amplifier
    output on the op-amp rail or outside the ADC's ``[−v_ref, v_ref]``
    span (see :mod:`repro.core.ranging`).  On a batched result it is
    ``column_saturated.any()``."""
    settling_time: float | None = None
    macro_ids: tuple[int, ...] = field(default_factory=tuple)
    input_scales: np.ndarray | None = None
    """Batched solves: the per-column input divisors actually applied
    (shape ``(k,)``).  The scalar ``input_scale`` keeps its historical
    meaning as the worst (largest) of these.  ``None`` for vector solves."""
    per_column_attempts: np.ndarray | None = None
    """Batched solves: engine evaluations each column took part in (shape
    ``(k,)``).  All columns ride every re-ranging pass together, so the
    entries are equal.  ``None`` for vector solves."""
    column_saturated: np.ndarray | None = None
    """Batched solves: per-column post-ranging saturation state ``(k,)``
    (railed or outside the ADC range).  ``None`` for vector solves."""
    sweeps: int | None = None
    """INV solves: sweeps run over the handle's stage stack, base and
    refinement steps together.  A single array is the one-block grid: its
    base solve is 1 sweep, and so is each refinement step.  Every INV
    solve sets it; ``None`` for MVM, PINV and EGV results."""
    residual_floor: float | None = None
    """INV solves: digitally evaluated relative residual
    ``‖b − A·y‖/‖b‖`` of the returned solution — the O(η·κ) floor the
    inexact-matvec model predicts for stationary sweeps with analog
    (η-relative-error) products.  Every INV solve sets it."""
    converged: bool | None = None
    """Refined solves (any ``rtol``): the contract's verdict,
    ``per_column_converged.all()`` — an unmet contract is returned with
    ``converged`` False, never raised.  INV solves without ``rtol``:
    whether the sweep update fell below tolerance before the sweep
    budget ran out (always True without couplings, as on a single
    array).  Every INV solve sets it."""
    engine_dispatches: int | None = None
    """INV solves: digital-engine kernel dispatches this solve issued.
    The stacked grid engine pays a constant number per sweep (one batched
    kernel per stage); the per-tile baseline pays one per tile per sweep.
    Read from the cost ledger (``cost.engine_dispatches``); every INV
    solve sets it."""
    stack_rebuilds: int | None = None
    """INV solves: stacked slices (re)built for this solve — 0 in
    steady state, >0 exactly when a crossbar version bump (programming,
    refresh, preemption) invalidated cached circuit state.  Read from the
    cost ledger; every INV solve sets it."""
    refine_steps: int | None = None
    """Refined solves (``solve(b, rtol=...)``): flexible-GMRES steps —
    batched analog preconditioner calls — applied on top of the analog
    answer (0 when the analog answer already met every column's
    target).  ``None`` when no ``rtol`` was requested."""
    refined_residual: float | None = None
    """Refined solves: worst per-column relative residual
    ``‖b_j − A·x_j‖/‖b_j‖`` of the returned (refined) solution,
    evaluated digitally in float64.  ``None`` when no ``rtol`` was
    requested."""
    per_column_converged: np.ndarray | None = None
    """Refined solves: whether each column reached its ``rtol`` target
    on its float64-measured residual,
    shape ``(k,)`` bool (``(1,)`` for a vector solve — unlike the other
    per-column arrays this one is always present on a refined result,
    since it *is* the contract's verdict).  ``None`` when no ``rtol``
    was requested."""
    refine_residual_trace: tuple[float, ...] | None = None
    """Refined solves: worst-column relative residual after each
    refinement step, starting with the raw analog answer at index 0 —
    the accuracy-vs-steps curve of this solve.  ``None`` when no
    ``rtol`` was requested."""
    per_column_residual: np.ndarray | None = None
    """Refined solves: final relative residual of every column, shape
    ``(k,)`` (``(1,)`` for a vector solve).  Lets a mixed-``rtol``
    consumer (the serve layer's coalescer) report each caller's own
    residual instead of the batch-worst.  ``None`` when no ``rtol``
    was requested."""
    worst_columns: tuple[int, ...] | None = None
    """Refined solves with a column still above its ``rtol`` when the
    step budget ran out: the indices of the worst offending columns
    (highest float64-measured residual first, capped at a handful).
    ``None`` when every column met its target or no ``rtol`` was
    requested — so ``worst_columns`` doubles as the "did the contract
    fail" flag on a returned result."""
    cost: "SolveCost | None" = None
    """What this solve spent, by physical category (settling, DAC/ADC
    conversions, engine/refinement MACs, programming, queue wait) — the
    input to :func:`repro.obs.report.solve_breakdown`.  Attached by the
    operator layer; ``None`` only on results assembled outside it."""

    @property
    def ok(self) -> bool:
        return self.stable and not self.saturated

    @property
    def columns(self) -> int | None:
        """Number of right-hand-side columns, or ``None`` for a vector solve."""
        if self.value.ndim == 2:
            return int(self.value.shape[1])
        return None

    @property
    def relative_error(self) -> float:
        """ ``‖value − reference‖₂ / ‖reference‖₂`` (the paper's metric)."""
        denominator = float(np.linalg.norm(self.reference))
        if denominator == 0.0:
            return float(np.linalg.norm(self.value))
        return float(np.linalg.norm(self.value - self.reference) / denominator)

    def scatter_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(ideal, non-ideal) pairs — the axes of a Fig. 4 scatter panel."""
        return self.reference.copy(), self.value.copy()

    def __repr__(self) -> str:
        """Compact one-line summary (the dataclass default printed whole
        arrays, which made a 256×256 batch result unreadable in a REPL)."""
        shape = "×".join(str(dim) for dim in self.value.shape) or "scalar"
        parts = [f"<SolveResult {self.mode.value} {shape}"]
        if self.sweeps is not None:
            parts.append(f"sweeps={self.sweeps}")
        if self.refine_steps is not None:
            parts.append(f"refine_steps={self.refine_steps}")
        if self.refined_residual is not None:
            parts.append(f"residual={self.refined_residual:.3e}")
        elif self.residual_floor is not None:
            parts.append(f"residual={self.residual_floor:.3e}")
        else:
            parts.append(f"rel_err={self.relative_error:.3e}")
        parts.append(f"attempts={self.attempts}")
        if not self.stable:
            parts.append("UNSTABLE")
        if self.saturated:
            parts.append("saturated")
        if self.converged is False:
            parts.append("not-converged")
        return " ".join(parts) + ">"
