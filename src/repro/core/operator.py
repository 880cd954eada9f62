"""AnalogOperator: a matrix programmed on the chip, held as a first-class handle.

The whole point of analog matrix computing is *program once, solve many*:
writing conductances costs thousands of verify pulses, while a solve is
one settling time.  This module exposes that directly:

>>> op = solver.compile(a)                    # programmed, pinned to macros
>>> y = op @ x                                # vector or batch, zero re-programming
>>> with solver.compile(a, mode=AMCMode.INV) as op:
...     y = op.solve(b)                       # released at block exit

A handle knows its lifetime:

* it is **resident** while its macros are held in the pool; if the LRU
  evicts them, the pool's release callback marks the handle stale and the
  next use transparently re-programs (``program_count`` says how often);
* :meth:`AnalogOperator.pin` exempts it from eviction — an allocation
  that would need its macros raises ``CapacityError`` instead;
* :meth:`AnalogOperator.close` (or leaving a ``with`` block) returns the
  macros immediately; a closed handle refuses further work;
* :meth:`AnalogOperator.refresh` forces a re-program — the drift recovery
  a long-lived deployment schedules periodically.

The handle also speaks enough of the NumPy protocol to drop into array
code: ``op @ x``, ``x @ op`` (transpose application through a lazily
compiled transpose plane, as IBM's aihwkit ``AnalogMatrix`` does),
``op.T``, ``np.asarray(op)``, ``op.shape`` / ``op.ndim`` / ``op.dtype``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analog.topologies import AMCMode
from repro.arrays.mapping import DifferentialMapping
from repro.core.errors import CapacityError, GramcError, InputError, ShapeError
from repro.core.grid_engine import GridEngine, SweepStats
from repro.core.ranging import autorange_gain_batch
from repro.core.refine import DEFAULT_MAX_STEPS, refine_solve_result
from repro.core.results import SolveResult
from repro.macro.amc_macro import AMCMacro
from repro.macro.registers import PlaneLayout
from repro.obs import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.solver import GramcSolver


def finite_input(values, name: str) -> np.ndarray:
    """``values`` as a float array, or a structured refusal.

    The one input check of the public entry points (handle calls and
    serve admission), run before any engine call or fault supervision:
    a complex array is a wrong argument type (``TypeError``), and NaN or
    infinity raises :class:`~repro.core.errors.InputError` instead of
    leaking a library error from deep inside a kernel or coming back as
    a NaN answer.
    """
    if np.iscomplexobj(values):
        raise TypeError(f"{name} must be real-valued; got a complex array")
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise InputError(f"{name} contains NaN or infinite entries")
    return values


@dataclass
class TileBinding:
    """One matrix tile resident on one macro (pair)."""

    row_slice: slice
    col_slice: slice
    mapping: DifferentialMapping
    primary: AMCMacro
    partner: AMCMacro | None
    layout: PlaneLayout
    fault_correction: "np.ndarray | None" = None
    """Sparse signed-value error matrix of the tile's *stuck* cells
    (``decode(stuck) − decode(intended)``), applied digitally per solve.
    ``None`` when the tile has no faults (the overwhelmingly common case).
    Stuck-cell locations come from wafer test (the fault map is known
    hardware state), so this is an O(#faults) digital correction, not a
    hidden O(n²) digital matvec."""


class _Handle:
    """Call plumbing shared by the single-array and the tiled handle."""

    _solver: "GramcSolver"
    macro_ids: tuple[int, ...]

    def _capture_cost(self, result: SolveResult, before, started: float) -> SolveResult:
        """Attach the solver-ledger delta of this call (plus its
        wall-clock) as ``result.cost``."""
        cost = self._solver.cost.delta(before)
        cost.host_s = time.perf_counter() - started
        result.cost = cost
        return result

    def _empty_result(self, mode: AMCMode, reference: np.ndarray, **extra) -> SolveResult:
        """The zero-column call: nothing runs, metadata arrays are empty."""
        return SolveResult(
            mode=mode,
            value=np.zeros_like(reference),
            reference=reference,
            attempts=0,
            input_scale=1.0,
            stable=True,
            saturated=False,
            macro_ids=self.macro_ids,
            input_scales=np.zeros(0),
            per_column_attempts=np.zeros(0, dtype=int),
            column_saturated=np.zeros(0, dtype=bool),
            **extra,
        )

    def _fault_injector(self):
        """The chip's fault injector, when this call is the *top-level*
        operation.  Nested calls — a tiled solve's block steps, canary
        solves, healing retries — run bare: the injector freezes the
        substrate for the duration of one logical operation, and only
        that outermost operation is supervised (one tiled solve advances
        the chip clock exactly once).  ``None`` on a fault-free chip,
        keeping that path bitwise identical to a build without the
        faults package."""
        injector = getattr(self._solver.pool, "fault_injector", None)
        if injector is None or injector.busy:
            return None
        return injector


class AnalogOperator(_Handle):
    """A pinned-to-hardware matrix operator with explicit lifetime.

    Instances come from :meth:`GramcSolver.compile` /
    :meth:`GramcChip.compile` — never construct one directly.
    """

    __array_ufunc__ = None
    """Opt out of NumPy's ufunc protocol so ``x @ op`` dispatches to
    :meth:`__rmatmul__` (the analog transpose application) instead of
    being silently coerced through :meth:`__array__` into an exact
    digital product."""

    def __init__(
        self,
        solver: "GramcSolver",
        key: str,
        mode: AMCMode,
        matrix: np.ndarray,
        g_lambda: float = 0.0,
        quant_peak: float | None = None,
    ):
        self._solver = solver
        self.key = key
        self.mode = mode
        self.matrix = matrix
        self.g_lambda = g_lambda
        self.quant_peak = quant_peak
        self.program_count = 0
        """How many times this handle's tiles have been written to hardware."""
        self._refs = 1
        """Holder count: each ``compile`` returning this handle adds one;
        ``close`` releases hardware only when the last holder lets go."""
        self._tiles: list[TileBinding] | None = None
        self._stale = False
        self._closed = False
        self._pin_count = 0
        """Counted like ``_refs``: the macros stay pool-pinned while any
        holder's pin is outstanding."""
        self._ref_inverse: np.ndarray | None = None
        """INV only: cached digital inverse for per-solve references."""
        self._ref_pinv: np.ndarray | None = None
        """PINV only: cached digital pseudoinverse for per-solve references."""
        self._transpose: "AnalogOperator | None" = None
        """PINV only: the handle holding the Aᵀ plane pair."""
        self._t_view: "AnalogOperator | None" = None
        """MVM only: lazily compiled transpose operator for ``x @ op`` / ``op.T``."""
        self._egv_reference: np.ndarray | None = None
        """EGV only: cached digital reference eigenvector (the matrix is
        immutable, so one eigendecomposition serves every solve)."""
        self._probe: "AnalogOperator | None" = None
        """EGV only: the λ̂-estimate MVM probe; this handle owns one
        reference and releases it on close."""
        self._engine: GridEngine | None = None
        """MVM/INV: the handle's tiles as a stage stack (built on first use)."""

    # ------------------------------------------------------------- introspection

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape  # type: ignore[return-value]

    @property
    def ndim(self) -> int:
        return 2

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The digital copy of the programmed matrix (NumPy protocol)."""
        return np.array(self.matrix, dtype=dtype)

    @property
    def tiles(self) -> list[TileBinding]:
        """The resident tile bindings (re-programming first if evicted)."""
        self._ensure_programmed()
        assert self._tiles is not None
        return self._tiles

    @property
    def macro_ids(self) -> tuple[int, ...]:
        """Macros backing this handle (including a PINV transpose plane)."""
        self._ensure_programmed()
        return self._resident_macro_ids()

    def _resident_macro_ids(self) -> tuple[int, ...]:
        """Macro ids of the current tile bindings, without re-ensuring —
        for use right after :meth:`_ensure_programmed` on hot solve paths."""
        ids: list[int] = []
        for tile in self._tiles or []:
            ids.append(tile.primary.macro_id)
            if tile.partner is not None:
                ids.append(tile.partner.macro_id)
        if self._transpose is not None:
            ids.extend(self._transpose._resident_macro_ids())
        return tuple(ids)

    def resident_macro_ids(self) -> tuple[int, ...]:
        """Macros of the current bindings, *without* re-programming.

        The health monitor's spelling: diagnosing an evicted handle must
        not trigger the very reprogramming it is deciding about (unlike
        :attr:`macro_ids`, which re-ensures residency first).
        """
        return self._resident_macro_ids()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def is_pinned(self) -> bool:
        return self._pin_count > 0

    @property
    def resident(self) -> bool:
        """Whether the conductances are on the macros right now."""
        if self._closed or self._tiles is None or self._stale:
            return False
        pool = self._solver.pool
        if not all(pool.holds(owner) for owner in self.owner_names()):
            return False
        if self._transpose is not None:
            return self._transpose.resident
        return True

    def owner_names(self) -> list[str]:
        """This handle's tile-owner names inside the macro pool."""
        count = len(self._tiles) if self._tiles is not None else 0
        return [f"{self.key}/tile{i}" for i in range(count)]

    def quantized(self) -> np.ndarray:
        """The 4-bit quantized matrix actually targeted on the arrays."""
        out = np.zeros(self.shape)
        for tile in self.tiles:
            out[tile.row_slice, tile.col_slice] = tile.mapping.quantized_matrix()
        return out

    def __repr__(self) -> str:
        state = (
            "closed"
            if self._closed
            else ("resident" if self.resident else "evicted")
        )
        pin = ", pinned" if self.is_pinned else ""
        return (
            f"<AnalogOperator {self.mode.value} {self.shape[0]}×{self.shape[1]} "
            f"{state}{pin}, programmed ×{self.program_count}>"
        )

    # ------------------------------------------------------------------ lifetime

    def _ensure_programmed(self) -> None:
        if self._closed:
            raise GramcError(
                "operator handle is closed; compile the matrix again for a new one"
            )
        pool = self._solver.pool
        if (
            self._tiles is None
            or self._stale
            or not all(pool.holds(owner) for owner in self.owner_names())
        ):
            self._solver._program_operator(self)
        else:
            for owner in self.owner_names():
                pool.touch(owner)
        if self._transpose is not None:
            self._transpose._ensure_programmed()
            # Programming the transpose plane may have evicted our own tiles
            # (both plane sets must be resident *simultaneously* for PINV);
            # solving with a stale binding would compute garbage.
            if not all(pool.holds(owner) for owner in self.owner_names()):
                raise CapacityError(
                    "the operator and its transpose plane cannot both fit in "
                    "the pool's evictable capacity; close or unpin other "
                    "operators first"
                )

    def _on_evicted(self, owner: str) -> None:
        """Pool release callback: our macros were taken by another operand."""
        self._stale = True
        self._solver._forget(self)

    def _retain(self) -> "AnalogOperator":
        """Register one more holder (a ``compile`` cache hit)."""
        self._refs += 1
        return self

    def refresh(self) -> "AnalogOperator":
        """Force a re-program (write-verify anew) — drift recovery."""
        if self._closed:
            raise GramcError(
                "operator handle is closed; compile the matrix again for a new one"
            )
        self._solver._program_operator(self)
        if self._transpose is not None:
            self._transpose.refresh()
        return self

    def reverify_tiles(self, *, band: float, apply: bool = True) -> dict:
        """Targeted re-verify of every resident tile (healing rung 2).

        Measures each plane's stored conductances against the intended
        mapping targets and (when ``apply``) rewrites only the healthy
        cells that drifted further than ``band`` (a fraction of the
        G_MIN..G_MAX window) — the write-verify retry loop pointed at
        drift instead of a fresh program.  Stuck cells are excluded from
        deviation (they cannot be rewritten); their density is reported
        so the monitor can choose between digital compensation (MVM) and
        quarantine.  ``max_deviation`` is measured after any rewrite.
        """
        self._ensure_programmed()
        solver = self._solver
        cells_rewritten = 0
        max_deviation = 0.0
        out_of_band = 0
        stuck_cells = 0
        region_cells = 0
        assert self._tiles is not None
        for tile in self._tiles:
            for macro, targets in tile.primary.plane_targets(tile.mapping, tile.partner):
                stats = macro.array.reverify(targets, band=band, apply=apply)
                cells_rewritten += stats["cells_rewritten"]
                max_deviation = max(max_deviation, stats["max_deviation"])
                out_of_band += stats["out_of_band"]
                stuck_cells += stats["stuck_cells"]
                region_cells += stats["region_cells"]
                # Same ledger entry as _program_tiles.
                solver.cost.add_programming(stats["cells_rewritten"])
        if self._transpose is not None:
            inner = self._transpose.reverify_tiles(band=band, apply=apply)
            cells_rewritten += inner["cells_rewritten"]
            max_deviation = max(max_deviation, inner["max_deviation"])
            out_of_band += inner["out_of_band"]
            stuck_cells += int(
                round(inner["stuck_fraction"] * inner["region_cells"])
            )
            region_cells += inner["region_cells"]
        return {
            "cells_rewritten": cells_rewritten,
            "max_deviation": max_deviation,
            "out_of_band": out_of_band,
            "stuck_fraction": stuck_cells / region_cells if region_cells else 0.0,
            "region_cells": region_cells,
        }

    def pin(self) -> "AnalogOperator":
        """Exempt this operator's macros from LRU eviction.

        Pins are counted per holder, like references: the macros become
        evictable again only after as many :meth:`unpin` calls.
        """
        self._ensure_programmed()
        for owner in self.owner_names():
            self._solver.pool.pin(owner)
        self._pin_count += 1
        if self._transpose is not None:
            self._transpose.pin()
        return self

    def _owned_owners(self) -> list[str]:
        """The pool entries this handle itself holds right now — a stale,
        superseded handle must not release or unpin a replacement's macros,
        while a partially evicted handle must still free its survivors."""
        pool = self._solver.pool
        return [
            owner
            for owner in self.owner_names()
            if pool.owned_by(owner, self._on_evicted)
        ]

    def unpin(self) -> "AnalogOperator":
        """Drop one holder's pin; evictable again when none remain."""
        if self._pin_count > 0:
            self._pin_count -= 1
        if self._pin_count == 0:
            for owner in self._owned_owners():
                self._solver.pool.unpin(owner)
        if self._transpose is not None:
            self._transpose.unpin()
        return self

    def close(self) -> None:
        """Release the macros back to the pool; the handle becomes unusable.

        Handles are cached per operand, so several callers may hold the
        same one; each ``compile`` adds a reference and the macros are
        only released when the last holder closes (a ``with`` block on a
        shared handle therefore never tears it down under another user).
        Call ``close`` exactly once per ``compile`` — like a duplicated
        file descriptor, an extra close releases a co-holder's reference.
        """
        if self._closed:
            return
        self._refs -= 1
        if self._refs > 0:
            return
        pool = self._solver.pool
        for owner in self._owned_owners():
            pool.release(owner)
        if self._solver._operators.get(self.key) is self:
            self._solver._forget(self)
        self._tiles = None
        self._engine = None
        self._pin_count = 0
        self._closed = True
        if self._transpose is not None:
            self._transpose.close()
        # Release the holder references this handle took out on its lazily
        # compiled helpers; refcounting keeps them alive for other holders.
        if self._t_view is not None:
            self._t_view.close()
            self._t_view = None
        if self._probe is not None:
            self._probe.close()
            self._probe = None

    def __enter__(self) -> "AnalogOperator":
        self._ensure_programmed()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ----------------------------------------------------------------- execution

    @staticmethod
    def _tile_amplifiers(tile: TileBinding) -> int:
        """Active amplifier count of one tile (controller EXE convention)."""
        config = tile.primary.config
        return config.rows + config.cols

    def _require_mode(self, expected: AMCMode, operation: str) -> None:
        if self.mode is not expected:
            raise GramcError(
                f"{operation} needs an operator compiled for {expected.value}; "
                f"this handle is configured for {self.mode.value}"
            )

    def mvm(self, x: np.ndarray) -> SolveResult:
        """Analog product ``A·x`` with full diagnostics (``x``: vector or batch).

        The handle's tiles run as one stacked MVM stage — the grid
        engine's — with per-column input scales over the whole ``x`` and
        one ``g_f`` per tile ranged by its worst column.  A vector is a
        batch of one column.
        """
        x = finite_input(x, "x")
        injector = self._fault_injector()
        if injector is None:
            return self._mvm_impl(x)
        return injector.supervised_op(self, lambda: self._mvm_impl(x))

    def _mvm_impl(self, x: np.ndarray) -> SolveResult:
        """The unsupervised MVM body (see :meth:`mvm`)."""
        self._require_mode(AMCMode.MVM, "mvm")
        if x.ndim == 0 or x.ndim > 2 or x.shape[0] != self.shape[1]:
            raise ShapeError(
                f"x must have leading dimension {self.shape[1]} (vector or batch)"
            )
        started = time.perf_counter()
        before = self._solver.cost.snapshot()
        self._ensure_programmed()
        reference = self.matrix @ x
        if x.ndim == 2 and x.shape[1] == 0:
            return self._capture_cost(
                self._empty_result(self.mode, reference), before, started
            )
        big_x = x if x.ndim == 2 else x[:, None]
        k = big_x.shape[1]
        stats = SweepStats(k)
        out = np.zeros((self.shape[0], k))
        assert self._tiles is not None
        with trace.span("mvm", shape=str(self.shape), columns=k, tiles=len(self._tiles)):
            stack = self._stack()
            scales = self._solver._input_scales(big_x)
            for slot, value in stack._mvm_stage(stack._off_slots, big_x, stats, scales):
                out[slot.tile.row_slice] += value
        return self._capture_cost(
            stats.result(self.mode, out, reference, self._resident_macro_ids(), x.ndim == 2), before, started
        )

    def solve(
        self,
        b: np.ndarray,
        _reference: np.ndarray | None = None,
        *,
        rtol: "float | np.ndarray | None" = None,
        max_refine_steps: int = DEFAULT_MAX_STEPS,
    ) -> SolveResult:
        """Analog linear solve ``A·y = b`` (``b``: vector or batch).

        On a chip with a fault plan attached this call runs under fault
        supervision (:meth:`FaultInjector.supervised_solve`): its outcome
        feeds the health monitor, and an unmet contract triggers the
        self-healing ladder plus exactly one retry before a structured
        :class:`~repro.core.errors.DegradedChipError` is raised.

        Without ``rtol`` this is the classic one-step analog solve: one
        feedback settling, accuracy bounded by quantization/noise at
        η ≈ 1e-2..1e-1 relative.  **With** ``rtol`` the analog answer is
        only the seed of a digital flexible-GMRES loop
        (:mod:`repro.core.refine`): the controller measures the float64
        residual ``b − A·x`` and uses analog solves on this *already
        programmed* operator as the preconditioner (zero reprogramming —
        one batched engine call per step, over the columns still above
        target) until every column's relative residual meets its target
        or ``max_refine_steps`` is spent.

        ``rtol`` may be a positive scalar or a per-column ``(k,)``
        vector; ``inf`` entries ride the shared analog step but skip
        refinement.  The result's ``refine_steps`` /
        ``refined_residual`` / ``per_column_converged`` /
        ``refine_residual_trace`` report the contract's outcome.  An
        unmet contract is returned, not raised: ``converged`` is False
        and ``worst_columns`` names the offenders.
        """
        b = finite_input(b, "b")
        injector = self._fault_injector()
        if injector is None:
            return self._solve_impl(
                b, _reference, rtol=rtol, max_refine_steps=max_refine_steps
            )
        return injector.supervised_solve(
            self,
            lambda: self._solve_impl(
                b, _reference, rtol=rtol, max_refine_steps=max_refine_steps
            ),
            rtol=rtol,
        )

    def _solve_impl(
        self,
        b: np.ndarray,
        _reference: np.ndarray | None = None,
        *,
        rtol: "float | np.ndarray | None" = None,
        max_refine_steps: int = DEFAULT_MAX_STEPS,
    ) -> SolveResult:
        """The unsupervised solve body (see :meth:`solve`)."""
        started = time.perf_counter()
        before = self._solver.cost.snapshot()
        with trace.span(
            "solve",
            mode=self.mode.value,
            shape=str(self.shape),
            columns=b.shape[1] if b.ndim == 2 else 1,
            refine=rtol is not None,
        ):
            base = self._solve_analog(b, _reference)
            if rtol is None:
                return self._capture_cost(base, before, started)
            refined = refine_solve_result(
                base,
                matrix=self.matrix,
                b=b,
                rtol=rtol,
                max_steps=max_refine_steps,
                solve_correction=self._solve_batch,
                solver=self._solver,
            )
        return self._capture_cost(refined, before, started)

    def _solve_analog(
        self, b: np.ndarray, _reference: np.ndarray | None = None
    ) -> SolveResult:
        """The raw one-step analog solve (no refinement)."""
        self._require_mode(AMCMode.INV, "solve")
        n = self.shape[0]
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ShapeError(f"b must have leading dimension {n} (vector or batch)")
        if self._ref_inverse is None:
            # One factorization of the immutable matrix covers every solve's
            # digital reference (program-once / solve-many, digitally too).
            self._ref_inverse = np.linalg.inv(self.matrix)
        reference = self._ref_inverse @ b if _reference is None else _reference
        return self._solve_batch(b if b.ndim == 2 else b[:, None], reference, b.ndim == 2)

    def _solve_batch(
        self, b: np.ndarray, reference: np.ndarray | None = None, batched: bool = True
    ) -> SolveResult:
        """Matrix right-hand side through the INV loop as a one-slot INV
        stage: all ``k`` columns share the resident circuit's one
        equilibrium inverse — "the feedback loop settles once for the whole
        block"."""
        if reference is None:
            reference = self._ref_inverse @ b
        if b.shape[1] == 0:
            return self._empty_result(self.mode, reference)
        self._ensure_programmed()
        stats = SweepStats(b.shape[1])
        x = np.empty(b.shape)
        self._stack()._diag_stage([0], b[None], x, stats)
        return stats.result(self.mode, x, reference, self._resident_macro_ids(), batched)

    def lstsq(self, b: np.ndarray, _reference: np.ndarray | None = None) -> SolveResult:
        """Analog least squares ``min‖A·y − b‖`` (``b``: vector or batch)."""
        b = finite_input(b, "b")
        injector = self._fault_injector()
        if injector is None:
            return self._lstsq_impl(b, _reference)
        return injector.supervised_op(self, lambda: self._lstsq_impl(b, _reference))

    def _lstsq_impl(
        self, b: np.ndarray, _reference: np.ndarray | None = None
    ) -> SolveResult:
        """The unsupervised lstsq body (see :meth:`lstsq`): the PINV loop
        in one engine call, a vector as a batch of one column."""
        self._require_mode(AMCMode.PINV, "lstsq")
        if self._transpose is None:
            raise GramcError(
                "this PINV handle holds only a transpose plane; "
                "compile the tall matrix itself to run lstsq"
            )
        m = self.shape[0]
        if b.ndim not in (1, 2) or b.shape[0] != m:
            raise ShapeError(f"b must have leading dimension {m} (vector or batch)")
        started = time.perf_counter()
        before = self._solver.cost.snapshot()
        if self._ref_pinv is None:
            # One pseudoinverse of the immutable matrix covers every solve.
            self._ref_pinv = np.linalg.pinv(self.matrix)
        reference = self._ref_pinv @ b if _reference is None else _reference
        batched = b.ndim == 2
        big_b = b if batched else b[:, None]
        k = big_b.shape[1]
        with trace.span("solve", mode=self.mode.value, shape=str(self.shape), columns=k):
            if k == 0:
                return self._capture_cost(
                    self._empty_result(self.mode, reference), before, started
                )
            self._ensure_programmed()
            solver = self._solver
            assert self._tiles is not None and self._transpose._tiles is not None
            tile_a = self._tiles[0]
            tile_at = self._transpose._tiles[0]
            outcome = autorange_gain_batch(
                lambda s: tile_a.primary.compute_pinv(
                    big_b / s,
                    partner_t=tile_at.primary,
                    partner_neg=tile_a.partner,
                    partner_t_neg=tile_at.partner,
                ),
                tile_a.primary,
                lambda result, s, g_f: -result.values * s / (tile_a.mapping.value_scale * g_f),
                scales=solver._input_scales(big_b),
                target=solver._output_target,
                max_attempts=solver.max_attempts,
            )
            cost = solver.cost
            cost.add_dispatches(outcome.attempts)
            m_rows, n_cols = self.shape
            cost.add_conversions(
                dac=m_rows * k * outcome.attempts, adc=n_cols * k * outcome.attempts
            )
            cost.add_engine_macs(2 * m_rows * n_cols * k * outcome.attempts)
            cost.add_analog(
                AMCMode.PINV.value,
                self._tile_amplifiers(tile_a) + self._tile_amplifiers(tile_at),
                outcome.result.solution.settling_time,
            )
        stats = SweepStats(k)
        stats.add(
            attempts=outcome.attempts,
            stable=outcome.result.solution.stable,
            input_scale=float(np.max(outcome.input_scales)),
            input_scales=outcome.input_scales,
            column_saturated=outcome.result.solution.column_saturated,
        )
        result = stats.result(
            self.mode, outcome.value, reference, self._resident_macro_ids(), batched
        )
        return self._capture_cost(result, before, started)

    def eigvec(self, transient: bool = False) -> SolveResult:
        """Dominant eigenvector via the EGV topology (unit norm)."""
        injector = self._fault_injector()
        if injector is None:
            return self._eigvec_impl(transient)
        return injector.supervised_op(self, lambda: self._eigvec_impl(transient))

    def _eigvec_impl(self, transient: bool = False) -> SolveResult:
        """The unsupervised eigvec body (see :meth:`eigvec`)."""
        self._require_mode(AMCMode.EGV, "eigvec")
        started = time.perf_counter()
        before = self._solver.cost.snapshot()
        self._ensure_programmed()
        solver = self._solver
        assert self._tiles is not None
        tile = self._tiles[0]
        with trace.span("solve", mode=self.mode.value, shape=str(self.shape)):
            result = tile.primary.compute_egv(partner=tile.partner, transient=transient)

        if self._egv_reference is None:
            eigenvalues, eigenvectors = np.linalg.eig(self.matrix)
            dominant = int(np.argmax(eigenvalues.real))
            reference = np.real(eigenvectors[:, dominant])
            reference = reference / np.linalg.norm(reference)
            pivot = int(np.argmax(np.abs(reference)))
            if reference[pivot] < 0:
                reference = -reference
            self._egv_reference = reference
        reference = self._egv_reference
        # An eigenvector's sign is arbitrary; report the analog vector in
        # the same orientation as the reference (pivot-based conventions can
        # flip when two components near-tie under analog noise).
        value = result.values
        if float(value @ reference) < 0.0:
            value = -value

        cost = solver.cost
        cost.add_dispatches(1)
        n = self.shape[0]
        cost.add_conversions(adc=n)
        cost.add_engine_macs(n * n)
        cost.add_analog(
            AMCMode.EGV.value, self._tile_amplifiers(tile), result.solution.settling_time
        )
        return self._capture_cost(
            SolveResult(
                mode=AMCMode.EGV,
                value=value,
                reference=reference,
                attempts=1,
                input_scale=1.0,
                stable=result.solution.stable,
                saturated=result.solution.saturated,
                settling_time=result.solution.settling_time,
                macro_ids=self._resident_macro_ids(),
            ),
            before,
            started,
        )

    def _stack(self) -> GridEngine:
        """This handle as a stack of its tiles, re-synced for this call."""
        if self._engine is None:
            self._engine = GridEngine.for_handle(self)
        self._engine.refresh()
        return self._engine

    # -------------------------------------------------------------- numpy sugar

    @property
    def T(self) -> "AnalogOperator":
        """The transpose as its own operator (compiled on first access)."""
        self._require_mode(AMCMode.MVM, "transpose application")
        if self._closed:
            raise GramcError(
                "operator handle is closed; compile the matrix again for a new one"
            )
        if self._t_view is None or self._t_view.closed:
            self._t_view = self._solver.compile(
                self.matrix.T, AMCMode.MVM, quant_peak=self.quant_peak
            )
        return self._t_view

    def __matmul__(self, other) -> np.ndarray:
        """``op @ x`` — the analog product as a plain array (vector or batch)."""
        self._require_mode(AMCMode.MVM, "'@'")
        return self.mvm(other).value

    def __rmatmul__(self, other) -> np.ndarray:
        """``x @ op`` — transpose application ``xᵀ·A = (Aᵀ·x)ᵀ``."""
        other = finite_input(other, "x")
        transpose = self.T
        if other.ndim == 1:
            return transpose.mvm(other).value
        return transpose.mvm(other.T).value.T
