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

Every operation on either handle (``mvm``, ``solve``, ``lstsq``,
``eigvec``, ``@``, ``x @ op``, ``.T``) crosses one call boundary.  It
first checks the handle (open, right mode), the payload and ``rtol``, so
a refusal raises before the fault clock ticks, the ledger is written or
the engine runs; it then runs the body, under fault supervision when it
is the top-level operation, and attaches each attempt's ledger delta and
wall-clock as ``result.cost``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from repro.analog.topologies import AMCMode
from repro.arrays.mapping import DifferentialMapping
from repro.core.errors import CapacityError, ConvergenceError, GramcError, InputError, ShapeError
from repro.core.grid_engine import GridEngine, SweepStats
from repro.core.ranging import autorange_gain_batch
from repro.core.refine import DEFAULT_MAX_STEPS, as_rtol_vector, refine_solve_result, scaled_norm
from repro.core.results import SolveResult
from repro.macro.amc_macro import AMCMacro
from repro.macro.registers import PlaneLayout
from repro.obs import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.solver import GramcSolver


def finite_input(values, name: str, rows: int | None = None) -> np.ndarray:
    """``values`` as a float array, or a structured refusal.

    The one input check of the public entry points (handle calls and
    serve admission), run before any engine call or fault supervision:
    a complex array is a wrong argument type (``TypeError``), and NaN or
    infinity raises :class:`~repro.core.errors.InputError` instead of
    leaking a library error from deep inside a kernel or coming back as
    a NaN answer.  With ``rows`` the values are a payload — a vector or
    a batch of columns with that leading dimension — and any other shape
    raises :class:`~repro.core.errors.ShapeError`.
    """
    if np.iscomplexobj(values):
        raise TypeError(f"{name} must be real-valued; got a complex array")
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise InputError(f"{name} contains NaN or infinite entries")
    if rows is not None and (values.ndim not in (1, 2) or values.shape[0] != rows):
        raise ShapeError(
            f"{name} must have leading dimension {rows} (vector or batch); "
            f"got shape {values.shape}"
        )
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
    """What the single-array and the tiled handle share: the NumPy
    protocol, the call boundary, the whole lifetime (see the module
    docstring) and the bodies of ``solve`` and ``mvm``, each written once
    over the handle's stage stacks (a single array is the one-block grid).

    A handle declares three things, and every lifetime operation —
    residency, owner names, macro ids, pins, refresh, re-verify and
    close — is written once over them:

    * its own tile bindings, ``_tiles`` (a grid binds none itself);
    * its **parts**, :meth:`_parts`: the handles its operations need
      resident with it — a PINV handle's transpose plane, a grid's INV
      and MVM blocks;
    * its **held** references, ``_held``: handles it keeps open and
      closes with itself — the ``x @ op`` transpose view, the EGV probe,
      a grid's lazily compiled diagonal MVM views.
    """

    _HOLDER_PINS = False
    """Whether every holder gets a pin, dropped by its ``close`` (a grid:
    a blocked sweep needs every block resident between a holder's
    solves).  A single-array handle is pinned only on request."""

    _REFRESH_HELD = False
    """Whether ``refresh`` and healing reach the held handles too (a
    grid: its diagonal MVM views are its blocks for ``op @ x``).  A
    single-array handle's transpose view and EGV probe are operators of
    their own."""

    _SCALE_PER_BLOCK = False
    """Whether a product scales each column per block, to the block's own
    slice of ``x`` (a grid), instead of once over the whole ``x`` (a
    single array)."""

    def __init__(
        self,
        solver: "GramcSolver",
        key: str,
        mode: AMCMode,
        matrix: np.ndarray,
        quant_peak: float | None,
    ):
        self._solver = solver
        self.key = key
        self.mode = mode
        self.matrix = matrix
        self.quant_peak = quant_peak
        self._refs = 1
        """Holder count: each ``compile`` returning this handle adds one;
        ``close`` releases hardware only when the last holder lets go."""
        self._pin_count = int(self._HOLDER_PINS)
        """Counted like ``_refs``: the macros stay pool-pinned while any
        holder's pin is outstanding."""
        self._closed = False
        self._tiles: list[TileBinding] | None = None
        """The handle's own bindings: ``None`` until programmed and after
        close, ``[]`` for a grid (its blocks bind the tiles)."""
        self._stale = False
        self._held: dict[object, _Handle] = {}
        self._ref_inverse: np.ndarray | None = None
        """INV: cached digital inverse for per-solve references."""
        self._engine: GridEngine | None = None
        """The stage stack a solve runs (built on first use)."""
        self._product: GridEngine | None = None
        """The stage stack ``mvm`` runs (built on the first product)."""

    __array_ufunc__ = None
    """Opt out of NumPy's ufunc protocol so ``x @ op`` dispatches to
    ``__rmatmul__`` (an analog application) instead of being silently
    coerced through :meth:`__array__` into an exact digital product."""

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
    def closed(self) -> bool:
        return self._closed

    @property
    def is_pinned(self) -> bool:
        return self._pin_count > 0

    def _parts(self) -> "list[_Handle]":
        """The handles this one's operations need resident with it."""
        return []

    def _drop_parts(self) -> None:
        """Forget the parts once they are closed (a grid's rollback)."""

    def _retain(self):
        """Register one more holder (a ``compile`` cache hit), with its
        pin when every holder gets one."""
        if self._HOLDER_PINS:
            self.pin()
        self._refs += 1
        return self

    def _hold(self, name: object, handle: "_Handle") -> None:
        """Keep one holder reference of ``handle`` as ``name``, closed
        with this handle; a further reference to a held name is dropped."""
        if name in self._held:
            handle.close()
        else:
            self._held[name] = handle

    def _view(self, name: object, build) -> "_Handle":
        """The held handle ``name``, built on first use (and again once
        closed)."""
        handle = self._held.get(name)
        if handle is None or handle.closed:
            handle = self._held[name] = build()
        return handle

    # ----------------------------------------------------------------- lifetime

    def _tile_owners(self) -> list[str]:
        """Pool owner names of this handle's own tiles."""
        return [f"{self.key}/tile{i}" for i in range(len(self._tiles or ()))]

    def _holds_tiles(self) -> bool:
        pool = self._solver.pool
        return all(pool.holds(owner) for owner in self._tile_owners())

    def owner_names(self) -> list[str]:
        """Every pool owner name behind this handle: its tiles', then its
        parts'."""
        names = self._tile_owners()
        for part in self._parts():
            names.extend(part.owner_names())
        return names

    def resident_macro_ids(self) -> tuple[int, ...]:
        """Macros of the current bindings and the parts', *without*
        re-programming.

        For the solve paths right after :meth:`_ensure_programmed`, and
        for the health monitor: diagnosing an evicted handle must not
        trigger the very reprogramming it is deciding about (unlike
        :attr:`macro_ids`, which re-ensures residency first).
        """
        ids: list[int] = []
        for tile in self._tiles or ():
            ids.append(tile.primary.macro_id)
            if tile.partner is not None:
                ids.append(tile.partner.macro_id)
        for part in self._parts():
            ids.extend(part.resident_macro_ids())
        return tuple(ids)

    @property
    def macro_ids(self) -> tuple[int, ...]:
        """Macros backing this handle and its parts (re-programming first
        if evicted)."""
        self._ensure_programmed()
        return self.resident_macro_ids()

    @property
    def resident(self) -> bool:
        """Whether the conductances — the parts' too — are on the macros
        right now."""
        if self._closed or self._tiles is None or self._stale:
            return False
        return self._holds_tiles() and all(part.resident for part in self._parts())

    def _ensure_tiles(self) -> None:
        """Re-program this handle's own tiles if stale or evicted, else
        mark them most recently used."""
        self._require_open()
        pool = self._solver.pool
        owners = self._tile_owners()
        if self._tiles is None or self._stale or not all(pool.holds(o) for o in owners):
            self._solver._program_operator(self)
        else:
            for owner in owners:
                pool.touch(owner)

    def _ensure_programmed(self) -> None:
        """Make the tiles and every part resident, re-programming what
        was evicted."""
        self._ensure_tiles()
        parts = self._parts()
        for part in parts:
            part._ensure_programmed()
        # Programming a part may have evicted our own tiles (they must be
        # resident *simultaneously*); solving with a stale binding would
        # compute garbage.
        if parts and not self._holds_tiles():
            raise CapacityError(
                "the operator and its parts cannot all fit in the pool's "
                "evictable capacity; close or unpin other operators first"
            )

    def _on_evicted(self, owner: str) -> None:
        """Pool release callback: our macros were taken by another operand."""
        self._stale = True
        self._solver._forget(self)

    def _refreshed(self) -> "list[_Handle]":
        """The handles ``refresh`` and healing reach besides this one."""
        held = list(self._held.values()) if self._REFRESH_HELD else []
        return [*self._parts(), *held]

    def tile_handles(self) -> "list[_Handle]":
        """The handles that bind tiles, each one unit of healing: this
        handle, or a grid's blocks and diagonal views."""
        return [self] if self._tiles else self._refreshed()

    def refresh(self):
        """Force a re-program (write-verify anew) of the tiles and every
        part — drift recovery.  One drifted crossbar spoils a grid's
        whole accuracy budget, so a grid's refresh is grid-wide."""
        self._require_open()
        if self._tiles:
            self._solver._program_operator(self)
        for handle in self._refreshed():
            handle.refresh()
        return self

    def reverify_tiles(self, *, band: float, apply: bool = True) -> dict:
        """Targeted re-verify of every resident tile, the parts' too
        (healing rung 2).

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
        for tile in self._tiles or ():
            for macro, targets in tile.primary.plane_targets(tile.mapping, tile.partner):
                stats = macro.array.reverify(targets, band=band, apply=apply)
                cells_rewritten += stats["cells_rewritten"]
                max_deviation = max(max_deviation, stats["max_deviation"])
                out_of_band += stats["out_of_band"]
                stuck_cells += stats["stuck_cells"]
                region_cells += stats["region_cells"]
                # Same ledger entry as _program_tiles.
                solver.cost.add_programming(stats["cells_rewritten"])
        for part in self._parts():
            inner = part.reverify_tiles(band=band, apply=apply)
            cells_rewritten += inner["cells_rewritten"]
            max_deviation = max(max_deviation, inner["max_deviation"])
            out_of_band += inner["out_of_band"]
            stuck_cells += int(round(inner["stuck_fraction"] * inner["region_cells"]))
            region_cells += inner["region_cells"]
        return {
            "cells_rewritten": cells_rewritten,
            "max_deviation": max_deviation,
            "out_of_band": out_of_band,
            "stuck_fraction": stuck_cells / region_cells if region_cells else 0.0,
            "region_cells": region_cells,
        }

    def pin(self):
        """Exempt the tiles and every part from LRU eviction.

        Pins are counted per holder, like references: the macros become
        evictable again only after as many :meth:`unpin` calls.
        """
        self._ensure_tiles()
        for owner in self._tile_owners():
            self._solver.pool.pin(owner)
        self._pin_count += 1
        for part in self._parts():
            part.pin()
        return self

    def _owned_owners(self) -> list[str]:
        """The pool entries this handle itself holds right now — a stale,
        superseded handle must not release or unpin a replacement's macros,
        while a partially evicted handle must still free its survivors."""
        pool = self._solver.pool
        return [
            owner
            for owner in self._tile_owners()
            if pool.owned_by(owner, self._on_evicted)
        ]

    def unpin(self):
        """Drop one holder's pin; evictable again when none remain (an
        evicted tile transparently re-programs on next use).  One
        holder's unpin never strips a co-holder's pin — but where every
        holder gets a pin (a grid), ``close`` drops the closing holder's,
        so call either ``unpin()`` or rely on ``close()``, not both."""
        if self._pin_count > 0:
            self._pin_count -= 1
            if self._pin_count == 0:
                for owner in self._owned_owners():
                    self._solver.pool.unpin(owner)
            for part in self._parts():
                part.unpin()
        return self

    def close(self) -> None:
        """Release the macros back to the pool; the handle becomes unusable.

        Handles are cached per operand, so several callers may hold the
        same one; each ``compile`` adds a reference and the macros are
        only released when the last holder closes (a ``with`` block on a
        shared handle therefore never tears it down under another user).
        Call ``close`` exactly once per ``compile`` — like a duplicated
        file descriptor, an extra close releases a co-holder's reference.
        The parts and held handles are closed with the last holder.
        """
        if self._closed:
            return
        if self._HOLDER_PINS:
            self.unpin()  # this holder's pin dies with its reference
        self._refs -= 1
        if self._refs > 0:
            return
        while self._pin_count > 0:  # pins leaked by a missing unpin
            self.unpin()
        for owner in self._owned_owners():
            self._solver.pool.release(owner)
        self._solver._forget(self)
        self._tiles = None
        self._engine = self._product = None
        self._closed = True
        for handle in (*self._parts(), *self._held.values()):
            handle.close()
        self._drop_parts()
        self._held = {}

    def _grid_engine(self) -> GridEngine:
        """The solve stack, built on first use and re-synced for this call."""
        if self._engine is None:
            self._engine = GridEngine.for_handle(self)
        return self._synced(self._engine)

    def _synced(self, engine: GridEngine, slots=None) -> GridEngine:
        """``engine`` (or only its MVM ``slots``) re-synced for this call;
        the slices a re-sync rebuilds go on the ledger."""
        rebuilt = engine.refresh(slots)
        if rebuilt:
            self._solver.cost.add_stack_rebuilds(rebuilt)
        return engine

    def _span_attrs(self) -> dict:
        """What an operation's trace span says of the handle: its shape
        (a grid adds its block grid)."""
        return {"shape": str(self.shape)}

    def __enter__(self):
        self._ensure_programmed()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __matmul__(self, other) -> np.ndarray:
        """``op @ x`` — the analog product as a plain array (vector or batch)."""
        return self.mvm(other).value

    # ------------------------------------------------------------ call boundary

    def _require_open(self) -> None:
        if self._closed:
            raise GramcError(
                "operator handle is closed; compile the matrix again for a new one"
            )

    def _accept(
        self,
        mode: AMCMode | None,
        operation: str,
        values=None,
        rows: int = 0,
        name: str = "b",
        rtol=None,
    ) -> np.ndarray | None:
        """Check step of the boundary: refuse a closed handle, a mode
        other than ``mode`` (``None``: any), a bad payload or a bad
        ``rtol``.  Returns the payload as a float array."""
        self._require_open()
        if mode is not None and self.mode is not mode:
            raise GramcError(
                f"{operation} needs an operator compiled for {mode.value}; "
                f"this handle is configured for {self.mode.value}"
            )
        if values is None:
            return None
        values = finite_input(values, name, rows)
        if rtol is not None:
            as_rtol_vector(rtol, values.shape[1] if values.ndim == 2 else 1)
        return values

    def _call(self, body, *, solve: bool = False, rtol=None) -> SolveResult:
        """Run step of the boundary: ``body()`` of an accepted call (with
        ``solve``, an INV solve, which also reports its ledger's engine
        dispatches and stack rebuilds).

        Only the *top-level* operation is supervised: nested calls (a
        tiled operation's block steps, canary solves, healing retries)
        find the injector busy and run bare, so one logical operation
        advances the chip clock exactly once; a fault-free chip runs
        bare too, bitwise identical to a build without the faults
        package.  Each attempt carries its own ledger delta and
        wall-clock as ``result.cost``, so a healed retry's cost leaves
        the healing out.
        """

        def attempt() -> SolveResult:
            started = time.perf_counter()
            before = self._solver.cost.snapshot()
            result = body()
            result.cost = self._solver.cost.delta(before)
            result.cost.host_s = time.perf_counter() - started
            if solve:
                result.engine_dispatches = result.cost.engine_dispatches
                result.stack_rebuilds = result.cost.stack_rebuilds
            return result

        injector = getattr(self._solver.pool, "fault_injector", None)
        if injector is None or injector.busy:
            return attempt()
        if solve:
            return injector.supervised_solve(self, attempt, rtol=rtol)
        return injector.supervised_op(self, attempt)

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

    # --------------------------------------------------------------- operations

    def _run_mvm(self, x: np.ndarray) -> SolveResult:
        """The accepted product: one stacked MVM stage over the product
        stack — a single array's tiles, or a grid's couplings and
        diagonal MVM views — each slot adding into its output rows."""
        reference = self.matrix @ x
        batched = x.ndim == 2
        if batched and x.shape[1] == 0:
            return self._empty_result(AMCMode.MVM, reference)
        big_x = x if batched else x[:, None]
        k = big_x.shape[1]
        stats = SweepStats(k)
        out = np.zeros((self.shape[0], k))
        with trace.span("mvm", columns=k, **self._span_attrs()):
            if self._product is None:
                self._product = GridEngine.for_handle(self, product=True)
            stack = self._product
            scales = None if self._SCALE_PER_BLOCK else self._solver._input_scales(big_x)
            pending = stack._off_slots
            while pending:
                # Each handle the stage reads is made resident once, in
                # slot order.  Where the pool cannot hold them all at
                # once (a grid's unpinned diagonal views under pressure),
                # a later one's programming evicts an earlier one, whose
                # slots wait for the next stage.
                held = dict.fromkeys(slot.handle for slot in pending)
                for handle in held:
                    handle._ensure_programmed()
                for handle in held:
                    held[handle] = handle._holds_tiles()
                ready = [slot for slot in pending if held[slot.handle]]
                self._synced(stack, ready)
                for slot, value in stack._mvm_stage(ready, big_x, stats, scales):
                    out[slot.dst] += value
                pending = [slot for slot in pending if not held[slot.handle]]
        return stats.result(AMCMode.MVM, out, reference, self.resident_macro_ids(), batched)

    def _run_solve(
        self,
        b: np.ndarray,
        reference: np.ndarray | None,
        rtol: "float | np.ndarray | None",
        max_refine_steps: int,
        tolerance: float | None = None,
        max_sweeps: int = 1,
        gauss_seidel: bool = False,
    ) -> SolveResult:
        """The accepted solve on the solve stack, refined when ``rtol`` is
        set.

        A single array is the one-block grid: its stack is one INV slot
        with no couplings, so its base solve and every refinement
        correction are one sweep from zero and the sweep options go
        unused.
        """
        if self._ref_inverse is None:
            # One factorization of the immutable matrix serves every solve.
            self._ref_inverse = np.linalg.inv(self.matrix)
        if reference is None:
            reference = self._ref_inverse @ b
        batched = b.ndim == 2
        big_b = b if batched else b[:, None]
        columns = big_b.shape[1]
        with trace.span(
            "solve",
            mode=AMCMode.INV.value,
            columns=columns,
            refine=rtol is not None,
            **self._span_attrs(),
        ) as sp:
            if columns == 0:
                result = self._empty_result(AMCMode.INV, reference, sweeps=0, converged=True)
            else:
                self._ensure_programmed()
                grid = self._grid_engine()
                stats = SweepStats(columns)
                # Under ``rtol`` the base solve is a single sweep:
                # refinement steps do the contracting, on the float64
                # residual.
                x, sweeps, converged = self._run_sweeps(
                    big_b, stats, grid,
                    sweeps=max_sweeps if rtol is None else 1,
                    tolerance=tolerance if rtol is None else None,
                    gauss_seidel=gauss_seidel,
                )
                result = stats.result(
                    AMCMode.INV, x, reference, self.resident_macro_ids(), batched,
                    sweeps=sweeps, converged=converged,
                )

            if rtol is not None:
                # Each refinement step preconditions on the resident stack
                # with one sweep from zero (zero reprogramming); its
                # per-column metadata stays local to the step — the
                # returned per-column arrays describe the base analog step,
                # the scalar attempts/stable/saturated fold corrections in.
                def correction(columns: np.ndarray) -> SimpleNamespace:
                    corr_stats = SweepStats(columns.shape[1])
                    xc, _, _ = self._run_sweeps(
                        columns, corr_stats, grid,
                        sweeps=1, tolerance=None, gauss_seidel=gauss_seidel,
                    )
                    return SimpleNamespace(
                        value=xc,
                        attempts=corr_stats.total_attempts,
                        stable=corr_stats.stable,
                        saturated=corr_stats.saturated,
                    )

                result = refine_solve_result(
                    result,
                    matrix=self.matrix,
                    b=b,
                    rtol=rtol,
                    max_steps=max_refine_steps,
                    solve_correction=correction,
                    solver=self._solver,
                )
                result.sweeps += result.refine_steps  # one sweep per step
            # The floor of the returned answer: measured once, after any
            # refinement.
            result.residual_floor = self._residual_floor(b, result.value)
            sp.set(sweeps=result.sweeps, converged=bool(result.converged))
        return result

    @staticmethod
    def _run_sweeps(
        big_b: np.ndarray,
        stats: SweepStats,
        grid: GridEngine,
        *,
        sweeps: int,
        tolerance: float | None,
        gauss_seidel: bool,
    ) -> tuple[np.ndarray, int, bool]:
        """A blocked solve from a zero initial iterate.

        The uncoupled block rows (a single array's one block) solve once;
        the coupled ones sweep.  With a ``tolerance`` (the ``rtol=None``
        solve) they sweep until the relative update falls below it, the
        update stalls, or ``sweeps`` run out.  With ``tolerance=None``
        (the base solve and every refinement correction of an ``rtol``
        solve) they run exactly ``sweeps`` sweeps (one, in every caller)
        and keep no update bookkeeping: from zero, one sweep's update is
        the coupled rows of ``x``, so a non-finite ``x`` is the whole
        divergence test.  Returns ``(x, sweeps_run, converged)``;
        ``stats`` accumulates the engine-call diagnostics of this solve
        only.
        """
        x = np.zeros_like(big_b)
        if grid.uncoupled:
            grid.presolve_uncoupled(big_b, x, stats)
        if not grid.coupled:
            return x, 1, True

        converged = False
        previous_delta = float("inf")
        stalled = 0
        sweep = 0
        for sweep in range(1, sweeps + 1):
            previous = None if tolerance is None else x.copy()
            with trace.span(
                "sweep",
                sweep=sweep,
                method="gauss-seidel" if gauss_seidel else "jacobi",
                tiles=len(grid.coupled),
            ):
                grid.sweep(big_b, x, stats, gauss_seidel)
            if previous is None:
                diverged = not np.isfinite(x).all()
            else:
                # Scale-safe norms: a 1e300 right-hand side must not read
                # as an overflowing (diverged) update.
                delta = scaled_norm(x - previous)
                scale = scaled_norm(x)
                diverged = not np.isfinite(delta) or delta > 1e9 * scale
            if diverged:
                raise ConvergenceError(
                    "block sweep diverged — the operand is not block-"
                    "diagonally dominant enough for a stationary blocked solve"
                )
            if previous is None:
                continue
            relative_delta = delta / scale if scale > 0.0 else 0.0
            if relative_delta < tolerance:
                converged = True
                break
            # Inexact analog steps bound the attainable accuracy at the
            # O(η·κ) floor: once the update stops contracting, further
            # sweeps only burn settling events.  "Stopped contracting"
            # must be judged near-flat (≥ 0.9× the previous update, three
            # sweeps running) — a slowly convergent splitting with
            # contraction rate 0.5–0.9 is still making real progress and
            # deserves its full sweep budget.
            if relative_delta > 0.9 * previous_delta:
                stalled += 1
                if stalled >= 3:
                    break
            else:
                stalled = 0
            previous_delta = relative_delta
        return x, sweep, converged

    def _residual_floor(self, b: np.ndarray, value: np.ndarray) -> float:
        """Digitally evaluated relative residual of the analog solution.

        A diagnostic, not part of the solve pipeline: one O(n²·k) digital
        product per solve, reported so users see the O(η·κ) floor the
        inexact-matvec model predicts.
        """
        b_norm = scaled_norm(b)
        if b_norm == 0.0:
            return scaled_norm(value)
        return scaled_norm(b - self.matrix @ value) / b_norm


class AnalogOperator(_Handle):
    """A pinned-to-hardware matrix operator with explicit lifetime.

    Instances come from :meth:`GramcSolver.compile` /
    :meth:`GramcChip.compile` — never construct one directly.  Building
    one programs its tiles and, for a PINV operand, compiles its
    transpose plane under ``transpose_tag``.
    """

    block_count = 1
    """One array: a single block (a grid counts its blocks)."""

    def __init__(
        self,
        solver: "GramcSolver",
        key: str,
        mode: AMCMode,
        matrix: np.ndarray,
        g_lambda: float = 0.0,
        quant_peak: float | None = None,
        transpose_tag: str | None = None,
    ):
        super().__init__(solver, key, mode, matrix, quant_peak)
        self.g_lambda = g_lambda
        self.program_count = 0
        """How many times this handle's tiles have been written to hardware."""
        self._ref_pinv: np.ndarray | None = None
        """PINV only: cached digital pseudoinverse for per-solve references."""
        self._egv_reference: np.ndarray | None = None
        """EGV only: cached digital reference eigenvector (the matrix is
        immutable, so one eigendecomposition serves every solve)."""
        self._transpose: "AnalogOperator | None" = None
        """PINV only: the part holding the Aᵀ plane pair."""
        self._ensure_programmed()
        if transpose_tag is not None:
            self._transpose = solver.compile(
                matrix.T,
                AMCMode.PINV,
                tag=transpose_tag,
                quant_peak=quant_peak,
                _transpose_plane=True,
            )

    def _parts(self) -> "list[_Handle]":
        return [] if self._transpose is None else [self._transpose]

    # ------------------------------------------------------------- introspection

    @property
    def tiles(self) -> list[TileBinding]:
        """The resident tile bindings (re-programming first if evicted)."""
        self._ensure_programmed()
        assert self._tiles is not None
        return self._tiles

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

    # ----------------------------------------------------------------- execution

    @staticmethod
    def _tile_amplifiers(tile: TileBinding) -> int:
        """Active amplifier count of one tile (controller EXE convention)."""
        config = tile.primary.config
        return config.rows + config.cols

    def mvm(self, x: np.ndarray) -> SolveResult:
        """Analog product ``A·x`` with full diagnostics (``x``: vector or batch).

        The handle's tiles run as one stacked MVM stage — the grid
        engine's — with per-column input scales over the whole ``x`` and
        one ``g_f`` per tile ranged by its worst column.  A vector is a
        batch of one column.
        """
        x = self._accept(AMCMode.MVM, "mvm", x, self.shape[1], "x")
        return self._call(lambda: self._run_mvm(x))

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
        b = self._accept(AMCMode.INV, "solve", b, self.shape[0], rtol=rtol)
        return self._call(
            lambda: self._run_solve(b, _reference, rtol, max_refine_steps),
            solve=True,
            rtol=rtol,
        )

    def lstsq(self, b: np.ndarray, _reference: np.ndarray | None = None) -> SolveResult:
        """Analog least squares ``min‖A·y − b‖`` (``b``: vector or batch):
        the PINV loop in one engine call, a vector as a batch of one
        column."""
        b = self._accept(AMCMode.PINV, "lstsq", b, self.shape[0])
        if self._transpose is None:
            raise GramcError(
                "this PINV handle holds only a transpose plane; "
                "compile the tall matrix itself to run lstsq"
            )
        return self._call(lambda: self._run_lstsq(b, _reference))

    def _run_lstsq(self, b: np.ndarray, reference: np.ndarray | None) -> SolveResult:
        if self._ref_pinv is None:
            # One pseudoinverse of the immutable matrix covers every solve.
            self._ref_pinv = np.linalg.pinv(self.matrix)
        if reference is None:
            reference = self._ref_pinv @ b
        batched = b.ndim == 2
        big_b = b if batched else b[:, None]
        k = big_b.shape[1]
        with trace.span("solve", mode=self.mode.value, shape=str(self.shape), columns=k):
            if k == 0:
                return self._empty_result(self.mode, reference)
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
        return stats.result(
            self.mode, outcome.value, reference, self.resident_macro_ids(), batched
        )

    def eigvec(self, transient: bool = False) -> SolveResult:
        """Dominant eigenvector via the EGV topology (unit norm)."""
        self._accept(AMCMode.EGV, "eigvec")
        return self._call(lambda: self._run_eigvec(transient))

    def _run_eigvec(self, transient: bool) -> SolveResult:
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
        return SolveResult(
            mode=AMCMode.EGV,
            value=value,
            reference=reference,
            attempts=1,
            input_scale=1.0,
            stable=result.solution.stable,
            saturated=result.solution.saturated,
            settling_time=result.solution.settling_time,
            macro_ids=self.resident_macro_ids(),
        )

    # -------------------------------------------------------------- numpy sugar

    @property
    def T(self) -> "AnalogOperator":
        """The transpose as its own operator (compiled on first access)."""
        self._accept(AMCMode.MVM, "transpose application")
        return self._view(
            "T",
            lambda: self._solver.compile(self.matrix.T, AMCMode.MVM, quant_peak=self.quant_peak),
        )

    def __rmatmul__(self, other) -> np.ndarray:
        """``x @ op`` — transpose application ``xᵀ·A = (Aᵀ·x)ᵀ``."""
        xt = self._accept(
            AMCMode.MVM, "transpose application", np.transpose(other), self.shape[0], "x.T"
        )
        return self.T.mvm(xt).value.T
