"""The 1T1R crossbar array: programmable conductance matrix with drivers.

One :class:`CrossbarArray` models the memory core of an AMC macro
(paper Fig. 2): a 128 × 128 grid of 1T1R cells behind WL/BL/SL driver
banks, with an *active region* that lets smaller matrix problems use a
sub-array.

Two programming paths exist, matching DESIGN.md §4:

* :meth:`program_targets` — the **behavioural bulk path** (vectorised
  write-verify statistics); used for array-scale work.
* :meth:`program_physical` — the **physical path** that runs the full
  pulse-level write-verify controller per cell; used for small tiles and
  for validating the behavioural path.

Reads include device-to-device range limits, stuck-at faults, read noise
and (optionally) wire-resistance degradation.
"""

from __future__ import annotations

import numpy as np

from repro.arrays.drivers import DriverBank
from repro.arrays.parasitics import effective_conductances
from repro.devices.cell import OneT1R
from repro.devices.constants import DeviceStack, G_MAX, G_MIN
from repro.devices.variability import VariabilityModel
from repro.programming.levels import LevelMap
from repro.programming.write_verify import (
    BehavioralProgrammer,
    ProgramResult,
    VgEstimator,
    WriteVerifyController,
)

_D2D_RANGE_HEADROOM = 1.15
"""Cells can be verified up to ~15 % past nominal G_MAX before their own
device-to-device ceiling bites (the compliance range of the write path)."""


class CrossbarArray:
    """A ``rows × cols`` 1T1R array with drivers and programming machinery."""

    def __init__(
        self,
        stack: DeviceStack,
        rows: int = 128,
        cols: int = 128,
        level_map: LevelMap | None = None,
        rng: np.random.Generator | None = None,
        wire_resistance: float = 0.0,
    ):
        self.stack = stack
        self.rows = rows
        self.cols = cols
        self.level_map = level_map or LevelMap()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.wire_resistance = wire_resistance
        self.drivers = DriverBank(rows, cols)

        self._variability = VariabilityModel(stack.variability, self.rng)
        self._d2d = self._variability.d2d_multipliers((rows, cols))
        self._faults = self._variability.stuck_fault_map((rows, cols))
        self.has_stuck_cells = bool(self._faults.any())
        """Whether any cell is stuck; kept current wherever ``_faults`` is written."""
        self._programmer = BehavioralProgrammer(stack, self.level_map)
        # All cells start fully RESET (level 0).
        self._conductances = np.full((rows, cols), self.level_map.g_min)
        self._conductances = VariabilityModel.apply_faults(self._conductances, self._faults)
        self.cells_programmed = 0
        self.version = 0
        """Monotone counter bumped whenever the stored conductances or the
        active region change — the invalidation signal for any circuit
        model built from a conductance snapshot (see ``AMCMacro``)."""

    # -- geometry -----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def select_region(self, rows: int, cols: int, row_offset: int = 0, col_offset: int = 0) -> None:
        """Set the active region used by subsequent program/read operations."""
        self.drivers.select_region(rows, cols, row_offset, col_offset)
        self.version += 1

    def _active_view(self) -> tuple[np.ndarray, np.ndarray]:
        return self.drivers.active_rows, self.drivers.active_cols

    # -- programming ----------------------------------------------------------------

    def program_targets(self, targets: np.ndarray, mask: np.ndarray | None = None) -> None:
        """Behavioural write-verify of conductance ``targets`` into the region.

        ``mask`` (boolean, same shape) restricts the write to selected cells
        — the mechanism behind the verify-retry loop, which reprograms only
        the cells whose previous write drifted out of the acceptance band.
        """
        rows_idx, cols_idx = self._active_view()
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (rows_idx.size, cols_idx.size):
            raise ValueError(
                f"targets shape {targets.shape} does not match active region "
                f"{(rows_idx.size, cols_idx.size)}"
            )
        achieved = self._programmer.program(targets, self.rng)
        region = np.ix_(rows_idx, cols_idx)
        # Device-to-device ceiling: weak cells cannot verify past their range.
        ceiling = G_MAX * _D2D_RANGE_HEADROOM * self._d2d[region]
        achieved = np.minimum(achieved, ceiling)
        achieved = VariabilityModel.apply_faults(achieved, self._faults[region])
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != targets.shape:
                raise ValueError("mask shape must match targets shape")
            achieved = np.where(mask, achieved, self._conductances[region])
            self.cells_programmed += int(mask.sum())
        else:
            self.cells_programmed += targets.size
        self._conductances[region] = achieved
        self.version += 1

    def program_levels(self, levels: np.ndarray) -> None:
        """Program integer 4-bit levels (behavioural path)."""
        self.program_targets(self.level_map.level_to_conductance(levels))

    def program_physical(
        self,
        targets: np.ndarray,
        controller: WriteVerifyController | None = None,
        estimator: VgEstimator | None = None,
    ) -> list[ProgramResult]:
        """Pulse-level write-verify of every cell in the active region.

        Orders of magnitude slower than :meth:`program_targets`; intended
        for small tiles and for the behavioural-equivalence tests.
        """
        rows_idx, cols_idx = self._active_view()
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (rows_idx.size, cols_idx.size):
            raise ValueError("targets shape does not match active region")
        controller = controller or WriteVerifyController(
            self.stack, self.level_map, rng=self.rng, estimator=estimator
        )
        results: list[ProgramResult] = []
        for a, row in enumerate(rows_idx):
            for b, col in enumerate(cols_idx):
                if self._faults[row, col] != 0:
                    results.append(
                        ProgramResult(
                            target=float(targets[a, b]),
                            achieved=float(self._conductances[row, col]),
                            success=False,
                            set_pulses=0,
                            reset_pulses=0,
                            verify_reads=1,
                        )
                    )
                    continue
                cell = OneT1R(self.stack)
                cell.rram.set_conductance(self._conductances[row, col])
                result = controller.program_conductance(cell, float(targets[a, b]))
                self._conductances[row, col] = result.achieved
                results.append(result)
        self.cells_programmed += targets.size
        self.version += 1
        return results

    # -- reads ------------------------------------------------------------------------

    def conductances(self, noisy: bool = False) -> np.ndarray:
        """Active-region conductance matrix (one read-noise draw if noisy)."""
        rows_idx, cols_idx = self._active_view()
        region = self._conductances[np.ix_(rows_idx, cols_idx)]
        if self.wire_resistance > 0.0:
            region = effective_conductances(region, self.wire_resistance)
        if noisy:
            region = self._variability.read_noise(region)
        return region

    def read_currents(self, v_cols: np.ndarray, noisy: bool = True) -> np.ndarray:
        """Row currents ``I = G·v`` for column voltages (the MVM primitive)."""
        v_cols = np.asarray(v_cols, dtype=float)
        rows_idx, cols_idx = self._active_view()
        if v_cols.shape != (cols_idx.size,):
            raise ValueError(
                f"expected {cols_idx.size} column voltages, got {v_cols.shape}"
            )
        g = self.conductances(noisy=noisy)
        return g @ v_cols

    # -- faults / introspection ---------------------------------------------------------

    @property
    def fault_map(self) -> np.ndarray:
        """Stuck-at fault map of the full array (0 healthy, ±1 stuck)."""
        return self._faults.copy()

    @property
    def region_faults(self) -> np.ndarray:
        """Stuck-at fault map of the active region only (a copy of the
        region, not of the full array) — what per-tile fault compensation
        reads when a tile is programmed."""
        rows_idx, cols_idx = self._active_view()
        return self._faults[np.ix_(rows_idx, cols_idx)]

    def fault_fraction(self) -> float:
        return float(np.mean(self._faults != 0))

    def stored_conductances(self) -> np.ndarray:
        """Full-array copy of the stored conductances — no region windowing,
        no read noise, no wire parasitics.  The fault injector's baseline
        snapshot (and the health monitor's re-verify comparison) read here."""
        return self._conductances.copy()

    def inject_conductances(self, conductances: np.ndarray) -> None:
        """Physics-path overwrite of the full stored conductance matrix.

        Used by fault injection (retention drift) — unlike programming, it
        costs no write pulses and books no ``cells_programmed``, but it
        does re-pin stuck cells and bump ``version`` so every resident
        circuit/stack built from the old snapshot invalidates.
        """
        conductances = np.asarray(conductances, dtype=float)
        if conductances.shape != (self.rows, self.cols):
            raise ValueError(
                f"conductances shape {conductances.shape} does not match "
                f"array {(self.rows, self.cols)}"
            )
        self._conductances = VariabilityModel.apply_faults(conductances, self._faults)
        self.version += 1

    def reverify(self, targets: np.ndarray, *, band: float, apply: bool = True) -> dict:
        """Targeted re-verify of the active region (healing ladder rung 2).

        Compares the stored conductances against ``targets`` and — when
        ``apply`` — rewrites only the healthy cells whose deviation
        exceeds ``band`` (a fraction of the G_MIN..G_MAX window).
        Deviations are judged against what write-verify could actually
        achieve (each cell's device-to-device ceiling), so a weak cell
        programmed to its own limit never reads as drifted.  Returns the
        measurement dict; ``max_deviation`` is re-measured after any
        rewrite, so the caller sees the *post-heal* state.
        """
        rows_idx, cols_idx = self._active_view()
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (rows_idx.size, cols_idx.size):
            raise ValueError(
                f"targets shape {targets.shape} does not match active region "
                f"{(rows_idx.size, cols_idx.size)}"
            )
        region = np.ix_(rows_idx, cols_idx)
        ceiling = G_MAX * _D2D_RANGE_HEADROOM * self._d2d[region]
        achievable = np.minimum(targets, ceiling)
        healthy = self._faults[region] == 0
        window = G_MAX - G_MIN

        def deviation() -> np.ndarray:
            return np.abs(self._conductances[region] - achievable) / window

        dev = deviation()
        mask = healthy & (dev > band)
        rewritten = int(mask.sum()) if apply else 0
        if rewritten:
            self.program_targets(targets, mask=mask)
            dev = deviation()
        return {
            "cells_rewritten": rewritten,
            "max_deviation": float(np.max(dev[healthy])) if healthy.any() else 0.0,
            "out_of_band": int(np.sum(healthy & (dev > band))),
            "stuck_cells": int(np.sum(~healthy)),
            "region_cells": int(targets.size),
        }

    def inject_stuck_faults(self, fault_delta: np.ndarray) -> int:
        """Add stuck-at faults (full-array int map, 0 = leave alone, ±1).

        Newly faulted cells are pinned immediately and stay pinned through
        every later programming pass (both programming paths consult
        ``_faults``), so the solver's digital fault compensation — rebuilt
        at each reprogram from :attr:`fault_map` — stays consistent.
        Returns the number of newly stuck cells.
        """
        fault_delta = np.asarray(fault_delta)
        if fault_delta.shape != (self.rows, self.cols):
            raise ValueError(
                f"fault map shape {fault_delta.shape} does not match "
                f"array {(self.rows, self.cols)}"
            )
        fresh = (fault_delta != 0) & (self._faults == 0)
        if not fresh.any():
            return 0
        self._faults[fresh] = fault_delta[fresh].astype(np.int8)
        self.has_stuck_cells = True
        self._conductances = VariabilityModel.apply_faults(self._conductances, self._faults)
        self.version += 1
        return int(fresh.sum())
