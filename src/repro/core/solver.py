"""GramcSolver — the high-level, numpy-in/numpy-out face of GRAMC.

This is the paper's contribution as a library: one object that accepts
ordinary float matrices/vectors and executes them on the reconfigurable
analog system, handling everything a user should never see:

* signed-matrix mapping and 4-bit quantization;
* layout selection (paired columns within one array vs paired arrays);
* tiling of wide MVM operands across macro pairs with digital accumulation;
* macro allocation/eviction through the 16-macro pool;
* DAC/ADC **auto-ranging** — the digital controller rescales inputs when a
  solve rails the amplifiers or under-uses the converter range, exactly the
  role the paper assigns to its "digital functional modules";
* conversion of analog outputs back to problem units, with the float64
  numpy reference attached (the paper's accuracy baseline).

The primary API is :meth:`GramcSolver.compile`, which returns an
:class:`~repro.core.operator.AnalogOperator` — a programmed matrix held as
a first-class handle with explicit lifetime, supporting ``op @ x`` with
vector and batch right-hand sides, ``op.solve(b)``, ``op.lstsq(b)`` and
``op.eigvec()`` with **zero re-programming** between calls.

Example
-------
>>> import numpy as np
>>> from repro.core import GramcSolver
>>> solver = GramcSolver()
>>> a = np.eye(8) * 2.0
>>> op = solver.compile(a, mode=AMCMode.INV)   # programmed once
>>> result = op.solve(np.ones(8))              # analog INV, repeatable
>>> bool(result.relative_error < 0.2)
True
"""

from __future__ import annotations

import hashlib
import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.analog.egv import estimate_dominant_eigenvalue
from repro.analog.topologies import AMCMode
from repro.arrays.mapping import DifferentialMapping
from repro.core.backend import Backend, backend_or_default
from repro.core.errors import CapacityError, ConvergenceError, GramcError, ShapeError
from repro.core.operator import AnalogOperator, TileBinding, finite_input
from repro.core.ranging import MIN_INPUT_SCALE
from repro.obs import trace
from repro.obs.cost import CostAccumulator, ledger_count
from repro.core.pool import MacroPool, PoolConfig
from repro.core.tiled import TiledOperator
from repro.macro.amc_macro import AMCMacro
from repro.macro.registers import MacroRole, PlaneLayout

if TYPE_CHECKING:  # pragma: no cover - avoids the core ↔ system import cycle
    from repro.system.stats import ChipStats

__all__ = [
    "AnalogOperator",
    "GramcError",
    "GramcSolver",
    "TileBinding",
    "TiledOperator",
]


def _bytes_digest(matrix: np.ndarray) -> str:
    """The O(n²) content digest: every byte of the operand is hashed."""
    return hashlib.sha1(
        np.ascontiguousarray(matrix, dtype=float).tobytes()
    ).hexdigest()


_digest_cache: dict[int, tuple["weakref.ref[np.ndarray]", str]] = {}
"""Digest memo for *read-only, data-owning* ndarrays, keyed on identity.

Eligibility is deliberately narrow: the array must have
``writeable=False`` **and** own its buffer (``base is None``).  A
read-only view of a writeable base can still change under us through the
base, so views never memoize.  A weak reference guards against id reuse
after garbage collection (the entry dies with its array).  Writeable
arrays always take the byte-hash path — an in-place mutation must yield
a new key, or the compile cache would hand back the stale operator.

Known caveat (inherent to id-keyed memoization): re-enabling the
``writeable`` flag on a memoized array, mutating it, and flipping the
flag back defeats the memo — NumPy records no mutation counter we could
check.  Don't do that; treat ``setflags(write=False)`` as a promise."""


def _memoizable(matrix: np.ndarray) -> bool:
    return not matrix.flags.writeable and matrix.base is None


def _matrix_digest(matrix: np.ndarray) -> str:
    """Content digest with a fast path for repeated read-only operands.

    Mark an operand read-only (``matrix.setflags(write=False)``) to let
    repeated compiles of the same ndarray skip the O(n²) byte hash.
    """
    memoizable = _memoizable(matrix)
    if memoizable:
        entry = _digest_cache.get(id(matrix))
        if entry is not None and entry[0]() is matrix:
            return entry[1]
    digest = _bytes_digest(matrix)
    if memoizable:
        key = id(matrix)

        def _drop(ref: "weakref.ref[np.ndarray]", key: int = key) -> None:
            entry = _digest_cache.get(key)
            if entry is not None and entry[0] is ref:
                del _digest_cache[key]

        try:
            _digest_cache[key] = (weakref.ref(matrix, _drop), digest)
        except TypeError:  # pragma: no cover - non-weakref-able subclass
            pass
    return digest


def _operand_key(matrix: np.ndarray, mode: AMCMode, tag: str = "") -> str:
    digest = hashlib.sha1()
    digest.update(mode.value.encode())
    digest.update(tag.encode())
    digest.update(str(matrix.shape).encode())
    digest.update(_matrix_digest(matrix).encode())
    return digest.hexdigest()


class GramcSolver:
    """General-purpose analog matrix solver on a pool of AMC macros."""

    def __init__(
        self,
        pool: MacroPool | None = None,
        rng: np.random.Generator | None = None,
        g_f: float = 1e-3,
        headroom: float = 0.80,
        max_attempts: int = 6,
        stats: "ChipStats | None" = None,
        backend: "Backend | None" = None,
    ):
        self.pool = pool or MacroPool(PoolConfig())
        self.rng = rng if rng is not None else np.random.default_rng(7)
        self.g_f = g_f
        self.headroom = headroom
        self.max_attempts = max_attempts
        self.stats = stats
        self.backend = backend_or_default(backend)
        self._operators: dict[str, AnalogOperator] = {}
        # One ledger per chip: a solver bound to a chip's stats writes
        # the chip's ledger, a bare solver keeps its own.
        self.cost = stats.cost if stats is not None else CostAccumulator()
        injector = getattr(self.pool, "fault_injector", None)
        if injector is not None:
            # The monitor's canary sweeps need the compile cache; binding
            # here (rather than making the injector know about solvers)
            # keeps the faults package dependency-free of this module.
            injector.monitor.bind_solver(self)

    # Lifetime counters: read-only views of the one cost ledger.
    engine_dispatches = ledger_count("engine_dispatches")
    refine_steps = ledger_count("refine_steps")
    refine_dispatches = ledger_count("refine_dispatches")
    stack_rebuilds = ledger_count("stack_rebuilds")

    @property
    def health_monitor(self):
        """The chip's :class:`~repro.faults.HealthMonitor`, or ``None``
        on a fault-free build (no plan attached to the pool)."""
        injector = getattr(self.pool, "fault_injector", None)
        return None if injector is None else injector.monitor

    # ------------------------------------------------------------------ helpers

    @property
    def _rows_max(self) -> int:
        return self.pool.config.rows

    @property
    def _cols_max(self) -> int:
        return self.pool.config.cols

    @property
    def _tile_max(self) -> int:
        """The widest square block one array holds as a single tile."""
        return min(self._rows_max, self._cols_max)

    def _macros_for(self, layout: PlaneLayout) -> int:
        return 1 if layout is PlaneLayout.PAIRED_COLUMNS else 2

    def _input_scales(
        self, values: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-column DAC divisors of ``(…, n, k)`` inputs, over the ``n`` axis.

        Each column gets its own divisor (a small column must not inherit a
        huge sibling's scale and lose its DAC resolution): its peak over the
        headroom-derated DAC range, 1 for an all-zero column, floored at
        :data:`~repro.core.ranging.MIN_INPUT_SCALE`.
        """
        peaks = np.abs(values).max(axis=-2)
        scales = np.where(
            peaks == 0.0, 1.0, peaks / (self.headroom * self.pool.config.dac.v_ref)
        )
        return np.maximum(scales, MIN_INPUT_SCALE, out=out)

    @property
    def _output_target(self) -> float:
        """Desired output peak: most of the ADC range without clipping."""
        return 0.6 * min(self.pool.config.opamp.v_sat, self.pool.config.adc.v_ref)

    # --------------------------------------------------------------- compilation

    def compile(
        self,
        matrix: np.ndarray,
        mode: AMCMode = AMCMode.MVM,
        *,
        g_lambda: float | None = None,
        lambda_hat: float | None = None,
        tag: str = "",
        quant_peak: float | None = None,
        pin: bool = False,
        tile: int | None = None,
        _transpose_plane: bool = False,
        _egv_auto: bool = False,
    ) -> AnalogOperator | TiledOperator:
        """Program ``matrix`` for ``mode`` and return its operator handle.

        Handles are cached per (matrix, mode, tag): compiling the same
        operand twice returns the same (re-used, already programmed)
        handle, with one holder reference added per call.  ``pin=True``
        additionally exempts it from LRU eviction.

        A **square INV operand larger than one array** (or any square INV
        operand when ``tile`` is given explicitly) compiles to a
        :class:`~repro.core.tiled.TiledOperator`: the matrix is split
        into a grid of array-sized blocks — diagonal blocks programmed
        for INV, off-diagonals for MVM — and ``solve`` runs batched
        block-Jacobi / block-Gauss-Seidel sweeps over the resident grid.
        Tiled grids are pinned for their whole lifetime (a blocked sweep
        needs every block resident simultaneously).

        For :attr:`AMCMode.EGV` without an explicit ``g_lambda``, the
        digital functional module first estimates the dominant eigenvalue
        of the quantized operand (``lambda_hat`` overrides the estimate).

        Call :meth:`AnalogOperator.close` exactly once per ``compile``
        call (or use the ``with`` form): handles are shared objects and
        each close releases one holder reference.
        """
        with trace.span("compile", mode=mode.value) as sp:
            operator = self._compile(
                matrix,
                mode,
                g_lambda=g_lambda,
                lambda_hat=lambda_hat,
                tag=tag,
                quant_peak=quant_peak,
                pin=pin,
                tile=tile,
                _transpose_plane=_transpose_plane,
                _egv_auto=_egv_auto,
            )
            sp.set(shape=str(operator.matrix.shape), key=operator.key[:12])
            return operator

    def _compile(
        self,
        matrix: np.ndarray,
        mode: AMCMode = AMCMode.MVM,
        *,
        g_lambda: float | None = None,
        lambda_hat: float | None = None,
        tag: str = "",
        quant_peak: float | None = None,
        pin: bool = False,
        tile: int | None = None,
        _transpose_plane: bool = False,
        _egv_auto: bool = False,
    ) -> AnalogOperator | TiledOperator:
        original = finite_input(matrix, "matrix")
        if original.ndim != 2:
            raise ShapeError("operands must be 2-D matrices")
        if original.size == 0:
            raise ShapeError(f"operands must be non-empty; got shape {original.shape}")
        qp = "" if quant_peak is None else f"/qp={quant_peak!r}"
        tiled = mode is AMCMode.INV and (
            tile is not None or original.shape[0] > self._tile_max
        )
        self._validate_mode_shape(original, mode, _transpose_plane, tiled)
        if tiled:
            tile_size = self._grid_tile(tile)
            key = _operand_key(original, mode, f"{tag}/tiled:{tile_size}{qp}")

            def build():
                operator = TiledOperator(
                    self, key, self._private_copy(original), tile_size,
                    tag=tag, quant_peak=quant_peak,
                )
                self._operators[key] = operator
                return operator
        elif mode is AMCMode.EGV and g_lambda is None:
            egv_tag = f"{tag}/egv" if tag else "egv"
            # Only an estimated loop gain is cached under the operand
            # alone; an explicit ``lambda_hat`` compiles its own handle,
            # keyed by the resulting gain.
            key = None if lambda_hat is not None else _operand_key(original, mode, egv_tag + qp)

            def build():
                return self._compile_egv(original, lambda_hat, egv_tag, quant_peak)
        else:
            transpose_tag = None
            if mode is AMCMode.PINV and not _transpose_plane:
                transpose_tag = "transpose" if tag == "" else f"{tag}/transpose"
            if mode is AMCMode.EGV and not _egv_auto:
                # An explicitly chosen loop gain is part of the operand
                # identity: a handle with another g_lambda must not match.
                tag = f"{tag}/gl={g_lambda!r}"
            key = _operand_key(original, mode, tag + qp)

            def build():
                return AnalogOperator(
                    self, key, mode, self._private_copy(original),
                    g_lambda=0.0 if g_lambda is None else g_lambda,
                    quant_peak=quant_peak, transpose_tag=transpose_tag,
                )
        cached = None if key is None else self._operators.get(key)
        if cached is not None and not cached.closed:
            cached._ensure_programmed()
            operator = cached._retain()
        else:
            operator = build()
        if pin:
            operator.pin()
        return operator

    @staticmethod
    def _private_copy(original: np.ndarray) -> np.ndarray:
        """A handle's frozen copy of the operand.

        Copying detaches the handle from the caller's later in-place
        mutations (the programmed conductances must not silently
        desynchronize from the digital reference and cache key); marking
        it read-only makes internal re-compiles of ``operator.matrix``
        eligible for the digest fast path and guards the invariant.
        """
        private = np.array(original, dtype=float)
        private.setflags(write=False)
        return private

    def _grid_tile(self, tile: int | None) -> int:
        """The block edge of a SOLVE operand's tile grid.

        Every block must land on one macro tile (the grid engine stacks
        tiles, not operands), so the edge never exceeds either side of
        an array.
        """
        tile_size = self._tile_max if tile is None else int(tile)
        if tile_size < 1:
            raise ShapeError("tile size must be a positive block edge")
        return min(tile_size, self._tile_max)

    def _validate_mode_shape(
        self, matrix: np.ndarray, mode: AMCMode, transpose_plane: bool, tiled: bool
    ) -> None:
        rows, cols = matrix.shape
        if mode is AMCMode.INV:
            if rows != cols:
                raise ShapeError("solve needs a square matrix")
            if rows > self._rows_max and not tiled:
                raise ShapeError(f"INV supports up to {self._rows_max} unknowns")
        elif mode is AMCMode.EGV:
            if rows != cols:
                raise ShapeError("eigvec needs a square matrix")
            if rows > self._rows_max:
                raise ShapeError(f"EGV supports up to {self._rows_max} unknowns")
        elif mode is AMCMode.PINV:
            if rows > self._rows_max or cols > self._rows_max:
                raise ShapeError("PINV operands must fit a single array")
            if rows < cols and not transpose_plane:
                raise ShapeError("lstsq expects a tall matrix (m >= n)")

    def _compile_egv(
        self,
        matrix: np.ndarray,
        lambda_hat: float | None,
        egv_tag: str,
        quant_peak: float | None,
    ) -> AnalogOperator:
        """EGV compilation: probe-based λ̂ estimate, then the loop operator."""
        # Digital eigenvalue estimate on the quantized matrix (functional module).
        probe = self.compile(
            matrix, AMCMode.MVM, tag=f"{egv_tag}-probe", quant_peak=quant_peak
        )
        quantized = probe.tiles[0].mapping.quantized_matrix()
        auto = lambda_hat is None
        if auto:
            # 7 % margin keeps the loop gain above one even after programming
            # noise shifts the realised spectrum slightly downward.
            lambda_hat = 0.93 * estimate_dominant_eigenvalue(quantized, rng=self.rng)
        if lambda_hat <= 0.0:
            probe.close()  # release the reference taken above — no operator owns it
            raise ConvergenceError("EGV requires a positive dominant eigenvalue")
        g_lambda = lambda_hat / probe.tiles[0].mapping.value_scale
        operator = self.compile(
            matrix,
            AMCMode.EGV,
            g_lambda=g_lambda,
            tag=egv_tag,
            quant_peak=quant_peak,
            _egv_auto=auto,
        )
        # The EGV operator holds the probe's reference: the probe stays
        # cached for repeated compiles (no re-programming) and is released
        # together with the operator.
        operator._hold("probe", probe)
        return operator

    def resident_operators(self) -> "dict[str, AnalogOperator]":
        """Compile-cache snapshot: digest key → live operator handle.

        The serve layer's coalescer groups requests by exactly these keys,
        and its fair-share scheduler walks this map to pick preemption
        victims.  The returned dict is a copy — mutating it does not
        affect the cache — but the handles are the live shared objects.
        """
        return {
            key: operator
            for key, operator in self._operators.items()
            if not operator.closed
        }

    # --------------------------------------------------------------- programming

    def _forget(self, operator: AnalogOperator) -> None:
        """Drop an operator from the cache (eviction callback / close)."""
        if self._operators.get(operator.key) is operator:
            del self._operators[operator.key]

    def _program_operator(self, operator: AnalogOperator) -> None:
        """(Re-)program an operator's tiles and restore its cache/pin state."""
        with trace.span(
            "program",
            mode=operator.mode.value,
            shape=str(operator.matrix.shape),
            key=operator.key[:12],
        ):
            operator._tiles = self._program_tiles(
                operator.matrix,
                operator.mode,
                operator.key,
                g_lambda=operator.g_lambda,
                quant_peak=operator.quant_peak,
                on_evict=operator._on_evicted,
            )
        operator._stale = False
        operator.program_count += 1
        self._operators[operator.key] = operator
        if operator.is_pinned:
            for owner in operator._tile_owners():
                self.pool.pin(owner)

    def _program_tiles(
        self,
        matrix: np.ndarray,
        mode: AMCMode,
        key: str,
        g_lambda: float = 0.0,
        quant_peak: float | None = None,
        on_evict=None,
    ) -> list[TileBinding]:
        """Split ``matrix`` into array-sized tiles, program each on macros.

        Allocation is two-phase: the tile geometry is planned first
        (without touching the pool), then every tile's macros are claimed
        in **one atomic multi-acquire** — an operand either gets its whole
        grid resident or nothing (the seed's tile-by-tile acquisition
        could evict the operand's own earlier tiles while programming the
        later ones, silently computing garbage).
        """
        rows, cols = matrix.shape
        if rows > self._rows_max:
            if mode is not AMCMode.MVM:
                raise ShapeError(
                    f"{mode.value} supports up to {self._rows_max} rows per "
                    f"tile; compile square SOLVE operands through the blocked "
                    f"TiledOperator path instead"
                )
        # Shared quantization scale across tiles keeps digital accumulation
        # exact; ``quant_peak`` lets callers align the grid (integer weights).
        shared_scale = quant_peak if quant_peak is not None else float(np.max(np.abs(matrix)))
        level_map = self.pool.config.level_map

        # Phase 1: plan the tile grid (pure geometry, no pool mutation).
        row_step = self._rows_max
        plan: list[tuple[slice, slice, PlaneLayout]] = []
        for row_start in range(0, rows, row_step):
            row_slice = slice(row_start, min(row_start + row_step, rows))
            col_cursor = 0
            while col_cursor < cols:
                remaining = cols - col_cursor
                if 2 * remaining <= self._cols_max:
                    layout = PlaneLayout.PAIRED_COLUMNS
                    width = remaining
                elif remaining <= self._cols_max:
                    layout = PlaneLayout.PAIRED_ARRAYS
                    width = remaining
                else:
                    layout = PlaneLayout.PAIRED_ARRAYS
                    width = self._cols_max
                plan.append(
                    (row_slice, slice(col_cursor, col_cursor + width), layout)
                )
                col_cursor += width
        macros_needed = sum(self._macros_for(layout) for _, _, layout in plan)
        if macros_needed > len(self.pool.macros):
            raise CapacityError(
                f"operand needs {macros_needed} macros, more than the "
                f"chip's complement of {len(self.pool.macros)} can hold at once"
            )

        # Phase 2: claim every tile's macros atomically (all-or-nothing).
        owners = [f"{key}/tile{i}" for i in range(len(plan))]
        try:
            grants = self.pool.acquire_many(
                [
                    (owner, self._macros_for(layout))
                    for owner, (_, _, layout) in zip(owners, plan)
                ],
                on_evict=on_evict,
            )
        except CapacityError as error:
            raise CapacityError(
                f"operand needs {macros_needed} macros but pinned operators "
                f"squeeze the evictable capacity below that; close or unpin "
                f"other operators first [{error}]"
            ) from error

        # Phase 3: configure and program each granted tile.
        tiles: list[TileBinding] = []
        try:
            for (row_slice, col_slice, layout), macros in zip(plan, grants):
                sub = matrix[row_slice, col_slice]
                mapping = self._fit_mapping(sub, shared_scale, level_map)
                primary = macros[0]
                partner = macros[1] if len(macros) > 1 else None
                n_rows = row_slice.stop - row_slice.start
                width = col_slice.stop - col_slice.start
                primary.configure(
                    mode,
                    n_rows,
                    width,
                    g_f=self.g_f,
                    g_lambda=g_lambda,
                    layout=layout,
                )
                if partner is not None:
                    partner.configure(
                        mode,
                        n_rows,
                        width,
                        g_f=self.g_f,
                        g_lambda=g_lambda,
                        layout=PlaneLayout.SINGLE,
                        role=MacroRole.PARTNER_NEG,
                    )
                primary.program_mapping(mapping, partner=partner)
                # Both conductance planes of the differential pair.
                self.cost.add_programming(2 * n_rows * width)
                tiles.append(
                    TileBinding(
                        row_slice=row_slice,
                        col_slice=col_slice,
                        mapping=mapping,
                        primary=primary,
                        partner=partner,
                        layout=layout,
                        fault_correction=self._tile_fault_correction(
                            mapping, layout, primary, partner
                        ),
                    )
                )
        except Exception:
            # A failure mid-programming must not leak a half-built grid.
            for owner in owners:
                self.pool.release(owner)
            raise
        return tiles

    @staticmethod
    def _tile_fault_correction(
        mapping: DifferentialMapping,
        layout: PlaneLayout,
        primary: AMCMacro,
        partner: AMCMacro | None,
    ) -> np.ndarray | None:
        """Signed-value error of the tile's stuck cells, or None if healthy.

        Stuck cells are pinned regardless of programming, so their
        conductance error vs the intended target is a *known constant* the
        digital side can subtract from every product.  Only stuck positions
        contribute — programming/read noise is not compensated.
        """
        from repro.devices.constants import G_MAX, G_MIN

        if not any(m.array.has_stuck_cells for m in (primary, partner) if m is not None):
            return None
        primary_faults = primary.array.region_faults
        if layout is PlaneLayout.PAIRED_COLUMNS:
            pos_faults = primary_faults[:, 0::2]
            neg_faults = primary_faults[:, 1::2]
        elif layout is PlaneLayout.PAIRED_ARRAYS and partner is not None:
            pos_faults = primary_faults
            neg_faults = partner.array.region_faults
        else:
            pos_faults = primary_faults
            neg_faults = np.zeros_like(primary_faults)
        if not np.any(pos_faults) and not np.any(neg_faults):
            return None

        def plane_error(faults: np.ndarray, targets: np.ndarray) -> np.ndarray:
            error = np.zeros_like(targets)
            error[faults == 1] = G_MAX - targets[faults == 1]
            error[faults == -1] = G_MIN - targets[faults == -1]
            return error

        delta = plane_error(pos_faults, mapping.g_pos) - plane_error(
            neg_faults, mapping.g_neg
        )
        return delta * mapping.value_scale

    @staticmethod
    def _fit_mapping(
        sub: np.ndarray, shared_scale: float, level_map
    ) -> DifferentialMapping:
        """Differential mapping with the operator-wide quantization scale."""
        from repro.programming.levels import MatrixQuantizer

        peak = shared_scale if shared_scale > 0.0 else 1.0
        scale = peak / (level_map.num_levels - 1)
        if scale == 0.0:  # subnormal peak underflowing the division
            scale = 1.0 / (level_map.num_levels - 1)
        quantizer = MatrixQuantizer(level_map=level_map, scale=scale)
        g_pos = quantizer.to_conductances(np.maximum(sub, 0.0))
        g_neg = quantizer.to_conductances(np.maximum(-sub, 0.0))
        return DifferentialMapping(
            level_map=level_map,
            g_pos=g_pos,
            g_neg=g_neg,
            value_scale=quantizer.scale / level_map.step,
        )
