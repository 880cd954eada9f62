"""The stacked stage chain: every MVM and INV evaluation, batched over tiles.

This module is the simulator's one MVM/INV signal chain.  A
:class:`GridEngine` holds the **cached circuit state** of a list of
resident tiles as contiguous 3-D stacks — MVM tiles in one stack
(conductance planes, node loading, amplifier offsets), INV tiles in
another (equilibrium inverse, offset drive, loop stability).  Two callers
build one:

* a :class:`~repro.core.tiled.TiledOperator` grid (:meth:`GridEngine.for_grid`)
  — couplings form the MVM stack, diagonal blocks the INV stack, and a
  block-Jacobi / Gauss-Seidel sweep is a constant number of stage calls;
* a single :class:`~repro.core.operator.AnalogOperator` handle
  (:meth:`GridEngine.for_handle`) — an MVM handle is a stack of its own
  tiles, an INV handle a one-slot stack, and a vector is a batch of one
  column.

Each stage runs **once over the whole stack**: the elementwise blocks of
:mod:`repro.analog.blocks`, :mod:`repro.analog.inv` and
:mod:`repro.converters` (DAC, inverter drive, TIA, INV amplifier settle,
ADC — each written once, in place over ``(slots, lines, k)`` stacks), and
one backend kernel per plane or INV stack: ``batched_matmul``, the
stacked twin of :func:`repro.analog.determinism.apply_matrix`, applies
the conductance planes in the MVM stage and each circuit's cached
equilibrium inverse in the INV stage.  Ragged tiles are zero-padded;
per-slot valid row/column counts mask the padding wherever it could
leak.

The stacks are **version-aware**: each slice stores the residency key of
the circuit it was copied from (register word sans ``g_f``, crossbar
``version``, partner fingerprint) and :meth:`GridEngine.refresh` re-copies
exactly the slices whose key changed — programming, ``refresh()`` and
fair-share preemption invalidate only what they touched, while ``set_g_f``
ladder moves never invalidate anything because the live ladder value is
re-read from the registers at every call.

Numerical contract: a slot's answer depends only on its own tile, its own
inputs and its own macro's noise stream — noise is drawn per slot, over
its valid lines only, in the fixed per-slot stage order (DAC, TIA, ADC;
the inverter drive is noiseless because its read noise is referred to
the TIA output, see :mod:`repro.analog.blocks`).  So a tile solved
inside a padded multi-slot stack is bit for bit the same tile run alone
through its handle, and under the deterministic engine mode
(:func:`repro.analog.determinism.column_independent`) a column's answer
does not depend on its batch siblings either — the contract serve
coalescing relies on.  A slot whose first attempt saturated or
under-used the converters re-enters the shared ranging loops
(:mod:`repro.core.ranging`) with that attempt as their first result;
retries run through the macro's one-slot chain
(``compute_mvm``/``compute_inv``).

Slot-parallel lanes: the MVM stage's two elementwise regions (gather,
DAC and inverter drive before the plane matmuls; TIA, ADC and rescale
after them) run on contiguous lanes of ``_ELEMENTWISE_CHUNK``-slot
chunks — one lane on the caller, the rest on a lazily created
module-level thread pool, one lane per usable CPU.  NumPy ufuncs and
``Generator.standard_normal`` release the GIL, slot ranges never
interact, and a lane owns every slot that draws from a given macro's
stream (stacks whose lanes would share a stream run serially), so each
stream sees its draws in the serial order and the bitwise contract is
unchanged.  The
plane matmuls, ranging, fault correction and all accounting stay on the
caller thread.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as wait_futures
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analog import determinism
from repro.analog.blocks import inverter_output, tia_output, tia_settling_time
from repro.analog.opamp import draw_noise
from repro.analog.results import CircuitSolution
from repro.analog.topologies import AMCMode
from repro.core.ranging import autorange_gain_batch, autorange_mvm
from repro.core.results import SolveResult
from repro.macro.amc_macro import MacroResult
from repro.obs import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.backend import Backend
    from repro.core.operator import AnalogOperator, TileBinding
    from repro.core.solver import GramcSolver
    from repro.core.tiled import TiledOperator


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


_LANE_POOL: ThreadPoolExecutor | None = None
_LANE_POOL_LOCK = threading.Lock()


def _lane_pool() -> ThreadPoolExecutor:
    """The shared lane workers, created on first use (the caller runs
    one lane itself, so one worker per remaining usable CPU)."""
    global _LANE_POOL
    with _LANE_POOL_LOCK:
        if _LANE_POOL is None:
            _LANE_POOL = ThreadPoolExecutor(
                max_workers=max(_usable_cpus() - 1, 1), thread_name_prefix="grid-lane"
            )
        return _LANE_POOL


def _forget_lane_pool() -> None:
    # A forked child inherits the pool object but none of its threads.
    global _LANE_POOL, _LANE_POOL_LOCK
    _LANE_POOL = None
    _LANE_POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane_pool)


def _lanes_disjoint(slots: list, bounds: list[tuple[int, int]]) -> bool:
    """True when no primary macro's random stream is drawn by two lanes.

    Each lane visits its slots in serial order, so a stream confined to
    one lane sees exactly the serial draw sequence; a stream shared
    across lanes would interleave nondeterministically.
    """
    owner: dict[int, int] = {}
    for lane, (lo, hi) in enumerate(bounds):
        for slot in slots[lo:hi]:
            if owner.setdefault(id(slot.tile.primary.rng), lane) != lane:
                return False
    return True


def _run_lanes(work: Callable[[int, int], None], bounds: list[tuple[int, int]]) -> None:
    """Run ``work(lo, hi)`` for every lane, the first on the caller.

    Each lane runs in a copy of the caller's context, so the caller's
    ``np.errstate`` applies inside it; the caller joins every lane before
    returning or raising.  Lanes open no spans: their time stays in the
    caller's stage span, counted once.
    """
    if len(bounds) == 1:
        work(*bounds[0])
        return
    futures = [
        _lane_pool().submit(contextvars.copy_context().run, work, lo, hi)
        for lo, hi in bounds[1:]
    ]
    try:
        work(*bounds[0])
    finally:
        wait_futures(futures)
    for future in futures:
        future.result()


class SweepStats:
    """Per-engine-call diagnostics accumulated across one solve.

    The stages feed it (:meth:`add`) the fields of each ranging tile and
    of each stage's single-attempt tiles at once.
    """

    def __init__(self, columns: int):
        self.total_attempts = 0
        self.stable = True
        self.worst_scale = 0.0
        self.col_scales = np.zeros(columns)
        self.col_attempts = np.zeros(columns, dtype=int)
        self.col_saturated = np.zeros(columns, dtype=bool)

    def add(
        self,
        *,
        attempts: int,
        stable: bool,
        input_scale: float,
        input_scales: np.ndarray,
        column_saturated: np.ndarray,
        tiles: "int | np.ndarray | None" = None,
    ) -> None:
        """Fold one tile's call — or, with ``tiles``, a whole stage's
        single-attempt tiles at once, or a batched sub-call's result.

        Every accumulator op is associative (sum, max, or), so a stage
        fold is bitwise the per-tile fold: ``input_scale`` /
        ``input_scales`` arrive pre-maxed over the stage, ``attempts``
        pre-summed, and each of the ``tiles`` slots contributed one
        attempt to every column.  A sub-call passes its
        ``per_column_attempts`` as ``tiles``.
        """
        if tiles is None:
            tiles = attempts
        self.total_attempts += attempts
        self.stable &= stable
        self.worst_scale = max(self.worst_scale, input_scale)
        np.maximum(self.col_scales, input_scales, out=self.col_scales)
        self.col_attempts += tiles
        self.col_saturated |= column_saturated

    @property
    def saturated(self) -> bool:
        """Whether any column of the call ended saturated."""
        return bool(self.col_saturated.any())

    def result(
        self,
        mode: AMCMode,
        value: np.ndarray,
        reference: np.ndarray,
        macro_ids: tuple[int, ...],
        batched: bool,
        **extra,
    ) -> SolveResult:
        """The :class:`SolveResult` of one call: ``value`` is ``(n, k)``; a
        vector call squeezes it and carries no per-column arrays."""
        return SolveResult(
            mode=mode,
            value=value if batched else value[:, 0],
            reference=reference,
            attempts=self.total_attempts,
            input_scale=self.worst_scale if self.worst_scale > 0.0 else 1.0,
            stable=self.stable,
            saturated=self.saturated,
            macro_ids=macro_ids,
            input_scales=self.col_scales if batched else None,
            per_column_attempts=self.col_attempts if batched else None,
            column_saturated=self.col_saturated if batched else None,
            **extra,
        )


class _Slot:
    """One tile's slice of a stack, plus its cache-invalidation key.

    ``i``/``j`` are the grid block coordinates (the scatter row and the
    source column of a coupling), ``src`` the slice of the stage input a
    multiply reads, and ``tile_index`` the tile within ``handle``.
    """

    __slots__ = (
        "index", "i", "j", "src", "handle", "tile_index", "tile", "circuit",
        "key", "rows", "cols", "has_neg", "amps", "g_f",
    )

    def __init__(
        self, index: int, i: int, j: int, src: slice, handle: "AnalogOperator", tile_index: int
    ):
        self.index = index
        self.i = i
        self.j = j
        self.src = src
        self.handle = handle
        self.tile_index = tile_index
        self.tile: "TileBinding | None" = None
        self.circuit = None
        self.key: tuple | None = None
        self.rows = 0
        self.cols = 0
        self.has_neg = False
        self.amps = 0
        self.g_f = 0.0


def _width(s: slice) -> int:
    return s.stop - s.start


def _stack_index(indices: list[int]) -> "slice | np.ndarray":
    """Stack positions ``indices`` (ascending) as a view-producing slice
    when contiguous, else as a gather index."""
    first = indices[0]
    if indices[-1] - first + 1 == len(indices):
        return slice(first, first + len(indices))
    return np.array(indices)


class GridEngine:
    """Stacked MVM and INV stages over a list of resident tiles.

    Built :meth:`for_grid` (a :class:`TiledOperator`'s couplings and
    diagonal blocks) or :meth:`for_handle` (one handle as a stack of its
    own tiles); both run the same stages.
    """

    # Slot sub-range width for the elementwise MVM-stage chains: large
    # grids stream ~30 passes over the stack, and running them a cache-
    # sized group of slots at a time roughly halves the memory traffic.
    # Chunks are also the lane unit: a stack of at least two chunks is
    # split into contiguous runs of whole chunks, one per usable CPU.
    # Results are bitwise independent of the chunk width and lane count.
    _ELEMENTWISE_CHUNK = 32
    # Lane count override for tests; ``None`` means one lane per usable
    # CPU (``os.sched_getaffinity``), capped by the number of chunks.
    _LANES: int | None = None
    # Stage-buffer shapes kept per engine (a refinement loop masks
    # columns, so widths vary between calls).
    _BUFFER_SHAPES = 16

    def __init__(
        self,
        solver: "GramcSolver",
        backend: "Backend",
        edges: list[slice],
        off: list[tuple[int, int, slice, "AnalogOperator", int]],
        diag: list["AnalogOperator"],
    ):
        self._solver = solver
        self._backend = backend
        self._edges = edges

        # Off-diagonal (MVM) slots in stack order: a grid lists them in
        # row-major (i, j) order, so a block row's slots are one
        # contiguous stack slice and Gauss-Seidel stages operate on views,
        # never gather copies.
        self._off_slots = [
            _Slot(t, i, j, src, handle, tile_index)
            for t, (i, j, src, handle, tile_index) in enumerate(off)
        ]
        self._row_span: dict[int, tuple[int, int]] = {}
        for slot in self._off_slots:
            start, _ = self._row_span.get(slot.i, (slot.index, slot.index))
            self._row_span[slot.i] = (start, slot.index + 1)

        self._diag_slots = [
            _Slot(i, i, i, edges[i], handle, 0) for i, handle in enumerate(diag)
        ]

        self._off_R = max(
            (_width(s.handle._tiles[s.tile_index].row_slice) for s in self._off_slots),
            default=0,
        )
        self._off_C = max((_width(s.src) for s in self._off_slots), default=0)
        self._diag_N = max((_width(s.src) for s in self._diag_slots), default=0)
        # Uniform stacks (every source slice exactly stack-wide and
        # aligned) let the MVM stage gather its source blocks with one
        # fancy-index take instead of a per-slot copy loop.
        self._sources_uniform = all(
            _width(s.src) == self._off_C and s.src.start % self._off_C == 0
            for s in self._off_slots
        )

        t_off = len(self._off_slots)
        self._off_gp = np.zeros((t_off, self._off_R, self._off_C))
        self._off_gn = np.zeros((t_off, self._off_R, self._off_C))
        self._off_gnode = np.zeros((t_off, self._off_R))
        self._off_gneg_sq = np.zeros((t_off, self._off_R))
        self._off_gmax = np.zeros(t_off)
        self._off_tia = np.zeros((t_off, self._off_R))
        self._off_inv = np.zeros((t_off, self._off_C))
        self._off_vscale = np.zeros(t_off)
        self._off_any_neg = False

        d = len(self._diag_slots)
        self._diag_inv = np.zeros((d, self._diag_N, self._diag_N))
        self._diag_offset = np.zeros((d, self._diag_N))
        self._diag_vscale = np.zeros(d)
        self._diag_stable = np.ones(d, dtype=bool)
        # Per-(slot-count, columns) scratch arrays reused across stages.
        self._stage_buffers: dict[tuple[int, int], dict[str, np.ndarray]] = {}

    @classmethod
    def for_grid(cls, tiled: "TiledOperator", backend: "Backend") -> "GridEngine":
        """Couplings as the MVM stack, diagonal blocks as the INV stack."""
        edges = tiled.block_slices
        off = [(i, j, edges[j], tiled._off[(i, j)], 0) for i, j in sorted(tiled._off)]
        return cls(tiled._solver, backend, edges, off, list(tiled._diag))

    @classmethod
    def for_handle(cls, handle: "AnalogOperator") -> "GridEngine":
        """One handle as a stack of its tiles: an MVM handle's tiles form
        the MVM stack (each reads its column slice of ``x``), an INV
        handle is a one-slot INV stack."""
        solver = handle._solver
        tiles = handle._tiles
        assert tiles is not None
        if handle.mode is AMCMode.INV:
            return cls(solver, solver.backend, [slice(0, handle.shape[0])], [], [handle])
        off = [(t, t, tile.col_slice, handle, t) for t, tile in enumerate(tiles)]
        return cls(solver, solver.backend, [], off, [])

    # ------------------------------------------------------------ stack upkeep

    def refresh(self) -> int:
        """Re-sync every stale slice against the resident circuits.

        Cheap in steady state (key comparisons only).  Returns the number
        of slices rebuilt, which is exactly the number of tiles whose
        crossbar was reprogrammed, refreshed or preempted since the last
        call.
        """
        rebuilt = 0
        for slots, resident, fill in (
            (self._off_slots, "resident_mvm_circuit", self._fill_off),
            (self._diag_slots, "resident_inv_circuit", self._fill_diag),
        ):
            for slot in slots:
                tile = slot.handle._tiles[slot.tile_index]
                circuit, key = getattr(tile.primary, resident)(tile.partner)
                if circuit is not slot.circuit or key != slot.key:
                    slot.circuit, slot.key = circuit, key
                    config = tile.primary.config
                    slot.amps = config.rows + config.cols
                    fill(slot.index, slot, tile, circuit)
                    rebuilt += 1
                slot.tile = tile
                # One ladder read per call; mid-call moves happen only
                # through the ranging branches, which re-cache after retuning.
                slot.g_f = tile.primary.config.g_f
        return rebuilt

    @staticmethod
    def _put(stack: np.ndarray, t: int, value: np.ndarray) -> None:
        """Overwrite slice ``t`` with ``value`` zero-padded to the stack."""
        stack[t] = 0.0
        stack[(t, *(slice(0, size) for size in value.shape))] = value

    def _fill_off(self, t: int, slot: _Slot, tile: "TileBinding", circuit) -> None:
        slot.rows, slot.cols = circuit.g_pos.shape
        slot.has_neg = circuit.col_amps is not None
        self._put(self._off_gp, t, circuit.g_pos)
        self._off_gn[t] = 0.0
        self._off_inv[t] = 0.0
        self._off_gneg_sq[t] = 0.0
        if slot.has_neg:
            self._put(self._off_gn, t, circuit.g_neg)
            self._put(self._off_inv, t, circuit.col_amps.offsets)
            self._put(self._off_gneg_sq, t, circuit.neg_square_sums())
            self._off_any_neg = True
        self._put(self._off_gnode, t, circuit.node_conductance())
        self._off_gmax[t] = np.max(circuit.node_conductance())
        self._put(self._off_tia, t, circuit.row_amps.offsets)
        self._off_vscale[t] = tile.mapping.value_scale

    def _fill_diag(self, d: int, slot: _Slot, tile: "TileBinding", circuit) -> None:
        slot.rows = slot.cols = circuit.n
        self._put(self._diag_inv, d, circuit.equilibrium_inverse())
        self._put(self._diag_offset, d, circuit.offset_rhs())
        self._diag_vscale[d] = tile.mapping.value_scale
        # Warms the one cached eigendecomposition per programming event.
        self._diag_stable[d] = circuit.is_stable

    # --------------------------------------------------------------- sweeping

    def presolve_uncoupled(
        self, big_b: np.ndarray, x: np.ndarray, uncoupled: list[int], stats: SweepStats
    ) -> None:
        """One stacked solve of the coupling-free blocks."""
        self._diag_stage(uncoupled, self._rhs_stack(big_b, uncoupled), x, stats)

    def _rhs_stack(self, big_b: np.ndarray, blocks: list[int]) -> np.ndarray:
        """The zero-padded ``(len(blocks), N, k)`` stack of their rows of ``big_b``."""
        rhs = np.zeros((len(blocks), self._diag_N, big_b.shape[1]))
        for p, i in enumerate(blocks):
            rows = self._edges[i]
            rhs[p, : rows.stop - rows.start] = big_b[rows]
        return rhs

    def sweep(
        self,
        big_b: np.ndarray,
        x: np.ndarray,
        source: np.ndarray,
        coupled: list[int],
        stats: SweepStats,
        gauss_seidel: bool,
    ) -> None:
        """One full grid sweep as a constant number of stacked kernels.

        Jacobi runs the whole off-diagonal stack against the frozen
        previous iterate, then every coupled diagonal block in one
        batched solve.  Gauss-Seidel must read the in-place updated
        iterate, so it stages per block row — contiguous stack slices,
        still one batched kernel set per row rather than one per tile.
        """
        if gauss_seidel:
            for i in coupled:
                start, stop = self._row_span.get(i, (0, 0))
                products = self._mvm_stage(self._active(start, stop, x), x, stats)
                rhs = self._rhs_stack(big_b, [i])
                for slot, value in products:
                    rhs[0, : slot.rows] -= value
                self._diag_stage([i], rhs, x, stats)
            return
        products = self._mvm_stage(
            self._active(0, len(self._off_slots), source), source, stats
        )
        rhs = self._rhs_stack(big_b, coupled)
        position = {i: p for p, i in enumerate(coupled)}
        for slot, value in products:
            rhs[position[slot.i], : slot.rows] -= value
        self._diag_stage(coupled, rhs, x, stats)

    def _active(self, start: int, stop: int, source: np.ndarray) -> list[_Slot]:
        """Slots ``[start, stop)`` whose source slice is not all zero.

        A_ij·0 ≡ 0 exactly: a coupling reading an all-zero block (the
        first Jacobi sweep, untouched Gauss-Seidel blocks) is dropped from
        the stage — running it would only digitize noise and under-range
        the shared TIA ladder.  The test is per block *column* (every slot
        in column j reads the same source slice), so it is memoized per
        column.
        """
        cols_active: dict[int, bool] = {}
        slots = []
        for s in self._off_slots[start:stop]:
            active = cols_active.get(s.j)
            if active is None:
                active = cols_active[s.j] = bool(source[s.src].any())
            if active:
                slots.append(s)
        return slots

    # ------------------------------------------------------------- MVM stage

    def _lane_bounds(self, slots: list) -> list[tuple[int, int]]:
        """Slot ranges ``[lo, hi)`` of the elementwise lanes, in order.

        A stack of at least two chunks is split into contiguous runs of
        whole chunks, one per usable CPU; anything smaller, or a split
        whose lanes would share a macro's random stream, is one lane.
        """
        chunk = self._ELEMENTWISE_CHUNK
        count = len(slots)
        chunks = -(-count // chunk)
        if chunks < 2:
            return [(0, count)]
        lanes = min(self._LANES or _usable_cpus(), chunks)
        if lanes < 2:
            return [(0, count)]
        per, extra = divmod(chunks, lanes)
        bounds = []
        lo = 0
        for lane in range(lanes):
            hi = min(lo + (per + (lane < extra)) * chunk, count)
            bounds.append((lo, hi))
            lo = hi
        return bounds if _lanes_disjoint(slots, bounds) else [(0, count)]

    def _buffers(self, t_count: int, k: int) -> dict[str, np.ndarray]:
        """Reusable stage buffers: every array is either fully overwritten
        each call or pad-zeroed per slot, so reuse is safe; in-place
        evaluation changes allocation, never the float ops."""
        buf = self._stage_buffers.get((t_count, k))
        if buf is None:
            if len(self._stage_buffers) >= self._BUFFER_SHAPES:
                self._stage_buffers.clear()
            shape_in = (t_count, self._off_C, k)
            shape_out = (t_count, self._off_R, k)
            buf = self._stage_buffers[(t_count, k)] = {
                "x_raw": np.zeros(shape_in),
                "v_in": np.empty(shape_in),
                "v_neg": np.empty(shape_in),
                "values": np.empty(shape_out),
                "rescaled": np.empty(shape_out),
            }
        return buf

    def _mvm_stage(
        self,
        slots: list[_Slot],
        source: np.ndarray,
        stats: SweepStats,
        scales_in: np.ndarray | None = None,
    ) -> list[tuple[_Slot, np.ndarray]]:
        """Attempt-1 MVM of ``slots`` as one stacked chain.

        Returns ``(slot, value)`` pairs in slot order, where ``value`` is
        the slot's problem-unit product block (fault-corrected, ranged).
        Each slot's input is ``source[slot.src]`` divided by its
        per-column scale: the caller's ``scales_in`` ``(k,)`` when given
        (a handle scales each column once over its whole input),
        otherwise the slot's own block peak (a grid).
        """
        if not slots:
            return []
        solver = self._solver
        t_count = len(slots)
        sl = _stack_index([s.index for s in slots])
        k = source.shape[1]
        primary = slots[0].tile.primary
        params, dac, adc = primary.opamp_params, primary.dac, primary.adc

        # The elementwise chains stream ~30 passes over the stack; running
        # them on sub-ranges of slots keeps each pass inside the cache
        # instead of round-tripping the whole stack through memory.
        # Chunking is bitwise-free: every op below is elementwise or a
        # per-slot reduction, so disjoint slot ranges never interact — and
        # the per-slot noise draws still visit slots in index order.  The
        # same independence lets contiguous runs of chunks (lanes) run on
        # separate threads; only the two plane matmuls stay whole-stack on
        # the caller (one dispatch each).
        width = self._ELEMENTWISE_CHUNK
        lanes = self._lane_bounds(slots)
        buf = self._buffers(t_count, k)
        x_raw, v_in, v_neg = buf["x_raw"], buf["v_in"], buf["v_neg"]
        values, rescaled = buf["values"], buf["rescaled"]
        scales = np.empty((t_count, k))
        if scales_in is not None:
            scales[:] = scales_in
        row_peak = np.empty((t_count, k))
        col_sat = np.empty((t_count, k), dtype=bool)
        if self._sources_uniform:
            j_idx = np.fromiter(
                (s.src.start // self._off_C for s in slots), dtype=np.intp, count=t_count
            )
            whole = (source.shape[0] // self._off_C) * self._off_C
            source_blocks = source[:whole].reshape(-1, self._off_C, k)
        inv_all = self._off_inv[sl] if self._off_any_neg else None
        col_draws = [(s.tile.primary.rng, s.cols) for s in slots]
        row_draws = [(s.tile.primary.rng, s.rows) for s in slots]

        def drive(lo: int, hi: int) -> None:
            for c0 in range(lo, hi, width):
                c = slice(c0, min(c0 + width, hi))
                xc, vc = x_raw[c], v_in[c]
                if self._sources_uniform:
                    # ``np.take`` copies the same block values the per-slot
                    # loop would, bit for bit.
                    np.take(source_blocks, j_idx[c], axis=0, out=xc)
                else:
                    for t, slot in enumerate(slots[c], start=c0):
                        x_raw[t, : slot.cols] = source[slot.src]
                        if slot.cols < self._off_C:
                            x_raw[t, slot.cols :] = 0.0
                if scales_in is None:
                    # Zero-padding cannot raise a peak.
                    solver._input_scales(xc, out=scales[c])
                # The scaled chunk goes straight into the DAC buffer; the
                # rare ranging/fault consumers below redo the division per
                # slot.  Converting the zero padding yields half-LSB garbage
                # codes, which the zero-padded plane columns annihilate.
                np.divide(xc, scales[c][:, None, :], out=vc)
                dac.convert(vc, col_draws[c])
                # Inverter plane inputs ride the same chunk while it is hot.
                if self._off_any_neg:
                    inverter_output(vc, inv_all[c], params, out=v_neg[c])

        _run_lanes(drive, lanes)

        ci = determinism.column_independent()
        matmul = self._backend.batched_matmul
        currents = self._kernel(
            "batched_matmul", lambda: matmul(self._off_gp[sl], v_in, ci), slots=t_count, columns=k
        )
        if self._off_any_neg:
            np.add(currents, self._kernel(
                "batched_matmul", lambda: matmul(self._off_gn[sl], v_neg, ci),
                slots=t_count, columns=k,
            ), out=currents)

        # TIA stage with the live per-macro ladder value (set_g_f moves
        # are picked up at refresh without any stack invalidation; mid-
        # call moves happen only through the ranging branches below,
        # which re-cache the slot's ladder value after retuning).
        g_f = np.array([slot.g_f for slot in slots])
        gnode_all = self._off_gnode[sl]
        gneg_sq_all = self._off_gneg_sq[sl] if self._off_any_neg else None
        tia_all = self._off_tia[sl]
        # The problem-unit rescale ``−values · g_f · value_scale · scale``
        # as one per-slot factor times the per-column scale.
        factor = -g_f * self._off_vscale[sl]

        def sample(lo: int, hi: int) -> None:
            for c0 in range(lo, hi, width):
                c = slice(c0, min(c0 + width, hi))
                oc, vc = currents[c], values[c]
                # The TIA's noise draws land in the ADC buffer, which the
                # sample below overwrites.
                railed, top, low = tia_output(
                    oc, gnode_all[c], tia_all[c], g_f[c], params, row_draws[c],
                    None if gneg_sq_all is None else gneg_sq_all[c], scratch=vc,
                )
                np.maximum(top, -low, out=row_peak[c])
                adc.saturated_columns(railed, top, low, out=col_sat[c])
                adc.sample(oc, row_draws[c], out=vc)
                # Batched problem-unit rescale in one pass (ranging slots
                # overwrite their row below once the ladder settles).
                np.multiply(vc, (factor[c][:, None] * scales[c])[:, None, :], out=rescaled[c])

        _run_lanes(sample, lanes)
        outputs = currents

        peaks_out = row_peak.max(axis=1)
        target = solver._output_target
        if solver.max_attempts > 1:
            needs_ranging = col_sat.any(axis=1) | ((0.0 < peaks_out) & (peaks_out < 0.25 * target))
        else:
            needs_ranging = np.zeros(t_count, dtype=bool)
        fast = ~needs_ranging
        # Settling-time diagnostics feed the ranging solutions and the
        # always-on cost ledger (analog settling / amp-energy attribution)
        # — two vector ops per stage, so always computed.
        settling = tia_settling_time(self._off_gmax[sl], g_f, params)

        products = []
        for t, slot in enumerate(slots):
            primary = slot.tile.primary
            primary.latch_output(values[t, : slot.rows, :k])
            value = rescaled[t, : slot.rows, :k]
            if needs_ranging[t]:
                r, c = slot.rows, slot.cols
                partner = slot.tile.partner
                # Re-enter the shared ranging loop with this stacked attempt
                # as its first result; retries run the macro's one-slot chain.
                result, attempts = autorange_mvm(
                    lambda: self._kernel(
                        "pertile_mvm",
                        lambda: primary.compute_mvm(x_raw[t, :c, :k] / scales[t], partner=partner),
                    ),
                    primary,
                    (partner,) if partner is not None else (),
                    target=target,
                    max_attempts=solver.max_attempts,
                    first=self._attempt(
                        AMCMode.MVM, values[t, :r, :k], outputs[t, :r, :k], col_sat[t],
                        settling_time=float(settling[t]),
                    ),
                )
                slot.g_f = primary.config.g_f
                value = result.values * (-slot.g_f * slot.tile.mapping.value_scale * scales[t])
                self._book_ranged(
                    AMCMode.MVM, slot, stats, k, result,
                    attempts=attempts,
                    stable=True,
                    input_scales=scales[t],
                    column_saturated=result.solution.column_saturated,
                )
            fault = slot.tile.fault_correction
            if fault is not None:
                # Known stuck-cell contributions are subtracted digitally.
                chunk = x_raw[t, : slot.cols, :k] / scales[t]
                np.subtract(value, (fault @ chunk) * scales[t], out=value)
            products.append((slot, value))

        self._book_fast(
            AMCMode.MVM, slots, stats, k, fast,
            stable=True,
            scales=scales,
            column_saturated=col_sat,
            settling=settling,
        )
        return products

    @staticmethod
    def _attempt(
        mode: AMCMode, values: np.ndarray, raw: np.ndarray, column_saturated, **solution
    ) -> MacroResult:
        """One slot's stacked attempt as the macro result ranging reads."""
        return MacroResult(
            values=values,
            raw=raw,
            solution=CircuitSolution(outputs=raw, column_saturated=column_saturated, **solution),
            mode=mode,
        )

    def _kernel(self, kernel: str, run: Callable[[], object], **attrs):
        """Run one engine kernel: one ``engine_dispatch`` span, one
        counted dispatch (a stage's batched kernels and every ranging
        retry alike)."""
        with trace.span("engine_dispatch", kernel=kernel, **attrs):
            out = run()
        self._solver.cost.add_dispatches(1)
        return out

    def _book_ranged(
        self, mode: AMCMode, slot: _Slot, stats: SweepStats, k: int, result, **fields
    ) -> None:
        """Account one slot that went through the ranging loop."""
        attempts = fields["attempts"]
        stats.add(input_scale=float(np.max(fields["input_scales"])), **fields)
        cost = self._solver.cost
        cost.add_analog(mode.value, slot.amps, result.solution.settling_time)
        cost.add_conversions(dac=slot.cols * k * attempts, adc=slot.rows * k * attempts)
        cost.add_engine_macs(slot.rows * slot.cols * k * attempts)

    def _book_fast(
        self,
        mode: AMCMode,
        slots: list[_Slot],
        stats: SweepStats,
        k: int,
        fast: np.ndarray,
        *,
        stable: bool,
        scales: np.ndarray,
        column_saturated: np.ndarray,
        settling: np.ndarray | None,
    ) -> None:
        """Account a stage's single-attempt slots in one batched update.

        Every accumulator op (sum, max, or) is associative, so the sweep
        stats are bitwise the per-slot fold; the ledger takes the slots'
        count, ``Σ settling`` and ``Σ amps·settling`` in one update, and
        conversions are charged on the valid (unpadded) per-slot sizes.
        """
        count = int(np.count_nonzero(fast))
        if not count:
            return
        sel = slice(None) if count == len(slots) else fast
        input_scales = scales[sel].max(axis=0)
        stats.add(
            tiles=count,
            attempts=count,
            stable=stable,
            input_scale=float(input_scales.max()),
            input_scales=input_scales,
            column_saturated=column_saturated[sel].any(axis=0),
        )
        done = [slot for slot, hit in zip(slots, fast) if hit]
        cost = self._solver.cost
        if settling is None:
            cost.add_solves(mode.value, count)
        else:
            times = settling[sel]
            amps = np.array([slot.amps for slot in done], dtype=float)
            cost.add_solves(mode.value, count, float(times.sum()), float(amps @ times))
        cost.add_conversions(
            dac=sum(slot.cols for slot in done) * k, adc=sum(slot.rows for slot in done) * k
        )
        cost.add_engine_macs(sum(slot.rows * slot.cols for slot in done) * k)

    # ------------------------------------------------------------- INV stage

    def _diag_stage(
        self, indices: list[int], rhs: np.ndarray, x: np.ndarray, stats: SweepStats
    ) -> None:
        """Attempt-1 INV solve of diagonal blocks ``indices`` as one stacked chain.

        ``rhs`` is the zero-padded ``(len(indices), N, k)`` right-hand-side
        stack in problem units, scaled per slot and column by its own
        peak; solved blocks are scattered into ``x``.
        """
        solver = self._solver
        slots = [self._diag_slots[d] for d in indices]
        k = rhs.shape[2]
        primary = slots[0].tile.primary
        params, dac, adc = primary.opamp_params, primary.dac, primary.adc
        draws = [(slot.tile.primary.rng, slot.rows) for slot in slots]

        scales = solver._input_scales(rhs)
        v_in = dac.convert(rhs / scales[:, None, :], draws)
        # Input currents from each slot's g_f ladder, plus the static
        # offset drive of the equilibrium system.
        g_f = np.array([slot.g_f for slot in slots])
        sl = _stack_index(indices)
        i_in = g_f[:, None, None] * v_in
        rhs_c = -i_in + self._diag_offset[sl][:, :, None]
        # The settled loop state: each slot's cached equilibrium inverse
        # applied to its drive (zero-padded rows and columns stay zero).
        ci = determinism.column_independent()
        xs = self._kernel(
            "batched_matmul",
            lambda: self._backend.batched_matmul(self._diag_inv[sl], rhs_c, ci),
            slots=len(indices),
            columns=k,
        )
        # The loop amplifiers' output noise, rail clamp and rail state.
        draw_noise(xs, params.noise_sigma, draws)
        railed, top, low = params.clamp_columns(xs)
        col_sat = adc.saturated_columns(railed, top, low)
        values = adc.sample(xs, draws)
        peaks_out = np.maximum(top, -low).max(axis=1)

        target = solver._output_target
        stable_flags = self._diag_stable[sl]
        if solver.max_attempts > 1:
            needs_ranging = col_sat.any(axis=1) | ((0.0 < peaks_out) & (peaks_out < 0.25 * target))
        else:
            needs_ranging = np.zeros(len(slots), dtype=bool)
        fast = ~needs_ranging

        # Batched problem-unit rescale ``−values · scale / (value_scale · g_f)``.
        rescaled = -values * scales[:, None, :]
        rescaled /= (self._diag_vscale[sl] * g_f)[:, None, None]

        for t, slot in enumerate(slots):
            n = slot.rows
            primary = slot.tile.primary
            primary.latch_output(values[t, :n, :k])
            value = rescaled[t, :n, :k]
            if needs_ranging[t]:
                partner = slot.tile.partner
                vscale = slot.tile.mapping.value_scale
                outcome = autorange_gain_batch(
                    lambda s: self._kernel(
                        "pertile_inv",
                        lambda: primary.compute_inv(rhs[t, :n, :k] / s, partner=partner),
                    ),
                    primary,
                    lambda result, s, g_f: -result.values * s / (vscale * g_f),
                    scales=scales[t],
                    target=target,
                    max_attempts=solver.max_attempts,
                    first=self._attempt(
                        AMCMode.INV, values[t, :n, :k], xs[t, :n, :k], col_sat[t],
                        stable=bool(stable_flags[t]),
                    ),
                )
                slot.g_f = primary.config.g_f
                value = outcome.value
                self._book_ranged(
                    AMCMode.INV, slot, stats, k, outcome.result,
                    attempts=outcome.attempts,
                    stable=bool(outcome.result.solution.stable),
                    input_scales=outcome.input_scales,
                    column_saturated=outcome.result.solution.column_saturated,
                )
            x[self._edges[slot.i]] = value

        self._book_fast(
            AMCMode.INV, slots, stats, k, fast,
            stable=bool(np.all(stable_flags[fast])),
            scales=scales,
            column_saturated=col_sat,
            settling=None,
        )
