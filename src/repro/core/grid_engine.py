"""The stacked stage chain: every MVM and INV evaluation, batched over tiles.

This module is the simulator's one MVM/INV signal chain.  A
:class:`GridEngine` holds the **cached circuit state** of a list of
resident tiles as contiguous 3-D stacks — MVM tiles in one stack
(conductance planes, node loading, amplifier offsets), INV tiles in
another (equilibrium inverse, offset drive, loop stability).  Two callers
build one, both through :meth:`GridEngine.for_handle`:

* a :class:`~repro.core.tiled.TiledOperator` grid — couplings form the
  MVM stack, diagonal blocks the INV stack, and a block-Jacobi /
  Gauss-Seidel sweep is a constant number of stage calls; its product
  stack puts the couplings and the diagonal MVM views in one MVM stack,
  so ``op @ x`` is one stage;
* a single :class:`~repro.core.operator.AnalogOperator` handle — an MVM
  handle is a stack of its own tiles, an INV handle a one-slot INV stack
  with no couplings (the one-block grid), and a vector is a batch of one
  column.

Each stage runs **once over the whole stack**: the elementwise blocks of
:mod:`repro.analog.blocks`, :mod:`repro.analog.inv` and
:mod:`repro.converters` (DAC, inverter drive, TIA, INV amplifier settle,
ADC — each written once, in place over ``(slots, lines, k)`` stacks), and
the backend's ``batched_matmul``, the stacked twin of
:func:`repro.analog.determinism.apply_matrix`, which applies the
conductance planes in the MVM stage (one call per plane and slot chunk,
counted as one dispatch per plane) and each circuit's cached equilibrium
inverse in the INV stage (one call per stack).  Ragged tiles are
zero-padded; per-slot valid row/column counts mask the padding wherever
it could leak.  A sweep subtracts the MVM products from the block
right-hand sides as stack ops, rank by rank within each block row, in
the per-slot order.

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

Slot-parallel lanes: the MVM stage is one pass over
``_ELEMENTWISE_CHUNK``-slot chunks — gather, DAC, inverter drive, the
chunk's plane products, TIA, ADC and rescale, while the chunk is in
cache — split into contiguous lanes of whole chunks: one lane on the
caller, the rest on a lazily created module-level thread pool, one lane
per usable CPU.  NumPy ufuncs, the backend kernels and
``Generator.standard_normal`` release the GIL, slot ranges never
interact, and a lane owns every slot that draws from a given macro's
stream (stacks whose lanes would share a stream run serially), so each
stream sees its draws in the serial order and the bitwise contract is
unchanged.  Ranging, fault correction and all accounting stay on the
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
    multiply reads, ``dst`` the output rows a product adds into, and
    ``tile_index`` the tile within ``handle``.
    """

    __slots__ = (
        "index", "i", "j", "src", "dst", "handle", "tile_index", "tile", "circuit",
        "key", "rows", "cols", "has_neg", "amps", "g_f",
    )

    def __init__(
        self,
        index: int,
        i: int,
        j: int,
        src: slice,
        dst: slice,
        handle: "AnalogOperator",
        tile_index: int,
    ):
        self.index = index
        self.i = i
        self.j = j
        self.src = src
        self.dst = dst
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


def _chunk_index(index: "slice | np.ndarray", c: slice) -> "slice | np.ndarray":
    """Positions ``c`` of a :func:`_stack_index` result."""
    if isinstance(index, slice):
        return slice(index.start + c.start, index.start + c.stop)
    return index[c]


def _progression(indices: np.ndarray) -> "slice | np.ndarray":
    """Ascending ``indices`` as a (strided) view-producing slice when
    evenly spaced, else as a gather index."""
    first = int(indices[0])
    if len(indices) == 1:
        return slice(first, first + 1)
    step = int(indices[1]) - first
    if np.all(np.diff(indices) == step):
        return slice(first, int(indices[-1]) + 1, step)
    return indices


class _StagePlan:
    """What a stage derives from its slot list alone.

    Built once per slot set and kept until :meth:`GridEngine.refresh`
    rebinds or rebuilds a slot, so a steady-state stage walks no slot
    list in Python to find its stack positions, noise streams or
    accounting sizes.  ``lanes`` caches an MVM stage's
    :meth:`GridEngine._lane_bounds`; ``subtract`` is a sweep stage's
    :meth:`GridEngine._subtract_products` schedule.
    """

    __slots__ = (
        "slots", "index", "col_draws", "row_draws", "latches", "rows", "cols", "amps",
        "ragged", "faulty", "sources", "lanes", "subtract",
    )

    def __init__(self, slots: list[_Slot], lines: int, width: int | None):
        self.slots = slots
        self.index = _stack_index([s.index for s in slots])
        self.col_draws = [(s.tile.primary.rng, s.cols) for s in slots]
        self.row_draws = [(s.tile.primary.rng, s.rows) for s in slots]
        self.latches = [(s.tile.primary.latch_output, s.rows) for s in slots]
        self.rows = np.array([s.rows for s in slots])
        self.cols = np.array([s.cols for s in slots])
        self.amps = np.array([s.amps for s in slots], dtype=float)
        # Slots with padded rows (of a ``lines``-row stack) and slots with
        # a digital stuck-cell correction.
        self.ragged = [t for t, s in enumerate(slots) if s.rows < lines]
        self.faulty = [t for t, s in enumerate(slots) if s.tile.fault_correction is not None]
        # Source block of each slot when every source slice is one aligned
        # ``width``-wide block (the MVM stage gathers with one take).
        self.sources = None
        if width is not None:
            self.sources = np.fromiter(
                (s.src.start // width for s in slots), dtype=np.intp, count=len(slots)
            )
        self.lanes: list[tuple[int, int]] | None = None
        self.subtract: list | None = None


class GridEngine:
    """Stacked MVM and INV stages over a list of resident tiles.

    Built :meth:`for_handle`: a :class:`TiledOperator`'s couplings and
    diagonal blocks (or, for its product, couplings and diagonal MVM
    views), or one handle as a stack of its own tiles; all run the same
    stages.
    """

    # Slot sub-range width for the MVM-stage chain: large grids stream
    # ~30 passes over the stack, and running them a cache-sized group of
    # slots at a time roughly halves the memory traffic.
    # Chunks are also the lane unit: a stack of at least two chunks is
    # split into contiguous runs of whole chunks, one per usable CPU.
    # Results are bitwise independent of the chunk width and lane count.
    _ELEMENTWISE_CHUNK = 32
    # Lane count override for tests; ``None`` means one lane per usable
    # CPU (``os.sched_getaffinity``), capped by the number of chunks.
    # Read when a stage plan is built, so set it before the engine runs.
    _LANES: int | None = None
    # Stage-buffer shapes kept per engine (a refinement loop masks
    # columns, so widths vary between calls).
    _BUFFER_SHAPES = 16
    # Stage plans kept per engine: one per stage slot set (a Jacobi
    # sweep needs two, Gauss-Seidel a few per block row).
    _PLANS = 128

    def __init__(
        self,
        solver: "GramcSolver",
        backend: "Backend",
        edges: list[slice],
        off: list[tuple[int, int, slice, slice, "AnalogOperator", int]],
        diag: list["AnalogOperator"],
    ):
        self._solver = solver
        self._backend = backend
        self._edges = edges

        # Off-diagonal (MVM) slots in stack order: a grid lists them in
        # row-major (i, j) order, so a block row's slots are one
        # contiguous stack slice and Gauss-Seidel stages operate on views,
        # never gather copies.
        self._off_slots = [_Slot(t, *entry) for t, entry in enumerate(off)]
        self._off_row = np.array([s.i for s in self._off_slots], dtype=np.intp)
        self._row_span: dict[int, tuple[int, int]] = {}
        for slot in self._off_slots:
            start, _ = self._row_span.get(slot.i, (slot.index, slot.index))
            self._row_span[slot.i] = (start, slot.index + 1)

        self._diag_slots = [
            _Slot(i, i, i, edges[i], edges[i], handle, 0) for i, handle in enumerate(diag)
        ]
        # Block rows with and without couplings.  An uncoupled block
        # solves exactly once: its ``x_i = A_ii⁻¹·b_i`` is independent of
        # every other block, so sweeping it again would only re-spend
        # settling events on a fresh noise draw of the same answer.
        self.coupled = sorted(self._row_span)
        self.uncoupled = [i for i in range(len(diag)) if i not in self._row_span]

        self._off_R = max((_width(s.dst) for s in self._off_slots), default=0)
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
        self._plans: dict[tuple, _StagePlan] = {}

    @classmethod
    def for_handle(
        cls, handle: "AnalogOperator | TiledOperator", product: bool = False
    ) -> "GridEngine":
        """A handle as a stack.  A single-array MVM handle's tiles form
        the MVM stack (each reads its column slice of ``x`` and adds into
        its row slice), and an INV handle is a one-slot INV stack with no
        couplings.  A grid, which binds no tiles itself, puts its
        couplings in the MVM stack and its diagonal blocks in the INV
        stack; its ``product`` stack is one MVM stack of its couplings
        and diagonal MVM views, in row-major block order."""
        solver = handle._solver
        tiles = handle._tiles
        assert tiles is not None
        if tiles:
            if handle.mode is AMCMode.INV:
                return cls(solver, solver.backend, [slice(0, handle.shape[0])], [], [handle])
            off = [
                (t, t, tile.col_slice, tile.row_slice, handle, t) for t, tile in enumerate(tiles)
            ]
            return cls(solver, solver.backend, [], off, [])
        edges = handle.block_slices
        blocks = dict(handle._off)
        if product:
            blocks.update(((i, i), handle._diag_mvm_handle(i)) for i in range(len(edges)))
        off = [(i, j, edges[j], edges[i], blocks[i, j], 0) for i, j in sorted(blocks)]
        return cls(solver, solver.backend, edges, off, [] if product else list(handle._diag))

    # ------------------------------------------------------------ stack upkeep

    def refresh(self, off_slots: "list[_Slot] | None" = None) -> int:
        """Re-sync every stale slice (of the MVM stack, only ``off_slots``
        when given: the resident ones) against the resident circuits.

        Cheap in steady state (key comparisons only).  Returns the number
        of slices rebuilt, which is exactly the number of tiles whose
        crossbar was reprogrammed, refreshed or preempted since the last
        call.
        """
        rebuilt = 0
        rebound = False
        mvm_slots = self._off_slots if off_slots is None else off_slots
        for slots, resident, fill in (
            (mvm_slots, "resident_mvm_circuit", self._fill_off),
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
                if slot.tile is not tile:
                    slot.tile = tile
                    rebound = True
                # One ladder read per call; mid-call moves happen only
                # through the ranging branches, which re-cache after retuning.
                slot.g_f = tile.primary.config.g_f
        if rebuilt or rebound:
            self._plans.clear()
        return rebuilt

    def _plan(self, key: tuple, slots: list[_Slot], mvm: bool) -> _StagePlan:
        """The cached :class:`_StagePlan` of ``slots`` (an MVM or INV
        stage's), built under ``key`` on first use."""
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= self._PLANS:
                self._plans.clear()
            if mvm:
                width = self._off_C if self._sources_uniform else None
                plan = _StagePlan(slots, self._off_R, width)
            else:
                plan = _StagePlan(slots, self._diag_N, None)
            self._plans[key] = plan
        return plan

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

    def presolve_uncoupled(self, big_b: np.ndarray, x: np.ndarray, stats: SweepStats) -> None:
        """One stacked solve of the coupling-free blocks."""
        self._diag_stage(self.uncoupled, self._rhs_stack(big_b, self.uncoupled), x, stats)

    def _rhs_stack(self, big_b: np.ndarray, blocks: list[int]) -> np.ndarray:
        """The zero-padded ``(len(blocks), N, k)`` stack of their rows of ``big_b``."""
        rhs = np.zeros((len(blocks), self._diag_N, big_b.shape[1]))
        for p, i in enumerate(blocks):
            rows = self._edges[i]
            rhs[p, : rows.stop - rows.start] = big_b[rows]
        return rhs

    def sweep(
        self, big_b: np.ndarray, x: np.ndarray, stats: SweepStats, gauss_seidel: bool
    ) -> None:
        """One full sweep of the coupled block rows of ``x`` in place, as a
        constant number of stacked kernels.

        Jacobi runs the whole off-diagonal stack against the previous
        iterate, then every coupled diagonal block in one batched solve;
        the MVM stage reads all of ``x`` before the INV stage writes it,
        so ``x`` itself is the frozen previous iterate.  Gauss-Seidel
        must read the in-place updated iterate, so it stages per block
        row — contiguous stack slices, still one batched kernel set per
        row rather than one per tile.
        """
        if gauss_seidel:
            for i in self.coupled:
                self._coupled_stage([i], big_b, x, *self._row_span[i], stats)
            return
        self._coupled_stage(self.coupled, big_b, x, 0, len(self._off_slots), stats)

    def _coupled_stage(
        self,
        blocks: list[int],
        big_b: np.ndarray,
        x: np.ndarray,
        start: int,
        stop: int,
        stats: SweepStats,
    ) -> None:
        """Solve diagonal blocks ``blocks`` into ``x`` against ``big_b``
        minus the products of off-diagonal slots ``[start, stop)`` on the
        ``x`` they read before the solve writes it."""
        rhs = self._rhs_stack(big_b, blocks)
        plan = self._active(blocks, start, stop, x)
        if plan is not None:
            self._subtract_products(rhs, plan, self._mvm_stack(plan, x, stats))
        self._diag_stage(blocks, rhs, x, stats)

    @staticmethod
    def _subtract_products(rhs: np.ndarray, plan: _StagePlan, products: np.ndarray) -> None:
        """Subtract each slot's product from its block row's ``rhs`` slice.

        Rank by rank: op ``r`` subtracts the ``r``-th active slot of every
        block row at once, so each row still takes its products in stack
        order — the bits of one subtraction per slot — in as many ops as
        the widest row has slots.  Padded product rows are zero, so they
        leave the INV stage's zero padding alone.
        """
        rows = products.shape[1]
        for p, t in plan.subtract:
            rhs[p, :rows] -= products[t]

    def _subtract_plan(
        self, blocks: list[int], slots: list[_Slot]
    ) -> list[tuple["slice | np.ndarray", "slice | np.ndarray"]]:
        """Per rank, the ``rhs`` positions and the stage-stack positions
        of :meth:`_subtract_products` (strided views where they can be)."""
        row_of = self._off_row[[s.index for s in slots]]
        position = np.zeros(len(self._edges), dtype=np.intp)
        position[blocks] = np.arange(len(blocks))
        # Stack order is row-major, so a row's slots are one run of
        # ``row_of`` and a slot's rank is its offset from the run start.
        rank = np.arange(len(slots)) - np.searchsorted(row_of, row_of)
        schedule = []
        for r in range(int(rank.max()) + 1):
            t = np.flatnonzero(rank == r)
            schedule.append((_progression(position[row_of[t]]), _progression(t)))
        return schedule

    def _active(
        self, blocks: list[int], start: int, stop: int, source: np.ndarray
    ) -> _StagePlan | None:
        """The plan of slots ``[start, stop)`` whose source slice is not
        all zero, scheduled to subtract into ``blocks``' right-hand sides
        (``None`` when every slot is dropped).

        A_ij·0 ≡ 0 exactly: a coupling reading an all-zero block (the
        first Jacobi sweep, untouched Gauss-Seidel blocks) is dropped from
        the stage — running it would only digitize noise and under-range
        the shared TIA ladder.  The test is per block *column* (every slot
        in column j reads the same source slice), and the live columns
        key the cached plan.
        """
        live = tuple(bool(source[cols].any()) for cols in self._edges)
        key = ("sweep", tuple(blocks), start, stop, live)
        plan = self._plans.get(key)
        if plan is None:
            slots = [s for s in self._off_slots[start:stop] if live[s.j]]
            if not slots:
                return None
            plan = self._plan(key, slots, mvm=True)
            plan.subtract = self._subtract_plan(blocks, slots)
        return plan

    # ------------------------------------------------------------- MVM stage

    def _lane_bounds(self, slots: list) -> list[tuple[int, int]]:
        """Slot ranges ``[lo, hi)`` of the stage lanes, in order.

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
                "currents": np.empty(shape_out),
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
        """:meth:`_mvm_stack` as ``(slot, value)`` pairs in slot order,
        each ``value`` a view of the slot's valid rows in the stage buffer
        (valid until the next stage call)."""
        if not slots:
            return []
        plan = self._plan(("mvm", *(s.index for s in slots)), slots, mvm=True)
        products = self._mvm_stack(plan, source, stats, scales_in)
        return [(slot, products[t, : slot.rows]) for t, slot in enumerate(slots)]

    def _mvm_stack(
        self,
        plan: _StagePlan,
        source: np.ndarray,
        stats: SweepStats,
        scales_in: np.ndarray | None = None,
    ) -> np.ndarray:
        """Attempt-1 MVM of ``plan``'s slots as one stacked chain.

        Returns the ``(len(slots), R, k)`` stack of problem-unit product
        blocks (fault-corrected, ranged) with zero padded rows — a reused
        stage buffer, valid until the next stage call.  Each slot's input
        is ``source[slot.src]`` divided by its per-column scale: the
        caller's ``scales_in`` ``(k,)`` when given (a handle scales each
        column once over its whole input), otherwise the slot's own block
        peak (a grid).
        """
        solver = self._solver
        slots = plan.slots
        t_count = len(slots)
        sl = plan.index
        k = source.shape[1]
        primary = slots[0].tile.primary
        params, dac, adc = primary.opamp_params, primary.dac, primary.adc

        # The chain streams ~30 passes over the stack; running it on
        # sub-ranges of slots keeps each pass, plane products included,
        # inside the cache instead of round-tripping the whole stack
        # through memory.  Chunking is bitwise-free: every op below is
        # elementwise, a per-slot reduction or a per-slot matrix product,
        # so disjoint slot ranges never interact — and the per-slot noise
        # draws still visit slots in index order.  The same independence
        # lets contiguous runs of chunks (lanes) run on separate threads.
        width = self._ELEMENTWISE_CHUNK
        if plan.lanes is None:
            plan.lanes = self._lane_bounds(slots)
        buf = self._buffers(t_count, k)
        x_raw, v_in, v_neg = buf["x_raw"], buf["v_in"], buf["v_neg"]
        currents, values, rescaled = buf["currents"], buf["values"], buf["rescaled"]
        scales = np.empty((t_count, k))
        if scales_in is not None:
            scales[:] = scales_in
        row_peak = np.empty((t_count, k))
        col_sat = np.empty((t_count, k), dtype=bool)
        j_idx = plan.sources
        if j_idx is not None:
            whole = (source.shape[0] // self._off_C) * self._off_C
            source_blocks = source[:whole].reshape(-1, self._off_C, k)
        signed = self._off_any_neg
        col_draws, row_draws = plan.col_draws, plan.row_draws
        ci = determinism.column_independent()
        matmul = self._backend.batched_matmul

        # TIA stage with the live per-macro ladder value (set_g_f moves
        # are picked up at refresh without any stack invalidation; mid-
        # call moves happen only through the ranging branches below,
        # which re-cache the slot's ladder value after retuning).
        g_f = np.array([slot.g_f for slot in slots])
        # The problem-unit rescale ``−values · g_f · value_scale · scale``
        # as one per-slot factor times the per-column scale.
        factor = -g_f * self._off_vscale[sl]

        def chain(lo: int, hi: int) -> None:
            for c0 in range(lo, hi, width):
                c = slice(c0, min(c0 + width, hi))
                planes = _chunk_index(sl, c)
                xc, vc, oc, ac = x_raw[c], v_in[c], currents[c], values[c]
                if j_idx is not None:
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
                # The chunk's plane products: one backend call per plane,
                # each slice bitwise the whole-stack kernel's.
                if signed:
                    vn = inverter_output(vc, self._off_inv[planes], params, out=v_neg[c])
                    np.add(
                        matmul(self._off_gp[planes], vc, ci),
                        matmul(self._off_gn[planes], vn, ci),
                        out=oc,
                    )
                else:
                    oc[...] = matmul(self._off_gp[planes], vc, ci)
                # The TIA's noise draws land in the ADC buffer, which the
                # sample below overwrites.
                railed, top, low = tia_output(
                    oc, self._off_gnode[planes], self._off_tia[planes], g_f[c], params,
                    row_draws[c], self._off_gneg_sq[planes] if signed else None, scratch=ac,
                )
                np.maximum(top, -low, out=row_peak[c])
                adc.saturated_columns(railed, top, low, out=col_sat[c])
                adc.sample(oc, row_draws[c], out=ac)
                # Batched problem-unit rescale in one pass (ranging slots
                # overwrite their rows below once the ladder settles).
                np.multiply(ac, (factor[c][:, None] * scales[c])[:, None, :], out=rescaled[c])

        _run_lanes(chain, plan.lanes)
        # One logical dispatch per plane, however many chunks carried it.
        solver.cost.add_dispatches(2 if signed else 1)

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

        # Each slot latches its batch's last column.  Slots that need more
        # than the batched chain (ranging, a stuck-cell correction) finish
        # in slot order, after the latches of the slots before them.
        last = values[:, :, -1]
        latched = 0
        for t in sorted({*np.flatnonzero(needs_ranging).tolist(), *plan.faulty}):
            for u in range(latched, t + 1):
                latch, r = plan.latches[u]
                latch(last[u, :r])
            latched = t + 1
            slot = slots[t]
            r, c = slot.rows, slot.cols
            tile = slot.tile
            primary = tile.primary
            if needs_ranging[t]:
                partner = tile.partner
                # Re-enter the shared ranging loop with this stacked attempt
                # as its first result; retries run the macro's one-slot chain.
                result, attempts = autorange_mvm(
                    lambda: self._kernel(
                        "pertile_mvm",
                        lambda: primary.compute_mvm(x_raw[t, :c] / scales[t], partner=partner),
                    ),
                    primary,
                    (partner,) if partner is not None else (),
                    target=target,
                    max_attempts=solver.max_attempts,
                    first=self._attempt(
                        AMCMode.MVM, values[t, :r], currents[t, :r], col_sat[t],
                        settling_time=float(settling[t]),
                    ),
                )
                slot.g_f = primary.config.g_f
                rescaled[t, :r] = result.values * (-slot.g_f * tile.mapping.value_scale * scales[t])
                self._book_ranged(
                    AMCMode.MVM, slot, stats, k, result,
                    attempts=attempts,
                    stable=True,
                    input_scales=scales[t],
                    column_saturated=result.solution.column_saturated,
                )
            fault = tile.fault_correction
            if fault is not None:
                # Known stuck-cell contributions are subtracted digitally.
                value = rescaled[t, :r]
                np.subtract(value, (fault @ (x_raw[t, :c] / scales[t])) * scales[t], out=value)
        for u in range(latched, t_count):
            latch, r = plan.latches[u]
            latch(last[u, :r])
        # Padded rows must not reach the INV stage's zero padding.
        for t in plan.ragged:
            rescaled[t, slots[t].rows :] = 0.0

        self._book_fast(
            AMCMode.MVM, plan, stats, k, fast,
            stable=True,
            scales=scales,
            column_saturated=col_sat,
            settling=settling,
        )
        return rescaled

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
        counted dispatch (the INV stage's batched kernel and every
        ranging retry alike; the MVM stage's plane products run inside
        its lanes and count their dispatches themselves)."""
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
        plan: _StagePlan,
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
        sel = slice(None) if count == len(plan.slots) else fast
        input_scales = scales[sel].max(axis=0)
        stats.add(
            tiles=count,
            attempts=count,
            stable=stable,
            input_scale=float(input_scales.max()),
            input_scales=input_scales,
            column_saturated=column_saturated[sel].any(axis=0),
        )
        rows, cols = plan.rows[sel], plan.cols[sel]
        cost = self._solver.cost
        if settling is None:
            cost.add_solves(mode.value, count)
        else:
            times = settling[sel]
            cost.add_solves(mode.value, count, float(times.sum()), float(plan.amps[sel] @ times))
        cost.add_conversions(dac=int(cols.sum()) * k, adc=int(rows.sum()) * k)
        cost.add_engine_macs(int((rows * cols).sum()) * k)

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
        plan = self._plan(
            ("inv", *indices), [self._diag_slots[d] for d in indices], mvm=False
        )
        slots, draws, sl = plan.slots, plan.row_draws, plan.index
        k = rhs.shape[2]
        primary = slots[0].tile.primary
        params, dac, adc = primary.opamp_params, primary.dac, primary.adc

        scales = solver._input_scales(rhs)
        v_in = dac.convert(rhs / scales[:, None, :], draws)
        # Input currents from each slot's g_f ladder, plus the static
        # offset drive of the equilibrium system.
        g_f = np.array([slot.g_f for slot in slots])
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
            AMCMode.INV, plan, stats, k, fast,
            stable=bool(np.all(stable_flags[fast])),
            scales=scales,
            column_saturated=col_sat,
            settling=None,
        )
