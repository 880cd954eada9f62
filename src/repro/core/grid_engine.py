"""Vectorized grid engine: batched sweep kernels over stacked tile circuits.

A :class:`~repro.core.tiled.TiledOperator` sweep used to walk the tile
grid in Python — one engine call per tile per sweep, each running its own
``np.linalg`` / ``scipy`` dispatch.  This module restructures the sweep
into a constant number of batched array kernels:

* at programming time every resident tile's **cached circuit state** is
  copied into contiguous 3-D stacks — off-diagonal MVM tiles in one stack
  (conductance planes, node loading, amplifier offsets), diagonal INV
  tiles in another (equilibrium inverse for the column-independent path,
  LU factors bucketed by exact block size for the BLAS path, offset
  drive, loop stability).  Ragged edge tiles are zero-padded; per-slot
  valid row/column counts mask the padding wherever it could leak;
* each sweep stage then runs **once over the whole stack**: the grid's
  off-diagonal accumulation is one batched einsum (the stacked twin of
  :func:`repro.analog.determinism.apply_matrix` — bitwise identical per
  column to the 2-D kernel) or one batched matmul, and all diagonal
  solves are one batched ``scipy.linalg.lu_solve`` per size bucket (LU
  factors cannot be zero-padded without perturbing the elimination, so
  buckets keep the batched solve bit-exact);
* the stacks are **version-aware**: each slice stores the residency key
  of the circuit it was copied from (register word sans ``g_f``,
  crossbar ``version``, partner fingerprint) and :meth:`GridEngine.refresh`
  re-copies exactly the slices whose key changed — programming,
  ``refresh()`` and fair-share preemption invalidate only what they
  touched, while ``set_g_f`` ladder moves never invalidate anything
  because the live ladder value is re-read from the registers every
  stage, exactly as the per-tile path does.

Numerical contract: under the deterministic engine mode
(:func:`repro.analog.determinism.column_independent`) the stacked sweep
is **bit-identical** to the per-tile loop, noisy or not — every
elementwise stage (DAC quantization, inverter, TIA transfer, ADC
sampling) reproduces the per-tile expressions value for value, noise is
drawn per tile from each macro's own stream in per-tile stage order, and
auto-ranging decisions re-enter the *shared* ranging helpers through a
closure whose first call returns the already-computed stacked attempt —
steady-state tiles never fall back to a per-tile engine call, ranging
tiles continue bit-faithfully from attempt 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.analog import determinism
from repro.analog.results import CircuitSolution
from repro.analog.topologies import AMCMode
from repro.core.ranging import MIN_INPUT_SCALE, autorange_gain_batch, autorange_mvm
from repro.macro.amc_macro import MacroResult
from repro.obs import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.backend import Backend
    from repro.core.operator import AnalogOperator, TileBinding
    from repro.core.tiled import TiledOperator, _SweepStats


class _Slot:
    """One tile's slice of a stack, plus its cache-invalidation key."""

    __slots__ = (
        "index", "i", "j", "handle", "tile", "circuit", "key",
        "rows", "cols", "has_neg", "amps", "g_f",
    )

    def __init__(self, index: int, i: int, j: int, handle: "AnalogOperator"):
        self.index = index
        self.i = i
        self.j = j
        self.handle = handle
        self.tile: "TileBinding | None" = None
        self.circuit = None
        self.key: tuple | None = None
        self.rows = 0
        self.cols = 0
        self.has_neg = False
        self.amps = 0
        self.g_f = 0.0


class GridEngine:
    """Stacked sweep executor for one :class:`TiledOperator` grid."""

    # Slot sub-range width for the elementwise MVM-stage chains: large
    # grids stream ~30 passes over the stack, and running them a cache-
    # sized group of slots at a time roughly halves the memory traffic.
    # Purely a locality knob — results are bitwise independent of it.
    _ELEMENTWISE_CHUNK = 32

    def __init__(self, tiled: "TiledOperator", backend: "Backend"):
        self._tiled = tiled
        self._solver = tiled._solver
        self._backend = backend
        self._edges = tiled.block_slices

        # Off-diagonal slots in row-major (i, j) order: a block row's
        # slots are one contiguous stack slice, so Gauss-Seidel stages
        # operate on views, never gather copies.
        self._off_slots = [
            _Slot(t, i, j, tiled._off[(i, j)])
            for t, (i, j) in enumerate(sorted(tiled._off))
        ]
        self._row_span: dict[int, tuple[int, int]] = {}
        for slot in self._off_slots:
            start, _ = self._row_span.get(slot.i, (slot.index, slot.index))
            self._row_span[slot.i] = (start, slot.index + 1)

        self._diag_slots = [
            _Slot(i, i, i, handle) for i, handle in enumerate(tiled._diag)
        ]

        edge_sizes = [e.stop - e.start for e in self._edges]
        self._off_R = max(edge_sizes)
        self._off_C = max(edge_sizes)
        self._diag_N = max(edge_sizes)
        # Uniform grids (every block exactly tile-wide) let the MVM stage
        # gather its source blocks with one fancy-index take instead of a
        # per-slot copy loop; block slices partition [0, N) contiguously,
        # so equal widths are the whole condition.
        self._edges_uniform = all(size == self._off_C for size in edge_sizes)

        t_off = len(self._off_slots)
        self._off_gp = np.zeros((t_off, self._off_R, self._off_C))
        self._off_gn = np.zeros((t_off, self._off_R, self._off_C))
        self._off_gnode = np.zeros((t_off, self._off_R))
        self._off_tia = np.zeros((t_off, self._off_R))
        self._off_inv = np.zeros((t_off, self._off_C))
        self._off_vscale = np.zeros(t_off)
        self._off_any_neg = False

        d = len(self._diag_slots)
        self._diag_inv = np.zeros((d, self._diag_N, self._diag_N))
        self._diag_offset = np.zeros((d, self._diag_N))
        self._diag_vscale = np.zeros(d)
        self._diag_stable = np.ones(d, dtype=bool)
        self._diag_sizes = np.zeros(d, dtype=int)
        # LU factors are bucketed by exact block size (zero-padding an LU
        # perturbs the elimination, so padded batched lu_solve would not
        # be bit-exact); a uniform grid with one ragged edge yields two
        # buckets, i.e. the batched-dispatch count stays O(1).
        self._lu_buckets: dict[int, dict] = {}
        # Expensive per-mode state (explicit inverse vs LU) is filled
        # lazily: a workload that never leaves one determinism mode never
        # pays the other mode's factorization copies.
        self._diag_inv_dirty: set[int] = set(range(d))
        self._diag_lu_dirty: set[int] = set(range(d))
        # Per-(slot-count, columns) scratch arrays reused across sweeps.
        self._stage_buffers: dict[tuple[int, int], dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------ stack upkeep

    def refresh(self) -> int:
        """Re-sync every stale slice against the resident circuits.

        Cheap in steady state (key comparisons only).  Returns — and
        accounts to the solver — the number of slices rebuilt, which is
        exactly the number of tiles whose crossbar was reprogrammed,
        refreshed or preempted since the last solve.
        """
        rebuilt = 0
        for slot in self._off_slots:
            tile = slot.handle._tiles[0]
            circuit, key = tile.primary.resident_mvm_circuit(tile.partner)
            if circuit is not slot.circuit or key != slot.key:
                self._fill_off(slot, tile, circuit, key)
                rebuilt += 1
            slot.tile = tile
            # One ladder read per solve; mid-solve moves happen only
            # through the ranging branches, which re-cache after retuning.
            slot.g_f = tile.primary.config.g_f
        for slot in self._diag_slots:
            tile = slot.handle._tiles[0]
            circuit, key = tile.primary.resident_inv_circuit(tile.partner)
            if circuit is not slot.circuit or key != slot.key:
                self._fill_diag(slot, tile, circuit, key)
                rebuilt += 1
            slot.tile = tile
            slot.g_f = tile.primary.config.g_f
        if rebuilt:
            self._solver._record_stack_rebuilds(rebuilt)
        return rebuilt

    def _fill_off(self, slot: _Slot, tile: "TileBinding", circuit, key: tuple) -> None:
        t = slot.index
        rows, cols = circuit.g_pos.shape
        slot.rows, slot.cols = rows, cols
        slot.circuit, slot.key = circuit, key
        slot.has_neg = circuit.g_neg is not None and circuit.inverters is not None
        self._off_gp[t] = 0.0
        self._off_gp[t, :rows, :cols] = circuit.g_pos
        self._off_gn[t] = 0.0
        self._off_inv[t] = 0.0
        if slot.has_neg:
            self._off_gn[t, :rows, :cols] = circuit.g_neg
            self._off_inv[t, :cols] = circuit.inverters.amps.offsets
            self._off_any_neg = True
        self._off_gnode[t] = 0.0
        self._off_gnode[t, :rows] = circuit.node_conductance()
        self._off_tia[t] = 0.0
        self._off_tia[t, :rows] = circuit.tias.amps.offsets
        self._off_vscale[t] = tile.mapping.value_scale
        config = tile.primary.config
        slot.amps = config.rows + config.cols

    def _fill_diag(self, slot: _Slot, tile: "TileBinding", circuit, key: tuple) -> None:
        d = slot.index
        n = circuit.n
        slot.rows = slot.cols = n
        slot.circuit, slot.key = circuit, key
        self._diag_sizes[d] = n
        self._diag_offset[d] = 0.0
        self._diag_offset[d, :n] = circuit.offset_rhs()
        self._diag_vscale[d] = tile.mapping.value_scale
        config = tile.primary.config
        slot.amps = config.rows + config.cols
        # Warms the one cached eigendecomposition per programming event —
        # the same eig the first per-tile static_solve would trigger.
        self._diag_stable[d] = circuit.is_stable
        self._diag_inv_dirty.add(d)
        self._diag_lu_dirty.add(d)

    def _ensure_diag_inv(self, indices) -> None:
        for d in indices:
            if d in self._diag_inv_dirty:
                n = self._diag_sizes[d]
                self._diag_inv[d] = 0.0
                self._diag_inv[d, :n, :n] = self._diag_slots[d].circuit.equilibrium_inverse()
                self._diag_inv_dirty.discard(d)

    def _lu_bucket(self, n: int) -> dict:
        bucket = self._lu_buckets.get(n)
        if bucket is None:
            members = [d for d in range(len(self._diag_slots)) if self._diag_sizes[d] == n]
            bucket = self._lu_buckets[n] = {
                "pos": {d: p for p, d in enumerate(members)},
                "lu": np.zeros((len(members), n, n)),
                "piv": np.zeros((len(members), n), dtype=np.int32),
            }
        return bucket

    def _ensure_diag_lu(self, indices) -> None:
        for d in indices:
            if d in self._diag_lu_dirty:
                n = int(self._diag_sizes[d])
                lu, piv = self._diag_slots[d].circuit.equilibrium_lu()
                bucket = self._lu_bucket(n)
                pos = bucket["pos"][d]
                bucket["lu"][pos] = lu
                bucket["piv"][pos] = piv
                self._diag_lu_dirty.discard(d)

    # --------------------------------------------------------------- sweeping

    def presolve_uncoupled(
        self, big_b: np.ndarray, x: np.ndarray, uncoupled: list[int], stats: "_SweepStats"
    ) -> None:
        """Stacked twin of the one-shot solve of coupling-free blocks."""
        k = big_b.shape[1]
        rhs = np.zeros((len(uncoupled), self._diag_N, k))
        for p, i in enumerate(uncoupled):
            rows = self._edges[i]
            rhs[p, : rows.stop - rows.start] = big_b[rows]
        self._diag_stage(uncoupled, rhs, x, stats)

    def sweep(
        self,
        big_b: np.ndarray,
        x: np.ndarray,
        source: np.ndarray,
        coupled: list[int],
        stats: "_SweepStats",
        gauss_seidel: bool,
    ) -> None:
        """One full grid sweep as a constant number of stacked kernels.

        Jacobi runs the whole off-diagonal stack against the frozen
        previous iterate, then every coupled diagonal block in one
        batched solve.  Gauss-Seidel must read the in-place updated
        iterate, so it stages per block row — contiguous stack slices,
        still one batched kernel set per row rather than one per tile.
        """
        k = big_b.shape[1]
        if gauss_seidel:
            for i in coupled:
                start, stop = self._row_span.get(i, (0, 0))
                products = self._mvm_stage(start, stop, x, stats)
                rows = self._edges[i]
                n = rows.stop - rows.start
                rhs = np.zeros((1, self._diag_N, k))
                rhs[0, :n] = big_b[rows]
                for slot, value in products:
                    rhs[0, :n] -= value
                self._diag_stage([i], rhs, x, stats)
            return
        products = self._mvm_stage(0, len(self._off_slots), source, stats)
        rhs = np.zeros((len(coupled), self._diag_N, k))
        position = {i: p for p, i in enumerate(coupled)}
        for p, i in enumerate(coupled):
            rows = self._edges[i]
            rhs[p, : rows.stop - rows.start] = big_b[rows]
        for slot, value in products:
            rhs[position[slot.i], : slot.rows] -= value
        self._diag_stage(coupled, rhs, x, stats)

    # ------------------------------------------------------- off-diagonal MVMs

    def _mvm_stage(
        self, start: int, stop: int, source: np.ndarray, stats: "_SweepStats"
    ) -> list:
        """Vectorized attempt-1 MVM for slots ``[start, stop)``.

        Returns ``(slot, value)`` pairs in slot order, where ``value`` is
        the problem-unit product block exactly as the per-tile
        ``AnalogOperator.mvm`` accumulator would have produced it.
        """
        # A_ij·0 ≡ 0 exactly: slots whose source slice is all zero (the
        # first Jacobi sweep, untouched Gauss-Seidel blocks) are dropped
        # from the stage, like the per-tile loop drops their engine call —
        # running them would only digitize noise and under-range the
        # shared TIA ladder.  The all-active steady state keeps the
        # contiguous no-copy stack views.
        # The test is per block-*column* — every slot in column j reads the
        # same source slice — so memoize it per column, not per slot.
        cols_active: dict[int, bool] = {}
        slots = []
        for s in self._off_slots[start:stop]:
            active = cols_active.get(s.j)
            if active is None:
                active = cols_active[s.j] = bool(source[self._edges[s.j]].any())
            if active:
                slots.append(s)
        if not slots:
            return []
        solver = self._solver
        if len(slots) == stop - start:
            sl: slice | np.ndarray = slice(start, stop)
        else:
            sl = np.array([s.index for s in slots])
        t_count = len(slots)
        k = source.shape[1]
        params = slots[0].tile.primary.opamp_params
        dac = slots[0].tile.primary.dac
        adc = slots[0].tile.primary.adc
        v_ref = solver.pool.config.dac.v_ref

        # Reusable stage buffers: every array below is either fully
        # overwritten each call or pad-zeroed per slot, so reuse is safe;
        # every in-place ufunc chain replays the per-tile expressions'
        # elementwise sequence exactly (in-place evaluation changes
        # allocation, never the float ops), keeping the bit contract.
        buf = self._stage_buffers.get((t_count, k))
        if buf is None:
            shape_in = (t_count, self._off_C, k)
            shape_out = (t_count, self._off_R, k)
            buf = self._stage_buffers[(t_count, k)] = {
                "x_raw": np.zeros(shape_in),
                "v_in": np.empty(shape_in),
                "v_neg": np.empty(shape_in),
                "values": np.empty(shape_out),
                "rescaled": np.empty(shape_out),
                "abs": np.empty(shape_out),
            }

        # The elementwise chains stream ~30 passes over the stack; running
        # them on sub-ranges of slots keeps each pass inside the cache
        # instead of round-tripping the whole stack through memory.
        # Chunking is bitwise-free: every op below is elementwise or a
        # per-slot reduction, so disjoint slot ranges never interact — and
        # the per-slot rng noise loops still visit slots in index order.
        # Only the two plane matmuls stay whole-stack (one dispatch each).
        chunk = self._ELEMENTWISE_CHUNK
        x_raw = buf["x_raw"]
        v_in = buf["v_in"]
        v_neg = buf["v_neg"]
        values = buf["values"]
        rescaled = buf["rescaled"]
        abs_buf = buf["abs"]
        scales = np.empty((t_count, k))
        row_peak = np.empty((t_count, k))
        clips_cols = np.empty((t_count, k), dtype=bool)
        if self._edges_uniform:
            j_idx = np.fromiter((s.j for s in slots), dtype=np.intp, count=t_count)
            source_blocks = source.reshape(-1, self._off_C, k)
        gain = params.a0 / (params.a0 + 2.0)
        inv_all = self._off_inv[sl] if self._off_any_neg else None
        for c0 in range(0, t_count, chunk):
            c = slice(c0, min(c0 + chunk, t_count))
            xc, vc, ac = x_raw[c], v_in[c], abs_buf[c]
            # Gather + per-column input scales (the per-tile expressions,
            # vectorized over the stack; zero-padding cannot raise a peak).
            if self._edges_uniform:
                # ``np.take`` copies the same block values the per-slot
                # loop would, bit for bit.
                np.take(source_blocks, j_idx[c], axis=0, out=xc)
            else:
                for t, slot in enumerate(slots[c0 : c0 + chunk], start=c0):
                    x_raw[t, : slot.cols] = source[self._edges[slot.j]]
                    if slot.cols < self._off_C:
                        x_raw[t, slot.cols :] = 0.0
            np.abs(xc, out=ac)
            peaks = np.max(ac, axis=1)
            sc = np.where(peaks == 0.0, 1.0, peaks / (solver.headroom * v_ref))
            np.maximum(sc, MIN_INPUT_SCALE, out=scales[c])
            sc = scales[c]
            # DAC stage (the ``quantize_value`` chain, in place).  The
            # scaled chunks are divided straight into the DAC buffer — the
            # fast path never needs them again, and the rare ranging/fault
            # consumers below replay the same division per slot on demand.
            # Quantizing the zero padding yields half-LSB garbage codes,
            # which the zero-padded plane columns annihilate exactly.
            np.divide(xc, sc[:, None, :], out=vc)
            np.clip(vc, -dac.params.v_ref, dac.params.v_ref, out=vc)
            vc += dac.params.v_ref
            vc /= dac.lsb
            np.rint(vc, out=vc)
            vc *= dac.lsb
            vc -= dac.params.v_ref
            if dac.params.inl_lsb > 0.0:
                bow = np.divide(vc, dac.params.v_ref, out=ac)
                np.multiply(bow, bow, out=bow)
                np.subtract(1.0, bow, out=bow)
                np.multiply(bow, dac.params.inl_lsb * dac.lsb, out=bow)
                vc += bow
            if dac.params.noise_sigma > 0.0:
                for t, slot in enumerate(slots[c0 : c0 + chunk], start=c0):
                    v_in[t, : slot.cols] += slot.tile.primary.rng.normal(
                        0.0, dac.params.noise_sigma, size=(slot.cols, k)
                    )
            # Inverter plane inputs ride the same chunk while it is hot.
            if self._off_any_neg:
                nc = v_neg[c]
                np.multiply(vc, -gain, out=nc)
                nc += 2.0 * gain * inv_all[c][:, :, None]
                if params.noise_sigma > 0.0:
                    for t, slot in enumerate(slots[c0 : c0 + chunk], start=c0):
                        if slot.has_neg:
                            v_neg[t, : slot.cols] += slot.tile.primary.rng.normal(
                                0.0, params.noise_sigma, size=(slot.cols, k)
                            )
                np.clip(nc, -params.v_sat, params.v_sat, out=nc)

        ci = determinism.column_independent()
        with trace.span(
            "engine_dispatch", kernel="batched_matmul", slots=t_count, columns=k
        ):
            currents = self._backend.batched_matmul(self._off_gp[sl], v_in, ci)
        solver._record_dispatch(1)
        if self._off_any_neg:
            with trace.span(
                "engine_dispatch", kernel="batched_matmul", slots=t_count, columns=k
            ):
                np.add(
                    currents,
                    self._backend.batched_matmul(self._off_gn[sl], v_neg, ci),
                    out=currents,
                )
            solver._record_dispatch(1)

        # TIA stage with the live per-macro ladder value (set_g_f moves
        # are picked up at refresh without any stack invalidation; mid-
        # solve moves happen only through the ranging branches below,
        # which re-cache the slot's ladder value after retuning).
        g_f = np.array([slot.g_f for slot in slots])
        gnode_all = self._off_gnode[sl]
        tia_all = self._off_tia[sl]
        vscale_all = self._off_vscale[sl]
        for c0 in range(0, t_count, chunk):
            c = slice(c0, min(c0 + chunk, t_count))
            oc, ac, valc = currents[c], abs_buf[c], values[c]
            g_f3 = g_f[c][:, None, None]
            g_sum = gnode_all[c][:, :, None] + g_f3
            np.negative(oc, out=oc)
            oc += tia_all[c][:, :, None] * g_sum
            oc /= g_f3 + g_sum / params.a0
            if params.noise_sigma > 0.0:
                for t, slot in enumerate(slots[c0 : c0 + chunk], start=c0):
                    currents[t, : slot.rows] += slot.tile.primary.rng.normal(
                        0.0, params.noise_sigma, size=(slot.rows, k)
                    )
            np.clip(oc, -params.v_sat, params.v_sat, out=oc)
            # Rail/clip tests fold through per-column maxima —
            # ``any(|v| ≥ c)`` over a row axis is exactly ``max(|v|) ≥ c``.
            np.abs(oc, out=ac)
            np.max(ac, axis=1, out=row_peak[c])
            # ADC stage.  Clip detection mirrors
            # ``ADConverter.clips_columns``: the offset-shifted *clean*
            # signal, before the sampling noise draw.
            np.add(oc, adc.params.offset, out=valc)
            np.abs(valc, out=ac)
            np.greater(np.max(ac, axis=1), adc.params.v_ref, out=clips_cols[c])
            if adc.params.noise_sigma > 0.0:
                for t, slot in enumerate(slots[c0 : c0 + chunk], start=c0):
                    values[t, : slot.rows] += slot.tile.primary.rng.normal(
                        0.0, adc.params.noise_sigma, size=(slot.rows, k)
                    )
            np.clip(valc, -adc.params.v_ref, adc.params.v_ref, out=valc)
            valc += adc.params.v_ref
            valc /= adc.lsb
            np.rint(valc, out=valc)
            valc *= adc.lsb
            valc -= adc.params.v_ref
            # Batched problem-unit rescale — the same left-to-right
            # elementwise sequence as the per-tile accumulator
            # ``-values · g_f · value_scale · scale`` (ranging slots
            # overwrite their row below once the ladder settles).
            rc = rescaled[c]
            np.negative(valc, out=rc)
            rc *= g_f3
            rc *= vscale_all[c][:, None, None]
            rc *= scales[c][:, None, :]
        outputs = currents

        col_sat = row_peak >= params.v_sat * (1.0 - 1e-9)
        any_sat = np.any(col_sat, axis=1)
        peaks_out = np.max(row_peak, axis=1)
        clips_any = np.any(clips_cols, axis=1)
        target = solver._output_target
        sat0 = any_sat | clips_any
        col_or_clip = col_sat | clips_cols
        if solver.max_attempts > 1:
            needs_ranging = sat0 | ((0.0 < peaks_out) & (peaks_out < 0.25 * target))
        else:
            needs_ranging = np.zeros(t_count, dtype=bool)
        fast = ~needs_ranging
        # Settling-time diagnostics feed the ranging solutions, the chip
        # stats, and the always-on cost ledger (analog settling / amp-energy
        # attribution) — two vector ops per stage, so always computed.
        noise_gain = 1.0 + np.max(gnode_all, axis=1) / g_f
        settling = noise_gain / (2.0 * np.pi * params.gbw)

        products = []
        last = k - 1
        for t, slot in enumerate(slots):
            primary = slot.tile.primary
            # ``AMCMacro._finish`` inlined: buffer the batch's last column
            # and count the conversion, without the per-slot method call.
            primary.output_buffer[: slot.rows] = values[t, : slot.rows, last]
            primary.solve_count += 1
            value = rescaled[t, : slot.rows, :k]
            if needs_ranging[t]:
                r, c = slot.rows, slot.cols
                solution = CircuitSolution(
                    outputs=outputs[t, :r, :k],
                    saturated=bool(any_sat[t]),
                    stable=True,
                    settling_time=float(settling[t]),
                    column_saturated=col_sat[t],
                )
                result = MacroResult(
                    values=values[t, :r, :k],
                    raw=outputs[t, :r, :k],
                    solution=solution,
                    mode=AMCMode.MVM,
                )
                # Re-enter the shared ranging loop, with this stacked
                # attempt as its first compute — attempt 2 onward runs the
                # real per-tile engine, bit-faithful to the baseline.
                pending = [result]
                chunk = x_raw[t, :c, :k] / scales[t]

                def compute(result_stack=pending, primary=primary, chunk=chunk, slot=slot):
                    if result_stack:
                        return result_stack.pop()
                    solver._record_dispatch(1)
                    with trace.span("engine_dispatch", kernel="pertile_mvm"):
                        return primary.compute_mvm(chunk, partner=slot.tile.partner)

                partners = (slot.tile.partner,) if slot.tile.partner is not None else ()
                result, attempts, final_saturated = autorange_mvm(
                    compute,
                    primary,
                    partners,
                    target=target,
                    max_attempts=solver.max_attempts,
                )
                tile_columns = (
                    result.solution.column_saturated
                    if result.solution.column_saturated is not None
                    else np.full(k, bool(result.solution.saturated))
                )
                column_saturated = np.asarray(tile_columns, dtype=bool) | primary.adc.clips_columns(result.raw)
                scale = scales[t]
                slot.g_f = primary.config.g_f
                value = -result.values * slot.g_f * slot.tile.mapping.value_scale * scale
                stats.add(
                    attempts=attempts,
                    stable=True,
                    saturated=bool(final_saturated),
                    input_scale=float(np.max(scale)),
                    input_scales=scale,
                    column_saturated=column_saturated,
                )
                solver._record_solve(
                    AMCMode.MVM, slot.amps, result.solution.settling_time
                )
                solver._record_conversions(
                    dac=slot.cols * k * attempts,
                    adc=slot.rows * k * attempts,
                    macs=slot.rows * slot.cols * k * attempts,
                )
            fault = slot.tile.fault_correction
            if fault is not None:
                chunk = x_raw[t, : slot.cols, :k] / scales[t]
                np.subtract(value, (fault @ chunk) * scales[t], out=value)
            products.append((slot, value))

        # The fast-path slots' diagnostics, folded in one batched update —
        # every accumulator op (sum, max, or) is associative, so the
        # aggregate is bitwise the per-slot fold.
        n_fast = int(np.count_nonzero(fast))
        if n_fast:
            stats.add_batch(
                tiles=n_fast,
                attempts=n_fast,
                stable=True,
                saturated=bool(np.any(sat0[fast])),
                input_scale=float(np.max(scales[fast])),
                input_scales=np.max(scales[fast], axis=0),
                column_saturated=np.any(col_or_clip[fast], axis=0),
            )
            for t, slot in enumerate(slots):
                if fast[t]:
                    solver._record_solve(AMCMode.MVM, slot.amps, float(settling[t]))
            # Valid (unpadded) per-slot sizes — the same DAC/ADC/MAC charge
            # the per-tile loop books, so the two engines cost identically.
            fast_rows = sum(slot.rows for t, slot in enumerate(slots) if fast[t])
            fast_cols = sum(slot.cols for t, slot in enumerate(slots) if fast[t])
            fast_macs = sum(
                slot.rows * slot.cols for t, slot in enumerate(slots) if fast[t]
            )
            solver._record_conversions(
                dac=fast_cols * k, adc=fast_rows * k, macs=fast_macs * k
            )
        solver.solve_counts[AMCMode.MVM.value] += t_count
        return products

    # ----------------------------------------------------------- diagonal INVs

    def _diag_stage(
        self, indices: list[int], rhs: np.ndarray, x: np.ndarray, stats: "_SweepStats"
    ) -> None:
        """Vectorized attempt-1 INV solve of diagonal blocks ``indices``.

        ``rhs`` is the zero-padded ``(len(indices), N, k)`` residual stack
        in problem units; solved blocks are scattered into ``x``.
        """
        solver = self._solver
        slots = [self._diag_slots[d] for d in indices]
        k = rhs.shape[2]
        params = slots[0].tile.primary.opamp_params
        dac = slots[0].tile.primary.dac
        adc = slots[0].tile.primary.adc
        v_ref = solver.pool.config.dac.v_ref

        peaks = np.max(np.abs(rhs), axis=1)
        scales = np.where(peaks == 0.0, 1.0, peaks / (solver.headroom * v_ref))
        scales = np.maximum(scales, MIN_INPUT_SCALE)
        scaled = rhs / scales[:, None, :]

        v_in = dac.quantize_value(scaled)
        if dac.params.inl_lsb > 0.0:
            normalized = v_in / dac.params.v_ref
            v_in = v_in + dac.params.inl_lsb * dac.lsb * (1.0 - normalized**2)
        if dac.params.noise_sigma > 0.0:
            for t, slot in enumerate(slots):
                v_in[t, : slot.rows] += slot.tile.primary.rng.normal(
                    0.0, dac.params.noise_sigma, size=(slot.rows, k)
                )

        g_f = np.array([slot.g_f for slot in slots])
        i_in = g_f[:, None, None] * v_in
        rhs_c = -i_in + self._diag_offset[indices][:, :, None]
        if determinism.column_independent():
            self._ensure_diag_inv(indices)
            with trace.span(
                "engine_dispatch",
                kernel="batched_matmul",
                slots=len(indices),
                columns=k,
            ):
                xs = self._backend.batched_matmul(self._diag_inv[indices], rhs_c, True)
            solver._record_dispatch(1)
        else:
            self._ensure_diag_lu(indices)
            xs = np.zeros_like(rhs_c)
            by_size: dict[int, list[int]] = {}
            for p, d in enumerate(indices):
                by_size.setdefault(int(self._diag_sizes[d]), []).append(p)
            for n, positions in by_size.items():
                bucket = self._lu_bucket(n)
                rows = [bucket["pos"][indices[p]] for p in positions]
                with trace.span(
                    "engine_dispatch",
                    kernel="batched_lu_solve",
                    slots=len(positions),
                    size=n,
                    columns=k,
                ):
                    solved = self._backend.batched_lu_solve(
                        bucket["lu"][rows], bucket["piv"][rows], rhs_c[positions][:, :n, :]
                    )
                solver._record_dispatch(1)
                for p, block in zip(positions, solved):
                    xs[p, :n] = block
        if params.noise_sigma > 0.0:
            for t, slot in enumerate(slots):
                xs[t, : slot.rows] += slot.tile.primary.rng.normal(
                    0.0, params.noise_sigma, size=(slot.rows, k)
                )
        clipped = params.saturate(xs)
        railed = np.abs(xs) > params.v_sat
        col_sat = np.any(railed, axis=1)
        values = clipped + adc.params.offset
        if adc.params.noise_sigma > 0.0:
            for t, slot in enumerate(slots):
                values[t, : slot.rows] += slot.tile.primary.rng.normal(
                    0.0, adc.params.noise_sigma, size=(slot.rows, k)
                )
        values = np.clip(values, -adc.params.v_ref, adc.params.v_ref)
        values = np.rint((values + adc.params.v_ref) / adc.lsb) * adc.lsb - adc.params.v_ref
        peaks_out = np.max(np.abs(clipped), axis=(1, 2))

        target = solver._output_target
        slot_sat = np.any(col_sat, axis=1)
        stable_flags = self._diag_stable[indices]
        if solver.max_attempts > 1:
            needs_ranging = slot_sat | ((0.0 < peaks_out) & (peaks_out < 0.25 * target))
        else:
            needs_ranging = np.zeros(len(slots), dtype=bool)
        fast = ~needs_ranging

        # Batched problem-unit rescale, same elementwise sequence as the
        # per-tile ``-values · scale / (value_scale · g_f)``.
        rescaled = -values * scales[:, None, :]
        rescaled /= (self._diag_vscale[indices] * g_f)[:, None, None]

        row_slices = []
        blocks = []
        last = k - 1
        for t, slot in enumerate(slots):
            n = slot.rows
            primary = slot.tile.primary
            # ``AMCMacro._finish`` inlined (see the MVM stage).
            primary.output_buffer[:n] = values[t, :n, last]
            primary.solve_count += 1
            value = rescaled[t, :n, :k]
            if needs_ranging[t]:
                raw = clipped[t, :n, :k]
                sampled = values[t, :n, :k]
                solution = CircuitSolution(
                    outputs=raw,
                    saturated=bool(slot_sat[t]),
                    stable=bool(stable_flags[t]),
                    column_saturated=col_sat[t],
                )
                result = MacroResult(values=sampled, raw=raw, solution=solution, mode=AMCMode.INV)
                scale_row = scales[t]
                vscale = slot.tile.mapping.value_scale
                pending = [result]
                block = rhs[t, :n, :k]

                def compute(s, result_stack=pending, primary=primary, block=block, slot=slot):
                    if result_stack:
                        return result_stack.pop()
                    solver._record_dispatch(1)
                    with trace.span("engine_dispatch", kernel="pertile_inv"):
                        return primary.compute_inv(block / s, partner=slot.tile.partner)

                outcome = autorange_gain_batch(
                    compute,
                    primary,
                    lambda result, s, g_f, vscale=vscale: -result.values * s / (vscale * g_f),
                    scales=scale_row,
                    target=target,
                    max_attempts=solver.max_attempts,
                )
                slot.g_f = primary.config.g_f
                value = outcome.value
                stats.add(
                    attempts=outcome.attempts,
                    stable=bool(outcome.stable),
                    saturated=bool(outcome.saturated),
                    input_scale=float(np.max(outcome.input_scales)),
                    input_scales=outcome.input_scales,
                    column_saturated=outcome.column_saturated,
                )
                solver._record_solve(
                    AMCMode.INV, slot.amps, outcome.result.solution.settling_time
                )
                solver._record_conversions(
                    dac=n * k * outcome.attempts,
                    adc=n * k * outcome.attempts,
                    macs=n * n * k * outcome.attempts,
                )
            row_slices.append(self._edges[slot.i])
            blocks.append(value)

        n_fast = int(np.count_nonzero(fast))
        if n_fast:
            stats.add_batch(
                tiles=n_fast,
                attempts=n_fast,
                stable=bool(np.all(stable_flags[fast])),
                saturated=bool(np.any(slot_sat[fast])),
                input_scale=float(np.max(scales[fast])),
                input_scales=np.max(scales[fast], axis=0),
                column_saturated=np.any(col_sat[fast], axis=0),
            )
            for t, slot in enumerate(slots):
                if fast[t]:
                    solver._record_solve(AMCMode.INV, slot.amps, None)
            # Same charge as one per-tile batched INV solve per fast slot.
            fast_n = sum(slot.rows for t, slot in enumerate(slots) if fast[t])
            fast_macs = sum(
                slot.rows * slot.rows for t, slot in enumerate(slots) if fast[t]
            )
            solver._record_conversions(
                dac=fast_n * k, adc=fast_n * k, macs=fast_macs * k
            )
        solver.solve_counts[AMCMode.INV.value] += k * len(slots)
        self._backend.scatter_columns(x, row_slices, blocks)
