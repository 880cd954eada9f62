"""TiledOperator: matrices larger than one crossbar as a blocked grid.

The direct INV topology caps at one array (128 unknowns): the feedback
loop physically spans a single crossbar.  The AMC tutorial's answer (Sun &
Ielmini, arXiv:2205.05853) is to *block* the problem — partition ``A``
into a grid of array-sized tiles, invert the diagonal blocks in-array and
sweep the off-diagonal couplings with analog MVMs:

.. code-block:: text

        ┌─────────┬─────────┐      x₁ ← A₁₁⁻¹ (b₁ − A₁₂·x₂)   INV ↘  MVM →
        │ A₁₁ INV │ A₁₂ MVM │
        ├─────────┼─────────┤
        │ A₂₁ MVM │ A₂₂ INV │      x₂ ← A₂₂⁻¹ (b₂ − A₂₁·x₁)   MVM →  INV ↘
        └─────────┴─────────┘

Every per-tile step is **one batched engine call over all right-hand-side
columns** (the multi-RHS path of the batched execution engine), digital
work is only the O(n·k) block accumulation, and the grid is programmed
once — zero reprogramming events per solve.

The iteration is block-Jacobi or block-Gauss-Seidel; with inexact analog
products (relative error η per solve/multiply) it stalls at a residual
floor O(η·κ) instead of converging to zero.  :meth:`TiledOperator.solve`
reports that floor honestly in ``SolveResult.residual_floor``.

Grid lifetime is **atomic and pinned**: either every block compiles (the
whole grid resident simultaneously, exempt from LRU eviction) or the
constructor rolls back everything it grabbed and raises
:class:`~repro.core.errors.CapacityError` naming the pool's current
owners.  Instances come from :meth:`GramcSolver.compile` /
:meth:`GramcChip.compile` on a square SOLVE operand larger than one
array (or any square operand with an explicit ``tile=``).
"""

from __future__ import annotations

import time
from dataclasses import replace
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from repro.analog.topologies import AMCMode
from repro.core.errors import CapacityError, ConvergenceError, GramcError, ShapeError
from repro.core.grid_engine import GridEngine, SweepStats
from repro.core.operator import _Handle, finite_input
from repro.core.refine import DEFAULT_MAX_STEPS, refine_solve_result, scaled_norm
from repro.core.results import SolveResult
from repro.obs import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.operator import AnalogOperator
    from repro.core.solver import GramcSolver

_METHODS = ("gauss-seidel", "jacobi")


class TiledOperator(_Handle):
    """A square matrix blocked across a grid of programmed array tiles.

    Diagonal blocks are compiled as INV handles, nonzero off-diagonal
    blocks as MVM handles; all-zero off-diagonal blocks are skipped
    entirely (block-sparse operands pay only for their couplings).
    Instances come from :meth:`GramcSolver.compile` — never construct
    one directly.
    """

    __array_ufunc__ = None
    """As for :class:`AnalogOperator`: keep NumPy from coercing matmul
    through ``__array__`` into an exact digital product."""

    def __init__(
        self,
        solver: "GramcSolver",
        key: str,
        matrix: np.ndarray,
        tile: int,
        tag: str = "",
        quant_peak: float | None = None,
    ):
        self._solver = solver
        self.key = key
        self.mode = AMCMode.INV
        self.matrix = matrix
        self.tile = int(tile)
        self._tag = tag
        self.quant_peak = quant_peak
        """Per-block quantization-scale override, forwarded to every
        block compile (``None``: each block auto-ranges to its own peak —
        the default, and usually the right call: a faint coupling block
        would lose all its resolution on a grid-wide scale)."""
        self._refs = 1
        self._pin_count = 1
        """Counted per holder, like ``_refs``: construction pins the grid
        for the first holder; every cache-hit compile adds another pin and
        every ``close`` (or explicit ``unpin``) drops one.  The blocks
        stay pool-pinned while any holder's pin is outstanding."""
        self._closed = False
        self._ref_inverse: np.ndarray | None = None

        n = matrix.shape[0]
        edges: list[slice] = []
        start = 0
        while start < n:
            stop = min(start + self.tile, n)
            edges.append(slice(start, stop))
            start = stop
        self._edges = edges

        self._diag: list["AnalogOperator"] = []
        self._off: dict[tuple[int, int], "AnalogOperator"] = {}
        self._diag_mvm: list["AnalogOperator | None"] = [None] * len(edges)
        """Lazily compiled MVM views of the diagonal blocks — only built
        when the operator is *applied* (``op @ x``); a pure solve workload
        never pays their macros."""
        self._engine: GridEngine | None = None
        """Lazily constructed stacked grid engine; its slices re-sync
        against the resident circuits at every solve."""
        self._compile_grid()

    # ------------------------------------------------------------- compilation

    def _compile_grid(self) -> None:
        """Compile every block handle, atomically: all resident or none.

        Each block is pinned as soon as it is programmed, so compiling a
        later block can never evict an earlier sibling; on capacity
        exhaustion everything already built is unpinned, closed and
        released before the error propagates.
        """
        compiled: list["AnalogOperator"] = []
        solver = self._solver
        try:
            for i, rows in enumerate(self._edges):
                for j, cols in enumerate(self._edges):
                    block = self.matrix[rows, cols]
                    if i == j:
                        handle = solver.compile(
                            block, AMCMode.INV, pin=True,
                            tag=self._tag, quant_peak=self.quant_peak,
                        )
                        self._diag.append(handle)
                        compiled.append(handle)
                    elif np.any(block):
                        handle = solver.compile(
                            block, AMCMode.MVM, pin=True,
                            tag=self._tag, quant_peak=self.quant_peak,
                        )
                        self._off[(i, j)] = handle
                        compiled.append(handle)
        except Exception as error:
            # *Any* failure mid-grid (capacity, a bad operand raising in
            # quantization, ...) must not leak earlier blocks pinned in
            # the pool with no handle to release them.
            for handle in compiled:
                handle.unpin()
                handle.close()
            self._diag.clear()
            self._off.clear()
            if not isinstance(error, CapacityError):
                raise
            # ``error`` already carries owner_stats from the failed
            # multi-acquire — captured *before* this rollback ran.
            raise CapacityError(
                f"blocked operand ({self.shape[0]} unknowns on a "
                f"{self.grid[0]}x{self.grid[1]} tile grid) does not fit the "
                f"pool: {error}"
            ) from error

    # ----------------------------------------------------------- introspection

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
        """The digital copy of the blocked matrix (NumPy protocol)."""
        return np.array(self.matrix, dtype=dtype)

    @property
    def grid(self) -> tuple[int, int]:
        """Tile-grid dimensions ``(block_rows, block_cols)``."""
        return len(self._edges), len(self._edges)

    @property
    def block_count(self) -> int:
        """Compiled block handles (diagonal + nonzero off-diagonal)."""
        return len(self._diag) + len(self._off)

    @property
    def block_slices(self) -> list[slice]:
        """The row/column ranges of the (possibly ragged) tile edges."""
        return list(self._edges)

    def _solve_handles(self) -> list["AnalogOperator"]:
        return [*self._diag, *self._off.values()]

    def _all_handles(self) -> list["AnalogOperator"]:
        extra = [h for h in self._diag_mvm if h is not None]
        return [*self._solve_handles(), *extra]

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def resident(self) -> bool:
        """Whether every block's conductances are on the macros right now."""
        if self._closed:
            return False
        return all(handle.resident for handle in self._solve_handles())

    @property
    def program_events(self) -> int:
        """Total hardware writes across the solve-path blocks.

        Constant across solves on a healthy grid — the benchmark's
        "zero reprogramming events per solve" is this number's delta.
        """
        return sum(handle.program_count for handle in self._solve_handles())

    @property
    def macro_ids(self) -> tuple[int, ...]:
        ids: list[int] = []
        for handle in self._solve_handles():
            ids.extend(handle.macro_ids)
        return tuple(ids)

    @property
    def macros(self) -> int:
        """Distinct macros backing the resident grid."""
        return len(set(self.macro_ids))

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("resident" if self.resident else "evicted")
        rows, cols = self.grid
        return (
            f"<TiledOperator solve {self.shape[0]}×{self.shape[1]} "
            f"as {rows}×{cols} blocks of ≤{self.tile}, {state}, "
            f"{self.macros if not self._closed else 0} macros>"
        )

    # ---------------------------------------------------------------- lifetime

    def _require_open(self) -> None:
        if self._closed:
            raise GramcError(
                "operator handle is closed; compile the matrix again for a new one"
            )

    def _ensure_programmed(self) -> None:
        """Re-ensure every block (transparently reprogramming evicted ones)."""
        self._require_open()
        for handle in self._solve_handles():
            handle._ensure_programmed()

    def _retain(self) -> "TiledOperator":
        self._refs += 1
        return self

    def refresh(self) -> "TiledOperator":
        """Force a re-program of **every** tile (drift recovery).

        One drifted or externally rewritten crossbar invalidates the whole
        grid's accuracy budget, so refresh is grid-wide by design.
        """
        self._require_open()
        for handle in self._all_handles():
            handle.refresh()
        return self

    @property
    def is_pinned(self) -> bool:
        return self._pin_count > 0

    def pin(self) -> "TiledOperator":
        """Add one holder's pin to every solve-path block."""
        self._require_open()
        for handle in self._solve_handles():
            handle.pin()
        self._pin_count += 1
        return self

    def unpin(self) -> "TiledOperator":
        """Drop one holder's pin; the grid becomes LRU-evictable when no
        pins remain (an evicted block transparently re-programs on the
        next solve, at the cost of reprogramming events).  One holder's
        unpin never strips a co-holder's pin — but since ``close`` also
        drops the closing holder's pin, call either ``unpin()`` or rely
        on ``close()``, not both, per ``compile``."""
        if self._pin_count > 0:
            self._pin_count -= 1
            for handle in self._solve_handles():
                handle.unpin()
        return self

    def close(self) -> None:
        """Release every block back to the pool; the handle becomes unusable.

        Like :class:`AnalogOperator`, tiled handles are cached per
        (operand, tile) and refcounted: the grid is only torn down when
        the last holder closes.  Each close also drops the closing
        holder's pin (every ``compile`` hands out a pinned reference).
        """
        if self._closed:
            return
        self.unpin()  # this holder's pin dies with its reference
        self._refs -= 1
        if self._refs > 0:
            return
        while self._pin_count > 0:  # clear pins leaked by a missing unpin
            self.unpin()
        for handle in self._solve_handles():
            handle.close()
        for handle in self._diag_mvm:
            if handle is not None:
                handle.close()
        self._solver._forget(self)
        self._pin_count = 0
        self._diag = []
        self._off = {}
        self._diag_mvm = []
        self._engine = None
        self._closed = True

    def __enter__(self) -> "TiledOperator":
        self._ensure_programmed()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # --------------------------------------------------------------- execution

    def _grid_engine(self) -> GridEngine:
        """The stacked engine, built lazily and re-synced for this solve."""
        if self._engine is None:
            self._engine = GridEngine.for_grid(self, self._solver.backend)
        rebuilt = self._engine.refresh()
        if rebuilt:
            self._solver.cost.add_stack_rebuilds(rebuilt)
        return self._engine

    def solve(
        self,
        b: np.ndarray,
        *,
        tolerance: float = 1e-3,
        max_sweeps: int = 40,
        method: str = "gauss-seidel",
        rtol: "float | np.ndarray | None" = None,
        max_refine_steps: int = DEFAULT_MAX_STEPS,
    ) -> SolveResult:
        """Blocked analog solve with fault supervision when a plan is set
        (observe → heal → one retry → structured ``DegradedChipError``);
        see :meth:`_solve_impl` for the sweep semantics."""
        b = finite_input(b, "b")
        injector = self._fault_injector()
        if injector is None:
            return self._solve_impl(
                b,
                tolerance=tolerance,
                max_sweeps=max_sweeps,
                method=method,
                rtol=rtol,
                max_refine_steps=max_refine_steps,
            )
        return injector.supervised_solve(
            self,
            lambda: self._solve_impl(
                b,
                tolerance=tolerance,
                max_sweeps=max_sweeps,
                method=method,
                rtol=rtol,
                max_refine_steps=max_refine_steps,
            ),
            rtol=rtol,
        )

    def _solve_impl(
        self,
        b: np.ndarray,
        *,
        tolerance: float = 1e-3,
        max_sweeps: int = 40,
        method: str = "gauss-seidel",
        rtol: "float | np.ndarray | None" = None,
        max_refine_steps: int = DEFAULT_MAX_STEPS,
    ) -> SolveResult:
        """Blocked analog solve ``A·y = b`` (``b``: vector or ``(n, k)`` batch).

        Sweeps block-Jacobi or block-Gauss-Seidel updates

        ``x_i ← A_ii⁻¹ (b_i − Σ_{j≠i} A_ij · x_j)``

        where each ``A_ij · x_j`` is one batched analog MVM over all
        columns and each ``A_ii⁻¹(…)`` is one batched analog INV solve —
        no per-column Python loop anywhere in the pipeline.  Iteration
        stops when the relative update falls below ``tolerance`` or after
        ``max_sweeps``; with η-inexact analog steps the attainable
        residual floor is O(η·κ) and is reported (digitally evaluated) in
        ``SolveResult.residual_floor``.

        Each sweep runs as a constant number of batched kernels over the
        :class:`~repro.core.grid_engine.GridEngine`'s stacked circuit
        state.

        ``rtol`` turns the O(η·κ) floor into a **contract**: a
        flexible-GMRES outer loop (:mod:`repro.core.refine`) measures
        the float64 residual and uses one sweep on the *already
        programmed* grid — zero reprogramming — as its preconditioner,
        one step per sweep over the columns still above target, until
        every column's relative residual meets its target (scalar or
        per-column vector; ``inf`` entries skip refinement) or
        ``max_refine_steps`` is spent.  The base solve is one sweep too;
        under ``rtol``, ``max_sweeps`` and ``tolerance`` are unused.
        ``refine_steps`` / ``refined_residual`` /
        ``per_column_converged`` / ``refine_residual_trace`` report the
        outcome, ``converged`` is the contract's verdict (an unmet
        contract is returned, never raised), and ``sweeps`` counts base
        and preconditioner sweeps together.
        """
        self._require_open()
        if method not in _METHODS:
            raise GramcError(f"method must be one of {_METHODS}, not {method!r}")
        n = self.shape[0]
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ShapeError(f"b must have leading dimension {n} (vector or batch)")
        solver = self._solver
        started = time.perf_counter()
        before = solver.cost.snapshot()
        if self._ref_inverse is None:
            # One factorization of the immutable matrix serves every solve.
            self._ref_inverse = np.linalg.inv(self.matrix)
        reference = self._ref_inverse @ b
        batched = b.ndim == 2
        if batched and b.shape[1] == 0:
            empty = self._empty_result(
                AMCMode.INV, reference, sweeps=0, residual_floor=0.0, converged=True
            )
            if rtol is not None:
                empty = replace(
                    empty,
                    refine_steps=0,
                    refined_residual=0.0,
                    per_column_converged=np.zeros(0, dtype=bool),
                    refine_residual_trace=(0.0,),
                    per_column_residual=np.zeros(0),
                )
            return self._capture_cost(empty, before, started)
        self._ensure_programmed()

        if len(self._edges) == 1:
            # Degenerate 1×1 grid: exactly the direct single-array path
            # (bit-for-bit — no extra engine calls, no extra noise draws).
            inner = self._diag[0].solve(
                b, _reference=reference, rtol=rtol, max_refine_steps=max_refine_steps
            )
            floor = self._residual_floor(b, inner.value)
            inner = replace(
                inner, sweeps=1, residual_floor=floor,
                converged=True if rtol is None else inner.converged,
                macro_ids=self.macro_ids,
            )
            return self._capture_counted(inner, before, started)

        big_b = b if batched else b[:, None]
        columns = big_b.shape[1]
        gauss_seidel = method == "gauss-seidel"
        stats = SweepStats(columns)
        grid = self._grid_engine()

        with trace.span(
            "solve",
            mode=AMCMode.INV.value,
            shape=str(self.shape),
            columns=columns,
            grid=f"{len(self._edges)}x{len(self._edges)}",
            refine=rtol is not None,
        ) as sp:
            # Under ``rtol`` the base solve is a single sweep: refinement
            # steps do the contracting, on the float64 residual.
            x, sweeps, converged = self._run_sweeps(
                big_b, stats,
                sweeps=max_sweeps if rtol is None else 1,
                tolerance=tolerance if rtol is None else None,
                gauss_seidel=gauss_seidel, grid=grid,
            )

            result = stats.result(
                AMCMode.INV, x, reference, self.macro_ids, batched,
                sweeps=sweeps,
                residual_floor=self._residual_floor(b, x if batched else x[:, 0]),
                converged=converged,
            )

            if rtol is not None:
                # Each refinement step preconditions on the resident grid
                # with one sweep from zero (zero reprogramming); its
                # per-column metadata stays local to the step — the
                # returned per-column arrays describe the base analog step,
                # the scalar attempts/stable/saturated fold corrections in.
                correction_sweeps = 0

                def correction(columns: np.ndarray) -> SimpleNamespace:
                    nonlocal correction_sweeps
                    corr_stats = SweepStats(columns.shape[1])
                    xc, csweeps, _ = self._run_sweeps(
                        columns, corr_stats,
                        sweeps=1, tolerance=None,
                        gauss_seidel=gauss_seidel, grid=grid,
                    )
                    correction_sweeps += csweeps
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
                    solver=solver,
                )
                result = replace(
                    result,
                    sweeps=sweeps + correction_sweeps,
                    residual_floor=self._residual_floor(b, result.value),
                )
            sp.set(sweeps=result.sweeps, converged=bool(result.converged))
        return self._capture_counted(result, before, started)

    def _capture_counted(self, result: SolveResult, before, started: float) -> SolveResult:
        """Capture the call's cost and report its engine dispatches and
        stack rebuilds from that same ledger delta."""
        result = self._capture_cost(result, before, started)
        result.engine_dispatches = result.cost.engine_dispatches
        result.stack_rebuilds = result.cost.stack_rebuilds
        return result

    def _run_sweeps(
        self,
        big_b: np.ndarray,
        stats: SweepStats,
        *,
        sweeps: int,
        tolerance: float | None,
        gauss_seidel: bool,
        grid: GridEngine,
    ) -> tuple[np.ndarray, int, bool]:
        """A blocked solve from a zero initial iterate.

        With a ``tolerance`` (the ``rtol=None`` solve) it sweeps until the
        relative update falls below it, the update stalls, or ``sweeps``
        run out.  With ``tolerance=None`` (the base solve and every
        refinement correction of an ``rtol`` solve) it runs exactly
        ``sweeps`` sweeps.  Returns ``(x, sweeps_run, converged)``;
        ``stats`` accumulates the engine-call diagnostics of this solve
        only.
        """
        x = np.zeros_like(big_b)

        # Blocks with no incoming couplings solve exactly once: their
        # ``x_i = A_ii⁻¹·b_i`` is independent of every other block, so
        # sweeping them again would only re-spend settling events on a
        # fresh noise draw of the same answer.
        coupled = [
            i
            for i in range(len(self._edges))
            if any((i, j) in self._off for j in range(len(self._edges)))
        ]
        uncoupled = [i for i in range(len(self._edges)) if i not in coupled]
        if uncoupled:
            grid.presolve_uncoupled(big_b, x, uncoupled, stats)

        sweeps_run = 0
        converged = False
        previous_delta = float("inf")
        stalled = 0
        if not coupled:
            sweeps_run = 1
            converged = True
        for sweep in range(1, sweeps + 1):
            if not coupled:
                break
            previous = x.copy()
            # Gauss-Seidel reads the in-place updated iterate; Jacobi the
            # frozen previous sweep.  Same loop, different source view.
            source = x if gauss_seidel else previous
            with trace.span(
                "sweep",
                sweep=sweep,
                method="gauss-seidel" if gauss_seidel else "jacobi",
                tiles=len(coupled),
            ):
                grid.sweep(big_b, x, source, coupled, stats, gauss_seidel)
            sweeps_run = sweep
            # Scale-safe norms: a 1e300 right-hand side must not read as
            # an overflowing (diverged) update.
            delta = scaled_norm(x - previous)
            scale = scaled_norm(x)
            if not np.isfinite(delta) or delta > 1e9 * scale:
                raise ConvergenceError(
                    "block sweep diverged — the operand is not block-"
                    "diagonally dominant enough for a stationary blocked solve"
                )
            if tolerance is None:
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
        return x, sweeps_run, converged

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

    # ------------------------------------------------------------ application

    def _diag_mvm_handle(self, i: int) -> "AnalogOperator":
        handle = self._diag_mvm[i]
        if handle is None or handle.closed:
            rows = self._edges[i]
            handle = self._solver.compile(
                self.matrix[rows, rows], AMCMode.MVM,
                tag=self._tag, quant_peak=self.quant_peak,
            )
            self._diag_mvm[i] = handle
        return handle

    def mvm(self, x: np.ndarray) -> SolveResult:
        """Blocked analog product ``A·x`` through the compiled handles.

        Off-diagonal couplings reuse the solve grid's MVM handles; MVM
        views of the diagonal blocks are compiled lazily on first use
        (the INV-configured diagonal tiles cannot multiply).  ``x`` may
        be a vector or an ``(n, k)`` batch — every per-tile product is
        one batched engine call.
        """
        x = finite_input(x, "x")
        injector = self._fault_injector()
        if injector is None:
            return self._mvm_impl(x)
        return injector.supervised_op(self, lambda: self._mvm_impl(x))

    def _mvm_impl(self, x: np.ndarray) -> SolveResult:
        """The unsupervised blocked-MVM body (see :meth:`mvm`)."""
        self._require_open()
        n = self.shape[0]
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ShapeError(f"x must have leading dimension {n} (vector or batch)")
        reference = self.matrix @ x
        batched = x.ndim == 2
        started = time.perf_counter()
        before = self._solver.cost.snapshot()
        if batched and x.shape[1] == 0:
            return self._capture_cost(
                self._empty_result(AMCMode.MVM, reference), before, started
            )
        self._ensure_programmed()
        big_x = x if batched else x[:, None]
        out = np.zeros_like(big_x)
        stats = SweepStats(big_x.shape[1])
        with trace.span(
            "mvm",
            shape=str(self.shape),
            columns=big_x.shape[1],
            grid=f"{len(self._edges)}x{len(self._edges)}",
        ):
            for i, rows in enumerate(self._edges):
                for j, cols in enumerate(self._edges):
                    if i == j:
                        op = self._diag_mvm_handle(i)
                    elif (i, j) in self._off:
                        op = self._off[(i, j)]
                    else:
                        continue  # all-zero coupling block
                    product = op.mvm(big_x[cols])
                    out[rows] += product.value
                    stats.add(
                        attempts=product.attempts,
                        stable=product.stable,
                        input_scale=product.input_scale,
                        input_scales=product.input_scales,
                        column_saturated=product.column_saturated,
                        tiles=product.per_column_attempts,
                    )
        result = stats.result(AMCMode.MVM, out, reference, self.macro_ids, batched)
        return self._capture_cost(result, before, started)

    def __matmul__(self, other) -> np.ndarray:
        """``op @ x`` — the blocked analog product as a plain array."""
        return self.mvm(other).value
