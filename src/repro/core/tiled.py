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

from dataclasses import replace
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from repro.analog.topologies import AMCMode
from repro.core.errors import CapacityError, ConvergenceError, GramcError
from repro.core.grid_engine import GridEngine, SweepStats
from repro.core.operator import _Handle
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
    one directly.  The blocks are the grid's parts; its lifetime (pins,
    residency, refresh, close) is :class:`~repro.core.operator._Handle`'s.
    """

    _HOLDER_PINS = True
    _REFRESH_HELD = True

    def __init__(
        self,
        solver: "GramcSolver",
        key: str,
        matrix: np.ndarray,
        tile: int,
        tag: str = "",
        quant_peak: float | None = None,
    ):
        # ``quant_peak`` is a per-block quantization-scale override,
        # forwarded to every block compile (``None``: each block
        # auto-ranges to its own peak — the default, and usually the right
        # call: a faint coupling block would lose all its resolution on a
        # grid-wide scale).  Construction pins the grid for the first
        # holder; every cache-hit compile adds another pin and every
        # ``close`` (or explicit ``unpin``) drops one.
        super().__init__(solver, key, AMCMode.INV, matrix, quant_peak)
        self._tiles = []  # a grid binds no tiles itself; its blocks do
        self.tile = int(tile)
        self._tag = tag

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
        self._coupled: list[int] = []
        self._uncoupled: list[int] = []
        """Block rows with and without off-diagonal couplings, indexed
        from ``_off`` whenever it is filled or cleared.  An uncoupled
        block solves exactly once: its ``x_i = A_ii⁻¹·b_i`` is independent
        of every other block, so sweeping it again would only re-spend
        settling events on a fresh noise draw of the same answer."""
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
            self._index_couplings()
        except Exception as error:
            # *Any* failure mid-grid (capacity, a bad operand raising in
            # quantization, ...) must not leak earlier blocks pinned in
            # the pool with no handle to release them.
            for handle in compiled:
                handle.unpin()
                handle.close()
            self._drop_parts()
            if not isinstance(error, CapacityError):
                raise
            # ``error`` already carries owner_stats from the failed
            # multi-acquire — captured *before* this rollback ran.
            raise CapacityError(
                f"blocked operand ({self.shape[0]} unknowns on a "
                f"{self.grid[0]}x{self.grid[1]} tile grid) does not fit the "
                f"pool: {error}"
            ) from error

    def _parts(self) -> "list[_Handle]":
        return [*self._diag, *self._off.values()]

    def _drop_parts(self) -> None:
        self._diag = []
        self._off = {}
        self._index_couplings()

    def _index_couplings(self) -> None:
        """Re-derive the coupled/uncoupled block rows from ``_off``."""
        rows = {i for i, _ in self._off}
        self._coupled = sorted(rows)
        self._uncoupled = [i for i in range(len(self._diag)) if i not in rows]

    # ----------------------------------------------------------- introspection

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

    @property
    def program_events(self) -> int:
        """Total hardware writes across the solve-path blocks.

        Constant across solves on a healthy grid — the benchmark's
        "zero reprogramming events per solve" is this number's delta.
        """
        return sum(handle.program_count for handle in self._parts())

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

    # --------------------------------------------------------------- execution

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

        With a fault plan set the solve is supervised (observe → heal →
        one retry → structured ``DegradedChipError``).
        """
        b = self._accept(AMCMode.INV, "solve", b, self.shape[0], rtol=rtol)
        if method not in _METHODS:
            raise GramcError(f"method must be one of {_METHODS}, not {method!r}")
        result = self._call(
            lambda: self._run_solve(
                b, tolerance, max_sweeps, method == "gauss-seidel", rtol, max_refine_steps
            ),
            solve=True,
            rtol=rtol,
        )
        result.engine_dispatches = result.cost.engine_dispatches
        result.stack_rebuilds = result.cost.stack_rebuilds
        return result

    def _run_solve(
        self,
        b: np.ndarray,
        tolerance: float,
        max_sweeps: int,
        gauss_seidel: bool,
        rtol: "float | np.ndarray | None",
        max_refine_steps: int,
    ) -> SolveResult:
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
            return empty
        self._ensure_programmed()

        if len(self._edges) == 1:
            # Degenerate 1×1 grid: exactly the direct single-array path
            # (bit-for-bit — no extra engine calls, no extra noise draws).
            inner = self._diag[0]._run_solve(b, reference, rtol, max_refine_steps)
            return replace(
                inner,
                sweeps=1,
                residual_floor=self._residual_floor(b, inner.value),
                converged=True if rtol is None else inner.converged,
                macro_ids=self.resident_macro_ids(),
            )

        big_b = b if batched else b[:, None]
        columns = big_b.shape[1]
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
                AMCMode.INV, x, reference, self.resident_macro_ids(), batched,
                sweeps=sweeps, converged=converged,
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
                    solver=self._solver,
                )
                result = replace(result, sweeps=sweeps + correction_sweeps)
            # The floor of the returned answer: measured once, after any
            # refinement.
            result.residual_floor = self._residual_floor(b, result.value)
            sp.set(sweeps=result.sweeps, converged=bool(result.converged))
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
        ``sweeps`` sweeps (one, in every caller) and keeps no update
        bookkeeping: from zero, one sweep's update is the coupled rows of
        ``x``, so a non-finite ``x`` is the whole divergence test.
        Returns ``(x, sweeps_run, converged)``; ``stats`` accumulates the
        engine-call diagnostics of this solve only.
        """
        x = np.zeros_like(big_b)

        coupled, uncoupled = self._coupled, self._uncoupled
        if uncoupled:
            grid.presolve_uncoupled(big_b, x, uncoupled, stats)
        if not coupled:
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
                tiles=len(coupled),
            ):
                grid.sweep(big_b, x, coupled, stats, gauss_seidel)
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

    # ------------------------------------------------------------ application

    def _diag_mvm_handle(self, i: int) -> "AnalogOperator":
        """The MVM view of diagonal block ``i``, held by the grid and
        compiled only when the operator is *applied* (``op @ x``): a pure
        solve workload never pays its macros."""
        rows = self._edges[i]
        return self._view(
            i,
            lambda: self._solver.compile(
                self.matrix[rows, rows], AMCMode.MVM, tag=self._tag, quant_peak=self.quant_peak
            ),
        )

    def mvm(self, x: np.ndarray) -> SolveResult:
        """Blocked analog product ``A·x`` through the compiled handles.

        Off-diagonal couplings reuse the solve grid's MVM handles; MVM
        views of the diagonal blocks are compiled lazily on first use
        (the INV-configured diagonal tiles cannot multiply).  ``x`` may
        be a vector or an ``(n, k)`` batch — every per-tile product is
        one batched engine call.
        """
        x = self._accept(None, "mvm", x, self.shape[1], "x")
        return self._call(lambda: self._run_mvm(x))

    def _run_mvm(self, x: np.ndarray) -> SolveResult:
        reference = self.matrix @ x
        batched = x.ndim == 2
        if batched and x.shape[1] == 0:
            return self._empty_result(AMCMode.MVM, reference)
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
        return stats.result(AMCMode.MVM, out, reference, self.macro_ids, batched)
