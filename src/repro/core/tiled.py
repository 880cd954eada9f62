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

from typing import TYPE_CHECKING

import numpy as np

from repro.analog.topologies import AMCMode
from repro.core.errors import CapacityError, GramcError
from repro.core.operator import _Handle
from repro.core.refine import DEFAULT_MAX_STEPS
from repro.core.results import SolveResult

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
    residency, refresh, close) and the bodies of ``solve`` and ``mvm``
    are :class:`~repro.core.operator._Handle`'s.
    """

    _HOLDER_PINS = True
    _REFRESH_HELD = True
    _SCALE_PER_BLOCK = True

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

    def _span_attrs(self) -> dict:
        rows, cols = self.grid
        return {**super()._span_attrs(), "grid": f"{rows}x{cols}"}

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
        return self._call(
            lambda: self._run_solve(
                b, None, rtol, max_refine_steps,
                tolerance, max_sweeps, method == "gauss-seidel",
            ),
            solve=True,
            rtol=rtol,
        )

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
        views of the diagonal blocks are compiled lazily on the first
        product (the INV-configured diagonal tiles cannot multiply).
        All of them run as one stacked MVM stage, each block scaling its
        slice of ``x`` per column and adding into its block row; ``x``
        may be a vector or an ``(n, k)`` batch.
        """
        x = self._accept(None, "mvm", x, self.shape[1], "x")
        return self._call(lambda: self._run_mvm(x))
