"""Reference engines the tests and benchmarks check production paths against.

Neither lives in ``src/``: each is the plain, obviously-correct way to do
what a production path does in one batched step, kept only as an oracle.

* :class:`PerTileEngine` — a blocked sweep run tile by tile through the
  block handles' public ``mvm``/``solve``, one engine call per tile.  It
  has the :class:`~repro.core.grid_engine.GridEngine` sweep interface;
  :func:`per_tile_sweeps` swaps it in for every ``TiledOperator`` solve.
  Under the deterministic engine mode the stacked engine must match it
  bit for bit.
* :func:`column_loop` — one handle call per right-hand-side column, the
  baseline of the batched single-array engine.

Import as ``from tests.reference_engines import ...`` (the repo root is
on ``sys.path`` whenever pytest runs from it).
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.core.results import SolveResult
from repro.core.tiled import TiledOperator


def _fold(stats, inner: SolveResult) -> None:
    """Add one batched handle call's diagnostics to the sweep stats."""
    stats.add(
        attempts=inner.attempts,
        stable=inner.stable,
        saturated=inner.saturated,
        input_scale=inner.input_scale,
        input_scales=inner.input_scales,
        column_saturated=inner.column_saturated,
    )


class PerTileEngine:
    """One blocked sweep as a Python loop over the grid's block handles."""

    def __init__(self, tiled: TiledOperator):
        self._tiled = tiled

    def presolve_uncoupled(self, big_b, x, uncoupled, stats) -> None:
        for i in uncoupled:
            rows = self._tiled.block_slices[i]
            inner = self._tiled._diag[i].solve(np.array(big_b[rows]))
            x[rows] = inner.value
            _fold(stats, inner)

    def sweep(self, big_b, x, source, coupled, stats, gauss_seidel) -> None:
        # ``gauss_seidel`` needs no branch here: the caller passes the
        # in-place iterate as ``source`` for Gauss-Seidel and the frozen
        # previous sweep for Jacobi.
        edges = self._tiled.block_slices
        for i in coupled:
            rows = edges[i]
            residual = np.array(big_b[rows])
            for j, cols in enumerate(edges):
                coupling = self._tiled._off.get((i, j))
                if coupling is None:
                    continue  # diagonal, or an all-zero (skipped) block
                chunk = source[cols]
                if not chunk.any():
                    continue  # A_ij·0 ≡ 0: the stacked engine skips it too
                product = coupling.mvm(chunk)
                residual -= product.value
                _fold(stats, product)
            inner = self._tiled._diag[i].solve(residual)
            x[rows] = inner.value
            _fold(stats, inner)


def _per_tile_grid_engine(tiled: TiledOperator) -> PerTileEngine:
    return PerTileEngine(tiled)


def per_tile_sweeps():
    """Context manager: ``TiledOperator`` solves sweep through
    :class:`PerTileEngine` instead of the stacked grid engine."""
    return mock.patch.object(TiledOperator, "_grid_engine", _per_tile_grid_engine)


def column_loop(op, b: np.ndarray, single, reference: np.ndarray) -> SolveResult:
    """Solve ``b`` one column at a time through ``single`` (a bound
    ``op.solve`` or ``op.lstsq``), ranging every column on its own."""
    results = [
        single(b[:, j], _reference=reference[:, j]) for j in range(b.shape[1])
    ]
    return SolveResult(
        mode=results[0].mode,
        value=np.stack([r.value for r in results], axis=1),
        reference=np.stack([r.reference for r in results], axis=1),
        attempts=sum(r.attempts for r in results),
        input_scale=max(r.input_scale for r in results),
        stable=all(r.stable for r in results),
        saturated=any(r.saturated for r in results),
        macro_ids=op.macro_ids,
        input_scales=np.array([r.input_scale for r in results]),
        per_column_attempts=np.array([r.attempts for r in results]),
        column_saturated=np.array([r.saturated for r in results]),
    )
