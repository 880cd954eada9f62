"""The compute backend of the vectorized grid engine.

The grid engine (:mod:`repro.core.grid_engine`) reduces a block-Jacobi /
Gauss-Seidel sweep to a handful of batched array kernels over 3-D tile
stacks.  The MVM stage's plane products and the INV stage's equilibrium
solve (each circuit's cached equilibrium inverse applied to its drive)
are one kind of batched matrix application, so one kernel is routed
through a tiny :class:`Backend` protocol — the same shape aihwkit uses
to target CPU and CUDA from one ``AnalogMatrix`` API.
:class:`NumpyBackend` is the implementation; a caller can pass any
object with the protocol's two members as ``GramcSolver(backend=...)``
/ ``GramcChip(backend=...)``, which is how the repo benchmark times the
kernels.  The per-tile loop the engine is
checked against is a test oracle, not a backend.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np
from scipy.linalg import lu_solve


@runtime_checkable
class Backend(Protocol):
    """Batched array kernels the grid engine dispatches per sweep stage."""

    name: str

    def batched_matmul(
        self, a: np.ndarray, x: np.ndarray, column_independent: bool = False
    ) -> np.ndarray:
        """``(T,m,n) @ (T,n,k)`` → ``(T,m,k)``.

        When ``column_independent`` is set the contraction must follow
        the deterministic-engine contract of
        :func:`repro.analog.determinism.apply_matrix`: an einsum over
        C-contiguous operands whose per-column results do not depend on
        how many columns ride in the batch.
        """


class NumpyBackend:
    """Default backend: NumPy einsum (column-independent) or matmul."""

    name = "numpy"

    def batched_matmul(
        self, a: np.ndarray, x: np.ndarray, column_independent: bool = False
    ) -> np.ndarray:
        if column_independent:
            # The stacked twin of determinism.apply_matrix: per-column
            # results are bitwise independent of batch width, and bitwise
            # equal to the 2-D einsum on each (zero-padded) slice.
            return np.einsum(
                "tij,tjk->tik",
                np.ascontiguousarray(a),
                np.ascontiguousarray(x),
            )
        return a @ x

    def batched_lu_solve(
        self, lu: np.ndarray, piv: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        # Not a ``Backend`` member and called by no engine; kept only
        # because the benchmark harness's timing wrapper
        # (``perfbench/harness.py``) still forwards and tests it.
        return np.stack([lu_solve((f, p), b) for f, p, b in zip(lu, piv, rhs)])


def backend_or_default(backend: "Backend | None") -> Backend:
    """``backend`` itself, or a :class:`NumpyBackend` for ``None``.

    Anything else (a backend *name*, for instance) is rejected here, at
    solver or chip construction, rather than on the first sweep.
    """
    if backend is None:
        return NumpyBackend()
    if not isinstance(backend, Backend):
        raise TypeError(
            f"backend must provide name and batched_matmul (a Backend "
            f"instance) or be None; got {type(backend).__name__}"
        )
    return backend
