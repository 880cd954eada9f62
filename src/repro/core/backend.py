"""The compute backend of the vectorized grid engine.

The grid engine (:mod:`repro.core.grid_engine`) reduces a block-Jacobi /
Gauss-Seidel sweep to a handful of batched array kernels over 3-D tile
stacks.  Those kernels are the only numerically heavy operations in the
sweep, so they are routed through a tiny :class:`Backend` protocol —
the same shape aihwkit uses to target CPU and CUDA from one
``AnalogMatrix`` API.  :class:`NumpyBackend` is the implementation; a
caller can pass any object with the protocol's three members as
``GramcSolver(backend=...)`` / ``GramcChip(backend=...)``, which is how
the repo benchmark times the kernels.  The per-tile loop the engine is
checked against is a test oracle, not a backend.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np
from scipy.linalg import get_lapack_funcs


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

    def batched_lu_solve(
        self, lu: np.ndarray, piv: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve ``(T,n,n)`` stacked LU factors against ``(T,n,k)`` RHS."""


class NumpyBackend:
    """Default backend: NumPy einsum/matmul plus LAPACK ``getrs``."""

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
        # SciPy's stacked ``lu_solve`` is a per-slice Python loop behind a
        # batch-dispatch wrapper; calling ``getrs`` directly runs the same
        # LAPACK routine per slice — identical bits — without the wrapper
        # and finite-check overhead on the sweep hot path.
        getrs, = get_lapack_funcs(("getrs",), (lu, rhs))
        out = np.empty_like(rhs)
        for t in range(rhs.shape[0]):
            x, info = getrs(lu[t], piv[t], rhs[t])
            if info != 0:  # pragma: no cover - requires a corrupt factor
                raise ValueError(f"illegal value in argument {-info} of getrs")
            out[t] = x
        return out


def backend_or_default(backend: "Backend | None") -> Backend:
    """``backend`` itself, or a :class:`NumpyBackend` for ``None``.

    Anything else (a backend *name*, for instance) is rejected here, at
    solver or chip construction, rather than on the first sweep.
    """
    if backend is None:
        return NumpyBackend()
    if not isinstance(backend, Backend):
        raise TypeError(
            f"backend must provide name, batched_matmul and batched_lu_solve "
            f"(a Backend instance) or be None; got {type(backend).__name__}"
        )
    return backend
