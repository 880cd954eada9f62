"""Column-independent matrix application for multi-tenant serving.

BLAS matrix products are *not* bitwise column-decomposable: the kernel a
``gemm`` call picks depends on the right-hand-side width, so the
floating-point reduction order for column ``j`` changes with how many
siblings ride in the same call.  For a single caller that is irrelevant —
the differences sit at the 1e-16 level, far under the analog noise floor.
For the serve layer it is not: cross-request coalescing merges RHS
columns from *different* clients into one engine call, and a client's
answer must not depend on which strangers happened to share its dispatch
window (or on a sibling's mid-window cancellation changing the batch
width).

``apply_matrix`` provides the guarantee: with the mode enabled, every
dense apply in the circuit hot paths goes through ``np.einsum`` on
C-contiguous operands, whose per-output-element reduction order is fixed
regardless of batch width — column ``j`` of a ``(n, k)`` apply is bitwise
identical to the same column applied alone, as a vector, or inside any
other batch.  The cost is the loss of the BLAS gemm kernel (~4× on the
raw product), which is noise next to the per-engine-call overhead the
coalescer amortizes.

The mode is a :mod:`contextvars` context variable, like the tracer's
span stack (:mod:`repro.obs.trace`): it holds per thread and per asyncio
task, never process-wide.  A :class:`~repro.serve.SolveService` sets it
once on its chip thread, so every compile, dispatch and heal it runs is
column-independent while a direct call on any other thread keeps
full-speed BLAS; the grid engine's lanes run in a copy of the calling
thread's context and so inherit its mode.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Iterator

import numpy as np

_COLUMN_INDEPENDENT: "contextvars.ContextVar[bool]" = contextvars.ContextVar(
    "repro_column_independent", default=False
)


def column_independent() -> bool:
    """Whether column-independent (bitwise coalescing-safe) applies are on
    in the current context."""
    return _COLUMN_INDEPENDENT.get()


def set_column_independent(enabled: bool) -> bool:
    """Set the mode in the current context; returns the previous setting."""
    previous = _COLUMN_INDEPENDENT.get()
    _COLUMN_INDEPENDENT.set(bool(enabled))
    return previous


@contextmanager
def column_independent_apply(enabled: bool = True) -> Iterator[None]:
    """Scoped setting in the current context — the test suites' spelling."""
    token = _COLUMN_INDEPENDENT.set(bool(enabled))
    try:
        yield
    finally:
        _COLUMN_INDEPENDENT.reset(token)


def apply_matrix(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` (vector or batch), column-independent when the mode is on.

    ``einsum`` honours the memory layout of its operands, so both are
    forced C-contiguous first — a Fortran-ordered batch must not change
    the reduction order either.
    """
    if not _COLUMN_INDEPENDENT.get():
        return a @ x
    a = np.ascontiguousarray(a, dtype=float)
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim == 2:
        return np.einsum("ij,jk->ik", a, x)
    return np.einsum("ij,j->i", a, x)


def apply_matrix_per_column(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` with each column applied through the *vector* kernel.

    The batched einsum's reduction order is width-stable only for widths
    ≥ 2 — a ``(n, 1)`` operand dispatches to a different (SIMD) inner
    loop on some BLAS-free builds, so code whose batch width *changes
    between calls* (iterative refinement masks converged columns out of
    each step) cannot rely on :func:`apply_matrix` alone for bitwise
    column independence.  Applying every column as a vector pins one
    reduction order for all widths, including 1.  Off-mode this is a
    plain ``a @ x``.
    """
    if not _COLUMN_INDEPENDENT.get():
        return a @ x
    if x.ndim == 1:
        return apply_matrix(a, x)
    a = np.ascontiguousarray(a, dtype=float)
    out = np.empty((a.shape[0], x.shape[1]))
    for j in range(x.shape[1]):
        out[:, j] = np.einsum(
            "ij,j->i", a, np.ascontiguousarray(x[:, j], dtype=float)
        )
    return out
