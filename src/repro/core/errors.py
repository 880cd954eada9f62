"""Typed exception hierarchy for the GRAMC runtime.

Everything the runtime can refuse to do derives from :class:`GramcError`,
so ``except GramcError`` keeps working as the catch-all it has always
been.  The subclasses let callers react differently to the distinct failure
families:

* :class:`ShapeError` — the operands themselves are malformed (wrong
  dimensionality, mismatched right-hand side, too large for the mode).
  Also a :class:`ValueError`, because that is what numpy users expect
  from a shape complaint.
* :class:`CapacityError` — the chip cannot hold the working set: the
  request exceeds the macro complement outright, or every resident
  operator is pinned so nothing can be evicted.  Also a
  :class:`ValueError` for backward compatibility with the pool's old
  oversized-request behaviour.
* :class:`ConvergenceError` — the analog loop cannot produce an answer
  (no positive dominant eigenvalue, a collapsed eigenvector, a railed
  solve that auto-ranging could not rescue).
* :class:`InputError` — an operand or right-hand side holds NaN or
  infinity.  Raised at the handle boundary, before any engine call, and
  also a :class:`ValueError`.  (A complex operand is a wrong argument
  type and raises :class:`TypeError` instead.)
* :class:`DegradedChipError` — the analog substrate has degraded past
  what self-healing could recover, and the request was refused rather
  than answered wrongly.  Carries the health snapshot and the healing
  report so operators can see *which* macros failed and what the
  escalation ladder already tried.
"""

from __future__ import annotations


class GramcError(RuntimeError):
    """Raised when a problem cannot be executed on the configured chip."""


class ShapeError(GramcError, ValueError):
    """Operand shapes are invalid for the requested analog mode."""


class CapacityError(GramcError, ValueError):
    """The macro pool cannot satisfy an allocation request."""


class ConvergenceError(GramcError):
    """The analog circuit cannot converge to a meaningful solution.

    Raised by the iterative-refinement loop with structure attached:

    Attributes
    ----------
    steps:
        Refinement steps applied before divergence was declared
        (``None`` for non-refinement convergence failures).
    residual_trace:
        Worst-column relative residual after each step, starting with
        the raw analog answer — the evidence for the divergence call.
    worst_columns:
        Column indices with the largest final residuals (descending),
        so operators can tell "one bad tile/column" from
        "ill-conditioned everywhere" (``None`` when unknown).
    """

    def __init__(
        self,
        message: str,
        *,
        steps: "int | None" = None,
        residual_trace=None,
        worst_columns=None,
    ) -> None:
        super().__init__(message)
        self.steps = steps
        self.residual_trace = (
            None if residual_trace is None else tuple(float(r) for r in residual_trace)
        )
        self.worst_columns = (
            None if worst_columns is None else tuple(int(c) for c in worst_columns)
        )


class InputError(GramcError, ValueError):
    """An input array holds non-finite values (NaN or ±inf)."""


class DegradedChipError(GramcError):
    """The chip is too degraded to honor the request, even after healing.

    Raised instead of returning a silently wrong answer: the escalation
    ladder (retune → targeted re-verify → full reprogram → quarantine +
    migration) ran and the accuracy contract still could not be met.

    Attributes
    ----------
    health:
        The :class:`~repro.faults.HealthMonitor` snapshot at failure time
        (per-macro scores, quarantined macros, fault-event log), or
        ``None`` when no monitor was attached.
    healing:
        The last healing report (counts of retunes, re-verified cells,
        reprogrammed tiles, quarantined/migrated macros), or ``None``.
    """

    def __init__(
        self,
        message: str,
        *,
        health: "dict | None" = None,
        healing: "dict | None" = None,
    ) -> None:
        super().__init__(message)
        self.health = health
        self.healing = healing
