"""Request/quota/config datatypes and the serving error hierarchy.

Every way the service can refuse work is a :class:`ServeError`, which is a
:class:`~repro.core.errors.GramcError` — ``except GramcError`` stays the
catch-all it has always been.  Backpressure rejections are *structured*:
:class:`ServiceOverloaded` (and its per-tenant subclass
:class:`QuotaExceeded`) carry the pool's :meth:`owner_stats` snapshot and
the admission queue depths at rejection time, so a shed client can see
exactly who held the chip instead of guessing from a string.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import GramcError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import SolveResult


class ServeError(GramcError):
    """Base class for everything the solve service can refuse to do."""


class UnknownTenant(ServeError, KeyError):
    """The request names a tenant that was never registered."""


class ServiceOverloaded(ServeError):
    """Structured backpressure rejection (load shedding).

    Attributes
    ----------
    tenant:
        The tenant whose request was shed.
    owner_stats:
        :meth:`MacroPool.owner_stats` at rejection time — who held the
        chip's macros when the request was refused.
    queue_depths:
        Per-tenant pending request counts (plus ``"total"``) at rejection
        time.
    retry_after_hint:
        Suggested client backoff in seconds — current queue depth times
        the service's observed mean dispatch time — or ``None`` when the
        service has no dispatch history to estimate from.  A hint, not a
        reservation: retrying sooner just risks being shed again.
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str = "",
        owner_stats: dict | None = None,
        queue_depths: dict | None = None,
        retry_after_hint: float | None = None,
    ):
        super().__init__(message)
        self.tenant = tenant
        self.owner_stats = owner_stats if owner_stats is not None else {}
        self.queue_depths = queue_depths if queue_depths is not None else {}
        self.retry_after_hint = retry_after_hint


class QuotaExceeded(ServiceOverloaded):
    """The tenant's own pending-request quota is full.

    A subclass of :class:`ServiceOverloaded` so "every rejection is a
    structured backpressure error" holds with one ``except`` clause; the
    distinction tells a client whether to back off (quota — its own
    fault) or retry elsewhere (global overload)."""


class RequestTimeout(ServeError, TimeoutError):
    """The request did not complete within its deadline.

    The request's columns may still be computed (a timeout that fires
    mid-dispatch cannot recall work already on the chip); the answer is
    dropped at scatter time."""


class ColumnRangingError(ServeError):
    """This caller's column(s) stayed saturated after auto-ranging: an
    amplifier output on the op-amp rail or outside the ADC range.

    Raised per *request*, never per window: a coalesced sibling whose
    columns stayed in range gets its answer normally.  ``result`` carries
    the out-of-range :class:`~repro.core.results.SolveResult` slice for
    diagnosis (per-column saturation flags, applied input scales)."""

    def __init__(self, message: str, result: "SolveResult | None" = None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class TenantQuota:
    """Admission and fair-share limits for one tenant."""

    max_pending: int = 32
    """Queued + in-flight requests before :class:`QuotaExceeded`."""

    max_macros: int = 16
    """Fair-share target of resident macros.  A tenant holding more than
    this is the preferred preemption victim when another tenant's
    dispatch cannot fit — it is a *soft* target enforced only under
    contention, not a hard allocation cap."""

    priority: int = 0
    """Dispatch priority class: higher dispatches first within a window."""

    weight: float = 1.0
    """Deficit-fair share weight among equal-priority tenants: a tenant
    of weight 2 is charged half as much deficit per dispatched column,
    so it wins ties twice as often."""

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.weight <= 0.0:
            raise ValueError("weight must be > 0")


@dataclass
class ServeConfig:
    """Service-wide knobs (batching and backpressure bounds)."""

    window_s: float = 0.002
    """Accepted and ignored: dispatch is work-conserving, so no timer
    holds a request.  Kept only because ``perfbench`` still sets it; it
    goes with the next change to that benchmark."""

    max_batch_columns: int = 128
    """Widest window: when the chip frees, the dispatcher takes the
    requests queued meanwhile, up to this many RHS columns, into one
    window (one array's worth — the chip cannot batch wider anyway).
    ``1`` dispatches every request alone."""

    max_pending: int = 256
    """Global queued + in-flight bound; beyond it every submit is shed
    with :class:`ServiceOverloaded`."""

    default_timeout_s: float | None = 30.0
    """Per-request deadline when ``submit`` passes none; ``None`` waits
    forever."""


@dataclass
class SolveRequest:
    """One admitted client job, tracked from submit to scatter."""

    tenant: str
    operator: object
    """The compiled handle: an :class:`~repro.core.operator.AnalogOperator`
    or a :class:`~repro.core.tiled.TiledOperator`, both built on the
    shared ``repro.core.operator._Handle`` base."""
    kind: str
    """``"solve"`` | ``"mvm"`` | ``"lstsq"`` | ``"eigvec"``."""
    payload: np.ndarray | None
    """The RHS / input column(s); ``None`` for ``eigvec``."""
    future: asyncio.Future = field(repr=False)
    columns: int = 1
    """RHS columns this request contributes to its window."""
    vector: bool = True
    """Whether the caller passed a 1-D payload (result is squeezed back)."""
    require_in_range: bool = True
    """Reject this request with :class:`ColumnRangingError` if any of its
    columns stays saturated after auto-ranging (siblings are unaffected)."""
    rtol: np.ndarray | None = None
    """``solve`` only: validated per-column refinement targets (shape
    ``(columns,)``), or ``None`` for a plain analog solve.  The coalescer
    concatenates these across a window (filling ``inf`` — "no
    refinement" — for requests without targets), so mixed-accuracy
    requests share one analog step and refine independently."""
    timed_out: bool = False
    """Set by the deadline just before it cancels the future, so the
    dispatcher does not double-count it as a client cancellation."""
    admitted_s: float | None = None
    """``time.perf_counter()`` at admission — the start of this request's
    queue wait (``None`` until admitted)."""
    queue_wait_s: float = 0.0
    """Seconds spent between admission and engine dispatch, stamped by
    the dispatcher; feeds the per-solve cost breakdown's ``queue_wait``
    component."""
    queue_span: object = field(default=None, repr=False)
    """Open ``queue`` trace span (a :class:`repro.obs.trace.Span` handle,
    started at admission, finished at dispatch); ``None`` when tracing is
    disabled."""
