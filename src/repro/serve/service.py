"""SolveService: the multi-tenant async front door of one GRAMC chip.

Request lifecycle (see README "Serving many tenants")::

    submit ──admit──▶ dispatch queue ──chip free──▶ coalesce ──▶ engine call
                │                                                    │
                ▼ shed (ServiceOverloaded / QuotaExceeded)           ▼
                                                      scatter ──▶ caller futures

Design points:

* **Handles only.**  The service accepts compiled operator handles, never
  raw matrices — operator lifetime must be visible to the pool for
  admission, coalescing (digest match) and preemption to mean anything.
* **Work-conserving dispatch.**  An idle chip takes a request the moment
  it is queued; requests that arrive while the chip is busy wait and
  ride the next window together (up to ``max_batch_columns``), so the
  batch grows with load and no timer holds a request.
* **One chip thread.**  All solver work (compiles and dispatches) runs on
  a single-worker executor: the chip is one physical resource, and the
  solver/pool stack is synchronous and not thread-safe.  The event loop
  stays free to admit, coalesce, time out and cancel while the chip
  settles.
* **Deterministic engine mode.**  The chip thread runs the analog engine
  in column-independent arithmetic: the executor's initializer sets
  :func:`repro.analog.determinism.set_column_independent` in that
  thread's context, so every compile, dispatch and heal runs in it while
  callers on other threads keep BLAS.  That makes coalescing
  bit-transparent: a caller's columns are bitwise identical to the same
  solve issued alone whenever the window's shared TIA ladder is in range
  for every column (and the configuration is noiseless — noise draws are
  per-engine-call by physics).
* **One recovery order.**  Each group's dispatch recovers from each kind
  of failure at most once, in one loop:

  - a :class:`CapacityError` preempts one victim and retries; with no
    victim, or on a second capacity failure, the group is shed with
    :class:`ServiceOverloaded`;
  - a :class:`ConvergenceError` or :class:`DegradedChipError` heals the
    operator and retries only the still-live requests (a caller that
    cancelled or timed out meanwhile is neither re-executed nor
    re-billed).  Without a fault injector the error stands.  After the
    heal a :class:`DegradedChipError` passes through and any other
    failure is wrapped in one carrying the health snapshot;
  - any other :class:`GramcError` (stale handle, shape defect) fails only
    its own group; the window's other groups proceed.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.analog import determinism
from repro.analog.topologies import AMCMode
from repro.core.errors import (
    CapacityError,
    ConvergenceError,
    DegradedChipError,
    GramcError,
    ShapeError,
)
from repro.core.operator import finite_input
from repro.core.refine import as_rtol_vector
from repro.core.results import SolveResult
from repro.core.solver import GramcSolver
from repro.obs import trace
from repro.serve.admission import AdmissionController
from repro.serve.coalescer import CoalescedBatch, coalesce, count_abandoned
from repro.serve.scheduler import FairShareScheduler
from repro.serve.tenancy import TenantRegistry, TenantState
from repro.serve.types import (
    RequestTimeout,
    ServeConfig,
    ServeError,
    ServiceOverloaded,
    SolveRequest,
    TenantQuota,
)
from repro.system.stats import ServiceStats

_SHUTDOWN = object()


def _expire(request: SolveRequest) -> None:
    """A request's deadline: mark it timed out, then cancel its future.

    In this order, in one callback, so whatever next sees the future done
    (a scatter, a window's abandonment check) already reads ``timed_out``
    and never books the request as a caller cancellation too."""
    if not request.future.done():
        request.timed_out = True
        request.future.cancel()

UNTIMED_DISPATCH_S = 0.002
"""Dispatch time assumed by :meth:`SolveService.retry_after_estimate`
before any dispatch has been timed."""

_KIND_MODES = {
    "solve": AMCMode.INV,
    "mvm": AMCMode.MVM,
    "lstsq": AMCMode.PINV,
    "eigvec": AMCMode.EGV,
}


class SolveService:
    """Admission + coalescing + fair-share dispatch over one chip.

    Use as an async context manager::

        service = SolveService(solver)           # or chip.serve()
        service.register_tenant("alice", TenantQuota(max_pending=16))
        async with service:
            op = await service.compile("alice", a, AMCMode.INV)
            x = await service.solve("alice", op, b)
    """

    def __init__(self, solver: GramcSolver, config: ServeConfig | None = None):
        self.solver = solver
        self.config = config or ServeConfig()
        # Chip and service counters land in one metrics registry when the
        # solver has stats (one Prometheus scrape covers the whole stack).
        self.stats = ServiceStats(
            registry=getattr(solver.stats, "registry", None)
        )
        self.registry = TenantRegistry(self.stats)
        self._admission = AdmissionController(
            self.registry, self.config, self.stats, solver.pool.owner_stats,
            retry_after=self.retry_after_estimate,
        )
        self._scheduler = FairShareScheduler(self.registry, solver.pool)
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._running = False

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> "SolveService":
        if self._running:
            return self
        self._executor = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix="gramc-chip",
            initializer=determinism.set_column_independent,
            initargs=(True,),
        )
        self._queue = asyncio.Queue()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="gramc-serve-dispatch"
        )
        self._running = True
        return self

    async def close(self) -> None:
        """Drain queued work, stop the dispatcher and the chip thread."""
        if not self._running:
            return
        self._running = False  # reject new submits immediately
        assert self._queue is not None and self._dispatcher is not None
        await self._queue.put(_SHUTDOWN)
        await self._dispatcher
        assert self._executor is not None
        self._executor.shutdown(wait=True)
        self._executor = None
        self._dispatcher = None
        self._queue = None

    async def __aenter__(self) -> "SolveService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    @property
    def running(self) -> bool:
        return self._running

    # -------------------------------------------------------------------- tenants

    def register_tenant(
        self, name: str, quota: TenantQuota | None = None
    ) -> TenantState:
        """Register (or re-quota) a tenant; safe before or after start."""
        return self.registry.register(name, quota)

    def retry_after_estimate(self) -> float:
        """Suggested client backoff in seconds after a shed request.

        Queue depth (plus the retrying request itself) times the observed
        mean dispatch time, or :data:`UNTIMED_DISPATCH_S` before any
        dispatch has been timed.  Attached to every
        :class:`ServiceOverloaded` / :class:`QuotaExceeded` as
        ``retry_after_hint``."""
        mean = self.stats.mean_dispatch_s or UNTIMED_DISPATCH_S
        depth = int(self.registry.queue_depths().get("total", 0))
        return (depth + 1) * mean

    def snapshot(self) -> dict:
        """Pollable service state: pool residency, queue depths, counters.

        Side-effect-free (never triggers allocation or CapacityError) —
        the dashboard/ops view of the service."""
        return {
            "running": self._running,
            "pool": self.solver.pool.snapshot(),
            "queue_depths": self.registry.queue_depths(),
            "service": self.stats.summary(),
        }

    # ------------------------------------------------------------------ compiling

    async def compile(
        self,
        tenant: str,
        matrix: np.ndarray,
        mode: AMCMode = AMCMode.MVM,
        **kwargs,
    ):
        """Compile an operator on the chip thread, charged to ``tenant``.

        The returned handle is the tenant's to hold (and eventually
        ``release``); it joins the tenant's preemption-candidate set, so
        an unpinned handle may be evicted for a competing tenant and
        transparently re-programmed on next use."""
        state = self.registry.get(tenant)
        self._require_running()
        loop = asyncio.get_running_loop()
        operator = await loop.run_in_executor(
            self._executor, lambda: self.solver.compile(matrix, mode, **kwargs)
        )
        state.operators[operator.key] = operator
        return operator

    async def release(self, tenant: str, operator) -> None:
        """Close one holder reference of a tenant's operator."""
        state = self.registry.get(tenant)
        state.operators.pop(operator.key, None)
        if self._running:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._executor, operator.close)
        else:
            operator.close()

    # ------------------------------------------------------------------- submits

    async def solve(
        self, tenant: str, operator, b, *, timeout=None, require_in_range=True,
        rtol=None,
    ) -> SolveResult:
        """``A⁻¹·b`` through a resident INV operator (vector or batch).

        ``rtol`` (scalar or per-column vector) requests digital iterative
        refinement down to that relative residual.  Mixed-``rtol``
        requests still coalesce: the window shares one analog step and
        only the columns that asked for refinement pay correction solves
        — under the service's column-independent deterministic mode a
        no-``rtol`` sibling's answer is bitwise unaffected."""
        return await self.submit(
            tenant, operator, "solve", b,
            timeout=timeout, require_in_range=require_in_range, rtol=rtol,
        )

    async def mvm(
        self, tenant: str, operator, x, *, timeout=None, require_in_range=True
    ) -> SolveResult:
        """``A·x`` through a resident MVM operator (vector or batch)."""
        return await self.submit(
            tenant, operator, "mvm", x,
            timeout=timeout, require_in_range=require_in_range,
        )

    async def lstsq(
        self, tenant: str, operator, b, *, timeout=None, require_in_range=True
    ) -> SolveResult:
        """``min‖A·y − b‖`` through a resident PINV operator."""
        return await self.submit(
            tenant, operator, "lstsq", b,
            timeout=timeout, require_in_range=require_in_range,
        )

    async def eigvec(self, tenant: str, operator, *, timeout=None) -> SolveResult:
        """Dominant eigenvector of a resident EGV operator (deduped:
        concurrent requests for the same operator share one settling)."""
        return await self.submit(tenant, operator, "eigvec", None, timeout=timeout)

    async def submit(
        self,
        tenant: str,
        operator,
        kind: str,
        payload,
        *,
        timeout: float | None = None,
        require_in_range: bool = True,
        rtol=None,
    ) -> SolveResult:
        """Admit one request and await its scattered result.

        Raises the structured rejection/outcome errors of
        :mod:`repro.serve.types`; a cancelled caller cleanly abandons its
        column (coalesced siblings are unaffected)."""
        self._require_running()
        payload, columns, vector = self._validate(operator, kind, payload)
        rtol_vector = self._validate_rtol(kind, rtol, columns)
        loop = asyncio.get_running_loop()
        request = SolveRequest(
            tenant=tenant,
            operator=operator,
            kind=kind,
            payload=payload,
            future=loop.create_future(),
            columns=columns,
            vector=vector,
            require_in_range=require_in_range,
            rtol=rtol_vector,
        )
        state = self._admission.admit(request)  # raises the shed errors
        request.admitted_s = time.perf_counter()
        # The queue wait crosses coroutine boundaries (submitter here,
        # dispatcher finishes it), so it is a manual begin/finish span.
        request.queue_span = trace.get_tracer().begin(
            "queue", tenant=tenant, kind=kind, columns=columns
        )
        assert self._queue is not None
        self._queue.put_nowait(request)
        if timeout is None:
            timeout = self.config.default_timeout_s
        deadline = None if timeout is None else loop.call_later(timeout, _expire, request)
        try:
            return await request.future
        except asyncio.CancelledError:
            if not request.timed_out:
                raise  # the caller's own cancellation
            state.counters.timed_out += 1
            if asyncio.current_task().cancelling():
                raise  # cancelled as well: the deadline must not swallow it
            raise RequestTimeout(
                f"tenant {tenant!r} {kind} request did not complete within "
                f"{timeout}s (queue depths: {self.registry.queue_depths()})"
            ) from None
        finally:
            if deadline is not None:
                deadline.cancel()
            self._admission.release(request)

    # ------------------------------------------------------------------ dispatch

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        stopping = False
        while not stopping or not self._queue.empty():
            item = await self._queue.get()
            if item is _SHUTDOWN:
                stopping = True
                continue
            window = [item]
            columns = item.columns
            while columns < self.config.max_batch_columns:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _SHUTDOWN:
                    stopping = True
                    break
                window.append(nxt)
                columns += nxt.columns
            await self._dispatch_window(window)

    def _live(self, requests: "list[SolveRequest]") -> "list[SolveRequest]":
        """The requests whose callers still wait.  One cancelled or timed
        out meanwhile (queued, or while its group healed) is booked here
        and its queue span, if still open, closed."""
        live = []
        for request in requests:
            if request.future.done():
                trace.get_tracer().finish(request.queue_span, outcome="abandoned")
                request.queue_span = None
                count_abandoned(request, self.registry)
            else:
                live.append(request)
        return live

    async def _dispatch_window(self, window: "list[SolveRequest]") -> None:
        live = self._live(window)
        if not live:
            return
        with trace.span(
            "serve_window",
            requests=len(live),
            columns=sum(request.columns for request in live),
        ) as window_span:
            with trace.span("coalesce", requests=len(live)) as sp:
                batches = self._scheduler.order(coalesce(live))
                sp.set(batches=len(batches))
            for batch in batches:
                await self._run_batch(batch)
            window_span.set(batches=len(batches))

    async def _run_batch(self, batch: CoalescedBatch) -> None:
        # Fairness-steered eviction: if this batch's operator needs
        # (re-)programming, reclaim tiles from over-share tenants first so
        # quota, not LRU recency, picks the victim.  No-op in steady state.
        self._scheduler.reclaim_for(batch)

        # The batch is leaving the queue for the chip: close every
        # member's queue span and stamp its wait (fed into the scattered
        # per-request cost breakdowns by the coalescer).
        tracer = trace.get_tracer()
        now = time.perf_counter()
        for request in batch.requests:
            if request.admitted_s is not None:
                request.queue_wait_s = now - request.admitted_s
            tracer.finish(
                request.queue_span, wait_s=round(request.queue_wait_s, 9)
            )
            request.queue_span = None

        await self._dispatch(batch, tracer.current())

    async def _dispatch(
        self, batch: CoalescedBatch, parent, error: GramcError | None = None
    ) -> None:
        """Run ``batch`` on the chip in the module's one recovery order,
        starting from ``error`` when a failure was already seen."""
        loop = asyncio.get_running_loop()
        injector = getattr(self.solver.pool, "fault_injector", None)
        span, made_room, healing = "dispatch", False, None
        while True:
            if error is None:
                started = time.perf_counter()
                try:
                    result = await loop.run_in_executor(
                        self._executor, lambda: self._execute(batch, parent, span)
                    )
                except GramcError as failure:
                    error = failure
                else:
                    self.stats.record_dispatch(
                        batch.tenant_names(), batch.columns,
                        seconds=time.perf_counter() - started,
                    )
                    with trace.span(
                        "scatter", columns=batch.columns, requests=len(batch.requests)
                    ):
                        batch.scatter(result, self.registry)
                    self._scheduler.charge(batch)
                    return
            if healing is not None:
                if not isinstance(error, DegradedChipError):
                    error = DegradedChipError(
                        f"dispatch failed again after serve-level healing: {error}",
                        health=injector.monitor.snapshot(),
                        healing=healing,
                    )
                batch.reject_all(error, self.registry)
                return
            if isinstance(error, CapacityError):
                if made_room or not self._scheduler.make_room(batch):
                    batch.reject_all(self._overloaded(batch), self.registry)
                    return
                made_room = True
            elif injector is not None and isinstance(
                error, (ConvergenceError, DegradedChipError)
            ):
                with trace.span("serve_heal", operator=batch.operator.key[:12]):
                    healing = await loop.run_in_executor(
                        self._executor, lambda: injector.monitor.heal_operator(batch.operator)
                    )
                live = self._live(batch.requests)
                if not live:
                    return
                batch = CoalescedBatch(batch.operator, batch.kind, live)
                self.stats.fault_retries += 1
                span = "dispatch_retry"
            else:
                batch.reject_all(error, self.registry)
                return
            error = None

    @staticmethod
    def _execute(batch: CoalescedBatch, parent, span: str) -> SolveResult:
        """One engine call for ``batch``, on the chip thread.  ``parent``
        (the serve window) is adopted there so chip-side spans (solve,
        sweeps, refine steps) nest under it."""
        with trace.get_tracer().adopt(parent), trace.span(
            span,
            operator=batch.operator.key[:12],
            kind=batch.kind,
            columns=batch.columns,
            requests=len(batch.requests),
        ):
            return batch.execute()

    def _overloaded(self, batch: CoalescedBatch) -> ServiceOverloaded:
        tenants = batch.tenant_names()
        self.stats.shed_requests += len(batch.requests)
        return ServiceOverloaded(
            f"cannot program operator {batch.operator.key[:12]}… for "
            f"tenant(s) {tenants}: the pool is fully pinned even after "
            f"preemption",
            tenant=tenants[0] if tenants else "",
            owner_stats=self.solver.pool.owner_stats(),
            queue_depths=self.registry.queue_depths(),
            retry_after_hint=self.retry_after_estimate(),
        )

    # ---------------------------------------------------------------- validation

    def _require_running(self) -> None:
        if not self._running:
            raise ServeError(
                "the solve service is not running; use `async with service:` "
                "or await service.start()"
            )

    def _validate(self, operator, kind: str, payload):
        """Early, caller-context checks so a bad request never poisons a
        window.  Returns (payload-as-float-array|None, columns, vector)."""
        mode = _KIND_MODES.get(kind)
        if mode is None:
            raise ServeError(
                f"unknown request kind {kind!r}; expected one of {sorted(_KIND_MODES)}"
            )
        if isinstance(operator, np.ndarray) or not hasattr(operator, "key"):
            raise TypeError(
                "the serve layer accepts compiled operator handles only — "
                "call `await service.compile(tenant, matrix, mode)` first "
                "(one-shot matrix submission would hide operator lifetime "
                "from admission and coalescing)"
            )
        if operator.closed:
            raise ServeError(
                "operator handle is closed; compile the matrix again for a new one"
            )
        if operator.mode is not mode:
            raise ServeError(
                f"{kind} needs an operator compiled for {mode.value}; this "
                f"handle is configured for {operator.mode.value}"
            )
        if kind == "eigvec":
            return None, 1, True
        rows = operator.shape[1] if kind == "mvm" else operator.shape[0]
        payload = finite_input(payload, f"{kind} payload", rows)
        vector = payload.ndim == 1
        columns = 1 if vector else int(payload.shape[1])
        if columns == 0:
            raise ShapeError(f"{kind} payload has zero columns")
        return payload, columns, vector

    @staticmethod
    def _validate_rtol(kind: str, rtol, columns: int) -> np.ndarray | None:
        """Early rtol validation, still in caller context (bad targets
        must reject *this* submit, never poison a coalesced window)."""
        if rtol is None:
            return None
        if kind != "solve":
            raise ServeError(
                f"rtol is an iterative-refinement contract on 'solve' "
                f"requests; {kind!r} does not support it"
            )
        return as_rtol_vector(rtol, columns)
