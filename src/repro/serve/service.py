"""SolveService: the multi-tenant async front door of one GRAMC chip.

Request lifecycle (see README "Serving many tenants")::

    submit ──admit──▶ dispatch queue ──window──▶ coalesce ──▶ engine call
                │                                                │
                ▼ shed (ServiceOverloaded / QuotaExceeded)       ▼
                                                  scatter ──▶ caller futures

Design points:

* **Handles only.**  The service accepts compiled operator handles, never
  raw matrices — operator lifetime must be visible to the pool for
  admission, coalescing (digest match) and preemption to mean anything.
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
from repro.serve.coalescer import CoalescedBatch, coalesce
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
        mean dispatch time; before any dispatch has been timed the
        coalescing window is the floor.  Attached to every
        :class:`ServiceOverloaded` / :class:`QuotaExceeded` as
        ``retry_after_hint``."""
        mean = self.stats.mean_dispatch_s or self.config.window_s
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
        try:
            return await asyncio.wait_for(request.future, timeout)
        except TimeoutError:
            request.timed_out = True
            state.counters.timed_out += 1
            raise RequestTimeout(
                f"tenant {tenant!r} {kind} request did not complete within "
                f"{timeout}s (queue depths: {self.registry.queue_depths()})"
            ) from None
        finally:
            self._admission.release(request)

    # ------------------------------------------------------------------ dispatch

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping or not self._queue.empty():
            item = await self._queue.get()
            if item is _SHUTDOWN:
                stopping = True
                continue
            window = [item]
            columns = item.columns
            deadline = loop.time() + self.config.window_s
            while columns < self.config.max_batch_columns and not stopping:
                try:
                    # Fast path: burst submissions are usually already
                    # queued; draining them without a timed wait keeps the
                    # per-request dispatch cost flat.
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(self._queue.get(), remaining)
                    except TimeoutError:
                        break
                if nxt is _SHUTDOWN:
                    stopping = True
                    break
                window.append(nxt)
                columns += nxt.columns
            await self._dispatch_window(window)

    async def _dispatch_window(self, window: "list[SolveRequest]") -> None:
        tracer = trace.get_tracer()
        live: list[SolveRequest] = []
        for request in window:
            if request.future.done():
                # Cancelled (or deadline-cancelled) while queued.
                tracer.finish(request.queue_span, outcome="abandoned")
                request.queue_span = None
                if not request.timed_out:
                    self.registry.get(request.tenant).counters.cancelled += 1
                continue
            live.append(request)
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
        loop = asyncio.get_running_loop()
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

        # ``batch.execute`` runs on the chip thread, outside this task's
        # context: adopt the window span there so chip-side spans (solve,
        # sweeps, refine steps) nest under the serve window.
        parent = tracer.current()

        def execute():
            with tracer.adopt(parent):
                with trace.span(
                    "dispatch",
                    operator=batch.operator.key[:12],
                    kind=batch.kind,
                    columns=batch.columns,
                    requests=len(batch.requests),
                ):
                    return batch.execute()

        started = time.perf_counter()
        try:
            result = await loop.run_in_executor(self._executor, execute)
        except CapacityError:
            if not self._scheduler.make_room(batch):
                batch.reject_all(self._overloaded(batch), self.registry)
                return
            try:
                result = await loop.run_in_executor(self._executor, execute)
            except CapacityError:
                batch.reject_all(self._overloaded(batch), self.registry)
                return
            except (ConvergenceError, DegradedChipError) as error:
                await self._retry_degraded(batch, error, parent)
                return
            except GramcError as error:
                batch.reject_all(error, self.registry)
                return
        except (ConvergenceError, DegradedChipError) as error:
            # The chip is degrading under this batch.  One serve-level
            # recovery attempt keeps the rest of the coalesced window's
            # callers alive instead of failing them all outright.
            await self._retry_degraded(batch, error, parent)
            return
        except GramcError as error:
            # A malformed group (stale handle, shape defect) fails only
            # its own futures; the window's other groups proceed.
            batch.reject_all(error, self.registry)
            return
        self._finish_batch(batch, result, time.perf_counter() - started)

    def _finish_batch(
        self, batch: CoalescedBatch, result, elapsed_s: float
    ) -> None:
        self.stats.record_dispatch(
            batch.tenant_names(), batch.columns, seconds=elapsed_s
        )
        with trace.span(
            "scatter", columns=batch.columns, requests=len(batch.requests)
        ):
            batch.scatter(result, self.registry)
        self._scheduler.charge(batch)

    async def _retry_degraded(
        self, batch: CoalescedBatch, error: GramcError, parent
    ) -> None:
        """One serve-level recovery attempt for a batch that failed on a
        degraded chip.

        Heals the batch's operator on the chip thread, rebuilds the group
        from requests whose futures are still live — a caller that
        cancelled (or timed out) while the fault was being handled must
        not be re-executed or re-billed — and re-dispatches exactly once.
        A second failure rejects every live future with a structured
        :class:`DegradedChipError` carrying the health snapshot: callers
        get evidence, never a silently wrong answer.  Without a fault
        injector there is nothing to heal, so the original error stands.
        """
        injector = getattr(self.solver.pool, "fault_injector", None)
        if injector is None:
            batch.reject_all(error, self.registry)
            return
        loop = asyncio.get_running_loop()
        tracer = trace.get_tracer()
        with trace.span("serve_heal", operator=batch.operator.key[:12]):
            healing = await loop.run_in_executor(
                self._executor,
                lambda: injector.monitor.heal_operator(batch.operator),
            )
        live = [r for r in batch.requests if not r.future.done()]
        if not live:
            return
        retry = CoalescedBatch(batch.operator, batch.kind, live)
        self.stats.fault_retries += 1

        def execute():
            with tracer.adopt(parent):
                with trace.span(
                    "dispatch_retry",
                    operator=retry.operator.key[:12],
                    kind=retry.kind,
                    columns=retry.columns,
                    requests=len(retry.requests),
                ):
                    return retry.execute()

        started = time.perf_counter()
        try:
            result = await loop.run_in_executor(self._executor, execute)
        except DegradedChipError as second:
            retry.reject_all(second, self.registry)
            return
        except GramcError as second:
            retry.reject_all(
                DegradedChipError(
                    f"dispatch failed again after serve-level healing: {second}",
                    health=injector.monitor.snapshot(),
                    healing=healing,
                ),
                self.registry,
            )
            return
        self._finish_batch(retry, result, time.perf_counter() - started)

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
        payload = finite_input(payload, f"{kind} payload")
        expected = operator.shape[1] if kind == "mvm" else operator.shape[0]
        if payload.ndim not in (1, 2) or payload.shape[0] != expected:
            raise ShapeError(
                f"{kind} payload must be a vector or batch with leading "
                f"dimension {expected}; got shape {payload.shape}"
            )
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
