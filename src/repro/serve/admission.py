"""Admission control: bounded queues and structured load shedding.

Admission is the *synchronous* front door of the service — it runs in the
submitting coroutine, before the request ever touches the dispatch queue,
so a shed request costs the chip nothing.  Two bounds apply, checked in
order:

* the **global** pending bound (:attr:`ServeConfig.max_pending`) sheds
  with :class:`ServiceOverloaded` — the service as a whole is saturated;
* the **tenant** pending bound (:attr:`TenantQuota.max_pending`) sheds
  with :class:`QuotaExceeded` — this tenant is over its own allowance
  while the service may still have room for others.

Both rejections carry the macro pool's owner snapshot and the queue
depths at rejection time."""

from __future__ import annotations

from typing import Callable

from repro.obs import trace
from repro.serve.tenancy import TenantRegistry, TenantState
from repro.serve.types import (
    QuotaExceeded,
    ServeConfig,
    ServiceOverloaded,
    SolveRequest,
)
from repro.system.stats import ServiceStats


class AdmissionController:
    """Gate requests into the dispatch queue, or shed them."""

    def __init__(
        self,
        registry: TenantRegistry,
        config: ServeConfig,
        stats: ServiceStats,
        owner_stats: Callable[[], dict],
        retry_after: "Callable[[], float | None] | None" = None,
    ):
        self._registry = registry
        self._config = config
        self._stats = stats
        self._owner_stats = owner_stats
        self._retry_after = retry_after
        self._total_pending = 0

    def admit(self, request: SolveRequest) -> TenantState:
        """Count the request in, or raise a structured rejection.

        Raises :class:`UnknownTenant` / :class:`ServiceOverloaded` /
        :class:`QuotaExceeded`; on success the request holds one pending
        slot until :meth:`release`."""
        with trace.span(
            "admit",
            tenant=request.tenant,
            kind=request.kind,
            columns=request.columns,
        ) as sp:
            state = self._registry.get(request.tenant)
            state.counters.submitted += 1
            state.counters.columns_submitted += request.columns
            if self._total_pending >= self._config.max_pending:
                sp.set(outcome="shed-global")
                raise self._shed(
                    state,
                    ServiceOverloaded,
                    f"service overloaded: {self._total_pending} requests pending "
                    f"(global bound {self._config.max_pending}); request from "
                    f"tenant {state.name!r} shed",
                )
            if state.pending >= state.quota.max_pending:
                sp.set(outcome="shed-quota")
                raise self._shed(
                    state,
                    QuotaExceeded,
                    f"tenant {state.name!r} quota exceeded: {state.pending} "
                    f"requests pending (bound {state.quota.max_pending})",
                )
            state.pending += 1
            self._total_pending += 1
            state.counters.admitted += 1
            sp.set(outcome="admitted")
            return state

    def release(self, request: SolveRequest) -> None:
        """Return the request's pending slot (whatever its outcome)."""
        state = self._registry.get(request.tenant)
        if state.pending > 0:
            state.pending -= 1
        if self._total_pending > 0:
            self._total_pending -= 1

    def _shed(
        self, state: TenantState, error_type: type, message: str
    ) -> ServiceOverloaded:
        state.counters.rejected += 1
        self._stats.shed_requests += 1
        return error_type(
            message,
            tenant=state.name,
            owner_stats=self._owner_stats(),
            queue_depths=self._registry.queue_depths(),
            retry_after_hint=(
                None if self._retry_after is None else self._retry_after()
            ),
        )
