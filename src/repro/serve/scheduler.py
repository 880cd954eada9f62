"""Fair-share dispatch ordering and tile preemption.

Two fairness mechanisms, both cheap:

* **Ordering** — within a window, groups dispatch by (highest priority
  class first, then lowest weighted deficit).  Each dispatch charges the
  participating tenants ``columns / weight`` deficit, so a tenant that
  just got a big batch yields the next tie to its peers — classic
  deficit/stride scheduling over RHS columns, the unit of chip work.

* **Preemption** — when a dispatch cannot program its operator because
  the pool is full of *other* tenants' residency, the scheduler evicts
  one unpinned operator of the most over-share tenant (resident macros
  furthest above :attr:`TenantQuota.max_macros`) via
  :meth:`MacroPool.preempt` and lets the dispatch retry.  Eviction goes
  through the pool's normal ``on_evict`` callback, so the victim handle
  marks itself stale and transparently re-programs on its owner's next
  request — preemption costs the victim a re-program, never correctness.
"""

from __future__ import annotations

from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool
from repro.serve.coalescer import CoalescedBatch
from repro.serve.tenancy import TenantRegistry, TenantState


class FairShareScheduler:
    """Orders window groups and reclaims tiles from over-share tenants."""

    def __init__(self, registry: TenantRegistry, pool: MacroPool):
        self._registry = registry
        self._pool = pool

    # ---------------------------------------------------------------- ordering

    def order(self, batches: "list[CoalescedBatch]") -> "list[CoalescedBatch]":
        return sorted(
            batches,
            key=lambda batch: (
                -batch.priority(self._registry),
                batch.deficit(self._registry),
            ),
        )

    def charge(self, batch: CoalescedBatch) -> None:
        """Account a dispatched batch against its tenants' deficits."""
        for tenant, columns in batch.tenant_columns().items():
            state = self._registry.get(tenant)
            state.deficit += columns / state.quota.weight

    # -------------------------------------------------------------- preemption

    def resident_macros(self, state: TenantState) -> int:
        """Macros currently resident for a tenant's service-compiled set."""
        owner_stats = self._pool.owner_stats()
        total = 0
        for operator in state.operators.values():
            for owner in operator.owner_names():
                stats = owner_stats.get(owner)
                if stats is not None:
                    total += int(stats["macros"])
        return total

    def reclaim_for(self, batch: CoalescedBatch) -> int:
        """Fairness-steered eviction *before* a non-resident dispatch.

        The pool's own LRU eviction picks the least-recently-used victim,
        which under contention can be an under-quota tenant's hot
        operator.  When the batch's operator needs programming and the
        free list looks short, this preempts operators of *strictly
        over-share* tenants first (never the batch's own), so quota —
        not recency — decides who loses residency.  Returns the number
        of operators preempted.  In steady state (everything resident)
        this is a no-op, preserving zero reprogramming."""
        operator = batch.operator
        if operator.resident:
            return 0
        # A direct handle programs 1-2 macros per plane set; PINV holds
        # the operand and its transpose plane simultaneously.
        needed = 4 if operator.mode is AMCMode.PINV else 2
        reclaimed = 0
        while self._pool.free_count < needed and self._preempt_one(batch, any_share=False):
            reclaimed += 1
        return reclaimed

    def make_room(self, batch: CoalescedBatch) -> bool:
        """Preempt one victim after the batch's dispatch found the pool
        full.  Tenants at or under their share qualify too — last — so a
        full pool can be reclaimed from *somebody* unpinned; ``False``
        when every candidate is pinned (the caller then sheds)."""
        return self._preempt_one(batch, any_share=True)

    def _preempt_one(self, batch: CoalescedBatch, any_share: bool) -> bool:
        """Preempt one unpinned operator of the most over-share tenant
        outside ``batch`` (ties: registration order).  Tenants at or under
        their share qualify only with ``any_share``."""
        requesting = set(batch.tenant_names())
        candidates = [
            (self.resident_macros(state) - state.quota.max_macros, state)
            for state in self._registry
            if state.name not in requesting and state.operators
        ]
        candidates.sort(key=lambda item: -item[0])
        for over, state in candidates:
            if over <= 0 and not any_share:
                break
            for operator in state.operators.values():
                if operator.is_pinned:
                    continue
                evicted = [self._pool.preempt(owner) for owner in operator.owner_names()]
                if any(evicted):
                    state.counters.preemptions += 1
                    return True
        return False
