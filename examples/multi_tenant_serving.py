"""Multi-tenant serving: many async clients sharing one GRAMC chip.

Four tenants submit solve/MVM requests concurrently against a single
chip through :class:`repro.serve.SolveService`.  The service admits each
request against per-tenant quotas, coalesces same-operator columns
queued together (submitted at once, or while the chip was busy) into a
single batched engine call, scatters the per-column results back to
each caller's future, and sheds overload with structured backpressure
errors instead of queue collapse.

The lifecycle every request walks:  admit → coalesce → dispatch → scatter.

Run:  python examples/multi_tenant_serving.py
"""

import asyncio

import numpy as np

from repro import AMCMode
from repro.analysis.reporting import banner, format_table
from repro.serve import ServeConfig, ServiceOverloaded, TenantQuota
from repro.system import GramcChip
from repro.workloads.matrices import wishart


async def main() -> None:
    rng = np.random.default_rng(7)
    chip = GramcChip(rng=np.random.default_rng(11))
    service = chip.serve(ServeConfig(max_pending=64))

    # Tenants get quotas: pending-request bounds, a soft macro share for
    # fair-share preemption, and a scheduling priority.
    service.register_tenant("ranker", TenantQuota(max_pending=16, priority=1))
    service.register_tenant("regression", TenantQuota(max_pending=16))
    service.register_tenant("telemetry", TenantQuota(max_pending=8))
    service.register_tenant("spammer", TenantQuota(max_pending=2))

    async with service:
        # Each tenant compiles (or shares) operator handles; the serve
        # layer accepts handles only, so residency stays visible.
        n = 24
        a = wishart(n, rng=rng) + 0.6 * np.eye(n)
        c = rng.uniform(-1.0, 1.0, (n, n))
        inv_op = await service.compile("ranker", a, AMCMode.INV)
        mvm_op = await service.compile("telemetry", c, AMCMode.MVM)

        # --- one dispatch window, three tenants, one engine call per
        # operator: concurrent columns against `inv_op` coalesce.
        b_cols = rng.normal(0.0, 1.0, (n, 3))
        b_cols /= np.max(np.abs(b_cols), axis=0)
        r1, r2, r3, m1 = await asyncio.gather(
            service.solve("ranker", inv_op, b_cols[:, 0]),
            service.solve("regression", inv_op, b_cols[:, 1]),
            service.solve("ranker", inv_op, b_cols[:, 2]),
            service.mvm("telemetry", mvm_op, np.ones(n) / n),
        )

        rows = [
            ["ranker solve #1", r1.relative_error, r1.ok],
            ["regression solve", r2.relative_error, r2.ok],
            ["ranker solve #2", r3.relative_error, r3.ok],
            ["telemetry mvm", m1.relative_error, m1.ok],
        ]

        # --- backpressure: the spammer's third in-flight request is shed
        # with a structured error naming who holds the chip.
        shed = 0
        outcomes = await asyncio.gather(
            *[
                service.solve("spammer", inv_op, b_cols[:, 0])
                for _ in range(6)
            ],
            return_exceptions=True,
        )
        for outcome in outcomes:
            if isinstance(outcome, ServiceOverloaded):
                shed += 1
                assert outcome.owner_stats is not None
                assert "total" in outcome.queue_depths

        summary = service.snapshot()["service"]

    print(banner("GRAMC multi-tenant serving — admit, coalesce, scatter"))
    print(format_table(["request", "error vs numpy", "electrically ok"], rows))
    print(
        f"\nengine calls: {summary['engine_calls']}  "
        f"coalesced columns: {summary['coalesced_columns']}  "
        f"coalescing factor: {summary['coalescing_factor']:.1f}x"
    )
    print(f"spammer burst of 6 -> {shed} shed with structured backpressure")
    for tenant, counters in sorted(summary["tenants"].items()):
        print(
            f"  {tenant:<11} submitted={counters['submitted']:<3} "
            f"completed={counters['completed']:<3} rejected={counters['rejected']}"
        )


if __name__ == "__main__":
    asyncio.run(main())
