"""Tracing a solve: spans from the serve window down to refine steps.

Enables tracing on a :class:`~repro.system.GramcChip`
(``trace="memory,chrome:..."`` — the same specs ``REPRO_TRACE`` takes),
runs a mixed-tenant serve window over a 256×256 blocked operator with
one tenant contracting ``rtol`` refinement, then:

* writes ``trace_solve.json`` — a Chrome ``trace_event`` document; open
  it at https://ui.perfetto.dev (or ``chrome://tracing``) to see the
  ``serve_window → dispatch → solve → sweep / refine_step`` flamegraph
  across the event-loop and chip-executor threads;
* prints each request's time/energy breakdown
  (:func:`repro.obs.report.solve_breakdown`) — where the solve actually
  went: analog settling, conversions, digital engine, refinement, queue
  wait;
* dumps a few lines of the chip's unified metrics registry in Prometheus
  text format — the same cells ``chip.stats.summary()`` reads.

Run:  python examples/tracing_a_solve.py
"""

import asyncio
from pathlib import Path

import numpy as np

from repro import AMCMode
from repro.analysis.reporting import banner
from repro.core.pool import PoolConfig
from repro.obs import trace
from repro.programming.levels import LevelMap
from repro.obs.export import prometheus_text
from repro.obs.report import format_breakdown, solve_breakdown
from repro.serve import ServeConfig, TenantQuota
from repro.system import GramcChip
from repro.workloads.matrices import block_dominant

TRACE_PATH = Path(__file__).resolve().parent / "trace_solve.json"


async def main() -> None:
    rng = np.random.default_rng(7)
    # An 8-bit level map keeps the analog floor low enough for iterative
    # refinement to converge (same sizing as the refinement benchmark).
    chip = GramcChip(
        pool_config=PoolConfig(level_map=LevelMap(num_levels=256)),
        rng=np.random.default_rng(11),
        trace=f"memory,chrome:{TRACE_PATH}",
    )
    service = chip.serve(ServeConfig(max_pending=64))
    service.register_tenant("ranker", TenantQuota(max_pending=16, priority=1))
    service.register_tenant("telemetry", TenantQuota(max_pending=8))

    n = 256
    matrix = block_dominant(n, 128, coupling=0.02, rng=rng)
    async with service:
        op = await service.compile("ranker", matrix, AMCMode.INV)
        batch = rng.uniform(-1.0, 1.0, (n, 4))
        # One dispatch window, two tenants, one coalesced engine call:
        # the ranker refines to 1e-8, telemetry rides the analog step.
        refined, plain = await asyncio.gather(
            service.solve("ranker", op, batch, rtol=1e-8),
            service.solve("telemetry", op, rng.uniform(-1.0, 1.0, n)),
        )

    tracer = trace.get_tracer()
    tracer.close()  # flush the Chrome trace to disk
    spans = tracer.spans()

    print(banner("GRAMC traced solve — spans, breakdown, metrics"))
    counts: dict[str, int] = {}
    for span in spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    print(f"{len(spans)} spans recorded: " + ", ".join(
        f"{name}×{count}" for name, count in sorted(counts.items())
    ))
    print(f"\nPerfetto-loadable trace written to {TRACE_PATH.name}")
    print("  -> open https://ui.perfetto.dev and drop the file in\n")

    print(f"ranker's refined solve ({refined.refine_steps} refine steps, "
          f"residual {refined.refined_residual:.1e}):\n")
    print(format_breakdown(solve_breakdown(refined)))
    print(f"\ntelemetry's unrefined sibling (same window, same engine call, "
          f"queue wait {plain.cost.queue_wait_s * 1e3:.1f} ms):\n")
    print(format_breakdown(solve_breakdown(plain)))

    print("\nunified registry, Prometheus text format (excerpt):")
    lines = prometheus_text(chip.stats.registry).splitlines()
    for line in lines[:12]:
        print(f"  {line}")
    print(f"  ... ({len(lines)} lines total)")


if __name__ == "__main__":
    asyncio.run(main())
