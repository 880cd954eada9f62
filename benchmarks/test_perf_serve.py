"""Multi-tenant serving throughput: coalesced dispatch vs one-call-per-request.

The acceptance bar for the serve layer, under a 4-tenant mixed trace
(two shared INV operators + one MVM operator, burst-submitted single
columns):

* coalesced serving must sustain **≥ 5×** the requests/sec of naive
  one-engine-call-per-request dispatch on the same resident operators
  (a wall-clock ratio, so asserted only in the perf smoke,
  ``REPRO_WRITE_BENCH=1``);
* **zero reprogramming events** (and zero pool evictions) in steady
  state — coalescing must never churn residency;
* every rejected request in an over-bound burst carries a **structured
  backpressure error** (``ServiceOverloaded`` with ``owner_stats`` and
  ``queue_depths`` attached).

Measured numbers land in ``BENCH_serve.json`` at the repo root with the
bars in an ``invariants`` block, re-checked by
``benchmarks/check_invariants.py`` in CI.  Sizes are deliberately small —
this doubles as the CI smoke step.
"""

from __future__ import annotations

import asyncio
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.obs.report import window_breakdown
from repro.serve import ServeConfig, ServiceOverloaded, SolveService, TenantQuota
from repro.workloads.matrices import wishart

_REPO_ROOT = Path(__file__).resolve().parents[1]
_BENCH_JSON = _REPO_ROOT / "BENCH_serve.json"

_SIZE = 16
_TENANTS = 4
_REQUESTS = 64
_REPEATS = 3

_MIN_SPEEDUP = 5.0
_REPROGRAMMING_STEADY_STATE = 0
_POOL_EVICTIONS_STEADY_STATE = 0
_STRUCTURED_REJECTIONS_FRACTION = 1.0


def _solver() -> GramcSolver:
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(num_macros=8, rows=2 * _SIZE, cols=2 * _SIZE),
            rng=np.random.default_rng(20260808),
        ),
        rng=np.random.default_rng(17),
    )


def _trace(rng: np.random.Generator):
    """The 4-tenant mixed trace: (tenant, operand-slot, kind, column)."""
    requests = []
    for i in range(_REQUESTS):
        tenant = f"tenant{i % _TENANTS}"
        if i % 8 < 5:
            slot, kind = "inv_a", "solve"
        elif i % 8 < 7:
            slot, kind = "inv_b", "solve"
        else:
            slot, kind = "mvm_c", "mvm"
        column = rng.normal(0.0, 1.0, _SIZE)
        column /= np.max(np.abs(column))
        requests.append((tenant, slot, kind, column))
    return requests


@pytest.fixture(scope="module")
def bench_payload(write_bench):
    payload: dict = {
        "config": {
            "matrix": f"{_SIZE}x{_SIZE}",
            "tenants": _TENANTS,
            "requests": _REQUESTS,
            "operators": ["inv_a", "inv_b", "mvm_c"],
            "repeats": _REPEATS,
        },
        "invariants": {
            "min_speedup": _MIN_SPEEDUP,
            "reprogramming_events_steady_state": _REPROGRAMMING_STEADY_STATE,
            "pool_evictions_steady_state": _POOL_EVICTIONS_STEADY_STATE,
            "structured_rejections_fraction": _STRUCTURED_REJECTIONS_FRACTION,
        },
        "results": {},
    }
    yield payload
    write_bench(_BENCH_JSON, payload)


def _run_trace(service_config: ServeConfig, operands, trace) -> dict:
    """Serve the burst trace through a fresh service on a fresh chip.

    The coalesced configuration and the naive (one-engine-call-per-
    request: ``max_batch_columns=1, window_s=0``) ablation go through the
    *same* admission/dispatch/scatter machinery, so the measured speedup
    isolates exactly what coalescing buys."""
    solver = _solver()
    service = SolveService(solver, service_config)
    for t in range(_TENANTS):
        service.register_tenant(f"tenant{t}", TenantQuota(max_pending=_REQUESTS))

    async def session() -> dict:
        async with service:
            ops = {
                "inv_a": await service.compile(
                    "tenant0", operands["inv_a"], AMCMode.INV
                ),
                "inv_b": await service.compile(
                    "tenant1", operands["inv_b"], AMCMode.INV
                ),
                "mvm_c": await service.compile(
                    "tenant2", operands["mvm_c"], AMCMode.MVM
                ),
            }

            async def burst():
                return await asyncio.gather(
                    *[
                        service.submit(tenant, ops[slot], kind, column)
                        for tenant, slot, kind, column in trace
                    ]
                )

            await burst()  # warm ranging state, excluded from timing
            # -- steady state starts here: count programming and evictions.
            programs_before = sum(op.program_count for op in ops.values())
            evictions_before = solver.pool.evictions
            engine_calls_before = service.stats.engine_calls
            best = float("inf")
            for _ in range(_REPEATS):
                start = time.perf_counter()
                results = await burst()
                best = min(best, time.perf_counter() - start)
            return {
                "seconds": best,
                "breakdown": window_breakdown(results),
                "reprogramming_events": (
                    sum(op.program_count for op in ops.values()) - programs_before
                ),
                "pool_evictions": solver.pool.evictions - evictions_before,
                "engine_calls": service.stats.engine_calls - engine_calls_before,
                "coalescing_factor": service.stats.coalescing_factor,
            }

    return asyncio.run(session())


def test_perf_serve_throughput(bench_payload):
    """4-tenant burst trace: coalesced windows vs per-request engine calls."""
    rng = np.random.default_rng(3)
    operands = {
        "inv_a": wishart(_SIZE, rng=rng) + 0.6 * np.eye(_SIZE),
        "inv_b": np.eye(_SIZE) * 2.0 + rng.normal(0.0, 0.05, (_SIZE, _SIZE)),
        "mvm_c": rng.uniform(-1, 1, size=(_SIZE, _SIZE)),
    }
    trace = _trace(rng)

    naive = _run_trace(
        ServeConfig(window_s=0.0, max_batch_columns=1), operands, trace
    )
    coalesced = _run_trace(
        ServeConfig(window_s=0.002, max_batch_columns=_REQUESTS), operands, trace
    )
    naive_seconds = naive["seconds"]
    coalesced_seconds = coalesced["seconds"]
    speedup = naive_seconds / coalesced_seconds

    bench_payload["results"]["serve"] = {
        "requests": _REQUESTS,
        "naive_seconds": naive_seconds,
        "coalesced_seconds": coalesced_seconds,
        "speedup": speedup,
        "requests_per_second_naive": _REQUESTS / naive_seconds,
        "requests_per_second_coalesced": _REQUESTS / coalesced_seconds,
        "engine_calls_per_burst_naive": naive["engine_calls"] / _REPEATS,
        "engine_calls_per_burst_coalesced": coalesced["engine_calls"] / _REPEATS,
        "coalescing_factor": coalesced["coalescing_factor"],
        "reprogramming_events_steady_state": coalesced["reprogramming_events"],
        "pool_evictions_steady_state": coalesced["pool_evictions"],
    }
    # Aggregate breakdown of one coalesced burst (all 64 requests' cost
    # shares summed) — queue wait shows up as a serve-layer component.
    bench_payload["breakdown"] = coalesced["breakdown"]
    print(
        f"\nserve {_TENANTS} tenants, {_REQUESTS} requests: naive "
        f"{naive_seconds * 1e3:.1f} ms ({_REQUESTS / naive_seconds:.0f} req/s, "
        f"{naive['engine_calls'] / _REPEATS:.0f} engine calls/burst), coalesced "
        f"{coalesced_seconds * 1e3:.1f} ms "
        f"({_REQUESTS / coalesced_seconds:.0f} req/s, "
        f"{coalesced['engine_calls'] / _REPEATS:.1f} engine calls/burst) -> "
        f"{speedup:.1f}x, {coalesced['reprogramming_events']} reprograms"
    )
    assert coalesced["reprogramming_events"] == _REPROGRAMMING_STEADY_STATE
    assert coalesced["pool_evictions"] == _POOL_EVICTIONS_STEADY_STATE
    if os.environ.get("REPRO_WRITE_BENCH") == "1":
        assert speedup >= _MIN_SPEEDUP


def test_perf_serve_backpressure_is_structured(bench_payload):
    """Over-bound burst: every shed request carries the structured error."""
    solver = _solver()
    service = SolveService(
        solver,
        ServeConfig(window_s=0.002, max_pending=8, default_timeout_s=10.0),
    )
    service.register_tenant("spammer", TenantQuota(max_pending=6))
    service.register_tenant("bystander", TenantQuota(max_pending=6))
    burst = 32

    async def session():
        async with service:
            op = await service.compile(
                "spammer", np.eye(_SIZE) * 2.0, AMCMode.INV
            )
            outcomes = await asyncio.gather(
                *[
                    service.solve(
                        "spammer" if i % 2 == 0 else "bystander",
                        op,
                        np.ones(_SIZE),
                    )
                    for i in range(burst)
                ],
                return_exceptions=True,
            )
        return outcomes

    outcomes = asyncio.run(session())
    rejected = [o for o in outcomes if isinstance(o, Exception)]
    served = [o for o in outcomes if not isinstance(o, Exception)]
    assert rejected, "the burst must exceed the configured bounds"
    structured = [
        e
        for e in rejected
        if isinstance(e, ServiceOverloaded)
        and isinstance(e.owner_stats, dict)
        and "total" in e.queue_depths
        and e.tenant
    ]
    fraction = len(structured) / len(rejected)
    bench_payload["results"]["backpressure"] = {
        "burst": burst,
        "served": len(served),
        "rejected": len(rejected),
        "structured_rejections_fraction": fraction,
        "shed_requests_counter": service.stats.shed_requests,
    }
    print(
        f"\nbackpressure burst {burst}: served {len(served)}, rejected "
        f"{len(rejected)}, structured fraction {fraction:.2f}"
    )
    assert fraction == _STRUCTURED_REJECTIONS_FRACTION
    assert service.stats.shed_requests == len(rejected)


