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

The speedup is the median over alternating naive/coalesced repeats, so a
slow spell of a shared host lands on both arms instead of deciding the
ratio.  Under ``REPRO_WRITE_BENCH=1`` an **offered-load sweep** also
replays the ``serve_mix`` request mix open-loop at 1×, 2×, 4× and 8× of
50 req/s and records each rate's p50 and p99 latency, coalescing factor
and shed count.

Measured numbers land in ``BENCH_serve.json`` at the repo root with the
bars in an ``invariants`` block, re-checked by
``benchmarks/check_invariants.py`` in CI.  Sizes are deliberately small —
this doubles as the CI smoke step.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from perfbench.harness import percentile, poisson_schedule
from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.obs.report import window_breakdown
from repro.programming.levels import LevelMap
from repro.serve import ServeConfig, ServiceOverloaded, SolveService, TenantQuota
from repro.workloads.matrices import block_dominant, wishart

_REPO_ROOT = Path(__file__).resolve().parents[1]
_BENCH_JSON = _REPO_ROOT / "BENCH_serve.json"

_SIZE = 16
_TENANTS = 4
_REQUESTS = 64
_REPEATS = 7

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


@dataclass
class _Arm:
    """One service configuration on its own fresh chip."""

    service: SolveService
    solver: GramcSolver
    ops: dict

    def counters(self) -> np.ndarray:
        """Programming events, pool evictions and engine calls so far."""
        return np.array([
            sum(op.program_count for op in self.ops.values()),
            self.solver.pool.evictions,
            self.service.stats.engine_calls,
        ])


async def _open(service_config: ServeConfig, operands) -> _Arm:
    solver = _solver()
    service = SolveService(solver, service_config)
    for t in range(_TENANTS):
        service.register_tenant(f"tenant{t}", TenantQuota(max_pending=_REQUESTS))
    await service.start()
    ops = {
        "inv_a": await service.compile("tenant0", operands["inv_a"], AMCMode.INV),
        "inv_b": await service.compile("tenant1", operands["inv_b"], AMCMode.INV),
        "mvm_c": await service.compile("tenant2", operands["mvm_c"], AMCMode.MVM),
    }
    return _Arm(service, solver, ops)


async def _burst(arm: _Arm, trace) -> list:
    return await asyncio.gather(
        *[
            arm.service.submit(tenant, arm.ops[slot], kind, column)
            for tenant, slot, kind, column in trace
        ]
    )


def _run_trace(operands, trace) -> dict:
    """Serve the burst trace on the naive and the coalesced arm in turn.

    The coalesced configuration and the naive (one-engine-call-per-
    request: ``max_batch_columns=1``) ablation go through the *same*
    admission/dispatch/scatter machinery, so the measured speedup
    isolates exactly what coalescing buys.  Both arms stay open and
    their timed bursts alternate; each pair gives one speedup."""

    async def session() -> dict:
        arms: dict[str, _Arm] = {}
        try:
            arms["naive"] = await _open(ServeConfig(max_batch_columns=1), operands)
            arms["coalesced"] = await _open(
                ServeConfig(max_batch_columns=_REQUESTS), operands
            )
            for arm in arms.values():
                await _burst(arm, trace)  # warm ranging state, excluded from timing
            # -- steady state starts here: count programming and evictions.
            before = {name: arm.counters() for name, arm in arms.items()}
            seconds: dict[str, list[float]] = {name: [] for name in arms}
            results: dict[str, list] = {}
            for _ in range(_REPEATS):
                for name, arm in arms.items():
                    start = time.perf_counter()
                    results[name] = await _burst(arm, trace)
                    seconds[name].append(time.perf_counter() - start)
        finally:
            for arm in arms.values():
                await arm.service.close()
        out = {}
        for name, arm in arms.items():
            programs, evictions, calls = arm.counters() - before[name]
            out[name] = {
                "seconds": seconds[name],
                "breakdown": window_breakdown(results[name]),
                "reprogramming_events": int(programs),
                "pool_evictions": int(evictions),
                "engine_calls": int(calls),
                "coalescing_factor": arm.service.stats.coalescing_factor,
            }
        return out

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

    arms = _run_trace(operands, trace)
    naive, coalesced = arms["naive"], arms["coalesced"]
    ratios = [n / c for n, c in zip(naive["seconds"], coalesced["seconds"])]
    speedup = statistics.median(ratios)
    naive_seconds = statistics.median(naive["seconds"])
    coalesced_seconds = statistics.median(coalesced["seconds"])

    bench_payload["results"]["serve"] = {
        "requests": _REQUESTS,
        "naive_seconds": naive_seconds,
        "coalesced_seconds": coalesced_seconds,
        "speedup": speedup,
        "speedup_range": [min(ratios), max(ratios)],
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
        f"\nserve {_TENANTS} tenants, {_REQUESTS} requests, median of "
        f"{_REPEATS} alternating pairs: naive {naive_seconds * 1e3:.1f} ms "
        f"({_REQUESTS / naive_seconds:.0f} req/s, "
        f"{naive['engine_calls'] / _REPEATS:.0f} engine calls/burst), coalesced "
        f"{coalesced_seconds * 1e3:.1f} ms "
        f"({_REQUESTS / coalesced_seconds:.0f} req/s, "
        f"{coalesced['engine_calls'] / _REPEATS:.1f} engine calls/burst) -> "
        f"{speedup:.1f}x [{min(ratios):.1f}-{max(ratios):.1f}], "
        f"{coalesced['reprogramming_events']} reprograms"
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
        ServeConfig(max_pending=8, default_timeout_s=10.0),
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


# -- offered-load sweep ----------------------------------------------------------

_SWEEP_BASE_RPS = 50.0
"""``serve_mix``'s offered load; the sweep replays its mix at multiples."""
_SWEEP_MULTIPLES = (1, 2, 4, 8)
_SWEEP_REQUESTS = 1000
"""Arrivals per rate, so ten lie beyond p99 (1× replays 20 s, 8× 2.5 s)."""
_SWEEP_RTOL = 1e-8
#: ``serve_mix``'s block of 20 arrivals: shuffled per block, closed by
#: one tiled refine.
_SWEEP_MIX = ("small",) * 7 + ("inv64",) * 3 + ("inv64_rtol",) * 3 + ("mvm64",) * 6
_SWEEP_TENANT = {
    "small": "t-small", "inv64": "t-inv64", "inv64_rtol": "t-inv64",
    "mvm64": "t-mvm64", "tiled": "t-tiled",
}


def _sweep_chip() -> GramcSolver:
    """``serve_mix``'s chip: 40 macros, 8-bit level map, fixed seeds."""
    rng_pool, rng_solver = (
        np.random.default_rng(child)
        for child in np.random.SeedSequence(20260808).spawn(2)
    )
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(num_macros=40, level_map=LevelMap(num_levels=256)),
            rng=rng_pool,
        ),
        rng=rng_solver,
    )


def _sweep_operands() -> dict[str, np.ndarray]:
    """``serve_mix``'s resident catalogue (fixed; the traffic is seeded)."""
    rng = np.random.default_rng(20250611)
    return {
        "small": wishart(16, rng=rng) + 0.6 * np.eye(16),
        "inv64": block_dominant(64, 64, rng=rng),
        "mvm64": rng.uniform(-1.0, 1.0, size=(64, 64)),
        "tiled": block_dominant(256, 64, rng=rng),
    }


def _operand_of(kind: str) -> str:
    return "inv64" if kind == "inv64_rtol" else kind


def _sweep_plan(rng: np.random.Generator, rate: float, operands) -> list:
    """Open-loop schedule: (offset seconds, kind, payload) per arrival."""
    offsets = poisson_schedule(rate, _SWEEP_REQUESTS / rate, rng)
    kinds: list[str] = []
    while len(kinds) < len(offsets):
        kinds.extend(rng.permutation(_SWEEP_MIX))
        kinds.append("tiled")
    return [
        (offset, kind, rng.uniform(-1.0, 1.0, operands[_operand_of(kind)].shape[0]))
        for offset, kind in zip(offsets, kinds)
    ]


async def _offered_load(rate: float, seed: int) -> dict:
    """Replay the mix at ``rate`` on a fresh chip and default service."""
    operands = _sweep_operands()
    plan = _sweep_plan(np.random.default_rng(seed), rate, operands)
    service = SolveService(_sweep_chip())
    for tenant in set(_SWEEP_TENANT.values()):
        service.register_tenant(tenant)
    latencies: list[float] = []
    shed = 0

    async def request(kind: str, payload, due: float) -> None:
        nonlocal shed
        tenant, op = _SWEEP_TENANT[kind], ops[_operand_of(kind)]
        rtol = _SWEEP_RTOL if kind in ("inv64_rtol", "tiled") else None
        try:
            if kind == "mvm64":
                await service.mvm(tenant, op, payload)
            else:
                await service.solve(tenant, op, payload, rtol=rtol)
        except ServiceOverloaded:
            shed += 1
            return
        latencies.append(time.perf_counter() - due)

    async with service:
        ops = {
            name: await service.compile(
                _SWEEP_TENANT[name], matrix,
                AMCMode.MVM if name == "mvm64" else AMCMode.INV,
            )
            for name, matrix in operands.items()
        }
        for kind in _SWEEP_TENANT:  # warm ranging state, excluded
            size = operands[_operand_of(kind)].shape[0]
            await request(kind, np.full(size, 0.5), time.perf_counter())
        latencies.clear()
        calls0 = service.stats.engine_calls
        columns0 = service.stats.coalesced_columns
        origin = time.perf_counter() + 0.05
        tasks = []
        for offset, kind, payload in plan:
            due = origin + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(request(kind, payload, due)))
        await asyncio.gather(*tasks)
        calls = service.stats.engine_calls - calls0
        columns = service.stats.coalesced_columns - columns0
    return {
        "offered_rps": rate,
        "requests": len(plan),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "coalescing_factor": columns / calls if calls else 0.0,
        "shed": shed,
        "completed": len(latencies),
    }


@pytest.mark.skipif(
    os.environ.get("REPRO_WRITE_BENCH") != "1",
    reason="wall-clock sweep, run by the perf smoke (REPRO_WRITE_BENCH=1)",
)
def test_perf_serve_offered_load_sweep(bench_payload):
    """``serve_mix``'s mix at 1×–8× its offered load: latency, coalescing, shed."""
    bench_payload["config"]["offered_load"] = {
        "base_rps": _SWEEP_BASE_RPS,
        "multiples": list(_SWEEP_MULTIPLES),
        "requests_per_rate": _SWEEP_REQUESTS,
    }
    for multiple in _SWEEP_MULTIPLES:
        row = asyncio.run(_offered_load(_SWEEP_BASE_RPS * multiple, seed=multiple))
        bench_payload["results"][f"offered_load_{multiple}x"] = row
        print(
            f"\noffered {row['offered_rps']:.0f} req/s ({row['requests']} requests): "
            f"p50 {row['p50_ms']:.2f} ms, p99 {row['p99_ms']:.2f} ms, "
            f"coalescing {row['coalescing_factor']:.2f}, shed {row['shed']}"
        )
        # Every request is answered or shed with the structured error.
        assert row["completed"] + row["shed"] == row["requests"]
