"""Observability smoke: traced chip-to-serve solve, exporters, overhead gate.

The acceptance bars for the tracing/metrics subsystem:

* a traced 256×256 tiled ``solve(rtol=1e-8)`` submitted through the
  multi-tenant :class:`~repro.serve.service.SolveService` must produce a
  **schema-valid Chrome trace** (Perfetto-loadable) whose span tree nests
  ``refine_step`` → ``solve`` → ``dispatch`` → ``serve_window``;
* every span also streams as one valid **JSONL** line;
* the per-request ``solve_breakdown`` must be arithmetically closed:
  time/energy percentages sum to 100 ± 0.1 with analog and digital time
  separately attributed, and queue wait (a serve-layer cost) non-zero;
* the **disabled** tracer must be near-free: its modeled overhead on a
  tiled solve stays under 2% of the solve's wall-clock.

Measured numbers land in ``BENCH_obs.json`` (with the trace artifacts
``TRACE_obs.json`` / ``TRACE_obs.jsonl`` next to it) and the breakdown
arithmetic plus the overhead gate are re-validated from the artifact by
``benchmarks/check_invariants.py`` in CI.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.obs import trace
from repro.obs.report import solve_breakdown, window_breakdown
from repro.programming.levels import LevelMap
from repro.serve import ServeConfig, SolveService, TenantQuota
from repro.workloads.matrices import block_dominant

_REPO_ROOT = Path(__file__).resolve().parents[1]
_BENCH_JSON = _REPO_ROOT / "BENCH_obs.json"
_TRACE_CHROME = _REPO_ROOT / "TRACE_obs.json"
_TRACE_JSONL = _REPO_ROOT / "TRACE_obs.jsonl"

_SIZE = 256
_TILE = 64
_COLUMNS = 4
_RTOL = 1e-8
_REPEATS = 3

_MAX_DISABLED_OVERHEAD = 0.02
_BREAKDOWN_PCT_TOLERANCE = 0.1

#: The nesting chain the chrome trace must contain, innermost first.
_REQUIRED_CHAIN = ("refine_step", "solve", "dispatch", "serve_window")


def _solver(num_macros: int = 40) -> GramcSolver:
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(
                num_macros=num_macros,
                rows=_TILE,
                cols=_TILE,
                level_map=LevelMap(num_levels=256),
            ),
            rng=np.random.default_rng(20260808),
        ),
        rng=np.random.default_rng(17),
    )


@pytest.fixture(scope="module")
def bench_payload(write_bench):
    payload: dict = {
        "config": {
            "matrix": f"{_SIZE}x{_SIZE}",
            "tile": _TILE,
            "grid": f"{_SIZE // _TILE}x{_SIZE // _TILE}",
            "columns": _COLUMNS,
            "rtol": _RTOL,
            "required_chain": list(_REQUIRED_CHAIN),
        },
        "invariants": {
            "max_disabled_overhead_fraction": _MAX_DISABLED_OVERHEAD,
            "breakdown_pct_tolerance": _BREAKDOWN_PCT_TOLERANCE,
        },
        "results": {},
    }
    yield payload
    write_bench(_BENCH_JSON, payload)


def _ancestry(span, by_id) -> list[str]:
    """Span names from ``span`` to its root, following parent_id links."""
    names = []
    current = span
    while current is not None:
        names.append(current.name)
        current = by_id.get(current.parent_id)
    return names


def _contains_chain(ancestry: "list[str]", chain: "tuple[str, ...]") -> bool:
    """True if ``chain`` appears in ``ancestry`` in order (gaps allowed)."""
    position = 0
    for name in ancestry:
        if position < len(chain) and name == chain[position]:
            position += 1
    return position == len(chain)


def test_obs_traced_serve_solve(bench_payload):
    """256×256 tiled solve(rtol=1e-8) through the service, fully traced."""
    rng = np.random.default_rng(3)
    matrix = block_dominant(_SIZE, _TILE, rng=rng)
    previous = trace.get_tracer()
    tracer = trace.configure(f"memory,jsonl:{_TRACE_JSONL},chrome:{_TRACE_CHROME}")
    try:
        solver = _solver()
        service = SolveService(
            solver, ServeConfig(default_timeout_s=120.0)
        )
        service.register_tenant("alice", TenantQuota(max_pending=8))
        service.register_tenant("bob", TenantQuota(max_pending=8))

        async def session():
            async with service:
                op = await service.compile("alice", matrix, AMCMode.INV)
                assert op.grid == (_SIZE // _TILE, _SIZE // _TILE)
                batch = rng.uniform(-1, 1, size=(_SIZE, _COLUMNS))
                await service.solve("alice", op, batch)  # warm ranging
                # One mixed-tenant window: refining batch + plain sibling.
                return await asyncio.gather(
                    service.solve("alice", op, batch, rtol=_RTOL),
                    service.solve("bob", op, rng.uniform(-1, 1, _SIZE)),
                )

        results = asyncio.run(session())
    finally:
        tracer.close()
        trace.set_tracer(previous)

    refined, plain = results
    assert refined.refined_residual <= _RTOL

    # -- span tree: refine_step nests under solve under dispatch under window.
    spans = tracer.spans()
    by_id = {span.span_id: span for span in spans}
    refine_spans = [span for span in spans if span.name == "refine_step"]
    assert refine_spans, "the rtol solve must emit refine_step spans"
    chained = [
        span
        for span in refine_spans
        if _contains_chain(_ancestry(span, by_id), _REQUIRED_CHAIN)
    ]
    assert chained, (
        f"no refine_step span nests through {_REQUIRED_CHAIN}; got ancestries "
        f"{[_ancestry(s, by_id) for s in refine_spans[:3]]}"
    )
    names = {span.name for span in spans}
    for required in ("admit", "queue", "coalesce", "sweep", "scatter", "compile"):
        assert required in names, f"missing {required!r} span"

    # -- Chrome trace document: schema-valid, Perfetto-loadable.
    doc = json.loads(_TRACE_CHROME.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert len(events) == len(spans)
    assert any(e["name"] == "process_name" for e in metadata)
    for event in events:
        assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid", "cat", "args"}
        assert event["dur"] >= 0 and "span_id" in event["args"]

    # -- JSONL: one valid object per span.
    lines = _TRACE_JSONL.read_text().splitlines()
    assert len(lines) == len(spans)
    for line in lines:
        record = json.loads(line)
        assert {"name", "span_id", "parent_id", "start_us", "dur_us"} <= set(record)

    # -- per-request breakdown: closed arithmetic, queue wait attributed.
    breakdown = solve_breakdown(refined)
    time_pct = sum(row["time_pct"] for row in breakdown["components"])
    assert time_pct == pytest.approx(100.0, abs=_BREAKDOWN_PCT_TOLERANCE)
    assert breakdown["analog_time_s"] > 0
    assert breakdown["digital_time_s"] > 0
    assert breakdown["wait_time_s"] > 0  # serve-layer queue wait
    refinement = next(
        r for r in breakdown["components"] if r["component"] == "refinement"
    )
    assert refinement["time_s"] > 0  # the rtol contract's digital work
    plain_breakdown = solve_breakdown(plain)
    assert plain_breakdown["components"][3]["time_s"] == 0  # no refinement

    bench_payload["results"]["traced_serve_solve"] = {
        "spans": len(spans),
        "chrome_events": len(events),
        "jsonl_lines": len(lines),
        "refine_steps": refined.refine_steps,
        "chain_verified": list(_REQUIRED_CHAIN),
        "coalescing_factor": service.stats.coalescing_factor,
    }
    bench_payload["breakdown"] = window_breakdown(results)
    print(
        f"\ntraced serve solve: {len(spans)} spans, {refined.refine_steps} "
        f"refine steps, breakdown wait {breakdown['wait_time_s'] * 1e3:.2f} ms "
        f"/ analog {breakdown['analog_time_pct']:.1f}% "
        f"/ digital {breakdown['digital_time_pct']:.1f}%"
    )


def test_obs_disabled_overhead(bench_payload, best_of):
    """The disabled tracer's modeled cost stays under 2% of a tiled solve.

    Measured as (spans one traced solve emits) × (per-call cost of a
    disabled ``trace.span``) against the disabled solve's wall-clock —
    a deterministic composition, immune to run-to-run solver noise."""
    rng = np.random.default_rng(5)
    size, tile = 128, _TILE
    matrix = block_dominant(size, tile, rng=rng)
    batch = rng.uniform(-1, 1, size=(size, _COLUMNS))
    solver = _solver(num_macros=8)
    op = solver.compile(matrix, AMCMode.INV)
    op.solve(batch)  # warm ranging + resident circuits

    previous = trace.get_tracer()
    try:
        memory = trace.configure("memory")
        op.solve(batch, rtol=_RTOL)
        spans_per_solve = len(memory.spans())

        disabled = trace.configure(None)
        assert not disabled.enabled
        calls = 200_000
        start = time.perf_counter()
        for _ in range(calls):
            with trace.span("off", a=1):
                pass
        per_span_s = (time.perf_counter() - start) / calls
        solve_s = best_of(_REPEATS, lambda: op.solve(batch, rtol=_RTOL))
    finally:
        trace.set_tracer(previous)
    op.close()

    overhead_fraction = spans_per_solve * per_span_s / solve_s
    bench_payload["results"]["disabled_overhead"] = {
        "spans_per_solve": spans_per_solve,
        "disabled_span_ns": per_span_s * 1e9,
        "solve_seconds": solve_s,
        "disabled_overhead_fraction": overhead_fraction,
    }
    print(
        f"\ndisabled tracer: {per_span_s * 1e9:.0f} ns/span × "
        f"{spans_per_solve} spans vs {solve_s * 1e3:.1f} ms solve -> "
        f"{overhead_fraction * 100:.3f}% overhead"
    )
    assert overhead_fraction < _MAX_DISABLED_OVERHEAD
