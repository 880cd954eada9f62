"""The benchmark's three workloads and the metrics they report.

* ``refine256`` — closed loop, one caller: ``TiledOperator.solve(B,
  rtol=1e-10)`` on a 256×256 block-dominant operand (4×4 grid of 64-wide
  tiles, 32 RHS columns).  Refinement dominates the host time.
* ``grid512`` — closed loop, one caller: analog-only Jacobi solve on a
  512×512 operand (16×16 grid of 32-wide tiles, 64 RHS).  Refinement is
  bypassed; the stacked stage chain and kernel dispatches do the work.
* ``serve_mix`` — open loop into ``SolveService``: seeded Poisson arrivals
  from four tenants plus a churn tenant that compiles, uses and releases
  fresh operands.  The only workload that drives the serve, operator,
  ranging and programming layers under load.

Every workload builds its inputs from ``--seed`` alone, re-checks every
output in float64 outside the program, and reports host time from
``perf_counter`` plus the program's own modeled-hardware cost ledger.
End-to-end timings are stated at the reference host speed: each is
divided by the :class:`~harness.SpeedProbe` factor read next to it (after
every call on the closed loops, around every segment of ``serve_mix``).
Per-layer times are raw host time.
"""

from __future__ import annotations

import asyncio
import gc
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from harness import (
    WAIT_SPANS,
    SpeedProbe,
    TimedBackend,
    due_latencies,
    peak_rss_mb,
    percentile,
    poisson_schedule,
    rollup,
    self_times,
    span_self,
)
from repro.analog.topologies import AMCMode
from repro.core.backend import NumpyBackend
from repro.core.errors import GramcError
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.obs import trace
from repro.obs.cost import SolveCost
from repro.obs.report import solve_breakdown
from repro.programming.levels import LevelMap
from repro.serve import ServeConfig, ServiceOverloaded, SolveService, TenantQuota
from repro.serve.types import RequestTimeout
from repro.workloads.matrices import block_dominant, wishart

#: End-to-end metrics (name -> unit), reported with tracing off.
END_TO_END = {
    "setup_s": "s",
    "rhs_per_s": "1/s",
    "serve_p50_ms": "ms",
    "serve_tail_ms": "ms",
    "serve_rps": "1/s",
    "served_fraction": "fraction",
    "modeled_us_per_rhs": "us",
    "modeled_nj_per_rhs": "nJ",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (name -> unit), reported by the traced run.  Times and
#: counts are per solve call on the closed-loop workloads and per request
#: on ``serve_mix``; ``*_per_rhs`` are per right-hand-side column.
PER_LAYER = {
    "grid_engine.stage_self_ms": "ms",
    "grid_engine.dispatches_per_sweep": "count",
    "grid_engine.stack_rebuilds": "count",
    "backend.dispatch_self_ms": "ms",
    "backend.matmul_ms": "ms",
    "backend.matmul_calls": "count",
    "backend.lu_solve_ms": "ms",
    "backend.lu_solve_calls": "count",
    "backend.engine_macs_per_rhs": "count",
    "tiled.sweeps_per_solve": "count",
    "tiled.solve_self_ms": "ms",
    "refine.steps_per_solve": "count",
    "refine.dispatches_per_solve": "count",
    "refine.macs_per_rhs": "count",
    "refine.step_self_ms": "ms",
    "operator.solve_self_ms": "ms",
    "ranging.autorange_self_ms": "ms",
    "ranging.attempts_per_column": "count",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p99": "ms",
    "serve.coalescing_factor": "count",
    "serve.engine_calls_per_request": "count",
    "serve.chip_busy_frac": "fraction",
    "serve.admit_self_us": "us",
    "serve.coalesce_self_us": "us",
    "serve.scatter_self_us": "us",
    "serve.dispatch_self_ms": "ms",
    "serve.small_p99_ms": "ms",
    "serve.tiled_p99_ms": "ms",
    "serve.shed": "count",
    "serve.timeouts": "count",
    "serve.generator_late_ms_p99": "ms",
    "solver.compile_s": "s",
    "solver.compile_self_ms": "ms",
    "programming.write_pulses": "count",
    "programming.cells_programmed": "count",
    "programming.program_self_ms": "ms",
    "pool.reprogram_events": "count",
    "pool.evictions": "count",
    "converters.dac_conversions_per_rhs": "count",
    "converters.adc_conversions_per_rhs": "count",
    "analog.settling_us_per_rhs": "us",
    "host.untraced_ms": "ms",
    "host.traced_wall_ms": "ms",
    "host.other_spans_ms": "ms",
    "host.trace_overhead_frac": "fraction",
}

#: Counter-type metrics: simulated quantities that must repeat exactly for
#: a seed on the closed-loop workloads (``serve_mix`` coalesces by arrival
#: timing, so its counters are load-dependent by design).
COUNTERS = (
    "grid_engine.dispatches_per_sweep",
    "grid_engine.stack_rebuilds",
    "backend.matmul_calls",
    "backend.lu_solve_calls",
    "backend.engine_macs_per_rhs",
    "tiled.sweeps_per_solve",
    "refine.steps_per_solve",
    "refine.dispatches_per_solve",
    "refine.macs_per_rhs",
    "programming.write_pulses",
    "programming.cells_programmed",
    "converters.dac_conversions_per_rhs",
    "converters.adc_conversions_per_rhs",
    "analog.settling_us_per_rhs",
    "modeled_us_per_rhs",
    "modeled_nj_per_rhs",
)

CLOSED_LOOP_TAIL = 90
"""Tail percentile of the closed loops: a 30 s run holds about 90 calls,
and p90 is the highest percentile with about ten calls beyond it."""

OPEN_LOOP_TAIL = 99
"""Tail percentile of ``serve_mix``: a run holds over 1000 requests."""

SETUP_REPEATS = 7
"""Fresh chips built per run; ``setup_s`` is their median."""

COUNTER_CALLS = 3
"""Closed loops take their counter-type metrics from this many first
calls, so a seed fixes them exactly whatever the run length."""

# Rows of the traced host profile: (metric, span names, scale to the unit).
_PROFILE_ROWS = (
    ("serve.admit_self_us", ("admit",), 1e6),
    ("serve.coalesce_self_us", ("coalesce",), 1e6),
    ("serve.scatter_self_us", ("scatter",), 1e6),
)
_LAYER_ROWS = (
    ("serve.dispatch_self_ms", "serve"),
    ("operator.solve_self_ms", "operator"),
    ("ranging.autorange_self_ms", "ranging"),
    ("tiled.solve_self_ms", "tiled"),
    ("grid_engine.stage_self_ms", "grid_engine"),
    ("backend.dispatch_self_ms", "backend"),
    ("refine.step_self_ms", "refine"),
    ("solver.compile_self_ms", "solver"),
    ("programming.program_self_ms", "programming"),
    ("host.other_spans_ms", "other"),
)


@dataclass
class Outcome:
    """What one run hands back to the runner."""

    attempted: int = 0
    failed: int = 0
    """Requests that did not deliver a checked answer: structured
    ``GramcError`` outcomes plus wrong answers."""
    wrong: int = 0
    """Answers returned without an error that failed the float64 check."""
    checks: dict[str, bool] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)

    def add(self, calls: "Calls") -> None:
        self.attempted += len(calls.walls)
        self.failed += calls.failed
        self.wrong += calls.wrong


class Traced:
    """Install an in-memory tracer for a block; restore the previous one."""

    def __enter__(self) -> trace.Tracer:
        self._previous = trace.get_tracer()
        self.tracer = trace.configure("memory")
        return self.tracer

    def __exit__(self, *exc: object) -> None:
        trace.set_tracer(self._previous)


CHIP_SEED = 20260808
"""Every run simulates the same chip (device variation and noise streams);
the workload seed draws only the inputs the chip is given."""


def _chip(pool: PoolConfig, backend: TimedBackend) -> GramcSolver:
    rng_pool, rng_solver = (
        np.random.default_rng(child)
        for child in np.random.SeedSequence(CHIP_SEED).spawn(2)
    )
    return GramcSolver(pool=MacroPool(pool, rng=rng_pool), rng=rng_solver, backend=backend)


def _counters(cost: SolveCost) -> tuple:
    """The simulated part of a cost ledger (host and queue time left out)."""
    return tuple(
        (k, v) for k, v in sorted(cost.as_dict().items()) if k not in ("host_s", "queue_wait_s")
    )


def _modeled(cost: SolveCost, rhs: int) -> dict[str, float]:
    """Modeled hardware time and energy per RHS, excluding queue wait
    (host time, not hardware time)."""
    breakdown = solve_breakdown(cost)
    rhs = max(rhs, 1)
    return {
        "modeled_us_per_rhs": (breakdown["total_time_s"] - breakdown["wait_time_s"]) / rhs * 1e6,
        "modeled_nj_per_rhs": breakdown["total_energy_J"] / rhs * 1e9,
        "converters.dac_conversions_per_rhs": cost.dac_conversions / rhs,
        "converters.adc_conversions_per_rhs": cost.adc_conversions / rhs,
        "analog.settling_us_per_rhs": cost.analog_settling_s / rhs * 1e6,
        "backend.engine_macs_per_rhs": cost.engine_macs / rhs,
        "refine.macs_per_rhs": cost.refine_macs / rhs,
    }


def host_profile(spans, wall_s: float, units: int, windows=None) -> dict[str, float]:
    """Per-layer self time per unit of work, plus ``host.untraced_ms``.

    ``wall_s`` is the traced wall-clock (summed over the threads that ran
    spans); ``windows``, when given, are the ``(start, end)`` intervals it
    covers, and spans are clipped to them.  ``host.untraced_ms`` is the
    part of the wall no span owns, so the rows add up to
    ``host.traced_wall_ms`` by definition."""
    owned: dict[tuple[str, str], float] = {}
    for window in windows or (None,):
        for key, seconds in self_times(spans, window).items():
            owned[key] = owned.get(key, 0.0) + seconds
    layers = rollup(owned)
    units = max(units, 1)
    rows: dict[str, float] = {}
    for metric, names, scale in _PROFILE_ROWS:
        rows[metric] = sum(span_self(owned, n) for n in names) / units * scale
    for metric, layer in _LAYER_ROWS:
        seconds = layers.get(layer, 0.0)
        if layer == "serve":
            seconds -= sum(span_self(owned, n) for _, names, _ in _PROFILE_ROWS for n in names)
        rows[metric] = seconds / units * 1e3
    rows["host.untraced_ms"] = (wall_s - sum(layers.values())) / units * 1e3
    rows["host.traced_wall_ms"] = wall_s / units * 1e3
    return rows


# -- closed-loop workloads ------------------------------------------------------


@dataclass
class Direct:
    """A closed-loop workload: one caller, one solve call after another."""

    name: str
    size: int
    tile: int
    columns: int
    pool: PoolConfig
    coupling: float
    method: str
    rtol: "float | None"
    max_error: float = 0.05
    """Analog-only check: per-column error against ``np.linalg.solve``."""

    def inputs(self, seed: int):
        rng_in = np.random.default_rng(seed)
        matrix = block_dominant(self.size, self.tile, coupling=self.coupling, rng=rng_in)
        batch = rng_in.uniform(-1.0, 1.0, size=(self.size, self.columns))
        return matrix, batch

    def build(self, matrix: np.ndarray, batch: np.ndarray):
        """Fresh chip → compile → programming + first warm result."""
        backend = TimedBackend(NumpyBackend())
        start = time.perf_counter()
        solver = _chip(self.pool, backend)
        compile_start = time.perf_counter()
        op = solver.compile(matrix, AMCMode.INV, tile=self.tile)
        compile_s = time.perf_counter() - compile_start
        first = self.call(op, batch)
        setup_s = time.perf_counter() - start
        fingerprint = (
            _counters(first.cost),
            first.sweeps,
            first.refine_steps,
            first.engine_dispatches,
            backend.matmul.calls,
            backend.lu_solve.calls,
        )
        return solver, backend, op, setup_s, compile_s, fingerprint

    def call(self, op, batch):
        return op.solve(batch, method=self.method, rtol=self.rtol)

    def column_ok(self, matrix, batch, reference, value) -> np.ndarray:
        """Independent float64 re-check of every column."""
        if self.rtol is not None:
            residual = np.linalg.norm(batch - matrix @ value, axis=0)
            return residual <= self.rtol * np.linalg.norm(batch, axis=0)
        error = np.linalg.norm(value - reference, axis=0)
        return error <= self.max_error * np.linalg.norm(reference, axis=0)

    def loop(
        self, op, matrix, batch, reference, seconds: float, min_calls: int, probe: SpeedProbe
    ) -> "Calls":
        """Call until ``seconds`` have passed (and at least ``min_calls``),
        reading the host's speed after every call."""
        calls = Calls()
        deadline = time.perf_counter() + seconds
        while len(calls.walls) < min_calls or time.perf_counter() < deadline:
            start = time.perf_counter()
            try:
                result = self.call(op, batch)
            except GramcError:
                result = None
            calls.walls.append(time.perf_counter() - start)
            calls.factors.append(probe.factor())
            if result is None:
                calls.failed += 1
                continue
            good = int(self.column_ok(matrix, batch, reference, result.value).sum())
            calls.ok_columns += good
            calls.failed += good < self.columns
            calls.wrong += good < self.columns
            calls.sweeps += result.sweeps
            calls.stack_rebuilds += result.stack_rebuilds or 0
        return calls

    def run(self, seed: int, seconds: float, traced: bool) -> Outcome:
        matrix, batch = self.inputs(seed)
        reference = np.linalg.solve(matrix, batch)
        probe = SpeedProbe()
        out = Outcome()
        setups, compiles, fingerprints = [], [], []
        for _ in range(SETUP_REPEATS):
            if setups:
                op.close()
                del solver, backend, op
            gc.collect()
            solver, backend, op, setup_s, compile_s, fingerprint = self.build(matrix, batch)
            setups.append(setup_s / probe.factor())
            compiles.append(compile_s)
            fingerprints.append(fingerprint)
        out.checks["counters_repeatable"] = all(f == fingerprints[0] for f in fingerprints)
        setup_cost = solver.cost.snapshot()
        programs0, evictions0 = op.program_events, solver.pool.evictions
        kernels0 = backend.snapshot()
        phase = seconds / 2 if traced else seconds

        # Counter window: the first calls, whose simulated counts a seed
        # fixes exactly.  The timed loop then carries on for ``phase``.
        refine0, dispatch0 = solver.refine_dispatches, solver.engine_dispatches
        counted = self.loop(op, matrix, batch, reference, 0.0, COUNTER_CALLS, probe)
        cost = solver.cost.delta(setup_cost)
        refine_dispatches = solver.refine_dispatches - refine0
        dispatches = solver.engine_dispatches - dispatch0
        kernels = backend.snapshot()
        timed = counted.merged(self.loop(op, matrix, batch, reference, phase, 0, probe))
        kernels1 = backend.snapshot()
        out.add(timed)

        k = COUNTER_CALLS
        m = out.metrics
        m["setup_s"] = statistics.median(setups)
        # One caller: throughput is the reciprocal of the typical call.
        # The median keeps a neighbour's burst on a shared host from
        # moving it; the tail reports such bursts separately.
        n = len(timed.walls)
        scaled = timed.scaled()
        median_s = statistics.median(scaled)
        m["rhs_per_s"] = timed.ok_columns / n / median_s
        m["serve_p50_ms"] = median_s * 1e3
        m["serve_tail_ms"] = percentile(scaled, CLOSED_LOOP_TAIL) * 1e3
        m["serve_rps"] = 1.0 / median_s
        m["served_fraction"] = (n - timed.failed) / n
        m.update(_modeled(cost, k * self.columns))
        m["peak_rss_mb"] = peak_rss_mb()

        m["grid_engine.dispatches_per_sweep"] = dispatches / max(counted.sweeps, 1)
        m["grid_engine.stack_rebuilds"] = counted.stack_rebuilds / k
        m["backend.matmul_calls"] = (kernels[0].calls - kernels0[0].calls) / k
        m["backend.lu_solve_calls"] = (kernels[1].calls - kernels0[1].calls) / k
        m["backend.matmul_ms"] = (kernels1[0].seconds - kernels0[0].seconds) / n * 1e3
        m["backend.lu_solve_ms"] = (kernels1[1].seconds - kernels0[1].seconds) / n * 1e3
        m["tiled.sweeps_per_solve"] = counted.sweeps / k
        m["refine.steps_per_solve"] = cost.refine_steps / k
        m["refine.dispatches_per_solve"] = refine_dispatches / k
        m["solver.compile_s"] = statistics.median(compiles)
        m["programming.write_pulses"] = setup_cost.write_pulses
        m["programming.cells_programmed"] = setup_cost.cells_programmed
        m["ranging.attempts_per_column"] = 0.0  # single-array handles bypassed
        for name in PER_LAYER:
            if name.startswith("serve."):
                m[name] = 0.0  # the serve layer is bypassed

        if traced:
            with Traced() as tracer:
                traced_calls = self.loop(
                    op, matrix, batch, reference, phase, COUNTER_CALLS, probe
                )
                spans = tracer.spans()
            out.add(traced_calls)
            m.update(host_profile(spans, sum(traced_calls.walls), len(traced_calls.walls)))
            m["host.trace_overhead_frac"] = (
                statistics.median(traced_calls.scaled()) / median_s - 1.0
            )
        m["pool.reprogram_events"] = op.program_events - programs0
        m["pool.evictions"] = solver.pool.evictions - evictions0
        if self.rtol is None:
            out.checks["refine_bypassed"] = not any(
                m.get(name) for name in PER_LAYER if name.startswith("refine.")
            )
        op.close()
        return out


@dataclass
class Calls:
    """What a run of closed-loop calls produced."""

    walls: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    """Host-speed factor the probe read right after each call."""
    ok_columns: int = 0
    failed: int = 0
    wrong: int = 0
    sweeps: int = 0
    stack_rebuilds: int = 0

    def scaled(self) -> list[float]:
        """Each call's wall seconds at the reference host speed."""
        return [wall / factor for wall, factor in zip(self.walls, self.factors)]

    def merged(self, other: "Calls") -> "Calls":
        return Calls(
            self.walls + other.walls,
            self.factors + other.factors,
            self.ok_columns + other.ok_columns,
            self.failed + other.failed,
            self.wrong + other.wrong,
            self.sweeps + other.sweeps,
            self.stack_rebuilds + other.stack_rebuilds,
        )


REFINE256 = Direct(
    name="refine256",
    size=256,
    tile=64,
    columns=32,
    # 40 macros of 64×64 with an 8-bit level map: the 4×4 grid's analog
    # floor is ~4e-2, so each solve refines through ~8 steps to 1e-10.
    pool=PoolConfig(num_macros=40, rows=64, cols=64, level_map=LevelMap(num_levels=256)),
    coupling=0.04,
    method="gauss-seidel",
    rtol=1e-10,
)

GRID512 = Direct(
    name="grid512",
    size=512,
    tile=32,
    columns=64,
    # 272 macros of 128×128: the 16×16 grid needs 240 coupling + 16
    # diagonal tiles.  Default (noisy) physics; weak couplings keep the
    # Jacobi floor under the 5 % per-column error bar.
    pool=PoolConfig(num_macros=272, rows=128, cols=128, level_map=LevelMap(num_levels=256)),
    coupling=0.02,
    method="jacobi",
    rtol=None,
)


# -- open-loop serve workload -----------------------------------------------------

SERVE_RATE_HZ = 50.0
"""Offered load of ``serve_mix`` at the reference host speed: the chip
thread is a fifth busy (``serve.chip_busy_frac``), and a 30 s run
carries 1500 requests, so 15 lie beyond p99."""

WINDOW_S = 0.002
"""The service's coalescing window at the reference host speed."""

SEGMENT_S = 2.5
"""``serve_mix`` replays its schedule in segments of this many schedule
seconds, each drained before the host's speed is read again.  Arrival
times and the coalescing window are stretched by the mean speed factor
of the set-ups, so the chip is equally loaded whatever the host's
speed; the mean of the readings around the segments states the
latencies at the reference speed.  The host flips between a fast and a
~35 % slower state every few seconds, so a single reading is bimodal;
only means over several seconds are steady enough to scale by."""

SEGMENT_PROBES = 3
"""Probe runs per speed reading between segments (about 0.1 s)."""

LEAD_S = 0.05
"""Schedule seconds between a segment's start and its first due time."""

SERVE_RTOL = 1e-8
ANALOG_TOL = 0.1
"""Check for requests without ``rtol``: relative error of the analog answer."""

#: One block of 20 arrivals: exact mix proportions so every seed offers
#: the same work.  The tiled refine (5 %) closes each block and the rest
#: are shuffled per block, so the long tiled refines arrive about every
#: 0.4 s instead of in seed-dependent clusters that would swing the tail.
_MIX = ("small",) * 7 + ("inv64",) * 3 + ("inv64_rtol",) * 3 + ("mvm64",) * 6
_MIX_TAIL = ("tiled",)

CATALOGUE_SEED = 20250611
"""The tenants' resident operands are a fixed catalogue (they are the
deployment, not the traffic); the workload seed draws the traffic:
arrival times, mix order, RHS payloads and the churn operands."""

CHURN_PERIOD_S = 1.0
CHURN_MVMS = 3

_TENANT = {
    "small": "t-small",
    "inv64": "t-inv64",
    "inv64_rtol": "t-inv64",
    "mvm64": "t-mvm64",
    "tiled": "t-tiled",
    "churn": "t-churn",
}


@dataclass
class Request:
    """One scheduled request and what became of it."""

    kind: str
    operand: str
    payload: np.ndarray
    offset: float = 0.0
    """When the request is due, in reference seconds from the schedule's start."""
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    result: object = None
    error: "GramcError | None" = None
    handle: object = None
    """Churn requests only: the freshly compiled handle they target."""
    matrix: "np.ndarray | None" = None
    """Churn requests only: the operand behind ``handle``."""
    ok: bool = False


@dataclass
class Replay:
    """What one replay of a schedule produced."""

    issued: list[Request] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    """Wall-clock ``(start, end)`` of each segment."""
    scale: float = 1.0
    """Host-speed factor the schedule was stretched by."""
    factor: float = 1.0
    """Host-speed factor of the replay: the mean of the readings taken
    before, between and after the segments."""
    cpu_s: float = 0.0
    """Process CPU seconds inside the segments (the probes left out)."""

    @property
    def schedule_s(self) -> float:
        """The segments' summed wall time in schedule seconds."""
        return sum(end - start for start, end in self.windows) / self.scale


def _serve_operands(rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {
        "small": wishart(16, rng=rng) + 0.6 * np.eye(16),
        "inv64": block_dominant(64, 64, rng=rng),
        "mvm64": rng.uniform(-1.0, 1.0, size=(64, 64)),
        "tiled": block_dominant(256, 64, rng=rng),
    }


def _operand_of(kind: str) -> str:
    return "inv64" if kind == "inv64_rtol" else kind


def _serve_plan(rng: np.random.Generator, seconds: float, operands) -> list[Request]:
    offsets = poisson_schedule(SERVE_RATE_HZ, seconds, rng)
    kinds: list[str] = []
    while len(kinds) < len(offsets):
        kinds.extend(rng.permutation(_MIX))
        kinds.extend(_MIX_TAIL)
    plan = []
    for offset, kind in zip(offsets, kinds):
        n = operands[_operand_of(kind)].shape[0]
        plan.append(Request(kind, _operand_of(kind), rng.uniform(-1.0, 1.0, n), offset=offset))
    return plan


def _churn_plan(rng: np.random.Generator, seconds: float) -> list[tuple[float, np.ndarray, list[np.ndarray]]]:
    times = np.arange(CHURN_PERIOD_S / 2, seconds, CHURN_PERIOD_S)
    return [
        (
            float(t),
            rng.uniform(-1.0, 1.0, size=(64, 64)),
            [rng.uniform(-1.0, 1.0, 64) for _ in range(CHURN_MVMS)],
        )
        for t in times
    ]


def _segments(plan: list[Request], churn, seconds: float) -> list[tuple[list, list]]:
    """Split a schedule of ``seconds`` into consecutive ``SEGMENT_S`` slices
    of (requests, churn events)."""
    count = max(1, math.ceil(seconds / SEGMENT_S))
    requests: list[list] = [[] for _ in range(count)]
    events: list[list] = [[] for _ in range(count)]
    for req in plan:
        requests[min(int(req.offset // SEGMENT_S), count - 1)].append(req)
    for event in churn:
        events[min(int(event[0] // SEGMENT_S), count - 1)].append(event)
    return list(zip(requests, events))


def _request_ok(req: Request, matrix: np.ndarray) -> bool:
    """Independent float64 check of one served answer."""
    value = req.result.value
    if req.kind == "mvm64" or req.kind == "churn":
        reference = matrix @ req.payload
        return np.linalg.norm(value - reference) <= ANALOG_TOL * np.linalg.norm(reference)
    if req.kind in ("inv64_rtol", "tiled"):
        residual = np.linalg.norm(req.payload - matrix @ value)
        return residual <= SERVE_RTOL * np.linalg.norm(req.payload)
    reference = np.linalg.solve(matrix, req.payload)
    return np.linalg.norm(value - reference) <= ANALOG_TOL * np.linalg.norm(reference)


def _program_events(ops) -> int:
    """Programming events of the long-lived handles (tiled grids count
    per tile handle)."""
    return sum(
        op.program_events if hasattr(op, "program_events") else op.program_count
        for op in ops.values()
    )


class ServeMix:
    name = "serve_mix"
    pool = PoolConfig(num_macros=40, level_map=LevelMap(num_levels=256))

    async def _submit(self, service, ops, req: Request) -> None:
        tenant = _TENANT[req.kind]
        op = req.handle if req.kind == "churn" else ops[req.operand]
        req.sent = time.perf_counter()
        try:
            if req.kind in ("mvm64", "churn"):
                req.result = await service.mvm(tenant, op, req.payload)
            else:
                rtol = SERVE_RTOL if req.kind in ("inv64_rtol", "tiled") else None
                req.result = await service.solve(tenant, op, req.payload, rtol=rtol)
        except GramcError as error:
            req.error = error
        req.done = time.perf_counter()

    async def _setup(self, operands, warm: dict[str, Request]):
        backend = TimedBackend(NumpyBackend())
        start = time.perf_counter()
        solver = _chip(self.pool, backend)
        service = SolveService(
            solver, ServeConfig(window_s=WINDOW_S, max_pending=4096, default_timeout_s=60.0)
        )
        for tenant in set(_TENANT.values()):
            service.register_tenant(tenant, TenantQuota(max_pending=2048))
        await service.start()
        compile_start = time.perf_counter()
        ops = {
            "small": await service.compile("t-small", operands["small"], AMCMode.INV),
            "inv64": await service.compile("t-inv64", operands["inv64"], AMCMode.INV),
            "mvm64": await service.compile("t-mvm64", operands["mvm64"], AMCMode.MVM),
            "tiled": await service.compile("t-tiled", operands["tiled"], AMCMode.INV),
        }
        compile_s = time.perf_counter() - compile_start
        for req in warm.values():
            await self._submit(service, ops, req)
        setup_s = time.perf_counter() - start
        fingerprint = tuple(
            (kind, None if req.result is None else _counters(req.result.cost))
            for kind, req in sorted(warm.items())
        )
        return service, solver, backend, ops, setup_s, compile_s, fingerprint

    async def _segment(self, service, ops, requests, events, start, origin, scale):
        """Replay one segment open-loop; return the requests it issued."""
        issued: list[Request] = []
        tasks: list[asyncio.Task] = []

        async def churner():
            for at, matrix, vectors in events:
                due = start + (at - origin) * scale
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                handle = await service.compile("t-churn", matrix, AMCMode.MVM)
                reqs = [
                    Request("churn", "churn", v, due=due, handle=handle, matrix=matrix)
                    for v in vectors
                ]
                await asyncio.gather(*(self._submit(service, ops, r) for r in reqs))
                issued.extend(reqs)
                await service.release("t-churn", handle)

        churn_task = asyncio.create_task(churner())
        for req in requests:
            req.due = start + (req.offset - origin) * scale
            delay = req.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(self._submit(service, ops, req)))
            issued.append(req)
        await asyncio.gather(*tasks)
        await churn_task
        return issued

    async def _replay(
        self, service, ops, plan, churn, seconds: float, probe: SpeedProbe, scale: float
    ) -> Replay:
        """Replay a schedule segment by segment, stretched by ``scale`` and
        reading the host's speed before, between and after the segments."""
        replay = Replay(scale=scale)
        service.config.window_s = WINDOW_S * scale
        readings = [probe.factor(SEGMENT_PROBES)]
        for k, (requests, events) in enumerate(_segments(plan, churn, seconds)):
            cpu0 = time.process_time()
            start = time.perf_counter() + LEAD_S * scale
            issued = await self._segment(
                service, ops, requests, events, start, k * SEGMENT_S, scale
            )
            replay.windows.append((start, time.perf_counter()))
            replay.cpu_s += time.process_time() - cpu0
            replay.issued += issued
            readings.append(probe.factor(SEGMENT_PROBES))
        replay.factor = statistics.fmean(readings)
        return replay

    def _collect(self, replay: Replay, operands, out: Outcome) -> dict:
        """Check every answer; return the load-phase statistics."""
        issued = replay.issued
        completed = [r for r in issued if r.result is not None]
        for req in completed:
            matrix = req.matrix if req.kind == "churn" else operands[req.operand]
            req.ok = bool(_request_ok(req, matrix))
        ok = sum(req.ok for req in issued)
        out.attempted += len(issued)
        out.failed += len(issued) - ok
        out.wrong += len(completed) - sum(req.ok for req in completed)
        raw = due_latencies([r.due for r in completed], [r.done for r in completed])
        return {
            "issued": issued,
            "completed": completed,
            "ok": ok,
            "latencies": [lat / replay.factor for lat in raw],
        }

    async def _main(self, seed: int, seconds: float, traced: bool) -> Outcome:
        operands = _serve_operands(np.random.default_rng(CATALOGUE_SEED))
        rng_in = np.random.default_rng(seed)
        warm_kinds = ("small", "inv64", "inv64_rtol", "mvm64", "tiled")
        warm_payloads = {
            kind: rng_in.uniform(-1.0, 1.0, operands[_operand_of(kind)].shape[0])
            for kind in warm_kinds
        }
        phase = seconds / 2 if traced else seconds
        plans = [_serve_plan(rng_in, phase, operands) for _ in range(2 if traced else 1)]
        churns = [_churn_plan(rng_in, phase) for _ in plans]
        probe = SpeedProbe()

        out = Outcome()
        setups, factors, compiles, fingerprints, warm_ok = [], [], [], [], []
        for i in range(SETUP_REPEATS):
            gc.collect()
            warm = {k: Request(k, _operand_of(k), p) for k, p in warm_payloads.items()}
            built = await self._setup(operands, warm)
            service, solver, backend, ops, setup_s, compile_s, fingerprint = built
            factors.append(probe.factor())
            setups.append(setup_s / factors[-1])
            compiles.append(compile_s)
            fingerprints.append(fingerprint)
            warm_ok += [
                r.result is not None and _request_ok(r, operands[r.operand])
                for r in warm.values()
            ]
            if i < SETUP_REPEATS - 1:
                await service.close()
        out.checks["warm_results_correct"] = all(warm_ok)
        out.checks["counters_repeatable"] = all(f == fingerprints[0] for f in fingerprints)

        try:
            cost0 = solver.cost.snapshot()
            refine0 = solver.refine_dispatches
            stats = service.stats
            calls0, cols0, busy0 = stats.engine_calls, stats.coalesced_columns, stats.dispatch_seconds
            kernels0 = backend.snapshot()
            programs0 = _program_events(ops)
            evictions0 = solver.pool.evictions
            scale = statistics.fmean(factors)
            replay = await self._replay(service, ops, plans[0], churns[0], phase, probe, scale)
            load = self._collect(replay, operands, out)
            kernels1 = backend.snapshot()
            ledger = solver.cost.delta(cost0)
            refine_dispatches = solver.refine_dispatches - refine0
            calls = stats.engine_calls - calls0
            columns = stats.coalesced_columns - cols0
            busy = stats.dispatch_seconds - busy0

            if traced:
                with Traced() as tracer:
                    replay2 = await self._replay(
                        service, ops, plans[1], churns[1], phase, probe, scale
                    )
                    spans = tracer.spans()
                self._collect(replay2, operands, out)
                threads = {sp.thread_id for sp in spans if sp.name not in WAIT_SPANS}
                wall = sum(end - start for start, end in replay2.windows)
                rows = host_profile(
                    spans, wall * len(threads), len(replay2.issued), windows=replay2.windows
                )
                overhead = (replay2.cpu_s / len(replay2.issued)) / (
                    replay.cpu_s / len(replay.issued)
                ) - 1.0
            programs1 = _program_events(ops)
            evictions1 = solver.pool.evictions
        finally:
            await service.close()

        m = out.metrics
        completed = load["completed"]
        requests = len(load["issued"])
        m["setup_s"] = statistics.median(setups)
        # Per second of the offered schedule: the offered rate while the
        # service keeps up, lower once a backlog builds.
        m["rhs_per_s"] = load["ok"] / replay.schedule_s
        m["serve_p50_ms"] = percentile(load["latencies"], 50) * 1e3
        m["serve_tail_ms"] = percentile(load["latencies"], OPEN_LOOP_TAIL) * 1e3
        m["serve_rps"] = len(completed) / replay.schedule_s
        m["served_fraction"] = load["ok"] / requests
        request_cost = sum((r.result.cost for r in completed), SolveCost())
        m.update(_modeled(request_cost, len(completed)))
        m["peak_rss_mb"] = peak_rss_mb()

        refined = [r for r in completed if r.kind in ("inv64_rtol", "tiled")]
        tiled = [r for r in completed if r.kind == "tiled"]
        small = [r for r in completed if r.kind != "tiled"]
        sweeps = sum(r.result.sweeps or 0 for r in tiled)
        waits = [r.result.cost.queue_wait_s for r in completed]
        m["grid_engine.dispatches_per_sweep"] = (
            sum(r.result.engine_dispatches or 0 for r in tiled) / sweeps if sweeps else 0.0
        )
        m["grid_engine.stack_rebuilds"] = sum(r.result.stack_rebuilds or 0 for r in tiled) / requests
        m["backend.matmul_calls"] = (kernels1[0].calls - kernels0[0].calls) / requests
        m["backend.lu_solve_calls"] = (kernels1[1].calls - kernels0[1].calls) / requests
        m["backend.matmul_ms"] = (kernels1[0].seconds - kernels0[0].seconds) / requests * 1e3
        m["backend.lu_solve_ms"] = (kernels1[1].seconds - kernels0[1].seconds) / requests * 1e3
        m["tiled.sweeps_per_solve"] = sweeps / len(tiled) if tiled else 0.0
        m["refine.steps_per_solve"] = (
            statistics.fmean(r.result.refine_steps or 0 for r in refined) if refined else 0.0
        )
        m["refine.dispatches_per_solve"] = refine_dispatches / len(refined) if refined else 0.0
        # Ranging attempts of single-array answers that were not refined
        # (a refined answer folds its correction solves' attempts in).
        ranged = [r.result.attempts for r in small if r.kind != "inv64_rtol"]
        m["ranging.attempts_per_column"] = statistics.fmean(ranged) if ranged else 0.0
        m["serve.queue_wait_ms_p50"] = percentile(waits, 50) * 1e3
        m["serve.queue_wait_ms_p99"] = percentile(waits, 99) * 1e3
        m["serve.coalescing_factor"] = columns / calls if calls else 0.0
        m["serve.engine_calls_per_request"] = calls / requests
        m["serve.chip_busy_frac"] = busy / sum(end - start for start, end in replay.windows)
        lat = {id(r): r.done - r.due for r in completed}
        m["serve.small_p99_ms"] = percentile([lat[id(r)] for r in small], 99) * 1e3
        m["serve.tiled_p99_ms"] = percentile([lat[id(r)] for r in tiled], 99) * 1e3
        m["serve.shed"] = sum(isinstance(r.error, ServiceOverloaded) for r in load["issued"])
        m["serve.timeouts"] = sum(isinstance(r.error, RequestTimeout) for r in load["issued"])
        m["serve.generator_late_ms_p99"] = percentile(
            [r.sent - r.due for r in load["issued"] if r.kind != "churn"], 99
        ) * 1e3
        m["solver.compile_s"] = statistics.median(compiles)
        m["programming.write_pulses"] = ledger.write_pulses
        m["programming.cells_programmed"] = ledger.cells_programmed
        m["pool.reprogram_events"] = programs1 - programs0
        m["pool.evictions"] = evictions1 - evictions0
        if traced:
            m.update(rows)
            m["host.trace_overhead_frac"] = overhead
        return out

    def run(self, seed: int, seconds: float, traced: bool) -> Outcome:
        return asyncio.run(self._main(seed, seconds, traced))


WORKLOADS = {
    "refine256": REFINE256,
    "grid512": GRID512,
    "serve_mix": ServeMix(),
}
