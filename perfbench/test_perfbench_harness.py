"""Tests of the benchmark harness: statistics, load schedule, self-time
rollup, the timed backend, and a short smoke run of every workload.

They write no file and assert nothing about wall-clock speed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import workloads  # noqa: E402
from repro.core.backend import NumpyBackend  # noqa: E402
from repro.obs.trace import Span  # noqa: E402


def _span(name, start, end, thread=1, **attrs):
    sp = Span(name, 0, None, thread, start)
    sp.end_s = end
    sp.attrs.update(attrs)
    return sp


# -- statistics ----------------------------------------------------------------------


def test_percentile_matches_numpy_linear_interpolation():
    data = np.random.default_rng(0).exponential(size=101)
    for q in (0, 1, 50, 90, 99, 100):
        assert harness.percentile(data, q) == pytest.approx(np.percentile(data, q), rel=1e-12)
    assert harness.percentile([], 99) == 0.0
    assert harness.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        harness.percentile([1.0], 101)


def test_relative_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.8]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert harness.relative_spread(values) == pytest.approx((q3 - q1) / median)
    assert harness.relative_spread([5.0] * 10) == 0.0
    assert harness.relative_spread([5.0]) == 0.0


# -- load schedule -------------------------------------------------------------------


def test_poisson_schedule_fixes_the_count_and_is_seeded():
    a = harness.poisson_schedule(50.0, 20.0, np.random.default_rng(7))
    b = harness.poisson_schedule(50.0, 20.0, np.random.default_rng(7))
    c = harness.poisson_schedule(50.0, 20.0, np.random.default_rng(8))
    assert len(a) == 1000
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.diff(a) >= 0.0)
    assert a[0] >= 0.0 and a[-1] < 20.0
    # Exponential gaps: mean 1/rate, coefficient of variation near 1.
    gaps = np.diff(a)
    assert gaps.mean() == pytest.approx(1 / 50.0, rel=0.1)
    assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.15)
    with pytest.raises(ValueError):
        harness.poisson_schedule(0.0, 1.0, np.random.default_rng(0))


def test_latency_is_measured_from_the_due_time():
    # A stall delays the second request's send; its latency still counts
    # from when it was due, so the stall is charged to it.
    due = [0.0, 0.010, 0.020]
    done = [0.005, 0.050, 0.052]
    assert harness.due_latencies(due, done) == pytest.approx([0.005, 0.040, 0.032])
    with pytest.raises(ValueError):
        harness.due_latencies([0.0], [])


# -- self-time rollup ------------------------------------------------------------------


def test_self_times_charge_each_instant_to_the_innermost_span():
    spans = [
        _span("solve", 0.0, 10.0, grid="4x4"),
        _span("sweep", 1.0, 6.0),
        _span("engine_dispatch", 2.0, 3.0),
        _span("engine_dispatch", 4.0, 4.5),
        _span("refine_step", 6.0, 9.0),
        _span("sweep", 7.0, 8.0),
    ]
    owned = harness.self_times(spans)
    layers = harness.rollup(owned)
    assert layers["backend"] == pytest.approx(1.5)
    assert layers["grid_engine"] == pytest.approx(5.0 - 1.5 + 1.0)
    assert layers["refine"] == pytest.approx(2.0)
    assert layers["tiled"] == pytest.approx(10.0 - 5.0 - 3.0)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_self_times_split_threads_and_skip_wait_spans():
    spans = [
        _span("serve_window", 0.0, 10.0, thread=1),  # crosses awaits
        _span("queue", 0.0, 8.0, thread=1),  # waiting, not work
        _span("admit", 1.0, 1.5, thread=1),
        _span("dispatch", 2.0, 7.0, thread=2),
        _span("solve", 3.0, 6.0, thread=2),  # single-array handle
    ]
    owned = harness.self_times(spans)
    layers = harness.rollup(owned)
    assert layers == pytest.approx({"serve": 0.5 + 2.0, "operator": 3.0})
    clipped = harness.rollup(harness.self_times(spans, window=(2.5, 4.0)))
    assert clipped == pytest.approx({"serve": 0.5, "operator": 1.0})


def test_layer_names_follow_the_modules():
    assert harness.layer_of("solve", {"grid": "4x4"}) == "tiled"
    assert harness.layer_of("mvm", {"tiles": 1}) == "operator"
    assert harness.layer_of("serve_heal", {}) == "serve"
    assert harness.layer_of("program", {}) == "programming"
    assert harness.layer_of("canary", {}) == "other"


def test_host_profile_rows_sum_to_the_traced_wall():
    spans = [
        _span("solve", 0.0, 0.8, grid="4x4"),
        _span("sweep", 0.1, 0.5),
        _span("admit", 0.9, 0.95),
    ]
    rows = workloads.host_profile(spans, wall_s=2.0, units=2)
    total_ms = sum(
        v / 1e3 if k.endswith("_us") else v for k, v in rows.items() if k != "host.traced_wall_ms"
    )
    assert total_ms == pytest.approx(rows["host.traced_wall_ms"])
    assert rows["host.traced_wall_ms"] == pytest.approx(1000.0)
    assert rows["host.untraced_ms"] == pytest.approx((2.0 - 0.85) / 2 * 1e3)
    assert rows["serve.admit_self_us"] == pytest.approx(0.05 / 2 * 1e6)
    assert rows["serve.dispatch_self_ms"] == pytest.approx(0.0)
    # Windows clip the spans: only the parts inside them are owned.
    rows = workloads.host_profile(spans, wall_s=0.3, units=1, windows=[(0.0, 0.2), (0.9, 1.0)])
    assert rows["tiled.solve_self_ms"] == pytest.approx(100.0)
    assert rows["grid_engine.stage_self_ms"] == pytest.approx(100.0)
    assert rows["serve.admit_self_us"] == pytest.approx(0.05 * 1e6)
    assert rows["host.untraced_ms"] == pytest.approx(50.0)


# -- host speed ------------------------------------------------------------------------


def test_speed_factor_is_the_median_probe_over_the_reference(monkeypatch):
    assert harness.SpeedProbe()() > 0.0
    times = iter([0.5, 2.0, 1.0])
    monkeypatch.setattr(harness.SpeedProbe, "__call__", lambda self: next(times))
    assert harness.SpeedProbe().factor(3) == pytest.approx(1.0 / harness.REFERENCE_PROBE_S)


def test_each_call_is_scaled_by_the_factor_read_after_it():
    calls = workloads.Calls(walls=[0.2, 0.4, 0.3], factors=[1.0, 2.0, 1.5])
    assert calls.scaled() == pytest.approx([0.2, 0.2, 0.2])
    merged = calls.merged(workloads.Calls(walls=[0.1], factors=[0.5]))
    assert merged.scaled() == pytest.approx([0.2] * 4)


def test_serve_schedule_splits_into_consecutive_segments():
    s = workloads.SEGMENT_S
    offsets = (0.02 * s, 0.98 * s, 1.0 * s, 2.2 * s)
    plan = [workloads.Request("small", "small", np.zeros(16), offset=t) for t in offsets]
    churn = [(0.1 * s, None, []), (1.5 * s, None, [])]
    segments = workloads._segments(plan, churn, 2.4 * s)
    assert [[r.offset for r in reqs] for reqs, _ in segments] == [
        list(offsets[:2]), [offsets[2]], [offsets[3]]
    ]
    assert [[e[0] for e in events] for _, events in segments] == [[0.1 * s], [1.5 * s], []]


# -- timed backend ---------------------------------------------------------------------


def test_timed_backend_counts_calls_and_keeps_bits():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4, 4)) + 4 * np.eye(4)
    x = rng.normal(size=(3, 4, 2))
    inner = NumpyBackend()
    timed = harness.TimedBackend(inner)
    assert np.array_equal(timed.batched_matmul(a, x), inner.batched_matmul(a, x))
    assert np.array_equal(timed.batched_matmul(a, x, True), inner.batched_matmul(a, x, True))
    from scipy.linalg import lu_factor

    factors = [lu_factor(block) for block in a]
    lu = np.stack([f[0] for f in factors])
    piv = np.stack([f[1] for f in factors])
    assert np.array_equal(timed.batched_lu_solve(lu, piv, x), inner.batched_lu_solve(lu, piv, x))
    assert timed.matmul.calls == 2 and timed.lu_solve.calls == 1
    assert timed.matmul.seconds > 0.0 and timed.name == "timed-numpy"


# -- the benchmark definition -------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER


# -- smoke runs (a fraction of a second of measuring each) -----------------------------


@pytest.fixture
def quick(monkeypatch):
    """Two set-ups per run instead of the benchmark's seven."""
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)


def _check(outcome, names):
    assert set(names) <= set(outcome.metrics)
    assert all(outcome.checks.values()), outcome.checks
    assert outcome.attempted >= 1 and outcome.wrong == 0
    assert all(np.isfinite(outcome.metrics[n]) for n in names)


def test_smoke_refine256_counters_repeat_for_a_seed(quick):
    plain = workloads.REFINE256.run(seed=11, seconds=0.1, traced=False)
    traced = workloads.REFINE256.run(seed=11, seconds=0.1, traced=True)
    _check(plain, workloads.END_TO_END)
    _check(traced, workloads.PER_LAYER)
    assert {n: plain.metrics[n] for n in workloads.COUNTERS} == {
        n: traced.metrics[n] for n in workloads.COUNTERS
    }
    assert plain.metrics["refine.steps_per_solve"] > 0


def test_smoke_grid512_bypasses_refinement(quick):
    outcome = workloads.GRID512.run(seed=12, seconds=0.1, traced=True)
    _check(outcome, workloads.PER_LAYER)
    assert outcome.checks["refine_bypassed"]
    assert outcome.metrics["refine.step_self_ms"] == 0.0
    assert outcome.metrics["grid_engine.stage_self_ms"] > 0.0


def test_smoke_serve_mix(quick):
    outcome = workloads.WORKLOADS["serve_mix"].run(seed=13, seconds=1.0, traced=True)
    _check(outcome, workloads.PER_LAYER)
    assert outcome.checks["counters_repeatable"]
    assert outcome.metrics["serve.engine_calls_per_request"] > 0.0
    assert outcome.metrics["ranging.attempts_per_column"] >= 1.0
