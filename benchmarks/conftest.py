"""Shared fixtures for the figure-reproduction benchmarks.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the regenerated
rows/series of every paper figure.  Each benchmark both *times* the
operation (pytest-benchmark) and *prints* the data series the corresponding
figure plots, asserting the paper's qualitative shape.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from perfbench.harness import environment, rollup, self_times
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.obs import trace
from repro.programming.write_verify import VgEstimator
from repro.devices.constants import DEFAULT_STACK


_REPO_ROOT = Path(__file__).resolve().parents[1]


def pytest_configure(config):
    # Benchmarks live outside the default testpaths; ensure plugins see them.
    config.addinivalue_line("markers", "figure: paper figure reproduction")


@pytest.fixture(scope="session")
def chip_solver() -> GramcSolver:
    """One full-size 16×(128×128) chip shared by the figure benches."""
    return GramcSolver(
        pool=MacroPool(PoolConfig(), rng=np.random.default_rng(20250611)),
        rng=np.random.default_rng(11),
    )


@pytest.fixture(scope="session")
def estimator() -> VgEstimator:
    return VgEstimator(DEFAULT_STACK)


@pytest.fixture(scope="session")
def best_of():
    """Best-of-N wall-clock timer — robust against scheduler noise in CI.

    Shared by the perf smoke benches so the timing discipline (and any
    future warm-up handling) stays in one place.
    """
    import time

    def _best_of(repeats: int, run) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        return best

    return _best_of


@pytest.fixture(scope="session")
def traced_layers():
    """Run a call once under an in-memory tracer: its host self-time by
    layer (perfbench's ``layer_of``), in seconds, and its traced wall."""
    import time

    def _traced(run) -> tuple[dict[str, float], float]:
        previous = trace.get_tracer()
        tracer = trace.configure("memory")
        try:
            start = time.perf_counter()
            run()
            wall = time.perf_counter() - start
        finally:
            trace.set_tracer(previous)
        return rollup(self_times(tracer.spans())), wall

    return _traced


@pytest.fixture(scope="session")
def write_bench():
    """Write a ``BENCH_*.json`` artifact, with an ``env`` block — only
    when ``REPRO_WRITE_BENCH=1``.

    The committed artifacts are regenerated on purpose (the CI perf,
    obs and chaos smokes set the flag before their invariant gates); a
    plain test run measures and asserts but leaves tracked files alone.
    """

    def _write(path: Path, payload: dict) -> None:
        if os.environ.get("REPRO_WRITE_BENCH") != "1":
            return
        # The host and library facts the numbers were measured on — the
        # same block every repo-benchmark run prints.
        payload = {**payload, "env": environment(_REPO_ROOT, seed=None)}
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {path}")

    return _write
