"""Measurement helpers for the repo benchmark: statistics, load schedule,
span self-time rollup, the timed backend wrapper, the host-speed probe
and the environment block.

Everything here observes the program from outside: it wraps the public
``Backend`` hook, reads the spans the in-memory tracer already records,
and times calls with ``time.perf_counter``.  Nothing in ``src/`` is
changed or monkey-patched.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# -- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0–100) of ``values``.

    Same definition as ``numpy.percentile``'s default; an empty sample
    reads 0.0 so bypassed layers report zero instead of raising."""
    data = sorted(float(v) for v in values)
    if not data:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    position = (len(data) - 1) * q / 100.0
    lo = math.floor(position)
    hi = math.ceil(position)
    return data[lo] + (data[hi] - data[lo]) * (position - lo)


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them (the
    exclusive method), which is how a run-to-run spread is judged."""
    data = [float(v) for v in values]
    if len(data) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(data, n=4)
    if median == 0.0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


# -- open-loop load -------------------------------------------------------------


def poisson_schedule(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted arrival offsets of a Poisson process of ``rate`` on ``[0, seconds)``.

    The arrival count is fixed at ``round(rate * seconds)`` and the
    offsets are uniform order statistics — a Poisson process conditioned
    on its count.  The gaps are still exponential-like and bursty, but
    every seed offers exactly the same load, so run-to-run spread comes
    from the system, not from the draw of the count."""
    if rate <= 0.0 or seconds <= 0.0:
        raise ValueError("rate and seconds must be positive")
    count = max(1, round(rate * seconds))
    return np.sort(rng.uniform(0.0, seconds, size=count))


def due_latencies(due: "list[float]", done: "list[float]") -> list[float]:
    """Per-request latency measured from when each request was *due*.

    Timing from the due time (not from when the generator managed to send
    it) charges a stall to every request that queued behind it."""
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [d1 - d0 for d0, d1 in zip(due, done)]


# -- span self-time rollup ------------------------------------------------------

#: Spans that cross an ``await`` or measure waiting rather than work; they
#: overlap unrelated work on their thread, so they are left out of the
#: exclusive-time rollup (queue wait is reported from the cost ledger).
WAIT_SPANS = frozenset({"queue", "serve_window"})

_LAYER_OF = {
    "admit": "serve",
    "coalesce": "serve",
    "scatter": "serve",
    "dispatch": "serve",
    "dispatch_retry": "serve",
    "serve_heal": "serve",
    "compile": "solver",
    "program": "programming",
    "autorange": "ranging",
    "sweep": "grid_engine",
    "engine_dispatch": "backend",
    "refine_step": "refine",
}


def layer_of(name: str, attrs: dict) -> str:
    """The layer a span belongs to (module names, as the metrics use them).

    ``solve``/``mvm`` spans are emitted by both the single-array handle and
    the tiled grid; only the tiled ones carry a ``grid`` attribute."""
    if name in ("solve", "mvm"):
        return "tiled" if "grid" in attrs else "operator"
    if name.startswith("serve_"):
        return "serve"
    return _LAYER_OF.get(name, "other")


def self_times(spans, window: "tuple[float, float] | None" = None) -> dict[tuple[str, str], float]:
    """Exclusive seconds per ``(span name, layer)``, on each thread's timeline.

    At every instant of a thread, the innermost live span — the one that
    started last — owns that instant.  This is "duration minus the part
    its children cover", computed from timestamps rather than parent ids,
    so spans adopted across threads (the serve dispatcher hands its window
    span to the chip thread) are charged to the thread that ran them.
    ``window`` clips spans to ``[start, end)``.
    """
    by_thread: dict[int, list] = {}
    for sp in spans:
        if sp.name in WAIT_SPANS or sp.end_s is None:
            continue
        start, end = sp.start_s, sp.end_s
        if window is not None:
            start, end = max(start, window[0]), min(end, window[1])
        if end <= start:
            continue
        by_thread.setdefault(sp.thread_id, []).append((start, end, sp))

    owned: dict[tuple[str, str], float] = {}
    for items in by_thread.values():
        bounds = sorted({t for start, end, _ in items for t in (start, end)})
        items.sort(key=lambda item: item[0])
        live: list = []
        nxt = 0
        for lo, hi in zip(bounds, bounds[1:]):
            while nxt < len(items) and items[nxt][0] <= lo:
                live.append(items[nxt])
                nxt += 1
            live = [item for item in live if item[1] > lo]
            if not live:
                continue
            _, _, owner = max(live, key=lambda item: item[0])
            key = (owner.name, layer_of(owner.name, owner.attrs))
            owned[key] = owned.get(key, 0.0) + (hi - lo)
    return owned


def rollup(owned: dict[tuple[str, str], float]) -> dict[str, float]:
    """Collapse :func:`self_times` output to seconds per layer."""
    layers: dict[str, float] = {}
    for (_, layer), seconds in owned.items():
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers


def span_self(owned: dict[tuple[str, str], float], name: str) -> float:
    """Exclusive seconds of one span name, summed over layers."""
    return sum(s for (n, _), s in owned.items() if n == name)


# -- timed backend ------------------------------------------------------------------


@dataclass
class KernelTally:
    calls: int = 0
    seconds: float = 0.0


@dataclass
class TimedBackend:
    """``Backend`` wrapper that times the two batched kernels.

    Injected with ``GramcSolver(backend=TimedBackend(...))``; the solver
    resolves it like any backend instance.  Only ``batched_matmul`` and
    ``batched_lu_solve`` are timed — they are the engine's numerical
    kernels; ``stack`` and ``scatter_columns`` pass straight through."""

    inner: object
    matmul: KernelTally = field(default_factory=KernelTally)
    lu_solve: KernelTally = field(default_factory=KernelTally)

    @property
    def name(self) -> str:
        return f"timed-{self.inner.name}"

    def stack(self, blocks, rows, cols):
        return self.inner.stack(blocks, rows, cols)

    def batched_matmul(self, a, x, column_independent=False):
        start = time.perf_counter()
        out = self.inner.batched_matmul(a, x, column_independent)
        self.matmul.seconds += time.perf_counter() - start
        self.matmul.calls += 1
        return out

    def batched_lu_solve(self, lu, piv, rhs):
        start = time.perf_counter()
        out = self.inner.batched_lu_solve(lu, piv, rhs)
        self.lu_solve.seconds += time.perf_counter() - start
        self.lu_solve.calls += 1
        return out

    def scatter_columns(self, out, row_slices, blocks):
        self.inner.scatter_columns(out, row_slices, blocks)

    def snapshot(self) -> tuple[KernelTally, KernelTally]:
        return (
            KernelTally(self.matmul.calls, self.matmul.seconds),
            KernelTally(self.lu_solve.calls, self.lu_solve.seconds),
        )


# -- host speed -----------------------------------------------------------------------

REFERENCE_PROBE_S = 0.030
"""Seconds one :class:`SpeedProbe` run takes at the reference host speed.

A timing divided by ``probe time / REFERENCE_PROBE_S`` reads as on a
host where the probe takes exactly this long.  The value is the probe's
typical time on a 2-core x86-64 VM with BLAS pinned to one thread, so
stated times stay close to that host's raw times."""


class SpeedProbe:
    """A fixed NumPy workload timed beside the program to read host speed.

    A shared VM's own speed drifts by tens of percent within minutes.
    Every call slows alike, its CPU time included, so no median inside a
    run removes the drift.  The probe does the kinds of host work the
    program does: small array operations dominated by interpreter
    overhead, element-wise passes over a few MB, batched small matmuls,
    LU solves and a quantise → matmul → noise → clip chain.  It never
    calls into ``src/``, so it reads the host, not the code under test,
    and a change that makes the program faster shows in full."""

    def __init__(self) -> None:
        from scipy.linalg import lu_factor

        rng = np.random.default_rng(0)
        self._big = rng.uniform(-1.0, 1.0, (256, 32, 64))
        self._out = np.empty_like(self._big)
        self._small = [rng.uniform(-1.0, 1.0, (64, 32)) for _ in range(8)]
        self._mats = rng.uniform(-1.0, 1.0, (16, 64, 64))
        self._vecs = rng.uniform(-1.0, 1.0, (16, 64, 32))
        self._planes = rng.uniform(-1.0, 1.0, (32, 32, 32))
        self._inputs = rng.uniform(-1.0, 1.0, (32, 32, 32))
        self._stack = np.empty((32, 32, 32))
        self._noise = np.empty_like(self._stack)
        self._noise_rng = np.random.default_rng(1)
        self._lus = [
            lu_factor(rng.uniform(-1.0, 1.0, (32, 32)) + 8.0 * np.eye(32)) for _ in range(8)
        ]
        self._rhs = rng.uniform(-1.0, 1.0, (32, 16))

    def __call__(self) -> float:
        """Run the probe once; return its wall seconds."""
        from scipy.linalg import lu_solve

        start = time.perf_counter()
        out = self._out
        for _ in range(3):
            np.multiply(self._big, 0.7, out=out)
            np.add(out, 0.1, out=out)
            np.clip(out, -0.9, 0.9, out=out)
            np.abs(out, out=out)
            out.sum()
        for _ in range(150):
            for block in self._small:
                float(np.linalg.norm(block * 0.5 - 0.1))
        for _ in range(10):
            self._mats @ self._vecs
        stack, noise = self._stack, self._noise
        for _ in range(20):
            levels = np.clip(self._inputs, -1.0, 1.0)
            np.rint(levels * 127.0, out=levels)
            np.matmul(self._planes, levels / 127.0, out=stack)
            self._noise_rng.standard_normal(out=noise)
            stack += noise * 1e-3
            np.clip(stack, -4.0, 4.0, out=stack)
            np.rint(stack * 64.0, out=stack)
            for lu in self._lus:
                lu_solve(lu, self._rhs, check_finite=False)
            sum(k * 3 % 7 for k in range(200))
        return time.perf_counter() - start

    def factor(self, runs: int = 1) -> float:
        """Host slowdown against the reference: the median probe time over
        ``runs`` runs, divided by :data:`REFERENCE_PROBE_S`."""
        return statistics.median(self() for _ in range(runs)) / REFERENCE_PROBE_S


# -- environment block ----------------------------------------------------------

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _blas_runtime_threads() -> "int | None":
    """Threads the loaded OpenBLAS reports, read through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def source_digest(root: Path) -> str:
    """SHA-1 over the program's source files (identifies the code even in
    a checkout that is not a git repository)."""
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path) -> "str | None":
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(root: Path, seed: int) -> dict:
    """Host and library facts every result is recorded with."""
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_runtime_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": _git_commit(root),
        "source_sha1": source_digest(root),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
