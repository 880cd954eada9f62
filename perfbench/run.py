"""The repo benchmark: one workload per invocation, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload refine256 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` adds a traced phase and reports the per-layer
metrics.  Human-readable lines (environment, checks, every metric with
its unit) go to standard output first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero on any correctness failure.
"""

from __future__ import annotations

import os

# BLAS must be pinned before NumPy is first imported: with the default
# pool, OpenBLAS threads contend with the chip executor thread on a
# small host and dominate the tail of every kernel call.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("refine256", "grid512", "serve_mix")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from harness import environment  # noqa: PLC0415
    from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: PLC0415

    print("env " + json.dumps(environment(ROOT, seed)), flush=True)
    outcome = WORKLOADS[name].run(seed, seconds, traced)
    reported = PER_LAYER if traced else END_TO_END
    missing = sorted(set(reported) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload {name} did not report {missing}")
    for check, passed in sorted(outcome.checks.items()):
        print(f"check {check}: {'ok' if passed else 'FAILED'}")
    shown = {**END_TO_END, **PER_LAYER}
    for metric, unit in shown.items():
        if metric in outcome.metrics:
            print(f"{name} {metric} {outcome.metrics[metric]:.6g} {unit}")
    print(f"{name} failed_fraction {outcome.failed / outcome.attempted:.6g} fraction")
    print(f"{name} wrong_answers {outcome.wrong} count")
    correct = all(outcome.checks.values()) and outcome.wrong == 0
    metrics = {
        metric: {"value": float(outcome.metrics[metric]), "unit": unit}
        for metric, unit in reported.items()
    }
    print(_result_line(correct, outcome.attempted, outcome.failed, metrics), flush=True)
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own process (peak RSS stays per workload)."""
    merged: dict = {}
    attempted = failed = 0
    correct = True
    for name in NAMES:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(traced)),
            ],
            capture_output=True, text=True, timeout=600, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 and not lines:
            return proc.returncode
        result = json.loads(lines[-1])
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(_result_line(correct, attempted, failed, merged), flush=True)
    return 0 if correct else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
