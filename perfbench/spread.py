"""Run one workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload serve_mix --seeds 1-10

Each seed runs ``run.py`` in its own process for ``run_seconds`` (from
``BENCHMARK.json`` unless ``--seconds`` is given).  For every metric it
prints the median over the runs and the inter-quartile distance as a
share of that median, next to the metric's bound: a spread above its
bound means two sets of runs of the same code cannot be told apart from
a regression of that size.  Exits non-zero if a run fails or any
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import relative_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = False
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            capture_output=True, text=True, timeout=600, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            failed = True
            continue
        result = json.loads(lines[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    for name, series in values.items():
        spread = relative_spread(series)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread <= bound else "OVER BOUND"
            failed |= spread > bound
        print(
            f"{name:36s} median {statistics.median(series):12.6g} {units[name]:8s} "
            f"spread {spread:7.4f}" + (f"  bound {bound:.2f} {verdict}" if bound is not None else "")
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
