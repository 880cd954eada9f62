"""Validate benchmark JSON artifacts against their embedded invariants.

Each ``BENCH_*.json`` written by the perf smoke benchmarks carries an
``invariants`` block next to its ``results`` — the acceptance bars the
numbers were measured against.  CI re-checks the artifact itself (not
just the pytest exit code) so a stale or hand-edited JSON can never
sneak a regression past the step that uploads it.

Usage::

    python benchmarks/check_invariants.py [BENCH_a.json ...]
        [--json-summary PATH] [--markdown-summary PATH]

With no positional arguments every canonical artifact is checked, and a
missing artifact is a failure attributed to that file — a benchmark that
silently stopped writing its JSON must not look green.  Exit status is
non-zero if any recorded result violates its file's invariants.

``--json-summary`` writes a machine-readable report (per-file pass/fail,
failure strings, headline numbers); ``--markdown-summary`` appends a
GitHub-flavoured markdown table of the same headline numbers — point it
at ``$GITHUB_STEP_SUMMARY`` in CI.  Recognized invariant keys:

* ``min_speedup`` — every result's ``speedup`` must be ≥ this;
* ``min_speedup_<suffix>`` — the bound for results named ``*_<suffix>``
  (e.g. ``min_speedup_512`` gates ``grid_512`` but not ``grid_256``);
* ``relative_error_max`` / ``<name>_relative_error_max`` — per-result
  override wins over the file-wide bound;
* ``max_dispatches_per_sweep`` — every recorded ``dispatches_per_sweep``
  must be ≤ this (the O(1)-dispatch claim, checked from the artifact);
* ``bitwise_deterministic`` — bare-boolean ``bitwise_*`` results must
  have recorded ``true``;
* ``min_refined_residual_improvement`` — every recorded
  ``residual_improvement`` must be ≥ this (the iterative-refinement
  accuracy contract: analog floor ÷ refined residual);
* ``refined_residual_max`` — every recorded ``refined_residual`` must be
  ≤ this (the ``rtol`` the refined solve contracted for);
* ``max_refine_dispatches`` — every recorded ``refine_dispatches`` must
  be ≤ this (the inexact-refinement cost bar: engine dispatches one
  refined solve spends on its corrections);
* ``eigs_per_programming_event`` — exact match where recorded;
* ``reprogramming_events_per_solve`` — exact match where recorded;
* ``reprogramming_events_steady_state`` / ``pool_evictions_steady_state``
  / ``structured_rejections_fraction`` — exact match where recorded
  (the serve-layer bars: coalescing must not churn residency, and every
  shed request must carry the structured backpressure error);
* ``max_disabled_overhead_fraction`` — every recorded
  ``disabled_overhead_fraction`` must be ≤ this (the "disabled tracer is
  near-free" gate of the observability subsystem);
* ``min_recovery_rate`` — every recorded ``recovery_rate`` must be ≥
  this (the chaos-suite self-healing contract: the fraction of workload
  solves whose rtol held, possibly after healing, under the canonical
  fault plan).

A result's ``host_split`` block (a traced solve's host self-time by
layer, ``*_s`` parts beside ``traced_wall_s``) is re-checked
arithmetically: every part is non-negative and the parts sum to no more
than the traced wall.

Every artifact must carry a non-empty ``env`` block (cores, BLAS vendor
and threads, library versions, source digest — perfbench's
``environment``), so a number is never read without its host.

Additionally, a top-level ``breakdown`` block (written by every bench via
:func:`repro.obs.report.solve_breakdown`) is re-validated arithmetically:
component times/energies must be non-negative, ``time_pct`` /
``energy_pct`` must sum to 100 ± ``breakdown_pct_tolerance`` (default
0.1) whenever the corresponding total is non-zero, and the
analog/digital/mixed/wait domain times must partition the total.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]

#: The artifacts the benchmark suite is expected to produce.  ``main``
#: with no arguments checks all of them; each must exist and carry a
#: non-empty invariants block.
EXPECTED_ARTIFACTS = (
    "BENCH_batch.json",
    "BENCH_blocked.json",
    "BENCH_serve.json",
    "BENCH_grid.json",
    "BENCH_refine.json",
    "BENCH_obs.json",
    "BENCH_faults.json",
)

_EXACT_KEYS = (
    "eigs_per_programming_event",
    "reprogramming_events_per_solve",
    "reprogramming_events_steady_state",
    "pool_evictions_steady_state",
    "structured_rejections_fraction",
)

_MIN_SPEEDUP_PREFIX = "min_speedup_"

#: The breakdown's domain-time fields must partition ``total_time_s``.
_BREAKDOWN_DOMAINS = ("analog_time_s", "digital_time_s", "mixed_time_s", "wait_time_s")

#: Result fields worth surfacing in the human/CI summary, in preference
#: order (a result contributes the ones it recorded).
_HEADLINE_KEYS = (
    "speedup",
    "relative_error",
    "residual_floor",
    "refined_residual",
    "residual_improvement",
    "refine_steps",
    "refine_dispatches",
    "dispatches_per_sweep",
    "coalescing_factor",
    "reprogramming_events_per_solve",
    "spans",
    "disabled_overhead_fraction",
    "recovery_rate",
    "degraded_errors",
    "reprogrammed_tiles",
)


def check_breakdown(payload: dict, where: str) -> list[str]:
    """Re-verify the ``breakdown`` block's arithmetic from the artifact."""
    breakdown = payload.get("breakdown")
    if breakdown is None:
        return []
    tolerance = payload.get("invariants", {}).get("breakdown_pct_tolerance", 0.1)
    failures: list[str] = []
    components = breakdown.get("components", [])
    if not components:
        return [f"{where}: breakdown block has no components"]
    for row in components:
        for field in ("time_s", "energy_J", "time_pct", "energy_pct"):
            if row.get(field, 0.0) < 0.0:
                failures.append(
                    f"{where}: breakdown {row.get('component')}.{field} "
                    f"negative ({row[field]})"
                )
    for axis, total_key in (("time_pct", "total_time_s"), ("energy_pct", "total_energy_J")):
        if breakdown.get(total_key, 0.0) > 0.0:
            total_pct = sum(row.get(axis, 0.0) for row in components)
            if abs(total_pct - 100.0) > tolerance:
                failures.append(
                    f"{where}: breakdown {axis} sums to {total_pct:.4f}, "
                    f"not 100 ± {tolerance}"
                )
    domain_sum = sum(breakdown.get(field, 0.0) for field in _BREAKDOWN_DOMAINS)
    total_time = breakdown.get("total_time_s", 0.0)
    if abs(domain_sum - total_time) > max(1e-9, 1e-6 * max(total_time, 1.0)):
        failures.append(
            f"{where}: breakdown domain times sum to {domain_sum!r}, "
            f"total_time_s is {total_time!r}"
        )
    return failures


def check_host_split(split: dict, where: str) -> list[str]:
    """Re-verify a ``host_split`` block: self-times of one traced solve
    cannot be negative, nor add up to more than the solve's wall."""
    wall = split.get("traced_wall_s", 0.0)
    parts = {key: value for key, value in split.items() if key != "traced_wall_s"}
    failures = [
        f"{where}: host_split {key} negative ({value!r})"
        for key, value in parts.items()
        if value < 0.0
    ]
    if sum(parts.values()) > wall + 1e-9:
        failures.append(
            f"{where}: host_split parts sum to {sum(parts.values())!r} s, "
            f"more than the traced wall {wall!r} s"
        )
    return failures


def check_file(path: Path) -> list[str]:
    payload = json.loads(path.read_text())
    invariants = payload.get("invariants", {})
    results = payload.get("results", {})
    failures: list[str] = []
    if not invariants:
        failures.append(f"{path.name}: no invariants block")
    if not results:
        failures.append(f"{path.name}: no results recorded")
    if not payload.get("env"):
        failures.append(f"{path.name}: no env block (host the numbers were measured on)")
    for name, result in results.items():
        where = f"{path.name}:{name}"
        if not isinstance(result, dict):
            # Bare flag results, e.g. ``bitwise_deterministic_512``.
            if (
                name.startswith("bitwise")
                and invariants.get("bitwise_deterministic")
                and result is not True
            ):
                failures.append(
                    f"{where}: expected bitwise-deterministic, recorded {result}"
                )
            continue
        if "speedup" in result:
            for key, bound in invariants.items():
                applies = key == "min_speedup" or (
                    key.startswith(_MIN_SPEEDUP_PREFIX)
                    and name.endswith("_" + key[len(_MIN_SPEEDUP_PREFIX):])
                )
                if applies and result["speedup"] < bound:
                    failures.append(
                        f"{where}: speedup {result['speedup']:.2f} < {bound}"
                    )
        error_max = invariants.get(
            f"{name}_relative_error_max", invariants.get("relative_error_max")
        )
        if error_max is not None and "relative_error" in result:
            if result["relative_error"] > error_max:
                failures.append(
                    f"{where}: relative_error {result['relative_error']:.4f} "
                    f"> {error_max}"
                )
        max_dispatches = invariants.get("max_dispatches_per_sweep")
        if max_dispatches is not None and "dispatches_per_sweep" in result:
            if result["dispatches_per_sweep"] > max_dispatches:
                failures.append(
                    f"{where}: dispatches_per_sweep "
                    f"{result['dispatches_per_sweep']:.2f} > {max_dispatches}"
                )
        min_improvement = invariants.get("min_refined_residual_improvement")
        if min_improvement is not None and "residual_improvement" in result:
            if result["residual_improvement"] < min_improvement:
                failures.append(
                    f"{where}: residual_improvement "
                    f"{result['residual_improvement']:.3e} < {min_improvement:.0e}"
                )
        residual_max = invariants.get("refined_residual_max")
        if residual_max is not None and "refined_residual" in result:
            if result["refined_residual"] > residual_max:
                failures.append(
                    f"{where}: refined_residual "
                    f"{result['refined_residual']:.3e} > {residual_max:.0e}"
                )
        max_refine = invariants.get("max_refine_dispatches")
        if max_refine is not None and "refine_dispatches" in result:
            if result["refine_dispatches"] > max_refine:
                failures.append(
                    f"{where}: refine_dispatches "
                    f"{result['refine_dispatches']} > {max_refine}"
                )
        min_recovery = invariants.get("min_recovery_rate")
        if min_recovery is not None and "recovery_rate" in result:
            if result["recovery_rate"] < min_recovery:
                failures.append(
                    f"{where}: recovery_rate "
                    f"{result['recovery_rate']:.2f} < {min_recovery}"
                )
        max_overhead = invariants.get("max_disabled_overhead_fraction")
        if max_overhead is not None and "disabled_overhead_fraction" in result:
            if result["disabled_overhead_fraction"] > max_overhead:
                failures.append(
                    f"{where}: disabled_overhead_fraction "
                    f"{result['disabled_overhead_fraction']:.4f} > {max_overhead}"
                )
        if "host_split" in result:
            failures.extend(check_host_split(result["host_split"], where))
        for exact_key in _EXACT_KEYS:
            expected = invariants.get(exact_key)
            if expected is not None and exact_key in result:
                if result[exact_key] != expected:
                    failures.append(
                        f"{where}: {exact_key} {result[exact_key]} != {expected}"
                    )
    failures.extend(check_breakdown(payload, path.name))
    return failures


def _headline(result: object) -> dict:
    if not isinstance(result, dict):
        return {"value": result}
    return {key: result[key] for key in _HEADLINE_KEYS if key in result}


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.3g}" if 1e-3 <= abs(value) < 1e4 or value == 0 else f"{value:.2e}"
    return str(value)


def summarize(paths: "list[Path]") -> dict:
    """Check every path; return the machine-readable report."""
    files: dict[str, dict] = {}
    for path in paths:
        if not path.exists():
            files[path.name] = {
                "ok": False,
                "failures": [f"{path.name}: artifact missing"],
                "results": {},
            }
            continue
        failures = check_file(path)
        payload = json.loads(path.read_text())
        files[path.name] = {
            "ok": not failures,
            "failures": failures,
            "results": {
                name: _headline(result)
                for name, result in payload.get("results", {}).items()
            },
        }
    return {
        "ok": all(entry["ok"] for entry in files.values()),
        "files": files,
    }


def markdown_summary(report: dict) -> str:
    """Headline numbers as one GitHub-flavoured markdown table."""
    lines = [
        "### Benchmark invariants",
        "",
        "| artifact | result | status | headline |",
        "| --- | --- | --- | --- |",
    ]
    for file_name, entry in report["files"].items():
        status = "✅" if entry["ok"] else "❌"
        if not entry["results"]:
            lines.append(f"| {file_name} | — | {status} | missing |")
            continue
        for result_name, headline in entry["results"].items():
            numbers = ", ".join(
                f"{key}={_format_cell(value)}" for key, value in headline.items()
            )
            lines.append(
                f"| {file_name} | {result_name} | {status} | {numbers or '—'} |"
            )
    failures = [
        failure for entry in report["files"].values() for failure in entry["failures"]
    ]
    if failures:
        lines += ["", "**Violations:**", ""]
        lines += [f"- `{failure}`" for failure in failures]
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifacts", nargs="*",
        help="BENCH_*.json paths (default: every canonical artifact)",
    )
    parser.add_argument(
        "--json-summary", metavar="PATH",
        help="write the machine-readable per-file report here",
    )
    parser.add_argument(
        "--markdown-summary", metavar="PATH",
        help="append a markdown headline table here (e.g. $GITHUB_STEP_SUMMARY)",
    )
    options = parser.parse_args(argv)
    paths = (
        [Path(name) for name in options.artifacts]
        if options.artifacts
        else [_REPO_ROOT / name for name in EXPECTED_ARTIFACTS]
    )
    report = summarize(paths)
    if options.json_summary:
        Path(options.json_summary).write_text(
            json.dumps(report, indent=2) + "\n"
        )
    if options.markdown_summary:
        with Path(options.markdown_summary).open("a") as handle:
            handle.write(markdown_summary(report))
    failures: list[str] = []
    for file_name, entry in report["files"].items():
        if entry["ok"]:
            print(f"{file_name}: all invariants hold")
        failures.extend(entry["failures"])
    for failure in failures:
        print(f"INVARIANT VIOLATION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
