"""Chaos smoke: the serve contract under a degrading chip.

The acceptance scenario for the fault-injection / self-healing subsystem:
a 256×256 tiled ``solve(rtol=1e-8)`` workload runs while the **canonical
fault plan** (:meth:`repro.faults.FaultPlan.canonical`) degrades the chip
underneath it — ≥1% stuck cells on three macros, retention drift on two
resident tiles, a line open, and one whole-macro death mid-workload.

The bars, re-checked from ``BENCH_faults.json`` by
``benchmarks/check_invariants.py``:

* **recovery rate ≥ 0.9** — the fraction of workload solves whose rtol
  contract held (possibly after self-healing: retune → re-verify →
  reprogram → quarantine+migration), with zero manual intervention;
* **never silently wrong** — every returned answer is re-verified
  digitally against the true operand; a solve that cannot be healed must
  raise a structured :class:`DegradedChipError` carrying the health
  snapshot, and that evidence is recorded in the artifact;
* the healing work (cells re-verified, tiles reprogrammed, macros
  quarantined/migrated) is reported, and the post-recovery residual of
  every recovered solve stays at the contracted rtol.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.errors import DegradedChipError
from repro.core.pool import PoolConfig
from repro.faults import FaultPlan
from repro.obs.report import solve_breakdown
from repro.programming.levels import LevelMap
from repro.system.gramc import GramcChip
from repro.workloads.matrices import block_dominant

_REPO_ROOT = Path(__file__).resolve().parents[1]
_BENCH_JSON = _REPO_ROOT / "BENCH_faults.json"

_SIZE = 256
_TILE = 64
_COLUMNS = 4
_RTOL = 1e-8
_SOLVES = 10
_MIN_RECOVERY_RATE = 0.9
_BREAKDOWN_PCT_TOLERANCE = 0.1


def _chip(faults) -> GramcChip:
    """The obs-bench chip geometry: 4×4 grid of 64-wide tiles with spare
    macros left over, so quarantine has somewhere to migrate to."""
    return GramcChip(
        PoolConfig(
            num_macros=40,
            rows=_TILE,
            cols=_TILE,
            level_map=LevelMap(num_levels=256),
        ),
        rng=np.random.default_rng(20260808),
        faults=faults,
    )


@pytest.fixture(scope="module")
def bench_payload(write_bench):
    plan = FaultPlan.canonical()
    payload: dict = {
        "config": {
            "matrix": f"{_SIZE}x{_SIZE}",
            "tile": _TILE,
            "grid": f"{_SIZE // _TILE}x{_SIZE // _TILE}",
            "columns": _COLUMNS,
            "rtol": _RTOL,
            "solves": _SOLVES,
            "plan": plan.describe(),
        },
        "invariants": {
            "min_recovery_rate": _MIN_RECOVERY_RATE,
            "refined_residual_max": _RTOL,
            "breakdown_pct_tolerance": _BREAKDOWN_PCT_TOLERANCE,
        },
        "results": {},
    }
    yield payload
    write_bench(_BENCH_JSON, payload)


def test_chaos_recovery_rate(bench_payload):
    """Canonical plan vs a 256×256 rtol=1e-8 workload: heal or refuse."""
    rng = np.random.default_rng(3)
    matrix = block_dominant(_SIZE, _TILE, rng=rng)
    batch = rng.uniform(-1, 1, size=(_SIZE, _COLUMNS))
    column_norms = np.linalg.norm(batch, axis=0)

    chip = _chip(FaultPlan.canonical())
    op = chip.compile(matrix, AMCMode.INV)
    assert op.grid == (_SIZE // _TILE, _SIZE // _TILE)

    recovered = 0
    degraded: list[dict] = []
    worst_recovered_residual = 0.0
    last_result = None
    for _ in range(_SOLVES):
        try:
            result = op.solve(batch, rtol=_RTOL)
        except DegradedChipError as error:
            # Structured refusal: the health snapshot must carry the
            # evidence trail — never a silently wrong answer.
            assert error.health is not None
            assert "scores" in error.health and "events" in error.health
            degraded.append(
                {
                    "tick": error.health.get("clock"),
                    "quarantined": error.health.get("quarantined"),
                }
            )
            continue
        # Never silently wrong: re-verify the answer digitally.
        true_residual = np.linalg.norm(
            matrix @ result.value - batch, axis=0
        ) / column_norms
        if bool(np.all(result.per_column_converged)):
            recovered += 1
            last_result = result
            worst_recovered_residual = max(
                worst_recovered_residual, float(true_residual.max())
            )
            assert result.worst_columns is None
        else:
            # Budget-exhausted results must name their worst offenders.
            assert result.worst_columns

    recovery_rate = recovered / _SOLVES
    monitor = chip.faults.monitor
    healing = {
        "cells_reverified": sum(
            r["cells_reverified"] for r in monitor.heal_reports
        ),
        "reprogrammed_tiles": sum(
            r["reprogrammed_tiles"] for r in monitor.heal_reports
        ),
        "retunes": sum(r["retunes"] for r in monitor.heal_reports),
        "migrated_tiles": sum(r["migrated_tiles"] for r in monitor.heal_reports),
        "quarantined_macros": sorted(chip.pool.quarantined),
    }

    bench_payload["results"]["chaos_canonical"] = {
        "recovery_rate": recovery_rate,
        "refined_residual": worst_recovered_residual,
        "degraded_errors": len(degraded),
        "degraded_evidence": degraded,
        "final_clock": chip.clock,
        "canary_runs": monitor.canary_runs,
        "canary_failures": monitor.canary_failures,
        **healing,
    }
    if last_result is not None:
        bench_payload["breakdown"] = solve_breakdown(last_result)
    print(
        f"\nchaos: {recovered}/{_SOLVES} solves met rtol={_RTOL:g} "
        f"(rate {recovery_rate:.2f}), {len(degraded)} structured refusals, "
        f"{healing['reprogrammed_tiles']} tiles reprogrammed, "
        f"{healing['cells_reverified']} cells re-verified, "
        f"quarantined {healing['quarantined_macros']}"
    )
    # The macro-death event must have been quarantined by the injector.
    assert 4 in chip.pool.quarantined
    assert worst_recovered_residual <= _RTOL * 1.5 or recovered == 0
    assert recovery_rate >= _MIN_RECOVERY_RATE


def test_chaos_faultfree_twin_is_bitwise_clean(bench_payload):
    """Satellite guard: with ``faults=None`` the same workload is bitwise
    identical across two fresh chips — the fault machinery is provably
    absent from the disabled path at bench scale too."""
    rng = np.random.default_rng(11)
    size, tile = 128, _TILE
    matrix = block_dominant(size, tile, rng=np.random.default_rng(4))
    batch = rng.uniform(-1, 1, size=(size, 2))

    values = []
    for _ in range(2):
        chip = GramcChip(
            PoolConfig(
                num_macros=12,
                rows=tile,
                cols=tile,
                level_map=LevelMap(num_levels=256),
            ),
            rng=np.random.default_rng(77),
        )
        assert chip.faults is None and chip.clock == 0
        op = chip.compile(matrix, AMCMode.INV)
        values.append(op.solve(batch, rtol=_RTOL).value)
    identical = bool(np.array_equal(values[0], values[1]))
    bench_payload["results"]["bitwise_faultfree_twin"] = identical
    bench_payload["invariants"]["bitwise_deterministic"] = True
    assert identical
