"""Ablation: write-verify tolerance vs solver accuracy and pulse cost.

The verify band is the paper's main programming knob: tighter bands cost
more pulses per cell but reduce the conductance error floor under the
quantization error.  This bench sweeps the band and reports both sides of
the trade on a mid-size MVM.
"""

import numpy as np
import pytest

from repro.analysis.reporting import banner, format_table
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.devices.cell import OneT1R
from repro.devices.constants import DeviceStack, WriteVerifyParams
from repro.programming.write_verify import WriteVerifyController

_TOLERANCES = (0.50, 0.25, 0.12)


def _mvm_error(tolerance: float, seed: int) -> float:
    stack = DeviceStack(write_verify=WriteVerifyParams(tolerance=tolerance))
    solver = GramcSolver(
        pool=MacroPool(
            PoolConfig(num_macros=4, rows=48, cols=48, stack=stack),
            rng=np.random.default_rng(seed),
        ),
        rng=np.random.default_rng(seed),
    )
    rng = np.random.default_rng(100 + seed)
    matrix = rng.standard_normal((24, 24))
    errors = []
    for _ in range(6):
        x = rng.uniform(-1, 1, 24)
        result = solver.compile(matrix).mvm(x)
        errors.append(result.relative_error)
    return float(np.mean(errors))


def _pulse_cost(tolerance: float, estimator) -> float:
    stack = DeviceStack(write_verify=WriteVerifyParams(tolerance=tolerance))
    controller = WriteVerifyController(
        stack, rng=np.random.default_rng(3), estimator=estimator
    )
    rng = np.random.default_rng(7)
    counts = []
    for _ in range(6):
        cell = OneT1R(stack)
        cell.rram.reset_state()
        target = float(rng.uniform(10e-6, 95e-6))
        counts.append(controller.program_conductance(cell, target).total_pulses)
    return float(np.mean(counts))


@pytest.mark.figure
def test_ablation_write_verify_tolerance(benchmark, estimator):
    errors = {tol: _mvm_error(tol, seed=int(tol * 100)) for tol in _TOLERANCES}
    pulses = {tol: _pulse_cost(tol, estimator) for tol in _TOLERANCES}
    benchmark(_pulse_cost, 0.25, estimator)

    print(banner("Ablation — write-verify tolerance (band in level units)"))
    print(
        format_table(
            ["tolerance (levels)", "mean MVM rel err", "mean pulses/cell"],
            [[tol, errors[tol], pulses[tol]] for tol in _TOLERANCES],
        )
    )

    # Tighter bands must not hurt accuracy.  Pulse cost is only weakly
    # coupled to the band in this controller (the V_g estimator jump-starts
    # near the target), so assert it stays in the same small regime rather
    # than strict monotonicity.
    assert errors[0.12] <= errors[0.50] + 0.02
    assert pulses[0.12] >= pulses[0.50] - 2.0
    assert all(count < 20.0 for count in pulses.values())
