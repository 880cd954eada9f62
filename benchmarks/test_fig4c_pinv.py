"""Fig. 4(c): PINV — linear regression on the 128 × 6 PM2.5-like task.

The paper reconfigures GRAMC into the pseudoinverse topology to solve a
128 × 6 least-squares problem.  Shape criteria: the six fitted weights
scatter tightly around the numpy least-squares solution, and the analog
fit's residual is close to the optimal residual.
"""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.analysis.metrics import scatter_stats
from repro.analysis.reporting import banner, format_table
from repro.workloads.regression import FEATURE_NAMES, pm25_like


@pytest.mark.figure
def test_fig4c_pinv_regression(benchmark, chip_solver):
    task = pm25_like(rng=np.random.default_rng(25))

    result = benchmark(chip_solver.compile(task.design, AMCMode.PINV).lstsq, task.targets)
    stats = scatter_stats(*result.scatter_points())

    print(banner("Fig. 4(c) — PINV, PM2.5-like regression (128×6), 4-bit"))
    rows = [
        [name, float(ref), float(got)]
        for name, ref, got in zip(FEATURE_NAMES, result.reference, result.value)
    ]
    print(format_table(["feature", "numpy lstsq", "analog PINV"], rows))
    optimal_residual = task.residual_norm(task.solution())
    analog_residual = task.residual_norm(result.value)
    print(
        format_table(
            ["metric", "value"],
            [
                ["L2 relative error", result.relative_error],
                ["correlation", stats.correlation],
                ["optimal residual", optimal_residual],
                ["analog residual", analog_residual],
            ],
        )
    )

    assert result.ok
    assert result.relative_error < 0.25
    assert stats.correlation > 0.95
    # The analog fit is near-optimal in the least-squares sense.
    assert analog_residual < 1.2 * optimal_residual
