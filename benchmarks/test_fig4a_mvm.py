"""Fig. 4(a): MVM accuracy on a 128 × 128 Wishart matrix, 4-bit weights.

The paper's panel scatters non-ideal (analog) outputs against ideal
(numpy) outputs.  Shape criteria: the scatter hugs the identity line
(correlation ≈ 1, spread ≈ ten percent of the output range) — the paper's
"relative errors around ten percent".
"""

import numpy as np
import pytest

from repro.analysis.metrics import scatter_stats
from repro.analysis.reporting import banner, format_table
from repro.workloads.matrices import wishart


@pytest.mark.figure
def test_fig4a_mvm_scatter(benchmark, chip_solver):
    matrix = wishart(128, rng=np.random.default_rng(42))
    x = np.random.default_rng(7).uniform(-1.0, 1.0, 128)

    result = benchmark(chip_solver.compile(matrix).mvm, x)
    stats = scatter_stats(*result.scatter_points())

    print(banner("Fig. 4(a) — MVM, 128×128 Wishart, 4-bit"))
    print(
        format_table(
            ["metric", "value"],
            [
                ["points", stats.count],
                ["correlation (ideal vs analog)", stats.correlation],
                ["rmse / output range", stats.rmse_over_range],
                ["L2 relative error", result.relative_error],
                ["auto-range attempts", result.attempts],
            ],
        )
    )

    assert result.ok
    assert stats.correlation > 0.9, "scatter must hug the identity line"
    assert stats.rmse_over_range < 0.15, "spread ≈ ten percent of output range"
