"""Fig. 4(b): INV (one-step matrix inversion) on a 128 × 128 Wishart matrix.

Shape criteria: the analog solution of ``A·x = b`` correlates strongly with
the numpy solution; errors are larger than MVM (inversion amplifies the
4-bit quantization error by the condition number) — visible in the paper as
the widest scatter of the four panels.
"""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.analysis.metrics import scatter_stats
from repro.analysis.reporting import banner, format_table
from repro.workloads.matrices import wishart


@pytest.mark.figure
def test_fig4b_inv_scatter(benchmark, chip_solver):
    # Wishart(128, 256) + ridge keeps the condition number in the regime the
    # paper's stable INV demonstrations use.
    matrix = wishart(128, rng=np.random.default_rng(42)) + 0.4 * np.eye(128)
    b = np.random.default_rng(8).uniform(-1.0, 1.0, 128)

    result = benchmark(chip_solver.compile(matrix, AMCMode.INV).solve, b)
    stats = scatter_stats(*result.scatter_points())

    # Decomposition: how much of the error is 4-bit quantization alone?
    from repro.arrays.mapping import DifferentialMapping

    quantized = DifferentialMapping.from_matrix(matrix).quantized_matrix()
    quant_only = np.linalg.solve(quantized, b)
    quant_error = np.linalg.norm(quant_only - result.reference)
    quant_error /= np.linalg.norm(result.reference)

    print(banner("Fig. 4(b) — INV, 128×128 Wishart, 4-bit"))
    print(
        format_table(
            ["metric", "value"],
            [
                ["points", stats.count],
                ["correlation (ideal vs analog)", stats.correlation],
                ["rmse / output range", stats.rmse_over_range],
                ["L2 relative error (analog)", result.relative_error],
                ["L2 relative error (4-bit quantization only)", quant_error],
                ["circuit stable", result.stable],
                ["condition number", float(np.linalg.cond(matrix))],
            ],
        )
    )

    assert result.ok
    assert result.stable, "Wishart spectra keep the INV feedback loop stable"
    assert stats.correlation > 0.8
    assert stats.rmse_over_range < 0.25
