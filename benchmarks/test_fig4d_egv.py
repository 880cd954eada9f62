"""Fig. 4(d): EGV — dominant eigenvector of a 128 × 128 Gram matrix.

The paper's panel scatters the normalised analog eigenvector against the
normalised numerical one.  Shape criteria: near-unit cosine similarity and
a tight scatter of components along the identity line.
"""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.analysis.metrics import cosine_similarity, scatter_stats
from repro.analysis.reporting import banner, format_table
from repro.workloads.matrices import gram
from repro.workloads.regression import pm25_like


@pytest.mark.figure
def test_fig4d_egv_scatter(benchmark, chip_solver):
    # The paper's Gram matrix comes from data; we build it from the same
    # 128×6 design as Fig. 4(c), giving a rank-6 PSD matrix.
    task = pm25_like(rng=np.random.default_rng(25))
    matrix = gram(task.design)

    result = benchmark(chip_solver.compile(matrix, AMCMode.EGV).eigvec)
    stats = scatter_stats(*result.scatter_points())
    cosine = cosine_similarity(result.value, result.reference)

    eigenvalues = np.linalg.eigvalsh(matrix)
    print(banner("Fig. 4(d) — EGV, 128×128 Gram matrix, 4-bit"))
    print(
        format_table(
            ["metric", "value"],
            [
                ["cosine similarity", cosine],
                ["L2 relative error", result.relative_error],
                ["correlation (components)", stats.correlation],
                ["dominant eigenvalue", float(eigenvalues[-1])],
                ["spectral gap λ1/λ2", float(eigenvalues[-1] / eigenvalues[-2])],
                ["loop grew (stable)", result.stable],
            ],
        )
    )

    assert result.ok
    assert cosine > 0.95, "analog eigenvector aligns with the numerical one"
    assert stats.correlation > 0.9
