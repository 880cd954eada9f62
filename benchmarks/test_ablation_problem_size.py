"""Ablation: problem size 8…128 on the 128×128 array (active-region use).

The drivers let a matrix problem occupy any sub-region of the array (paper
§II-B).  This bench sweeps the problem size and reports MVM accuracy, which
degrades slowly with size (more terms accumulate quantization noise) —
useful for deciding how to pack small problems.
"""

import numpy as np
import pytest

from repro.analysis.reporting import banner, format_table
from repro.workloads.matrices import wishart

_SIZES = (8, 16, 32, 64, 128)


def _mvm_error(chip_solver, n: int) -> float:
    rng = np.random.default_rng(n)
    matrix = wishart(n, rng=rng)
    errors = []
    for _ in range(4):
        x = rng.uniform(-1, 1, n)
        errors.append(chip_solver.compile(matrix).mvm(x).relative_error)
    return float(np.mean(errors))


@pytest.mark.figure
def test_ablation_problem_size(benchmark, chip_solver):
    errors = {n: _mvm_error(chip_solver, n) for n in _SIZES}
    benchmark(_mvm_error, chip_solver, 32)

    print(banner("Ablation — problem size on the 128×128 array (Wishart MVM)"))
    print(
        format_table(
            ["n", "mean MVM rel err"],
            [[n, errors[n]] for n in _SIZES],
        )
    )

    # Accuracy stays usable across the full size range.
    assert all(err < 0.45 for err in errors.values())
    # And no catastrophic size blow-up: 128 is within 4× of 16.
    assert errors[128] < 4.0 * errors[16] + 0.05
