"""Ablation: bit slicing — 4-bit single-array vs 4+4 dual-array MVM error.

DESIGN.md calls out the INT8 scheme (two nibble arrays + digital shift-add)
as a headline design choice; this bench quantifies what it buys on raw MVM
accuracy, independently of any network.
"""

import numpy as np
import pytest

from repro.analysis.reporting import banner, format_table
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.nn.quantize import bit_slice_weight, quantize_weight
from repro.system.functional import shift_add


def _solver(seed: int) -> GramcSolver:
    return GramcSolver(
        pool=MacroPool(PoolConfig(num_macros=8), rng=np.random.default_rng(seed)),
        rng=np.random.default_rng(seed),
    )


def _int4_mvm(solver, matrix, x):
    q = quantize_weight(matrix, 4)
    return solver.compile(q.dequantized(), quant_peak=q.scale * 15.0).mvm(x).value


def _int8_mvm(solver, matrix, x):
    sliced = bit_slice_weight(matrix)
    high = solver.compile(sliced.msb.astype(float), quant_peak=15.0).mvm(x).value
    low = solver.compile(sliced.lsb.astype(float), quant_peak=15.0).mvm(x).value
    return sliced.scale * shift_add(high, low, shift_bits=4)


@pytest.mark.figure
def test_ablation_bit_slicing(benchmark):
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((64, 64))
    trials = [rng.uniform(-1, 1, 64) for _ in range(8)]

    solver4, solver8 = _solver(1), _solver(2)
    errors4, errors8 = [], []
    for x in trials:
        reference = matrix @ x
        scale = np.linalg.norm(reference)
        errors4.append(np.linalg.norm(_int4_mvm(solver4, matrix, x) - reference) / scale)
        errors8.append(np.linalg.norm(_int8_mvm(solver8, matrix, x) - reference) / scale)

    benchmark(_int8_mvm, solver8, matrix, trials[0])

    mean4, mean8 = float(np.mean(errors4)), float(np.mean(errors8))
    # Digital-only quantization errors for context.
    dig4 = np.mean(
        [np.linalg.norm((quantize_weight(matrix, 4).dequantized() - matrix) @ x) /
         np.linalg.norm(matrix @ x) for x in trials]
    )
    dig8 = np.mean(
        [np.linalg.norm((quantize_weight(matrix, 8).dequantized() - matrix) @ x) /
         np.linalg.norm(matrix @ x) for x in trials]
    )

    print(banner("Ablation — bit slicing (64×64 gaussian matrix, 8 trials)"))
    print(
        format_table(
            ["configuration", "analog rel err", "quantization-only rel err"],
            [
                ["INT4, one array pair", mean4, float(dig4)],
                ["INT8, bit-sliced (2 array pairs)", mean8, float(dig8)],
            ],
        )
    )

    assert mean8 < mean4, "bit slicing must reduce the total MVM error"
    assert dig8 < dig4 / 4.0, "8-bit quantization error is ≥4× smaller digitally"
