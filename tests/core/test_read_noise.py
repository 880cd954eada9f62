"""The one-draw, output-referred read-noise model keeps the solve-error
distribution of the two-draw model it replaced.

Both models run the same seeded chip and right-hand sides through an
analog-only Jacobi solve; a two-sample Kolmogorov–Smirnov test compares
the per-column relative errors, and the median and 99th percentile must
agree within 2 %.  The amplifiers are noisier than the defaults (about
0.4 LSB of the 8-bit ADC) so that read noise visibly shapes the error:
at this level a 1.5× error in the output sigma fails the test.
"""

import numpy as np
from scipy.stats import ks_2samp

from repro.analog.opamp import OpAmpParams
from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.programming.levels import LevelMap
from repro.workloads.matrices import block_dominant
from tests.reference_engines import two_draw_read_noise

N, TILE = 128, 32  # a 4×4 grid of 32-wide tiles
COLUMNS, BATCH = 10_000, 1250


def _column_errors() -> np.ndarray:
    rng = np.random.default_rng(0)
    matrix = block_dominant(N, TILE, coupling=0.05, rng=rng)
    b = rng.uniform(-1.0, 1.0, (N, COLUMNS))
    reference = np.linalg.solve(matrix, b)
    config = PoolConfig(
        num_macros=40, rows=TILE, cols=TILE,
        level_map=LevelMap(num_levels=256),
        opamp=OpAmpParams(noise_sigma=3e-3),
    )
    solver = GramcSolver(
        pool=MacroPool(config, rng=np.random.default_rng(1)), rng=np.random.default_rng(2)
    )
    op = solver.compile(matrix, AMCMode.INV, tile=TILE)
    errors = []
    for lo in range(0, COLUMNS, BATCH):
        cols = slice(lo, lo + BATCH)
        value = op.solve(b[:, cols], method="jacobi").value
        errors.append(
            np.linalg.norm(value - reference[:, cols], axis=0)
            / np.linalg.norm(reference[:, cols], axis=0)
        )
    op.close()
    return np.concatenate(errors)


def test_solve_error_distribution_matches_the_two_draw_model():
    one_draw = _column_errors()
    with two_draw_read_noise(seed=3):
        two_draw = _column_errors()
    assert not np.array_equal(one_draw, two_draw)  # the oracle is in effect
    assert ks_2samp(one_draw, two_draw).pvalue > 0.01
    for q in (50, 99):
        new, old = np.percentile(one_draw, q), np.percentile(two_draw, q)
        assert abs(new / old - 1.0) < 0.02, (q, new, old)
