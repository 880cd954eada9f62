"""Operation parity across handle kinds.

A single array is the one-block grid: a 1×1 tile grid (``tile=n``) and a
single-array INV handle of the same matrix, on twin chips, return the
same bits for a vector, a batch and a refined batch.  And a grid's
product is the row-major sum of its blocks' products: on twin fault-free
chips (a public call on a block ticks the fault clock, a grid's inner
products do not), ``grid.mvm(x)`` equals, bitwise in value, input scales
and per-column attempts, the twin grid's block handles — its couplings
and its diagonal MVM views — multiplied one by one.
"""

from __future__ import annotations

import numpy as np

from repro.analog.topologies import AMCMode
from repro.core.operator import AnalogOperator
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.core.tiled import TiledOperator
from repro.workloads.matrices import block_dominant

ARRAY = 32


def _chip() -> GramcSolver:
    pool = MacroPool(
        PoolConfig(num_macros=36, rows=ARRAY, cols=ARRAY), rng=np.random.default_rng(11)
    )
    return GramcSolver(pool=pool, rng=np.random.default_rng(7))


def test_one_block_grid_solves_as_the_single_array():
    rng = np.random.default_rng(2)
    n = 24
    matrix = block_dominant(n, n, rng=rng)
    vector = rng.uniform(-1, 1, n)
    batch = rng.uniform(-1, 1, (n, 5))
    batch[:, 1] *= 1e-3  # a faint column ranges on its own
    single = _chip().compile(matrix, AMCMode.INV)
    grid = _chip().compile(matrix, AMCMode.INV, tile=n)
    assert isinstance(single, AnalogOperator)
    assert isinstance(grid, TiledOperator) and grid.grid == (1, 1)
    for b, rtol in ((vector, None), (batch, None), (batch, 1e-10), (vector, 1e-8)):
        ours, theirs = single.solve(b, rtol=rtol), grid.solve(b, rtol=rtol)
        assert np.array_equal(ours.value, theirs.value)
        assert ours.attempts == theirs.attempts
        assert ours.refine_steps == theirs.refine_steps
    single.close()
    grid.close()


def test_grid_product_is_the_row_major_sum_of_block_products():
    rng = np.random.default_rng(4)
    n = 88  # 32 + 32 + 24: a ragged last block
    matrix = block_dominant(n, ARRAY, rng=rng)
    matrix[:32, 64:] = 0.0  # coupling (0, 2) is all zero: no block
    grid = _chip().compile(matrix, AMCMode.INV)
    twin = _chip().compile(matrix, AMCMode.INV)
    assert grid.grid == (3, 3) and (0, 2) not in grid._off
    edges = twin.block_slices
    for call in range(3):
        x = rng.uniform(-1, 1, (n, 4))
        x[:, 2] *= 1e-3  # under-ranged: every block re-ranges this column
        if call == 2:
            x = x[:, 0]  # a vector is a batch of one column
        product = grid.mvm(x)
        big_x = x if x.ndim == 2 else x[:, None]
        out = np.zeros_like(big_x)
        scales = np.zeros(big_x.shape[1])
        attempts = np.zeros(big_x.shape[1], dtype=int)
        total = 0
        for i, rows in enumerate(edges):
            for j, cols in enumerate(edges):
                block = twin._diag_mvm_handle(i) if i == j else twin._off.get((i, j))
                if block is None:
                    continue
                part = block.mvm(big_x[cols])
                out[rows] += part.value
                np.maximum(scales, part.input_scales, out=scales)
                attempts += part.per_column_attempts
                total += part.attempts
        assert np.array_equal(product.value, out if x.ndim == 2 else out[:, 0])
        assert product.attempts == total
        if x.ndim == 2:
            assert np.array_equal(product.input_scales, scales)
            assert np.array_equal(product.per_column_attempts, attempts)
    grid.close()
    twin.close()
