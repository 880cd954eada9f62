"""Blocked multi-macro solve engine: tile grids beyond one array."""

import numpy as np
import pytest

from repro.analog import dynamics
from repro.analog.topologies import AMCMode
from repro.core.errors import CapacityError, GramcError, ShapeError
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.core.tiled import TiledOperator
from repro.programming.levels import LevelMap
from repro.workloads.matrices import block_dominant, wishart


def _solver(
    num_macros: int = 36,
    size: int = 32,
    levels: int = 256,
    pool_seed: int = 11,
    solver_seed: int = 7,
) -> GramcSolver:
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(
                num_macros=num_macros,
                rows=size,
                cols=size,
                level_map=LevelMap(num_levels=levels),
            ),
            rng=np.random.default_rng(pool_seed),
        ),
        rng=np.random.default_rng(solver_seed),
    )


class TestRaggedTiling:
    def test_100_unknowns_on_32_wide_arrays(self, rng):
        """Non-divisible blocking: 100 = 3×32 + 4, a 4×4 ragged grid."""
        solver = _solver()
        matrix = block_dominant(100, 32, rng=rng)
        op = solver.compile(matrix, AMCMode.INV)
        assert isinstance(op, TiledOperator)
        assert op.grid == (4, 4)
        slices = op.block_slices
        assert slices[-1] == slice(96, 100)  # the ragged trailing edge
        b = rng.uniform(-1, 1, (100, 8))
        result = op.solve(b)
        exact = np.linalg.solve(matrix, b)
        error = np.linalg.norm(result.value - exact) / np.linalg.norm(exact)
        assert error < 0.1  # fixed-RNG equivalence within the noise model
        assert result.sweeps >= 1
        assert result.residual_floor < 0.1
        op.close()
        assert solver.pool.free_count == len(solver.pool.macros)

    def test_narrow_arrays_cap_the_tile_edge(self, rng):
        """``cols < rows``: a block as tall as the array would span two
        tiles, so the edge is capped at ``cols`` and every block lands on
        one tile — the stacked engine runs every such grid."""
        solver = GramcSolver(
            pool=MacroPool(
                PoolConfig(
                    num_macros=20,
                    rows=32,
                    cols=16,
                    level_map=LevelMap(num_levels=256),
                ),
                rng=np.random.default_rng(11),
            ),
            rng=np.random.default_rng(7),
        )
        matrix = block_dominant(48, 16, rng=rng)
        op = solver.compile(matrix, AMCMode.INV)
        assert isinstance(op, TiledOperator)
        assert op.tile == 16 and op.grid == (3, 3)
        assert all(len(h._tiles) == 1 for h in op._solve_handles())
        b = rng.uniform(-1, 1, (48, 4))
        result = op.solve(b, rtol=1e-8)
        assert op._engine is not None  # swept on the stacked grid engine
        assert result.converged
        exact = np.linalg.solve(matrix, b)
        assert np.linalg.norm(result.value - exact) <= 1e-6 * np.linalg.norm(exact)
        op.close()
        # An explicit tile wider than the arrays is capped the same way,
        # and so is a system taller than ``cols`` but within ``rows``.
        with solver.compile(matrix, AMCMode.INV, tile=32) as capped:
            assert capped.tile == 16
        small = block_dominant(20, 10, rng=rng)
        with solver.compile(small, AMCMode.INV) as narrow:
            assert isinstance(narrow, TiledOperator)

    def test_wide_mvm_130x70_on_64_wide_arrays(self, rng):
        """Ragged MVM tiling (the atomic multi-acquire path): 130×70."""
        solver = _solver(num_macros=10, size=64)
        matrix = rng.uniform(-1, 1, (130, 70))
        op = solver.compile(matrix, AMCMode.MVM)
        x = rng.uniform(-1, 1, 70)
        result = op.mvm(x)
        assert result.relative_error < 0.35
        op.close()

    def test_blocked_100_on_64_wide_arrays(self, rng):
        """2×2 ragged grid (64 + 36) on a pool of 64-wide arrays."""
        solver = _solver(num_macros=10, size=64)
        matrix = block_dominant(100, 64, rng=rng)
        op = solver.compile(matrix, AMCMode.INV)
        assert op.grid == (2, 2)
        b = rng.uniform(-1, 1, 100)
        result = op.solve(b)
        exact = np.linalg.solve(matrix, b)
        error = np.linalg.norm(result.value - exact) / np.linalg.norm(exact)
        assert error < 0.1
        op.close()


class TestDegenerateGrid:
    def test_single_tile_grid_equals_direct_path_bit_for_bit(self, rng):
        """A 1×1 grid must be *exactly* the direct INV path — same engine
        calls, same noise draws, bit-identical values."""
        matrix = wishart(24, rng=rng) + 0.5 * np.eye(24)
        b = rng.uniform(-1, 1, 24)
        batch = rng.uniform(-1, 1, (24, 5))

        direct_solver = _solver(num_macros=8, levels=16)
        blocked_solver = _solver(num_macros=8, levels=16)
        direct = direct_solver.compile(matrix, AMCMode.INV)
        blocked = blocked_solver.compile(matrix, AMCMode.INV, tile=32)
        assert isinstance(blocked, TiledOperator)
        assert blocked.grid == (1, 1)

        d_vec = direct.solve(b)
        t_vec = blocked.solve(b)
        assert np.array_equal(d_vec.value, t_vec.value)
        assert t_vec.sweeps == 1 and t_vec.converged

        d_batch = direct.solve(batch)
        t_batch = blocked.solve(batch)
        assert np.array_equal(d_batch.value, t_batch.value)

    def test_zero_coupling_blocks_are_skipped(self, rng):
        """A block-diagonal operand compiles no off-diagonal handles."""
        solver = _solver(num_macros=8)
        matrix = np.zeros((48, 48))
        matrix[:32, :32] = wishart(32, rng=rng) + 0.5 * np.eye(32)
        matrix[32:, 32:] = wishart(16, rng=rng) + 0.5 * np.eye(16)
        op = solver.compile(matrix, AMCMode.INV, tile=32)
        assert op.grid == (2, 2)
        assert op.block_count == 2  # diagonals only
        b = rng.uniform(-1, 1, 48)
        result = op.solve(b)
        exact = np.linalg.solve(matrix, b)
        assert np.linalg.norm(result.value - exact) / np.linalg.norm(exact) < 0.1
        op.close()


class TestBatchedPipeline:
    def test_matrix_rhs_shares_resident_decompositions(self, rng):
        """A wider batch adds zero engine eigendecompositions: every
        per-tile step streams all columns through the resident circuit."""
        solver = _solver(num_macros=8)
        matrix = block_dominant(48, 32, rng=rng)
        op = solver.compile(matrix, AMCMode.INV)
        op.solve(rng.uniform(-1, 1, (48, 4)))  # warm: circuits built here
        before = dynamics.eig_call_count()
        result = op.solve(rng.uniform(-1, 1, (48, 16)))
        assert dynamics.eig_call_count() == before
        assert result.value.shape == (48, 16)
        assert result.input_scales is not None and result.input_scales.shape == (16,)
        assert result.per_column_attempts is not None
        op.close()

    def test_batched_mvm_carries_per_column_arrays(self, rng):
        """A batched blocked product folds its tiles' per-column arrays
        like every other batched result; a vector keeps them ``None``."""
        solver = _solver(num_macros=8)
        matrix = block_dominant(48, 32, rng=rng)
        op = solver.compile(matrix, AMCMode.INV)
        x = rng.uniform(-1, 1, (48, 3)) * np.array([1.0, 0.5, 0.25])
        result = op.mvm(x)
        assert result.input_scales.shape == (3,)
        assert len(set(result.input_scales)) == 3
        assert result.input_scale == result.input_scales.max()
        assert result.per_column_attempts.shape == (3,)
        assert result.per_column_attempts.min() >= 3  # one per nonzero block row
        assert result.column_saturated.shape == (3,)
        assert result.saturated == result.column_saturated.any()
        vector = op.mvm(x[:, 0])
        assert vector.input_scales is None and vector.per_column_attempts is None
        assert vector.column_saturated is None
        op.close()

    def test_zero_reprogramming_across_solves(self, rng):
        solver = _solver(num_macros=8)
        matrix = block_dominant(48, 32, rng=rng)
        op = solver.compile(matrix, AMCMode.INV)
        op.solve(rng.uniform(-1, 1, 48))
        events = op.program_events
        for _ in range(3):
            op.solve(rng.uniform(-1, 1, (48, 6)))
        assert op.program_events == events
        op.close()

    def test_empty_batch(self, rng):
        solver = _solver(num_macros=8)
        matrix = block_dominant(48, 32, rng=rng)
        op = solver.compile(matrix, AMCMode.INV)
        result = op.solve(np.zeros((48, 0)))
        assert result.value.shape == (48, 0)
        assert result.sweeps == 0 and result.converged
        op.close()


class TestInvalidation:
    def test_eviction_invalidates_and_reprograms_tiles(self, rng):
        """Once unpinned, an intruding operand may steal a tile's macros;
        the next solve must transparently re-program the victims."""
        solver = _solver(num_macros=6)  # the 2×2 grid fills the pool exactly
        matrix = block_dominant(48, 32, rng=rng)
        op = solver.compile(matrix, AMCMode.INV)
        b = rng.uniform(-1, 1, 48)
        op.solve(b)
        events = op.program_events
        op.unpin()
        intruder = solver.compile(
            rng.uniform(-1, 1, (32, 32)), AMCMode.MVM, pin=True
        )
        intruder.mvm(rng.uniform(-1, 1, 32))
        assert not op.resident  # some tile lost its macros
        intruder.unpin()
        intruder.close()
        result = op.solve(b)
        assert op.program_events > events  # the victims were re-written
        exact = np.linalg.solve(matrix, b)
        assert np.linalg.norm(result.value - exact) / np.linalg.norm(exact) < 0.1
        op.close()

    def test_refresh_rewrites_every_tile(self, rng):
        """One drifted/rewritten crossbar invalidates the whole grid:
        refresh() re-programs every tile handle."""
        solver = _solver(num_macros=8)
        matrix = block_dominant(48, 32, rng=rng)
        op = solver.compile(matrix, AMCMode.INV)
        b = rng.uniform(-1, 1, 48)
        op.solve(b)
        # Sabotage one underlying crossbar directly (version bump +
        # garbage conductances), as a drifted deployment would look.
        victim = op._diag[0].tiles[0].primary
        region = (victim.config.rows, victim.config.cols)
        victim.program_targets(np.full(region, 5e-5))
        events = op.program_events
        blocks = op.block_count
        op.refresh()
        assert op.program_events == events + blocks
        result = op.solve(b)
        exact = np.linalg.solve(matrix, b)
        assert np.linalg.norm(result.value - exact) / np.linalg.norm(exact) < 0.1
        op.close()


class TestAtomicGrid:
    def test_capacity_rollback_leaks_nothing(self, rng):
        """A grid that cannot fit releases everything it grabbed and
        names the pool's owners in the error."""
        solver = _solver(num_macros=8)
        bystander = solver.compile(
            rng.uniform(-1, 1, (32, 32)), AMCMode.MVM, pin=True
        )
        free_before = solver.pool.free_count
        # 96 unknowns on 32-wide tiles: a 3×3 grid needing 18 macros.
        matrix = block_dominant(96, 32, rng=rng)
        with pytest.raises(CapacityError) as excinfo:
            solver.compile(matrix, AMCMode.INV)
        assert "owners" in str(excinfo.value)
        assert solver.pool.free_count == free_before  # nothing leaked
        assert bystander.resident  # the pinned bystander was untouched
        owners = solver.pool.owner_stats()
        assert all("tile0" in owner for owner in owners)  # only the bystander
        bystander.unpin()
        bystander.close()

    def test_grid_reuse_via_compile_cache(self, rng):
        """Compiling the same operand twice returns the same resident
        grid — one programming pass, two holders."""
        solver = _solver(num_macros=8)
        matrix = block_dominant(48, 32, rng=rng)
        first = solver.compile(matrix, AMCMode.INV)
        events = first.program_events
        second = solver.compile(matrix, AMCMode.INV)
        assert second is first
        assert first.program_events == events
        second.close()
        assert not first.closed  # one holder remains
        first.close()
        assert first.closed


class TestValidation:
    def test_non_square_rejected(self, rng):
        solver = _solver(num_macros=8)
        with pytest.raises(ShapeError):
            solver.compile(rng.uniform(-1, 1, (48, 40)), AMCMode.INV)

    def test_bad_rhs_rejected(self, rng):
        solver = _solver(num_macros=8)
        op = solver.compile(block_dominant(48, 32, rng=rng), AMCMode.INV)
        with pytest.raises(ShapeError):
            op.solve(np.zeros(47))
        with pytest.raises(GramcError):
            op.solve(np.zeros(48), method="sor")
        op.close()
        with pytest.raises(GramcError):
            op.solve(np.zeros(48))


class TestPinAccounting:
    def test_facade_never_strips_a_holders_pin(self, rng):
        """A second holder's compile-solve-close on a grid another caller
        holds must leave that holder's pin (and zero-reprogramming
        guarantee) intact."""
        solver = _solver(num_macros=10)
        matrix = block_dominant(64, 32, rng=rng)
        op = solver.compile(matrix, AMCMode.INV)  # holder's pinned grid
        b = rng.uniform(-1, 1, 64)
        second = solver.compile(matrix, AMCMode.INV)  # pin on cache hit
        second.solve(b)
        second.close()  # drops only its own pin and reference
        events = op.program_events
        for _ in range(4):  # pool pressure that would evict an unpinned grid
            solver.compile(rng.uniform(-1, 1, (32, 32)), AMCMode.MVM)
        op.solve(b)
        assert op.program_events == events
        op.close()

    def test_facade_only_grid_is_evictable(self, rng):
        """A grid whose only holder unpinned it stays cached but must not
        pin the pool shut for later operands."""
        solver = _solver(num_macros=8)
        matrix = block_dominant(64, 32, rng=rng)
        grid = solver.compile(matrix, AMCMode.INV)
        grid.solve(rng.uniform(-1, 1, 64))
        grid.unpin()  # grid cached, unpinned
        # Needs 6 of the 8 macros: must succeed by evicting the idle grid.
        wide = solver.compile(rng.uniform(-1, 1, (32, 96)), AMCMode.MVM)
        assert wide.resident
        wide.close()
