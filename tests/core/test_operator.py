"""AnalogOperator handle tests: NumPy protocol, lifetime, zero re-programming."""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.errors import GramcError, ShapeError
from repro.core.pool import PoolConfig
from repro.system.gramc import GramcChip
from repro.workloads.matrices import gram, wishart


class TestNumpyProtocol:
    def test_matmul_vector(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(10, 10))
        x = rng.uniform(-1, 1, 10)
        op = small_solver.compile(matrix)
        y = op @ x
        assert isinstance(y, np.ndarray)
        assert y.shape == (10,)
        reference = matrix @ x
        assert np.linalg.norm(y - reference) / np.linalg.norm(reference) < 0.35

    def test_matmul_batch(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(10, 10))
        batch = rng.uniform(-1, 1, size=(10, 7))
        y = small_solver.compile(matrix) @ batch
        assert y.shape == (10, 7)

    def test_rmatmul_is_transpose_application(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(8, 8))
        x = rng.uniform(-1, 1, 8)
        op = small_solver.compile(matrix)
        y = x @ op
        reference = x @ matrix
        assert np.linalg.norm(y - reference) / np.linalg.norm(reference) < 0.35
        # The analog transpose plane really ran: numpy must not have coerced
        # the operator into an exact digital product via __array__.
        assert op._held.get("T") is not None
        assert not np.array_equal(y, reference)

    def test_transpose_property(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(6, 9))
        op = small_solver.compile(matrix)
        assert op.T.shape == (9, 6)
        # Round-tripping lands back on the cached original handle.
        assert op.T.T is op

    def test_array_protocol_and_metadata(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(5, 7))
        op = small_solver.compile(matrix)
        np.testing.assert_array_equal(np.asarray(op), matrix)
        assert op.shape == (5, 7)
        assert op.ndim == 2
        assert op.dtype == np.float64

    def test_operand_is_copied_at_compile(self, small_solver, rng):
        """In-place mutation after compile must not desync the handle."""
        matrix = rng.uniform(-1, 1, size=(8, 8))
        op = small_solver.compile(matrix)
        snapshot = matrix.copy()
        matrix *= 3.0
        np.testing.assert_array_equal(np.asarray(op), snapshot)
        result = op.mvm(rng.uniform(-1, 1, 8))
        assert result.relative_error < 0.35  # reference still consistent

    def test_quantized_matches_shape(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(6, 6))
        op = small_solver.compile(matrix)
        quantized = op.quantized()
        assert quantized.shape == (6, 6)
        assert np.max(np.abs(quantized - matrix)) <= np.max(np.abs(matrix)) / 15.0

    def test_matmul_requires_mvm_mode(self, small_solver, rng):
        matrix = wishart(8, rng=rng) + 0.5 * np.eye(8)
        op = small_solver.compile(matrix, AMCMode.INV)
        with pytest.raises(GramcError):
            op @ np.ones(8)

    def test_shape_mismatch_raises(self, small_solver, rng):
        op = small_solver.compile(rng.uniform(-1, 1, size=(6, 6)))
        with pytest.raises(ShapeError):
            op.mvm(np.zeros(5))


class TestHandleSolves:
    def test_inv_solve(self, small_solver, rng):
        matrix = wishart(10, rng=rng) + 0.5 * np.eye(10)
        b = rng.uniform(-1, 1, 10)
        op = small_solver.compile(matrix, AMCMode.INV)
        result = op.solve(b)
        assert result.ok
        assert result.relative_error < 0.45

    def test_inv_solve_batched(self, small_solver, rng):
        matrix = 2.0 * np.eye(8)
        batch = rng.uniform(-1, 1, size=(8, 3))
        op = small_solver.compile(matrix, AMCMode.INV)
        result = op.solve(batch)
        assert result.value.shape == (8, 3)
        assert result.relative_error < 0.2

    def test_single_array_solves_as_the_one_block_grid(self, small_solver, rng):
        """A single-array INV solve is one sweep of a one-block grid and
        reports the fields every INV solve does."""
        matrix = 2.0 * np.eye(8) + rng.normal(0.0, 0.1, (8, 8))
        b = rng.uniform(-1, 1, size=(8, 3))
        op = small_solver.compile(matrix, AMCMode.INV)
        for rhs in (b, b[:, 0]):
            result = op.solve(rhs)
            assert result.sweeps == 1 and result.converged
            residual = np.linalg.norm(rhs - matrix @ result.value) / np.linalg.norm(rhs)
            assert result.residual_floor == pytest.approx(residual, rel=1e-9)
            assert result.engine_dispatches == result.cost.engine_dispatches >= 1
            assert result.stack_rebuilds == result.cost.stack_rebuilds
        refined = op.solve(b, rtol=1e-10)
        assert refined.sweeps == refined.refine_steps + 1
        assert refined.engine_dispatches == refined.cost.engine_dispatches

    def test_empty_batch_solve(self, small_solver):
        op = small_solver.compile(2.0 * np.eye(6), AMCMode.INV)
        result = op.solve(np.zeros((6, 0)))
        assert result.value.shape == (6, 0)
        assert result.attempts == 0

    def test_lstsq(self, small_solver, rng):
        matrix = rng.standard_normal((20, 4))
        b = rng.uniform(-1, 1, 20)
        op = small_solver.compile(matrix, AMCMode.PINV)
        result = op.lstsq(b)
        assert result.relative_error < 0.3

    def test_lstsq_with_transpose_like_user_tag(self, small_solver, rng):
        """User tags ending in 'transpose' must not disable the handle."""
        matrix = rng.standard_normal((20, 4))
        op = small_solver.compile(matrix, AMCMode.PINV, tag="my-transpose")
        result = op.lstsq(rng.uniform(-1, 1, 20))
        assert result.relative_error < 0.4

    def test_eigvec(self, small_solver, rng):
        matrix = gram(rng.standard_normal((14, 4)))
        op = small_solver.compile(matrix, AMCMode.EGV)
        result = op.eigvec()
        assert abs(result.value @ result.reference) > 0.9

    def test_egv_cache_hit_skips_the_estimate(self, small_solver, rng):
        matrix = gram(rng.standard_normal((10, 3)))
        op1 = small_solver.compile(matrix, AMCMode.EGV)
        state = small_solver.rng.bit_generator.state
        op2 = small_solver.compile(matrix, AMCMode.EGV)
        assert op2 is op1
        # No power-iteration estimate ran: the solver rng did not advance.
        assert small_solver.rng.bit_generator.state == state

    def test_egv_explicit_gain_not_served_from_cache(self, small_solver, rng):
        """An explicit g_lambda is part of the operand identity."""
        matrix = gram(rng.standard_normal((10, 3)))
        op_a = small_solver.compile(matrix, AMCMode.EGV, g_lambda=0.5)
        op_b = small_solver.compile(matrix, AMCMode.EGV, g_lambda=5.0)
        assert op_a is not op_b
        assert op_a.g_lambda == 0.5
        assert op_b.g_lambda == 5.0
        # The auto-estimated handle is a third, independent entry.
        auto = small_solver.compile(matrix, AMCMode.EGV)
        assert auto is not op_a and auto is not op_b

    def test_egv_tags_stay_distinct(self, small_solver, rng):
        matrix = gram(rng.standard_normal((10, 3)))
        op_a = small_solver.compile(matrix, AMCMode.EGV, tag="v1")
        op_b = small_solver.compile(matrix, AMCMode.EGV, tag="v2")
        assert op_a is not op_b
        op_a.close()
        result = op_b.eigvec()  # must be unaffected by closing op_a
        assert abs(result.value @ result.reference) > 0.9

    def test_scoped_egv_releases_everything(self, small_solver, rng):
        """The λ̂-estimate probe must not stay resident after the handle
        closes — a scoped EGV solve returns *all* its macros."""
        free_before = small_solver.pool.free_count
        with small_solver.compile(gram(rng.standard_normal((12, 3))), AMCMode.EGV) as op:
            op.eigvec()
        assert small_solver.pool.free_count == free_before

    def test_context_manager_solve(self, small_solver, rng):
        """The acceptance-criterion spelling from the redesign issue."""
        a = wishart(10, rng=rng) + 0.5 * np.eye(10)
        b = rng.uniform(-1, 1, 10)
        with small_solver.compile(a, mode=AMCMode.INV) as op:
            result = op.solve(b)
        assert result.ok
        assert op.closed

    def test_solve_requires_inv_mode(self, small_solver, rng):
        op = small_solver.compile(rng.uniform(-1, 1, size=(8, 8)))
        with pytest.raises(GramcError):
            op.solve(np.ones(8))


class TestLifetime:
    def test_close_releases_macros(self, small_solver, rng):
        free_before = small_solver.pool.free_count
        op = small_solver.compile(rng.uniform(-1, 1, size=(8, 8)))
        assert small_solver.pool.free_count < free_before
        op.close()
        assert small_solver.pool.free_count == free_before
        assert op.closed and not op.resident

    def test_use_after_close_raises(self, small_solver, rng):
        op = small_solver.compile(rng.uniform(-1, 1, size=(8, 8)))
        op.close()
        with pytest.raises(GramcError):
            op @ np.ones(8)
        with pytest.raises(GramcError):
            op.refresh()

    def test_close_is_idempotent(self, small_solver, rng):
        op = small_solver.compile(rng.uniform(-1, 1, size=(8, 8)))
        op.close()
        op.close()

    def test_compile_after_close_returns_fresh_handle(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(8, 8))
        op = small_solver.compile(matrix)
        op.close()
        fresh = small_solver.compile(matrix)
        assert fresh is not op
        assert fresh.resident

    def test_refresh_reprograms(self, small_solver, rng):
        op = small_solver.compile(rng.uniform(-1, 1, size=(8, 8)))
        assert op.program_count == 1
        op.refresh()
        assert op.program_count == 2
        assert op.resident

    def test_pinv_close_releases_transpose_plane(self, small_solver, rng):
        free_before = small_solver.pool.free_count
        op = small_solver.compile(rng.standard_normal((20, 4)), AMCMode.PINV)
        op.close()
        assert small_solver.pool.free_count == free_before

    def test_shared_handle_survives_another_holders_with_block(self, small_solver, rng):
        """compile() is cached, so a `with` on the same operand must not
        tear the handle down under a holder that compiled it earlier."""
        matrix = wishart(8, rng=rng) + 0.5 * np.eye(8)
        held = small_solver.compile(matrix, AMCMode.INV)
        with small_solver.compile(matrix, AMCMode.INV) as op:
            assert op is held
            op.solve(rng.uniform(-1, 1, 8))
        assert not held.closed
        result = held.solve(rng.uniform(-1, 1, 8))  # still usable
        assert np.all(np.isfinite(result.value))
        held.close()  # last holder: now the macros actually go back
        assert held.closed

    def test_close_releases_surviving_tiles_after_partial_eviction(self, rng):
        """A multi-tile operator with one tile evicted must still free the
        surviving tiles on close, not orphan them until LRU pressure."""
        chip = GramcChip(
            PoolConfig(num_macros=6, rows=16, cols=16), rng=np.random.default_rng(5)
        )
        solver = chip.solver
        # 12×40 → two paired-array tiles + one paired-columns tile = 5 macros.
        op = solver.compile(rng.uniform(-1, 1, size=(12, 40)))
        # One more operand (2 macros) evicts op's LRU tile but not all of it.
        solver.compile(rng.uniform(-1, 1, size=(12, 12)))
        assert not op.resident
        op.close()
        assert chip.pool.free_count + 2 == chip.pool.config.num_macros


class TestZeroReprogramming:
    def test_repeated_matmul_never_rewrites(self, rng):
        """Acceptance criterion: solve-many through one handle, program once."""
        chip = GramcChip(
            PoolConfig(num_macros=4, rows=16, cols=16), rng=np.random.default_rng(0)
        )
        matrix = rng.uniform(-1, 1, size=(12, 12))
        op = chip.compile(matrix)
        cells_after_compile = chip.stats.cells_programmed
        pulses_after_compile = chip.stats.write_pulses
        acquisitions_after_compile = chip.pool.acquisitions
        assert cells_after_compile > 0

        for _ in range(5):
            op @ rng.uniform(-1, 1, size=(12, 8))

        assert chip.stats.cells_programmed == cells_after_compile
        assert chip.stats.write_pulses == pulses_after_compile
        assert chip.pool.acquisitions == acquisitions_after_compile
        assert chip.pool.evictions == 0
        assert op.program_count == 1
        assert chip.stats.analog_solves["mvm"] == 5

    def test_runtime_solves_contribute_energy(self, rng):
        """Operator-path solves feed the same energy model as the ISA path
        (settling time exists for transient solves, as on the controller)."""
        chip = GramcChip(
            PoolConfig(num_macros=4, rows=16, cols=16), rng=np.random.default_rng(3)
        )
        matrix = gram(rng.standard_normal((10, 3)))
        chip.compile(matrix, AMCMode.EGV).eigvec(transient=True)
        assert chip.stats.analog_solves["egv"] == 1
        assert chip.stats.amp_solve_integral > 0.0
        assert chip.stats.estimated_energy() > 0.0

    def test_repeated_inv_solves_never_rewrite(self, rng):
        chip = GramcChip(
            PoolConfig(num_macros=4, rows=16, cols=16), rng=np.random.default_rng(1)
        )
        matrix = wishart(10, rng=rng) + 0.6 * np.eye(10)
        op = chip.compile(matrix, AMCMode.INV)
        cells = chip.stats.cells_programmed
        for _ in range(4):
            op.solve(rng.uniform(-1, 1, 10))
        assert chip.stats.cells_programmed == cells
        assert op.program_count == 1

    def test_facade_rejects_bad_x_without_programming(self, rng):
        """A doomed mvm call must not burn macros or write pulses."""
        chip = GramcChip(
            PoolConfig(num_macros=4, rows=16, cols=16), rng=np.random.default_rng(6)
        )
        op = chip.compile(np.eye(8))
        cells = chip.stats.cells_programmed
        free = chip.pool.free_count
        with pytest.raises(GramcError):
            op.mvm(np.zeros(5))
        assert chip.stats.cells_programmed == cells
        assert chip.pool.free_count == free
        assert op.program_count == 1

    def test_facade_calls_share_the_handle(self, rng):
        """Repeated compile-and-call sequences resolve to one programming."""
        chip = GramcChip(
            PoolConfig(num_macros=4, rows=16, cols=16), rng=np.random.default_rng(2)
        )
        matrix = rng.uniform(-1, 1, size=(10, 10))
        for _ in range(3):
            chip.compile(matrix).mvm(rng.uniform(-1, 1, 10))
        op = chip.compile(matrix)
        assert op.program_count == 1


class TestPinning:
    def test_pinned_operator_survives_pressure(self, small_solver, rng):
        pinned = small_solver.compile(rng.uniform(-1, 1, size=(20, 20)), pin=True)
        # Flood the 8-macro pool with other operands (2 macros each).
        for seed in range(6):
            small_solver.compile(np.eye(20) * (2.0 + seed))
        assert pinned.resident
        assert pinned.is_pinned

    def test_unpin_restores_evictability(self, small_solver, rng):
        op = small_solver.compile(rng.uniform(-1, 1, size=(20, 20)), pin=True)
        op.unpin()
        for seed in range(6):
            small_solver.compile(np.eye(20) * (2.0 + seed))
        assert not op.resident

    def test_pins_are_counted_per_holder(self, small_solver, rng):
        """Two holders' pins need two unpins before eviction resumes."""
        matrix = rng.uniform(-1, 1, size=(20, 20))
        small_solver.compile(matrix, pin=True)
        op = small_solver.compile(matrix, pin=True)
        op.unpin()  # first holder's pin still outstanding
        assert op.is_pinned
        for seed in range(6):
            small_solver.compile(np.eye(20) * (2.0 + seed))
        assert op.resident
        op.unpin()
        assert not op.is_pinned

    def test_failed_egv_estimate_releases_probe(self, small_solver):
        """ConvergenceError on a negative spectrum must not leak probe refs."""
        free_before = small_solver.pool.free_count
        for _ in range(3):
            with pytest.raises(GramcError):
                small_solver.compile(-np.eye(8), AMCMode.EGV)
        probe = small_solver.compile(-np.eye(8), tag="egv-probe")
        assert probe._refs == 1  # only this fresh holder
        probe.close()
        assert small_solver.pool.free_count == free_before


class TestVectorIsOneColumn:
    """A vector call runs the batched chain on one column and squeezes it:
    bitwise the 1-column batch, call after call, in both engine modes."""

    @staticmethod
    def _solver():
        from repro.converters.adc import ADCParams
        from repro.converters.dac import DACParams
        from repro.core.pool import MacroPool
        from repro.core.solver import GramcSolver

        config = PoolConfig(
            num_macros=16, rows=32, cols=32,
            dac=DACParams(bits=10, inl_lsb=0.4, noise_sigma=3e-4),
            adc=ADCParams(bits=10, noise_sigma=3e-4, offset=1e-4),
        )
        return GramcSolver(
            pool=MacroPool(config, rng=np.random.default_rng(5)),
            rng=np.random.default_rng(9),
        )

    @pytest.mark.parametrize("column_independent", [False, True], ids=["blas", "ci"])
    def test_vector_equals_one_column_batch(self, column_independent):
        from repro.analog import determinism

        rng = np.random.default_rng(3)
        square = wishart(24, rng=rng) + 0.5 * np.eye(24)
        wide = rng.uniform(-1, 1, (24, 70))  # three tiles on 32-wide arrays
        tall = rng.uniform(-1, 1, (24, 10))
        inputs = [
            (rng.uniform(-1, 1, 24) * scale, rng.uniform(-1, 1, 70) * scale,
             rng.uniform(-1, 1, 24) * scale)
            for scale in (1.0, 1e-3, 40.0, 1.0, 0.5)
        ]
        runs = []
        with determinism.column_independent_apply(column_independent):
            for as_batch in (False, True):
                solver = self._solver()
                inv = solver.compile(square, AMCMode.INV)
                mvm = solver.compile(wide)
                pinv = solver.compile(tall, AMCMode.PINV)
                shape = (lambda v: v[:, None]) if as_batch else (lambda v: v)
                runs.append([
                    (inv.solve(shape(b)), mvm.mvm(shape(x)), pinv.lstsq(shape(c)),
                     mvm @ shape(x))
                    for b, x, c in inputs
                ])
        for vector_calls, batch_calls in zip(*runs):
            for vec, bat in zip(vector_calls[:3], batch_calls[:3]):
                assert np.array_equal(vec.value, bat.value[:, 0])
                assert vec.attempts == bat.attempts
                assert vec.input_scale == bat.input_scale
                assert vec.saturated == bat.saturated
                assert vec.input_scales is None
                assert vec.per_column_attempts is None
                assert vec.column_saturated is None
            assert np.array_equal(vector_calls[3], batch_calls[3][:, 0])
