"""Stacked grid engine: equivalence, invalidation, and dispatch scaling.

The vectorized sweep engine's contract is *bit-identity* with the
per-tile reference loop under the deterministic engine mode
(``column_independent_apply``), noisy physics included — every test here
runs twin identically-seeded chips, one per engine, and compares raw
bits.  Under the default BLAS mode the batched kernels may legally differ
from the per-slice ones in the last ulp, so those combinations assert a
tight tolerance instead.
"""

import contextlib
import os
import signal
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analog import determinism
from repro.analog.opamp import OpAmpParams
from repro.analog.topologies import AMCMode
from repro.converters.adc import ADCParams
from repro.converters.dac import DACParams
from repro.core import grid_engine
from repro.core.grid_engine import GridEngine
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.core.tiled import TiledOperator
from repro.devices.constants import DeviceStack, VariabilityParams
from repro.programming.levels import LevelMap
from repro.system.stats import ChipStats
from repro.workloads.matrices import block_dominant
from tests.reference_engines import per_tile_sweeps

N = 100
TILE = 32  # 100 = 3×32 + 4: a ragged 4×4 grid exercising the padding
COLUMNS = 3


def _pool_config(noisy: bool) -> PoolConfig:
    if noisy:
        # Every per-call randomness source on: analog amplifier noise plus
        # converter noise/INL — the stacked path must consume each macro's
        # stream draw-for-draw like the per-tile loop.
        return PoolConfig(
            num_macros=40,
            rows=TILE,
            cols=TILE,
            level_map=LevelMap(num_levels=256),
            dac=DACParams(bits=10, inl_lsb=0.4, noise_sigma=3e-4),
            adc=ADCParams(bits=10, noise_sigma=3e-4, offset=1e-4),
        )
    return PoolConfig(
        num_macros=40,
        rows=TILE,
        cols=TILE,
        level_map=LevelMap(num_levels=256),
        stack=DeviceStack(variability=VariabilityParams(read_noise_sigma=0.0)),
        opamp=OpAmpParams(noise_sigma=0.0),
        dac=DACParams(bits=10, noise_sigma=0.0),
        adc=ADCParams(bits=10, noise_sigma=0.0),
    )


def _solver(noisy: bool, seed: int = 77) -> GramcSolver:
    return GramcSolver(
        pool=MacroPool(_pool_config(noisy), rng=np.random.default_rng(seed)),
        rng=np.random.default_rng(7),
    )


def _problem(seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    matrix = block_dominant(N, TILE, rng=rng)
    b = rng.uniform(-1, 1, (N, COLUMNS))
    return matrix, b


def _engine(name: str):
    """Run the enclosed solves on the stacked engine or the per-tile oracle."""
    return per_tile_sweeps() if name == "pertile" else contextlib.nullcontext()


def _twin_solve(method: str, noisy: bool, **solve_kwargs):
    """The same ragged-grid solve on twin chips, one per engine."""
    matrix, b = _problem()
    results = []
    for engine in ("stacked", "pertile"):
        solver = _solver(noisy)
        op = solver.compile(matrix, AMCMode.INV)
        assert isinstance(op, TiledOperator)
        assert op.block_slices[-1] == slice(96, 100)  # ragged trailing edge
        with _engine(engine):
            result = op.solve(b, method=method, **solve_kwargs)
        results.append(result)
        op.close()
    return results


class TestEquivalence:
    @pytest.mark.parametrize("method", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_bitwise_under_deterministic_mode(self, method, noisy):
        with determinism.column_independent_apply(True):
            stacked, pertile = _twin_solve(method, noisy)
        assert np.array_equal(stacked.value, pertile.value)
        assert stacked.sweeps == pertile.sweeps
        assert stacked.attempts == pertile.attempts
        assert stacked.converged == pertile.converged
        assert np.array_equal(stacked.input_scales, pertile.input_scales)
        assert np.array_equal(stacked.per_column_attempts, pertile.per_column_attempts)
        assert np.array_equal(stacked.column_saturated, pertile.column_saturated)

    @pytest.mark.parametrize("method", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_tolerance_under_blas_mode(self, method, noisy):
        with determinism.column_independent_apply(False):
            stacked, pertile = _twin_solve(method, noisy)
        scale = float(np.linalg.norm(pertile.value))
        assert float(np.linalg.norm(stacked.value - pertile.value)) <= 1e-6 * scale
        assert stacked.sweeps == pertile.sweeps

    def test_vector_rhs_bitwise(self):
        matrix, b = _problem()
        with determinism.column_independent_apply(True):
            values = []
            for engine in ("stacked", "pertile"):
                solver = _solver(noisy=True)
                op = solver.compile(matrix, AMCMode.INV)
                with _engine(engine):
                    values.append(op.solve(b[:, 0]).value)
                op.close()
        assert np.array_equal(values[0], values[1])


class TestInvalidation:
    def test_set_g_f_retune_needs_no_rebuild(self):
        """Ladder moves between solves must neither rebuild stacks nor
        desynchronize the engines — g_f is read live from the registers."""
        matrix, b = _problem()
        with determinism.column_independent_apply(True):
            results = []
            for engine in ("stacked", "pertile"):
                solver = _solver(noisy=True)
                op = solver.compile(matrix, AMCMode.INV)
                with _engine(engine):
                    op.solve(b)
                    for handle in op._solve_handles():
                        tile = handle._tiles[0]
                        tile.primary.set_g_f(tile.primary.config.g_f * 2.0)
                        if tile.partner is not None:
                            tile.partner.set_g_f(tile.primary.config.g_f)
                    results.append(op.solve(b))
                op.close()
        stacked, pertile = results
        assert np.array_equal(stacked.value, pertile.value)
        assert stacked.stack_rebuilds == 0

    def test_preemption_invalidates_exactly_the_stolen_slice(self):
        """The stale-cache regression: a fair-share preemption between
        solves must rebuild the preempted tile's slice — and only it —
        and the answer must stay bitwise equal to the per-tile engine
        under the same preemption."""
        matrix, b = _problem()
        with determinism.column_independent_apply(True):
            results = []
            for engine in ("stacked", "pertile"):
                solver = _solver(noisy=True)
                op = solver.compile(matrix, AMCMode.INV)
                with _engine(engine):
                    op.solve(b)  # warm stacks + ranging
                    op.unpin()  # preemption refuses pinned owners
                    victim = op._off[(0, 1)]
                    assert solver.pool.preempt(victim.owner_names()[0])
                    results.append(op.solve(b))
                op.close()
        stacked, pertile = results
        assert np.array_equal(stacked.value, pertile.value)
        assert stacked.stack_rebuilds == 1
        assert pertile.stack_rebuilds == 0

    def test_steady_state_rebuilds_zero(self):
        matrix, b = _problem()
        solver = _solver(noisy=False)
        op = solver.compile(matrix, AMCMode.INV)
        first = op.solve(b)
        second = op.solve(b)
        assert first.stack_rebuilds == op.block_count  # initial stack build
        assert second.stack_rebuilds == 0
        op.close()


class TestDispatchScaling:
    def _grid_solver(self) -> GramcSolver:
        solver = GramcSolver(
            pool=MacroPool(
                PoolConfig(num_macros=40, rows=TILE, cols=TILE),
                rng=np.random.default_rng(5),
            ),
            rng=np.random.default_rng(9),
        )
        solver.max_attempts = 1  # freeze ranging: pure sweep kernel counts
        return solver

    @pytest.mark.parametrize("n", [64, 128], ids=["2x2", "4x4"])
    def test_jacobi_sweep_costs_constant_dispatches(self, n):
        """A stacked Jacobi sweep is 3 kernels — off-diagonal positive
        plane, off-diagonal negative plane, batched diagonal solve —
        independent of how many tiles the grid holds.  Sweep 1 reads the
        all-zero initial iterate, so both MVM kernels are skipped
        (A·0 ≡ 0) and only the diagonal solve runs."""
        rng = np.random.default_rng(11)
        matrix = block_dominant(n, TILE, rng=rng)
        b = rng.uniform(-1, 1, (n, 4))
        solver = self._grid_solver()
        op = solver.compile(matrix, AMCMode.INV)
        result = op.solve(b, method="jacobi")
        assert result.sweeps >= 1
        assert result.engine_dispatches == 3 * result.sweeps - 2
        op.close()

    def test_pertile_dispatches_scale_with_tiles(self):
        rng = np.random.default_rng(11)
        matrix = block_dominant(128, TILE, rng=rng)
        b = rng.uniform(-1, 1, (128, 4))
        solver = self._grid_solver()
        op = solver.compile(matrix, AMCMode.INV)
        with per_tile_sweeps():
            result = op.solve(b, method="jacobi")
        # 4×4 grid: 12 coupling MVMs + 4 diagonal solves per sweep,
        # minus the 12 zero-source MVMs skipped on sweep 1.
        assert result.engine_dispatches == 16 * result.sweeps - 12
        op.close()

    def test_chip_stats_carry_the_counters(self):
        rng = np.random.default_rng(11)
        matrix = block_dominant(64, TILE, rng=rng)
        b = rng.uniform(-1, 1, (64, 2))
        stats = ChipStats()
        solver = GramcSolver(
            pool=MacroPool(
                PoolConfig(num_macros=40, rows=TILE, cols=TILE),
                rng=np.random.default_rng(5),
            ),
            rng=np.random.default_rng(9),
            stats=stats,
        )
        op = solver.compile(matrix, AMCMode.INV)
        result = op.solve(b)
        assert stats.engine_dispatches == result.engine_dispatches
        assert stats.stack_rebuilds == result.stack_rebuilds
        assert "engine_dispatches" in stats.summary()
        assert "stack_rebuilds" in stats.summary()
        op.close()


def _lane_solver(noisy: bool, stuck: float = 0.0) -> tuple[GramcSolver, ChipStats]:
    config = _pool_config(noisy)
    if stuck:
        config.stack = DeviceStack(
            variability=VariabilityParams(stuck_on_rate=stuck, stuck_off_rate=stuck)
        )
    stats = ChipStats()
    solver = GramcSolver(
        pool=MacroPool(config, rng=np.random.default_rng(77)),
        rng=np.random.default_rng(7),
        stats=stats,
    )
    return solver, stats


def _ledger(result) -> dict:
    # Host and queue time are wall-clock, everything else is simulated.
    return {
        name: value
        for name, value in result.cost.as_dict().items()
        if name not in ("host_s", "queue_wait_s")
    }


class TestLanes:
    """Slot-parallel lanes of the MVM stage chain: two-slot chunks and two
    forced lanes put every small grid on the threaded path, which must
    match the serial stacked path and the per-tile loop bit for bit —
    answers, dispatch and rebuild counts, chip stats and cost ledger."""

    @pytest.fixture
    def lane_log(self, monkeypatch):
        monkeypatch.setattr(GridEngine, "_ELEMENTWISE_CHUNK", 2)
        log: list[int] = []
        run_lanes = grid_engine._run_lanes

        def spy(work, bounds):
            log.append(len(bounds))
            run_lanes(work, bounds)

        monkeypatch.setattr(grid_engine, "_run_lanes", spy)
        return log

    def _solves(self, monkeypatch, n, method, noisy, lanes, engine="stacked", stuck=0.0):
        monkeypatch.setattr(GridEngine, "_LANES", lanes)
        rng = np.random.default_rng(3)
        matrix = block_dominant(n, TILE, rng=rng)
        b = rng.uniform(-1, 1, (n, COLUMNS))
        solver, stats = _lane_solver(noisy, stuck)
        op = solver.compile(matrix, AMCMode.INV)
        with determinism.column_independent_apply(True), _engine(engine):
            results = [op.solve(b, method=method) for _ in range(2)]
        op.close()
        return results, stats.summary()

    def _assert_same(self, left, right, counters=True):
        """Bitwise-equal answers; with ``counters``, also equal dispatch
        and rebuild counts, cost ledgers and chip stats (the per-tile loop
        pays O(tiles) dispatches, so it is compared on answers only)."""
        (results_l, stats_l), (results_r, stats_r) = left, right
        for a, b in zip(results_l, results_r):
            assert np.array_equal(a.value, b.value)
            assert a.sweeps == b.sweeps
            assert a.attempts == b.attempts
            assert np.array_equal(a.input_scales, b.input_scales)
            assert np.array_equal(a.column_saturated, b.column_saturated)
            if counters:
                assert a.engine_dispatches == b.engine_dispatches
                assert a.stack_rebuilds == b.stack_rebuilds
                assert _ledger(a) == _ledger(b)
        if counters:
            assert stats_l == stats_r

    @pytest.mark.parametrize("n", [128, 100], ids=["4x4", "ragged"])
    @pytest.mark.parametrize("method", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_lanes_bitwise_equal_serial_and_pertile(self, monkeypatch, lane_log, n, method, noisy):
        threaded = self._solves(monkeypatch, n, method, noisy, lanes=2)
        assert max(lane_log) == 2  # the lanes really engaged
        lane_log.clear()
        serial = self._solves(monkeypatch, n, method, noisy, lanes=1)
        assert max(lane_log) == 1
        pertile = self._solves(monkeypatch, n, method, noisy, lanes=2, engine="pertile")
        self._assert_same(threaded, serial)
        self._assert_same(threaded, pertile, counters=False)

    def test_ranging_slot_stays_bit_faithful(self, monkeypatch, lane_log):
        ranged: list[int] = []
        autorange = grid_engine.autorange_mvm

        def spy(*args, **kwargs):
            ranged.append(1)
            return autorange(*args, **kwargs)

        monkeypatch.setattr(grid_engine, "autorange_mvm", spy)
        threaded = self._solves(monkeypatch, N, "jacobi", True, lanes=2)
        assert ranged and max(lane_log) == 2
        serial = self._solves(monkeypatch, N, "jacobi", True, lanes=1)
        pertile = self._solves(monkeypatch, N, "jacobi", True, lanes=2, engine="pertile")
        self._assert_same(threaded, serial)
        self._assert_same(threaded, pertile, counters=False)

    def test_fault_corrected_tiles_stay_bit_faithful(self, monkeypatch, lane_log):
        threaded = self._solves(monkeypatch, 128, "jacobi", True, lanes=2, stuck=0.01)
        assert max(lane_log) == 2
        serial = self._solves(monkeypatch, 128, "jacobi", True, lanes=1, stuck=0.01)
        pertile = self._solves(
            monkeypatch, 128, "jacobi", True, lanes=2, engine="pertile", stuck=0.01
        )
        self._assert_same(threaded, serial)
        self._assert_same(threaded, pertile, counters=False)

    def test_lanes_keep_the_callers_errstate(self):
        seen: list[str] = []

        def work(lo, hi):
            seen.append(np.geterr()["divide"])

        with np.errstate(divide="raise"):
            grid_engine._run_lanes(work, [(0, 2), (2, 4)])
        assert seen == ["raise", "raise"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_forked_child_gets_a_fresh_pool(self):
        """A child forked after the pool exists inherits none of its
        threads; its lanes must run on a pool of its own, not hang."""
        grid_engine._run_lanes(lambda lo, hi: None, [(0, 1), (1, 2)])
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            done: list[int] = []
            grid_engine._run_lanes(lambda lo, hi: done.append(lo), [(0, 1), (1, 2)])
            os._exit(0 if sorted(done) == [0, 1] else 1)
        deadline = time.monotonic() + 30.0
        while True:
            finished, status = os.waitpid(pid, os.WNOHANG)
            if finished:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung on the inherited lane pool")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_lane_errors_reach_the_caller(self):
        def work(lo, hi):
            if lo:
                raise FloatingPointError("lane")

        with pytest.raises(FloatingPointError, match="lane"):
            grid_engine._run_lanes(work, [(0, 2), (2, 4)])


class TestLaneSplit:
    @staticmethod
    def _slots(rngs):
        return [SimpleNamespace(tile=SimpleNamespace(primary=SimpleNamespace(rng=r))) for r in rngs]

    def test_disjoint_streams(self):
        a, b, c, d = (object() for _ in range(4))
        assert grid_engine._lanes_disjoint(self._slots([a, b, c, d]), [(0, 2), (2, 4)])
        # A stream shared inside one lane keeps its serial draw order.
        assert grid_engine._lanes_disjoint(self._slots([a, a, c, d]), [(0, 2), (2, 4)])
        assert not grid_engine._lanes_disjoint(self._slots([a, b, c, a]), [(0, 2), (2, 4)])

    def _bounds(self, monkeypatch, slots, chunk, lanes):
        monkeypatch.setattr(GridEngine, "_ELEMENTWISE_CHUNK", chunk)
        monkeypatch.setattr(GridEngine, "_LANES", lanes)
        return GridEngine._lane_bounds(GridEngine, slots)

    def test_bounds_are_contiguous_runs_of_whole_chunks(self, monkeypatch):
        slots = self._slots([object() for _ in range(240)])
        assert self._bounds(monkeypatch, slots, 32, 2) == [(0, 128), (128, 240)]
        assert self._bounds(monkeypatch, slots, 32, 3) == [(0, 96), (96, 192), (192, 240)]
        # One chunk, or one lane, is the serial path.
        assert self._bounds(monkeypatch, slots[:32], 32, 2) == [(0, 32)]
        assert self._bounds(monkeypatch, slots, 32, 1) == [(0, 240)]

    def test_shared_stream_across_lanes_runs_serially(self, monkeypatch):
        shared = object()
        rngs = [object() for _ in range(6)]
        rngs[0] = rngs[5] = shared
        assert self._bounds(monkeypatch, self._slots(rngs), 2, 2) == [(0, 6)]

    def test_default_small_grid_starts_no_thread(self):
        rng = np.random.default_rng(11)
        matrix = block_dominant(128, TILE, rng=rng)
        b = rng.uniform(-1, 1, (128, 4))
        solver, _ = _lane_solver(noisy=True)
        op = solver.compile(matrix, AMCMode.INV)
        before = threading.active_count()
        op.solve(b, method="jacobi")
        assert threading.active_count() == before
        op.close()
