"""End-to-end serve-layer tests against the real analog engine.

The centerpiece is the **bit-transparency contract**: N concurrent
clients coalesced into one batched engine call receive answers bitwise
identical to N sequential solve calls on an identically seeded twin chip.
This holds under the service's column-independent deterministic engine
mode, a noiseless configuration, and a warmed shared TIA ladder (both
twins warm with the same full batch so no ladder moves occur during the
measured solves) — exactly the conditions the serve layer documents."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.analog import column_independent, column_independent_apply
from repro.analog.topologies import AMCMode
from repro.core.backend import NumpyBackend
from repro.core.errors import InputError
from repro.serve import (
    ColumnRangingError,
    RequestTimeout,
    ServeConfig,
    ServeError,
    ServiceOverloaded,
    SolveService,
    TenantQuota,
)
from tests.serve.conftest import make_noiseless_solver

pytestmark = pytest.mark.asyncio

N_CLIENTS = 5
N = 12


def _problem(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A well-conditioned operand and unit-peak columns (comparable
    magnitudes keep the shared TIA ladder still during measurement)."""
    a = np.eye(N) * 2.0 + rng.normal(0.0, 0.05, (N, N))
    b = rng.normal(0.0, 1.0, (N, N_CLIENTS))
    b /= np.max(np.abs(b), axis=0)
    return a, b


def _sequential_columns(solver, a, b) -> list[np.ndarray]:
    """Reference answers: warm the ladder with the full batch, then solve
    column by column, all under the engine's deterministic mode."""
    with column_independent_apply():
        with solver.compile(a, AMCMode.INV) as op:
            op.solve(b)  # ladder warm-up, identical on both twins
            return [op.solve(b[:, j]).value.copy() for j in range(b.shape[1])]


async def test_coalesced_answers_are_bitwise_sequential(solver_twins):
    serve_solver, reference_solver = solver_twins
    rng = np.random.default_rng(42)
    a, b = _problem(rng)
    expected = _sequential_columns(reference_solver, a, b)

    service = SolveService(serve_solver, ServeConfig(window_s=0.05))
    for j in range(N_CLIENTS):
        service.register_tenant(f"client{j}")
    async with service:
        op = await service.compile("client0", a, AMCMode.INV)
        await service.solve("client0", op, b)  # same warm-up batch
        results = await asyncio.gather(
            *[
                service.solve(f"client{j}", op, b[:, j])
                for j in range(N_CLIENTS)
            ]
        )
    # One engine call for the warm-up batch + one for the window.
    assert service.stats.engine_calls == 2
    assert service.stats.coalesced_columns == N_CLIENTS * 2
    for j, result in enumerate(results):
        assert result.value.shape == (N,)
        assert np.array_equal(result.value, expected[j]), f"column {j} differs"


async def test_mixed_shapes_coalesce_bitwise(solver_twins):
    serve_solver, reference_solver = solver_twins
    rng = np.random.default_rng(43)
    a, b = _problem(rng)
    # client0: vector col0; client1: (n, 2) batch cols 1-2; client2: vector col3.
    with column_independent_apply():
        with reference_solver.compile(a, AMCMode.INV) as op:
            op.solve(b)  # warm-up
            want_vec0 = op.solve(b[:, 0]).value.copy()
            want_mat = op.solve(b[:, 1:3]).value.copy()
            want_vec3 = op.solve(b[:, 3]).value.copy()

    service = SolveService(serve_solver, ServeConfig(window_s=0.05))
    for name in ("c0", "c1", "c2"):
        service.register_tenant(name)
    async with service:
        op = await service.compile("c0", a, AMCMode.INV)
        await service.solve("c0", op, b)  # warm-up
        r0, r1, r2 = await asyncio.gather(
            service.solve("c0", op, b[:, 0]),
            service.solve("c1", op, b[:, 1:3]),
            service.solve("c2", op, b[:, 3]),
        )
    assert np.array_equal(r0.value, want_vec0)
    assert r1.value.shape == (N, 2)
    assert np.array_equal(r1.value, want_mat)
    assert np.array_equal(r2.value, want_vec3)


async def test_cancellation_mid_window_leaves_siblings_bitwise(solver_twins):
    serve_solver, reference_solver = solver_twins
    rng = np.random.default_rng(44)
    a, b = _problem(rng)
    expected = _sequential_columns(reference_solver, a, b)

    service = SolveService(serve_solver, ServeConfig(window_s=0.25))
    for j in range(N_CLIENTS):
        service.register_tenant(f"client{j}")
    async with service:
        op = await service.compile("client0", a, AMCMode.INV)
        await service.solve("client0", op, b)  # warm-up
        tasks = [
            asyncio.create_task(service.solve(f"client{j}", op, b[:, j]))
            for j in range(N_CLIENTS)
        ]
        await asyncio.sleep(0.02)  # all admitted, window still open
        tasks[2].cancel()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    assert isinstance(outcomes[2], asyncio.CancelledError)
    for j, outcome in enumerate(outcomes):
        if j == 2:
            continue
        assert np.array_equal(outcome.value, expected[j]), f"column {j} differs"
    assert service.stats.tenant("client2").cancelled == 1
    assert service.stats.tenant("client2").completed == 0


async def test_ranging_failure_is_isolated_to_its_column():
    # max_attempts=4 exhausts the ladder + input-shrink budget for the
    # ill-conditioned axis but leaves the well-conditioned ones in range.
    solver = make_noiseless_solver(seed=11, max_attempts=4)
    diag = np.full(8, 2.0)
    diag[-1] = 2.0 / 15.0  # one quantization level: survives 4-bit mapping
    a = np.diag(diag)
    b_good0 = np.eye(8)[0]
    b_good1 = np.eye(8)[1]
    b_bad = np.eye(8)[7]  # drives the near-singular axis

    service = SolveService(solver, ServeConfig(window_s=0.05))
    for name in ("good0", "good1", "bad"):
        service.register_tenant(name)
    async with service:
        op = await service.compile("good0", a, AMCMode.INV)
        outcomes = await asyncio.gather(
            service.solve("good0", op, b_good0),
            service.solve("good1", op, b_good1),
            service.solve("bad", op, b_bad),
            return_exceptions=True,
        )
    ok0, ok1, failed = outcomes
    assert not isinstance(ok0, Exception) and ok0.ok
    assert not isinstance(ok1, Exception) and ok1.ok
    assert isinstance(failed, ColumnRangingError)
    assert failed.result is not None and failed.result.saturated
    assert service.stats.tenant("bad").failed == 1
    assert service.stats.tenant("good0").completed == 1
    # All three still rode one coalesced engine call.
    assert service.stats.engine_calls == 1


async def test_timeout_raises_request_timeout():
    solver = make_noiseless_solver(seed=12)
    service = SolveService(solver, ServeConfig(window_s=0.2))
    service.register_tenant("slow")
    async with service:
        op = await service.compile("slow", np.eye(8) * 2.0, AMCMode.INV)
        with pytest.raises(RequestTimeout):
            # The window is still collecting when the deadline fires.
            await service.solve("slow", op, np.ones(8), timeout=0.01)
    assert service.stats.tenant("slow").timed_out == 1
    # The pending slot was returned despite the timeout.
    assert service.snapshot()["queue_depths"]["total"] == 0


async def test_handles_only_rejects_raw_matrices():
    solver = make_noiseless_solver(seed=13)
    service = SolveService(solver)
    service.register_tenant("t")
    async with service:
        with pytest.raises(TypeError, match="compiled operator handles only"):
            await service.solve("t", np.eye(8) * 2.0, np.ones(8))


async def test_mode_and_shape_validated_at_submit():
    solver = make_noiseless_solver(seed=14)
    service = SolveService(solver)
    service.register_tenant("t")
    async with service:
        op = await service.compile("t", np.eye(8) * 2.0, AMCMode.INV)
        with pytest.raises(ServeError, match="compiled for mvm"):
            await service.mvm("t", op, np.ones(8))
        with pytest.raises(ValueError, match="leading dimension 8"):
            await service.solve("t", op, np.ones(9))
        await service.release("t", op)
        with pytest.raises(ServeError, match="closed"):
            await service.solve("t", op, np.ones(8))


@pytest.mark.parametrize("kind", ["nan", "inf", "complex"])
async def test_bad_payload_rejected_before_any_dispatch(kind):
    solver = make_noiseless_solver(seed=16)
    service = SolveService(solver)
    service.register_tenant("t")
    payload = np.ones(8) + 1j if kind == "complex" else np.ones(8)
    if kind != "complex":
        payload[3] = np.nan if kind == "nan" else np.inf
    expected = TypeError if kind == "complex" else InputError
    async with service:
        inv = await service.compile("t", np.eye(8) * 2.0, AMCMode.INV)
        mvm = await service.compile("t", np.eye(8) * 2.0, AMCMode.MVM)
        dispatches = solver.engine_dispatches
        for submit, op in ((service.solve, inv), (service.mvm, mvm)):
            with pytest.raises(expected):
                await submit("t", op, payload)
        assert service.snapshot()["queue_depths"]["total"] == 0
    assert service.stats.engine_calls == 0
    assert solver.engine_dispatches == dispatches


async def test_submit_requires_running_service():
    solver = make_noiseless_solver(seed=15)
    service = SolveService(solver)
    service.register_tenant("t")
    with pytest.raises(ServeError, match="not running"):
        await service.solve("t", object(), np.ones(8))


async def test_fair_share_preemption_reclaims_over_share_tenant():
    # Pool of 2 macros: "fair" compiles two resident operators (2 > its
    # share of 1); "hog"'s evicted operator must preempt fair's tiles.
    solver = make_noiseless_solver(seed=16, num_macros=2, n=16)
    service = SolveService(solver, ServeConfig(window_s=0.005))
    service.register_tenant("hog", TenantQuota(max_macros=1))
    service.register_tenant("fair", TenantQuota(max_macros=1))
    async with service:
        op_h = await service.compile("hog", np.eye(8) * 2.0, AMCMode.INV)
        await service.compile("fair", np.eye(8) * 3.0, AMCMode.INV)
        await service.compile("fair", np.eye(8) * 4.0, AMCMode.INV)
        assert not op_h.resident  # LRU-evicted by fair's compiles
        result = await service.solve("hog", op_h, np.ones(8))
        assert result.ok
    assert service.stats.tenant("fair").preemptions == 1


async def test_overload_when_everything_is_pinned():
    solver = make_noiseless_solver(seed=17, num_macros=1, n=16)
    service = SolveService(solver, ServeConfig(window_s=0.005))
    service.register_tenant("hog", TenantQuota(max_macros=0))
    service.register_tenant("meek")
    async with service:
        op_hog = await service.compile("hog", np.eye(8) * 2.0, AMCMode.INV)
        op_meek = await service.compile("meek", np.eye(8) * 3.0, AMCMode.INV)
        await service.solve("hog", op_hog, np.ones(8))  # hog resident again
        op_hog.pin()  # a pinned promise preemption must not break
        with pytest.raises(ServiceOverloaded) as excinfo:
            await service.solve("meek", op_meek, np.ones(8))
        assert excinfo.value.owner_stats  # structured: who holds the chip
        op_hog.unpin()
        result = await service.solve("meek", op_meek, np.ones(8))
        assert result.ok


async def test_snapshot_is_side_effect_free_poll():
    solver = make_noiseless_solver(seed=18)
    service = SolveService(solver)
    service.register_tenant("t")
    async with service:
        op = await service.compile("t", np.eye(8) * 2.0, AMCMode.INV)
        op.pin()
        before = solver.pool.acquisitions
        snapshot = service.snapshot()
        assert solver.pool.acquisitions == before  # no allocation happened
        assert snapshot["running"] is True
        assert snapshot["pool"]["pinned_macros"] >= 1
        assert "total" in snapshot["queue_depths"]
        assert snapshot["service"]["engine_calls"] == 0
        op.unpin()


class _ModeRecordingBackend(NumpyBackend):
    """The default kernels, recording the mode each call arrives with."""

    name = "mode-recording"

    def __init__(self):
        self.modes: list[bool] = []

    def batched_matmul(self, a, x, column_independent=False):
        self.modes.append(column_independent)
        return super().batched_matmul(a, x, column_independent)


async def test_service_restores_engine_determinism_mode():
    """The mode lives on each service's chip thread, never on the caller's:
    services started A then B and closed A then B leave it off."""
    first = SolveService(make_noiseless_solver(seed=19))
    second = SolveService(make_noiseless_solver(seed=20))
    assert not column_independent()
    await first.start()
    await second.start()
    await first.close()
    await second.close()
    assert not column_independent()


async def test_engine_mode_is_held_by_the_chip_thread():
    service = SolveService(make_noiseless_solver(seed=19))
    async with service:
        assert not column_independent()
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(service._executor, column_independent)
    assert not column_independent()


async def test_direct_calls_beside_a_running_service_keep_blas():
    """A served solve reaches the backend column-independent; a direct
    call on the caller's thread while the service runs does not."""
    backend = _ModeRecordingBackend()
    solver = make_noiseless_solver(seed=21, backend=backend)
    a, b = _problem(np.random.default_rng(8))
    service = SolveService(solver, ServeConfig(window_s=0.01))
    service.register_tenant("t")
    async with service:
        op = await service.compile("t", a, AMCMode.INV)
        await service.solve("t", op, b)
        served, backend.modes = backend.modes, []
        op.solve(b)
        direct = backend.modes
    assert served and all(served)
    assert direct and not any(direct)


async def test_tiled_solve_rides_the_stacked_engine():
    """A blocked operator served through the service sweeps on the
    vectorized grid engine: the scattered result surfaces the stacked
    telemetry (O(block-rows) dispatches per sweep, stack-rebuild counts),
    and the answer is bitwise the twin chip's direct stacked solve under
    the service's deterministic engine mode."""
    serve_solver = make_noiseless_solver(seed=11, num_macros=16, n=32)
    reference_solver = make_noiseless_solver(seed=11, num_macros=16, n=32)
    rng = np.random.default_rng(6)
    n, tile = 32, 8
    a = np.eye(n) * 4.0 + rng.normal(0.0, 0.05, (n, n))
    b = rng.normal(0.0, 1.0, (n, 3))
    b /= np.max(np.abs(b), axis=0)

    with column_independent_apply():
        with reference_solver.compile(a, AMCMode.INV, tile=tile) as ref:
            ref_first = ref.solve(b)
            ref_second = ref.solve(b)

    service = SolveService(serve_solver, ServeConfig(window_s=0.02))
    service.register_tenant("grid")
    async with service:
        op = await service.compile("grid", a, AMCMode.INV, tile=tile)
        assert op.grid == (4, 4)  # compile kwargs reached the solver
        first = await service.solve("grid", op, b)
        second = await service.solve("grid", op, b)

    assert np.array_equal(second.value, ref_second.value)
    assert first.stack_rebuilds == ref_first.stack_rebuilds > 0
    assert second.stack_rebuilds == 0  # steady state: stacks stay resident
    assert second.sweeps == ref_second.sweeps >= 1
    assert second.engine_dispatches == ref_second.engine_dispatches
    # ≤ 3 kernels per block-row stage, independent of the tiles per row —
    # the per-tile loop would pay O(tiles) engine calls per sweep.
    assert 0 < second.engine_dispatches <= 3 * op.grid[0] * second.sweeps


async def test_coalesced_tiled_mvm_scatters_the_batched_per_column_flags():
    """A window on an MVM handle spread over several array tiles scatters
    each caller its slice of the batched call's own per-column arrays,
    not copies of the window-wide scalars."""
    serve_solver = make_noiseless_solver(seed=12, num_macros=16)
    reference_solver = make_noiseless_solver(seed=12, num_macros=16)
    rng = np.random.default_rng(9)
    n = 32  # a 2x2 grid of 16-wide array tiles
    a = rng.normal(0.0, 0.3, (n, n))
    b = rng.normal(0.0, 1.0, (n, 3))
    b *= np.array([1.0, 0.5, 0.25]) / np.max(np.abs(b), axis=0)

    with column_independent_apply():
        with reference_solver.compile(a, AMCMode.MVM) as ref:
            want = ref.mvm(b)
    assert want.input_scales.shape == want.per_column_attempts.shape == (3,)
    assert len(set(want.input_scales)) == 3

    service = SolveService(serve_solver, ServeConfig(window_s=0.05))
    service.register_tenant("grid")
    async with service:
        op = await service.compile("grid", a, AMCMode.MVM)
        assert len(op.macro_ids) > 1
        vector, batch = await asyncio.gather(
            service.mvm("grid", op, b[:, 0]), service.mvm("grid", op, b[:, 1:])
        )
    assert service.stats.engine_calls == 1

    assert np.array_equal(vector.value, want.value[:, 0])
    assert vector.input_scale == want.input_scales[0]
    assert vector.attempts == want.per_column_attempts[0]
    assert vector.saturated == want.column_saturated[0]
    assert np.array_equal(batch.value, want.value[:, 1:])
    assert np.array_equal(batch.input_scales, want.input_scales[1:])
    assert np.array_equal(batch.per_column_attempts, want.per_column_attempts[1:])
    assert np.array_equal(batch.column_saturated, want.column_saturated[1:])
