"""Serve-layer degradation: fault retries, cancellation races, backoff hints.

The dispatch window must survive a chip that degrades mid-batch: one
serve-level heal + retry keeps coalesced siblings alive, a caller that
cancelled during the retry is never re-executed or re-billed, and
unrecoverable batches reject with a structured
:class:`DegradedChipError` carrying the health snapshot.  Shed requests
carry a ``retry_after_hint`` so clients can back off intelligently."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.errors import (
    CapacityError,
    ConvergenceError,
    DegradedChipError,
    ShapeError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.serve.coalescer import CoalescedBatch
from repro.serve.service import UNTIMED_DISPATCH_S, SolveService
from repro.serve.types import (
    QuotaExceeded,
    ServeConfig,
    ServiceOverloaded,
    SolveRequest,
    TenantQuota,
)
from tests.serve.conftest import make_noiseless_solver

pytestmark = pytest.mark.asyncio

N = 12


def _problem(k=2):
    rng = np.random.default_rng(21)
    a = np.eye(N) * 3.0 + rng.normal(0, 0.1, (N, N))
    b = rng.normal(0, 1, (N, k))
    return a, b


def make_faulted_service(**config) -> SolveService:
    solver = make_noiseless_solver(seed=31)
    FaultInjector(FaultPlan(), solver.pool)
    return SolveService(solver, ServeConfig(**config))


def _flaky(operator, failures: int, error_factory):
    """Wrap ``operator.solve`` to fail the first ``failures`` calls and
    record the column width of every attempt."""
    original = operator.solve
    widths: list[int] = []

    def solve(payload, **kwargs):
        payload = np.asarray(payload, dtype=float)
        widths.append(1 if payload.ndim == 1 else payload.shape[1])
        if len(widths) <= failures:
            raise error_factory()
        return original(payload, **kwargs)

    operator.solve = solve
    return widths


# ------------------------------------------------------------ fault retry


async def test_window_survives_one_fault_via_heal_and_retry():
    a, b = _problem()
    service = make_faulted_service()
    service.register_tenant("alice")
    service.register_tenant("bob")
    async with service:
        op = await service.compile("alice", a, AMCMode.INV)
        widths = _flaky(op, 1, lambda: ConvergenceError("injected tile fault"))
        results = await asyncio.gather(
            service.solve("alice", op, b[:, 0]),
            service.solve("bob", op, b[:, 1]),
        )
    assert widths == [2, 2]  # one failed window, one coalesced retry
    assert all(r.value.shape == (N,) for r in results)
    assert service.stats.fault_retries == 1
    monitor = service.solver.pool.fault_injector.monitor
    assert monitor.heal_reports  # the serve layer really healed


async def test_unrecoverable_batch_rejects_with_health_snapshot():
    a, b = _problem()
    service = make_faulted_service()
    service.register_tenant("alice")
    async with service:
        op = await service.compile("alice", a, AMCMode.INV)
        _flaky(op, 99, lambda: ConvergenceError("permanent tile fault"))
        with pytest.raises(DegradedChipError) as excinfo:
            await service.solve("alice", op, b[:, 0])
    error = excinfo.value
    assert error.health is not None and "scores" in error.health
    assert error.healing is not None
    counters = service.registry.get("alice").counters
    assert counters.failed == 1 and counters.completed == 0


async def test_without_injector_convergence_errors_pass_through():
    """No fault machinery ⇒ no serve-level heal: the original error
    reaches the caller unchanged (fault-free path untouched)."""
    a, b = _problem()
    service = SolveService(make_noiseless_solver(seed=31), ServeConfig())
    service.register_tenant("alice")
    async with service:
        op = await service.compile("alice", a, AMCMode.INV)
        _flaky(op, 1, lambda: ConvergenceError("diverged"))
        with pytest.raises(ConvergenceError):
            await service.solve("alice", op, b[:, 0])
    assert service.stats.fault_retries == 0


# -------------------------------------------------------- recovery matrix

#: Scripted chip failures; any other ``GramcError`` is a malformed group.
FAILURES = {
    "capacity": lambda: CapacityError("injected: pool full"),
    "convergence": lambda: ConvergenceError("injected: diverged"),
    "degraded": lambda: DegradedChipError("injected: degraded"),
    "other": lambda: ShapeError("injected: malformed group"),
}


def _scripted(operator, script):
    """Wrap ``operator.solve`` to raise the scripted failures in order,
    then solve; returns the list of chip executions (column widths)."""
    original = operator.solve
    widths: list[int] = []

    def solve(payload, **kwargs):
        widths.append(np.asarray(payload).shape[1])
        if len(widths) <= len(script) and script[len(widths) - 1] is not None:
            raise FAILURES[script[len(widths) - 1]]()
        return original(payload, **kwargs)

    operator.solve = solve
    return widths


def _expected_recovery(script, victim: bool, injector: bool):
    """The documented recovery order, replayed over a failure script:
    a capacity failure gets one ``make_room`` retry (``ServiceOverloaded``
    without a victim or on a second capacity failure); a convergence or
    degraded failure gets one heal-and-retry with an injector, after
    which a ``DegradedChipError`` passes and anything else is wrapped in
    one; every other failure rejects the group.

    Returns (caller error or None, whether healing wrapped it,
    executions, fault retries, whether a victim was preempted)."""
    executions = retries = 0
    made_room = False
    for failure in [*script, None]:
        executions += 1
        if failure is None:
            return None, False, executions, retries, made_room
        if retries:
            wrapped = failure != "degraded"
            return DegradedChipError, wrapped, executions, retries, made_room
        if failure == "capacity":
            if made_room or not victim:
                return ServiceOverloaded, False, executions, retries, made_room
            made_room = True
        elif failure in ("convergence", "degraded") and injector:
            retries = 1
        else:
            return type(FAILURES[failure]()), False, executions, retries, made_room
    raise AssertionError("unreachable")


@pytest.mark.parametrize("injector", [True, False], ids=["injector", "no_injector"])
@pytest.mark.parametrize("retry", [None, *FAILURES], ids=lambda r: f"then_{r or 'ok'}")
@pytest.mark.parametrize(
    "first", ["capacity_victim", "capacity_no_victim", "convergence", "degraded", "other"]
)
async def test_recovery_matrix(first, retry, injector):
    """Every first failure × every retry outcome, with and without a
    fault injector: what the caller sees, how often the chip ran, and
    every counter the recovery touches."""
    a, b = _problem()
    solver = make_noiseless_solver(seed=31)
    if injector:
        FaultInjector(FaultPlan(), solver.pool)
    service = SolveService(solver, ServeConfig())
    service.register_tenant("alice")
    service.register_tenant("bob")
    script = ["capacity" if first.startswith("capacity") else first, retry]
    victim = first != "capacity_no_victim"
    async with service:
        bystander = await service.compile("bob", a.T, AMCMode.INV)
        if not victim:
            bystander.pin()
        op = await service.compile("alice", a, AMCMode.INV)
        widths = _scripted(op, script)
        outcomes = await asyncio.gather(
            service.solve("alice", op, b[:, 0]),
            service.solve("alice", op, b[:, 1]),
            return_exceptions=True,
        )
    error, wrapped, executions, retries, preempted = _expected_recovery(
        script, victim, injector
    )
    assert widths == [2] * executions  # the window rode every execution whole
    alice = service.registry.get("alice").counters
    if error is None:
        assert all(result.value.shape == (N,) for result in outcomes)
        assert (alice.completed, alice.failed) == (2, 0)
    else:
        assert all(type(outcome) is error for outcome in outcomes)
        assert outcomes[0] is outcomes[1]  # one error for the whole group
        assert (alice.completed, alice.failed) == (0, 2)
        # Healing wraps a second failure with evidence; a degraded one
        # already carries its own and passes through.
        assert ("after serve-level healing" in str(outcomes[0])) == wrapped
        assert (getattr(outcomes[0], "health", None) is not None) == wrapped
    assert service.stats.fault_retries == retries
    assert service.stats.shed_requests == (2 if error is ServiceOverloaded else 0)
    assert alice.cancelled == 0 and alice.preemptions == 0
    assert service.registry.get("bob").counters.preemptions == int(preempted)


# ------------------------------------------------------ cancellation race


async def test_cancelled_request_is_not_reexecuted_or_rebilled():
    """A caller that cancels while the window's fault is being healed
    must not ride the retry: its column is dropped from the rebuilt
    batch and its tenant is never billed for the retried dispatch."""
    a, b = _problem()
    service = make_faulted_service()
    service.register_tenant("alice")
    service.register_tenant("bob")
    async with service:
        op = await service.compile("alice", a, AMCMode.INV)
        loop = asyncio.get_running_loop()
        requests = [
            SolveRequest(
                tenant=tenant,
                operator=op,
                kind="solve",
                payload=b[:, j],
                future=loop.create_future(),
                columns=1,
                vector=True,
            )
            for j, tenant in enumerate(["alice", "bob"])
        ]
        batch = CoalescedBatch(op, "solve", requests)
        widths = _flaky(op, 0, None)
        requests[0].future.cancel()  # alice bails during the fault window
        await service._dispatch(
            batch, parent=None, error=ConvergenceError("injected tile fault")
        )
        assert widths == [1]  # only bob's column was re-executed
        assert requests[0].future.cancelled()
        assert requests[1].future.result().value.shape == (N,)
    alice = service.registry.get("alice").counters
    bob = service.registry.get("bob").counters
    assert alice.columns_dispatched == 0 and alice.completed == 0
    assert alice.cancelled == 1  # dropped from the retry, still counted
    assert bob.columns_dispatched == 1 and bob.completed == 1
    assert bob.cancelled == 0


async def test_retry_skipped_entirely_when_every_caller_left():
    a, b = _problem()
    service = make_faulted_service()
    service.register_tenant("alice")
    async with service:
        op = await service.compile("alice", a, AMCMode.INV)
        loop = asyncio.get_running_loop()
        request = SolveRequest(
            tenant="alice",
            operator=op,
            kind="solve",
            payload=b[:, 0],
            future=loop.create_future(),
            columns=1,
            vector=True,
        )
        batch = CoalescedBatch(op, "solve", [request])
        widths = _flaky(op, 0, None)
        request.future.cancel()
        await service._dispatch(
            batch, parent=None, error=ConvergenceError("injected")
        )
        assert widths == []  # chip never touched again
    assert service.stats.fault_retries == 0
    assert service.registry.get("alice").counters.cancelled == 1


# ------------------------------------------------------- retry_after_hint


async def test_shed_requests_carry_retry_after_hint():
    a, b = _problem()
    service = make_faulted_service(max_pending=1)
    service.register_tenant(
        "alice", TenantQuota(max_pending=1)
    )
    async with service:
        op = await service.compile("alice", a, AMCMode.INV)
        await service.solve("alice", op, b[:, 0])  # seeds mean dispatch time
        mean = service.stats.mean_dispatch_s
        assert mean > 0.0
        first = asyncio.create_task(service.solve("alice", op, b))
        await asyncio.sleep(0)  # let it occupy the single pending slot
        with pytest.raises(ServiceOverloaded) as excinfo:
            await service.solve("alice", op, b[:, 1])
        await first
    hint = excinfo.value.retry_after_hint
    # depth (1 queued) + the retrying request itself, times the mean
    # dispatch time observed at shed time — strictly above one mean.
    assert hint is not None and hint >= mean
    assert hint < 60.0  # sane scale: milliseconds-to-seconds, not hours


async def test_quota_exceeded_inherits_the_hint():
    a, b = _problem()
    service = make_faulted_service()
    service.register_tenant("alice", TenantQuota(max_pending=1))
    async with service:
        op = await service.compile("alice", a, AMCMode.INV)
        first = asyncio.create_task(service.solve("alice", op, b))
        await asyncio.sleep(0)
        with pytest.raises(QuotaExceeded) as excinfo:
            await service.solve("alice", op, b[:, 0])
        await first
    assert excinfo.value.retry_after_hint is not None
    assert excinfo.value.retry_after_hint > 0.0


async def test_hint_defaults_to_untimed_dispatch_before_any_dispatch():
    service = make_faulted_service()
    assert UNTIMED_DISPATCH_S == 0.002
    assert service.retry_after_estimate() == pytest.approx(0.002)
