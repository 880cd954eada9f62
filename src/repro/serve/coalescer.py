"""Cross-request RHS coalescing: one engine call per (operator, kind) group.

The chip's defining economics are *program once, solve many*: a resident
operator answers a ``(n, k)`` batch in one engine call for nearly the
price of one column.  Within a dispatch window the coalescer exploits
that **across tenants**: every request targeting the same resident
operator (matched by compile-cache digest ``operator.key``) and the same
verb has its columns concatenated into one batch, executed in one engine
call, and scattered back column-by-column to each caller's future.

Bit-transparency contract
-------------------------
Under the engine's column-independent deterministic mode (enabled for the
service's lifetime) and a noiseless configuration, a request's scattered
columns are **bitwise identical** to the same solve issued alone —
*provided the window's shared TIA feedback ladder is in range for every
column* (auto-ranging follows the worst column; a window whose columns
need different ladder codes settles on the worst case, which can move
siblings' answers at ADC-LSB level).  Failure isolation is per request:
a column that stays saturated after auto-ranging rejects only its own
future with :class:`~repro.serve.types.ColumnRangingError`, and a
refining request whose own columns missed their ``rtol`` rejects only
its own future with :class:`~repro.core.errors.ConvergenceError`.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConvergenceError
from repro.core.refine import worst_columns_of
from repro.core.results import SolveResult
from repro.serve.tenancy import TenantRegistry
from repro.serve.types import ColumnRangingError, SolveRequest


class CoalescedBatch:
    """One window group: same operator (by digest), same verb.

    ``execute`` runs on the chip thread (it is plain synchronous solver
    code); ``scatter`` / ``reject_all`` run on the event loop thread (they
    touch futures)."""

    def __init__(self, operator, kind: str, requests: "list[SolveRequest]"):
        self.operator = operator
        self.kind = kind
        self.requests = requests
        self._spans: list[tuple[int, int]] = []
        offset = 0
        for request in requests:
            self._spans.append((offset, offset + request.columns))
            offset += request.columns
        self.columns = offset

    # ------------------------------------------------------------- bookkeeping

    def tenant_names(self) -> list[str]:
        """Distinct participating tenants, in first-appearance order."""
        seen: dict[str, None] = {}
        for request in self.requests:
            seen.setdefault(request.tenant, None)
        return list(seen)

    def tenant_columns(self) -> dict[str, int]:
        columns: dict[str, int] = {}
        for request in self.requests:
            columns[request.tenant] = columns.get(request.tenant, 0) + request.columns
        return columns

    def priority(self, registry: TenantRegistry) -> int:
        return max(
            registry.get(request.tenant).quota.priority for request in self.requests
        )

    def deficit(self, registry: TenantRegistry) -> float:
        return min(
            registry.get(request.tenant).deficit for request in self.requests
        )

    # --------------------------------------------------------------- execution

    def execute(self) -> SolveResult:
        """One batched engine call for the whole group (chip thread)."""
        if self.kind == "eigvec":
            # Identical-operand EGV requests dedupe to one settling: the
            # dominant eigenvector does not depend on any payload.
            return self.operator.eigvec()
        columns = []
        for request in self.requests:
            payload = np.asarray(request.payload, dtype=float)
            columns.append(payload.reshape(payload.shape[0], -1))
        batch = np.concatenate(columns, axis=1)
        method = getattr(self.operator, self.kind)
        rtol = self._batch_rtol()
        if rtol is not None:
            return method(batch, rtol=rtol)
        return method(batch)

    def _batch_rtol(self) -> np.ndarray | None:
        """Window-wide per-column refinement targets, or ``None``.

        A request without targets contributes ``inf`` entries — its
        columns ride the shared analog step and are never touched by
        correction solves, so (column-independent mode) its answer stays
        bitwise identical to an unrefined window."""
        if all(request.rtol is None for request in self.requests):
            return None
        parts = [
            request.rtol
            if request.rtol is not None
            else np.full(request.columns, np.inf)
            for request in self.requests
        ]
        return np.concatenate(parts)

    # ----------------------------------------------------------------- scatter

    def scatter(self, result: SolveResult, registry: TenantRegistry) -> None:
        """Slice the batched result back to each caller's future."""
        if self.kind == "eigvec":
            for request in self.requests:
                self._resolve_one(request, result, registry)
            return
        for request, (start, stop) in zip(self.requests, self._spans):
            self._resolve_one(
                request, self._slice(result, start, stop, request), registry
            )

    def reject_all(self, error: BaseException, registry: TenantRegistry) -> None:
        """Fail every still-live future in the group with ``error``."""
        for request in self.requests:
            if request.future.done():
                continue
            registry.get(request.tenant).counters.failed += 1
            request.future.set_exception(error)

    def _resolve_one(
        self, request: SolveRequest, result: SolveResult, registry: TenantRegistry
    ) -> None:
        counters = registry.get(request.tenant).counters
        if request.future.done():
            # Cancelled (or timed out) between window close and scatter:
            # the chip already did the work, the answer has no taker.
            return
        bad = not result.stable or (
            result.saturated and request.require_in_range
        )
        if bad:
            counters.failed += 1
            verdict = "went unstable" if not result.stable else "stayed out of range"
            request.future.set_exception(
                ColumnRangingError(
                    f"tenant {request.tenant!r} {self.kind} request {verdict} after "
                    f"auto-ranging (operator {self.operator.key[:12]}…); coalesced "
                    f"siblings are unaffected",
                    result=result,
                )
            )
            return
        converged = result.per_column_converged
        if converged is not None and not converged.all():
            # A future carries a value or an error: a refining request
            # whose own columns missed their rtol gets the error, with
            # request-relative worst columns.
            counters.failed += 1
            request.future.set_exception(
                ConvergenceError(
                    f"tenant {request.tenant!r} solve missed its rtol after "
                    f"{result.refine_steps} refinement step(s) (operator "
                    f"{self.operator.key[:12]}…); coalesced siblings are unaffected",
                    steps=result.refine_steps,
                    residual_trace=result.refine_residual_trace,
                    worst_columns=worst_columns_of(
                        result.per_column_residual, ~converged
                    ),
                )
            )
            return
        counters.completed += 1
        counters.columns_dispatched += request.columns
        request.future.set_result(result)

    def _slice(
        self,
        result: SolveResult,
        start: int,
        stop: int,
        request: SolveRequest,
    ) -> SolveResult:
        # An engine call on the coalesced (n, k) batch always carries
        # the (k,) per-column arrays.
        value = result.value[:, start:stop]
        reference = result.reference[:, start:stop]
        scales = result.input_scales[start:stop]
        attempts = result.per_column_attempts[start:stop]
        saturated = result.column_saturated[start:stop]
        refine = self._slice_refinement(result, start, stop, request)
        # Cost attribution: each caller is charged its column share of the
        # window's engine work, plus its *own* queue wait — siblings that
        # arrived earlier waited longer for the same dispatch.
        cost = None
        if result.cost is not None:
            cost = result.cost.scaled((stop - start) / max(self.columns, 1))
            cost.queue_wait_s = request.queue_wait_s
            # Refinement is paid only by the columns that contracted for
            # it: an rtol-less rider is never touched by correction
            # solves, so refining siblings split that work by column.
            refining = sum(r.columns for r in self.requests if r.rtol is not None)
            share = 0.0 if request.rtol is None else request.columns / max(refining, 1)
            for name in ("refine_macs", "refine_steps", "refine_dispatches"):
                setattr(cost, name, round(getattr(result.cost, name) * share))
        if request.vector:
            return SolveResult(
                mode=result.mode,
                value=value[:, 0],
                reference=reference[:, 0],
                attempts=int(attempts[0]),
                input_scale=float(scales[0]),
                stable=result.stable,
                saturated=bool(saturated[0]),
                macro_ids=result.macro_ids,
                sweeps=result.sweeps,
                engine_dispatches=result.engine_dispatches,
                stack_rebuilds=result.stack_rebuilds,
                cost=cost,
                **refine,
            )
        return SolveResult(
            mode=result.mode,
            value=value,
            reference=reference,
            attempts=int(attempts.max(initial=0)),
            input_scale=float(scales.max(initial=1.0)),
            stable=result.stable,
            saturated=bool(saturated.any()),
            macro_ids=result.macro_ids,
            input_scales=scales,
            per_column_attempts=attempts,
            column_saturated=saturated,
            sweeps=result.sweeps,
            engine_dispatches=result.engine_dispatches,
            stack_rebuilds=result.stack_rebuilds,
            cost=cost,
            **refine,
        )

    @staticmethod
    def _slice_refinement(
        result: SolveResult, start: int, stop: int, request: SolveRequest
    ) -> dict:
        """This caller's view of the window's refinement metadata.

        A request that asked for no ``rtol`` gets ``None`` fields even
        when siblings refined (its answer is the untouched analog step);
        a refining request gets *its own* per-column verdicts and
        worst-of-its-columns residual, not the window-wide worst."""
        if request.rtol is None or result.per_column_converged is None:
            return {}
        converged = np.asarray(result.per_column_converged[start:stop], dtype=bool)
        refine: dict = {
            "refine_steps": result.refine_steps,
            "per_column_converged": converged,
            "refine_residual_trace": result.refine_residual_trace,
        }
        if result.per_column_residual is not None:
            residuals = np.asarray(
                result.per_column_residual[start:stop], dtype=float
            )
            refine["per_column_residual"] = residuals
            # Scalar residual over this caller's *contracted* columns
            # (finite targets) — inf entries opted out and sit at the
            # analog floor by design.
            tracked = np.isfinite(request.rtol)
            if not tracked.any():
                tracked = np.ones(residuals.size, dtype=bool)
            refine["refined_residual"] = (
                float(residuals[tracked].max()) if residuals.size else 0.0
            )
        else:
            refine["refined_residual"] = result.refined_residual
        return refine


def coalesce(requests: "list[SolveRequest]") -> "list[CoalescedBatch]":
    """Group live window requests by (operator digest, verb).

    Requests whose future is already done (cancelled, timed out) must be
    filtered by the caller — grouping is pure."""
    groups: dict[tuple[str, str], list[SolveRequest]] = {}
    for request in requests:
        groups.setdefault((request.operator.key, request.kind), []).append(request)
    return [
        CoalescedBatch(members[0].operator, kind, members)
        for (_, kind), members in groups.items()
    ]
