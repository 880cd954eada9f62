"""Chip and serve counters for the GRAMC system.

:class:`ChipStats` is a view over the chip's one cost ledger: its
counters read it and its estimates price it with the breakdown's model
(:mod:`repro.obs.report`).  Chip and serve counters publish through
one :class:`~repro.obs.registry.MetricsRegistry`, so ``summary()`` and
the Prometheus dump (:func:`repro.obs.export.prometheus_text`) never
drift apart.
"""

from __future__ import annotations

from collections import Counter

from repro.analog.topologies import AMCMode
from repro.obs.cost import CostAccumulator, ledger_count
from repro.obs.registry import MetricsRegistry
from repro.obs.report import DIGITAL_CYCLE_TIME, ENERGY_DIGITAL_CYCLE, _component_costs, _cycles


def _scalar_property(attr: str, cast=int):
    """An int/float property over a zero-label registry cell."""

    def getter(self):
        return cast(getattr(self, attr).value)

    def setter(self, value):
        getattr(self, attr).set(value)

    return property(getter, setter)


#: (metric family, ``ChipStats`` attribute, help) of the counters the
#: registry reads through from the ledger at export time.
_LEDGER_METRICS = (
    ("gramc_digital_cycles_total", "digital_cycles", "Digital controller cycles"),
    ("gramc_analog_solve_seconds_total", "analog_solve_time", "Summed analog settling time (s)"),
    (
        "gramc_amp_seconds_total", "amp_solve_integral",
        "Sum of (active amplifiers x settling time) over all solves",
    ),
    ("gramc_dac_conversions_total", "dac_conversions", "DAC conversions"),
    ("gramc_adc_conversions_total", "adc_conversions", "ADC conversions"),
    ("gramc_write_pulses_total", "write_pulses", "Programming pulses applied"),
    ("gramc_cells_programmed_total", "cells_programmed", "Crossbar cells programmed"),
    (
        "gramc_engine_dispatches_total", "engine_dispatches",
        "Digital-engine kernel dispatches (batched array kernels or per-tile compute calls) "
        "— the vectorized grid engine's O(1)-per-sweep claim is asserted against this counter",
    ),
    (
        "gramc_stack_rebuilds_total", "stack_rebuilds",
        "Stacked-slice rebuilds in the grid engine (slices recopied after a crossbar "
        "version bump)",
    ),
    (
        "gramc_refine_steps_total", "refine_steps",
        "Digital iterative-refinement steps across all solve(rtol=...) calls",
    ),
    (
        "gramc_refine_dispatches_total", "refine_dispatches",
        "Engine kernel dispatches issued by refinement steps (a subset of "
        "gramc_engine_dispatches_total)",
    ),
)


class ChipStats:
    """The chip's counters: a view over its one cost ledger.

    ``ChipStats`` owns the chip's ledger (:attr:`cost`): the chip's
    solver and its ISA controller write every hardware event there once,
    and every hardware counter here is a read of it.  Its own state is
    the ISA's alone: instructions by name and their controller cycles
    (:meth:`record_instruction`).  The ``gramc_*`` families of
    :attr:`registry` read the same numbers at export time; pass a
    registry to share it with the serve layer.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cost = CostAccumulator()
        self.instructions: Counter[str] = Counter()
        self._isa_cycles = 0
        r = self.registry
        self._instructions = r.counter(
            "gramc_instructions_total", "ISA instructions executed", ("name",)
        )
        solves = r.counter("gramc_analog_solves_total", "Analog solves by mode", ("mode",))
        for mode in AMCMode:
            solves.bind(lambda mode=mode.value: self.analog_solves[mode], mode.value)
        for name, attr, help in _LEDGER_METRICS:
            r.counter(name, help).bind(lambda attr=attr: getattr(self, attr))

    analog_solve_time = ledger_count("analog_settling_s")
    amp_solve_integral = ledger_count("amp_seconds")
    dac_conversions = ledger_count("dac_conversions")
    adc_conversions = ledger_count("adc_conversions")
    write_pulses = ledger_count("write_pulses")
    cells_programmed = ledger_count("cells_programmed")
    engine_dispatches = ledger_count("engine_dispatches")
    stack_rebuilds = ledger_count("stack_rebuilds")
    refine_steps = ledger_count("refine_steps")
    refine_dispatches = ledger_count("refine_dispatches")

    @property
    def analog_solves(self) -> dict[str, int]:
        """Analog solves by ``AMCMode`` value."""
        total = self.cost.total
        return {mode.value: getattr(total, f"{mode.value}_solves") for mode in AMCMode}

    @property
    def digital_cycles(self) -> int:
        """ISA cycles plus the ledger's engine and refinement MACs in cycles."""
        total = self.cost.total
        return self._isa_cycles + _cycles(total.engine_macs) + _cycles(total.refine_macs)

    def record_instruction(self, name: str, cycles: int = 1) -> None:
        if name not in self.instructions:
            self._instructions.bind(lambda: self.instructions[name], name)
        self.instructions[name] += 1
        self._isa_cycles += cycles

    def _priced(self) -> tuple[float, float]:
        """(time_s, energy_J): the ledger under the breakdown's model,
        queue wait left out, plus the ISA cycles."""
        costs = _component_costs(self.cost.total)
        del costs["queue_wait"]
        return (
            sum(t for t, _ in costs.values()) + self._isa_cycles * DIGITAL_CYCLE_TIME,
            sum(e for _, e in costs.values()) + self._isa_cycles * ENERGY_DIGITAL_CYCLE,
        )

    def estimated_energy(self) -> float:
        """Total energy estimate in joules."""
        return self._priced()[1]

    def estimated_latency(self) -> float:
        """Serialised latency estimate in seconds: settling, conversions,
        write pulses and digital cycles."""
        return self._priced()[0]

    def summary(self) -> dict[str, float]:
        """Flat dictionary for report tables."""
        return {
            "instructions": float(sum(self.instructions.values())),
            "digital_cycles": float(self.digital_cycles),
            "analog_solves": float(sum(self.analog_solves.values())),
            "dac_conversions": float(self.dac_conversions),
            "adc_conversions": float(self.adc_conversions),
            "write_pulses": float(self.write_pulses),
            "cells_programmed": float(self.cells_programmed),
            "engine_dispatches": float(self.engine_dispatches),
            "stack_rebuilds": float(self.stack_rebuilds),
            "refine_steps": float(self.refine_steps),
            "refine_dispatches": float(self.refine_dispatches),
            "energy_J": self.estimated_energy(),
            "latency_s": self.estimated_latency(),
        }


#: TenantCounters fields, in the ``as_dict()``/``summary()`` key order.
_TENANT_FIELDS = (
    "submitted",
    "admitted",
    "rejected",
    "completed",
    "failed",
    "cancelled",
    "timed_out",
    "columns_submitted",
    "columns_dispatched",
    "engine_calls",
    "preemptions",
)


def _tenant_property(field: str):
    def getter(self):
        return int(self._cells[field].value)

    def setter(self, value):
        self._cells[field].set(value)

    return property(getter, setter)


class TenantCounters:
    """Request-lifecycle counters for one tenant of the solve service.

    ``engine_calls`` counts batched engine calls that carried at least
    one of this tenant's columns (a shared coalesced call counts once per
    participating tenant); ``preemptions`` counts times one of this
    tenant's resident operators was preempted by the fair-share scheduler.
    """

    __slots__ = ("_cells",)

    def __init__(
        self, registry: MetricsRegistry | None = None, tenant: str = ""
    ) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self._cells = {
            field: registry.counter(
                f"serve_tenant_{field}_total",
                f"Per-tenant {field.replace('_', ' ')} count",
                ("tenant",),
            ).labels(tenant)
            for field in _TENANT_FIELDS
        }

    submitted = _tenant_property("submitted")
    admitted = _tenant_property("admitted")
    rejected = _tenant_property("rejected")
    completed = _tenant_property("completed")
    failed = _tenant_property("failed")
    cancelled = _tenant_property("cancelled")
    timed_out = _tenant_property("timed_out")
    columns_submitted = _tenant_property("columns_submitted")
    columns_dispatched = _tenant_property("columns_dispatched")
    engine_calls = _tenant_property("engine_calls")
    preemptions = _tenant_property("preemptions")

    def as_dict(self) -> dict[str, int]:
        return {field: int(self._cells[field].value) for field in _TENANT_FIELDS}

    def summary(self) -> dict[str, int]:
        """Identical key set to :meth:`as_dict` — the two are one table."""
        return self.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TenantCounters({self.as_dict()!r})"


class ServiceStats:
    """Aggregated multi-tenant serving counters (updated by the serve layer).

    Sits next to :class:`ChipStats` deliberately: ``ChipStats`` counts what
    the *hardware* did (solves, conversions, write pulses), ``ServiceStats``
    counts what the *request layer* did to keep that hardware saturated —
    admissions, rejections, and how many caller columns each batched engine
    call amortized.  Pass the chip's registry to publish both through one
    Prometheus dump.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tenants: dict[str, TenantCounters] = {}
        self._engine_calls = self.registry.counter(
            "serve_engine_calls_total",
            "Dispatched batched engine calls (one per coalesced window group)",
        )
        self._coalesced_columns = self.registry.counter(
            "serve_coalesced_columns_total",
            "RHS columns carried by batched engine calls — divided by "
            "serve_engine_calls_total this is the coalescing factor, the "
            "serve layer's whole reason to exist",
        )
        self._shed_requests = self.registry.counter(
            "serve_shed_requests_total",
            "Requests rejected with a structured backpressure error",
        )
        self._fault_retries = self.registry.counter(
            "serve_fault_retries_total",
            "Coalesced-window dispatches retried after serve-level healing "
            "of a degraded operator",
        )
        self._dispatch_seconds = self.registry.counter(
            "serve_dispatch_seconds_total",
            "Wall-clock seconds spent in batched engine dispatches — "
            "divided by serve_engine_calls_total this is the mean dispatch "
            "time behind retry_after_hint",
        )

    engine_calls = _scalar_property("_engine_calls")
    coalesced_columns = _scalar_property("_coalesced_columns")
    shed_requests = _scalar_property("_shed_requests")
    fault_retries = _scalar_property("_fault_retries")
    dispatch_seconds = _scalar_property("_dispatch_seconds", float)

    def tenant(self, name: str) -> TenantCounters:
        """The (auto-created) counter block for ``name``."""
        counters = self.tenants.get(name)
        if counters is None:
            counters = self.tenants[name] = TenantCounters(self.registry, name)
        return counters

    def record_dispatch(
        self, tenant_names: "list[str]", columns: int, seconds: float = 0.0
    ) -> None:
        """Account one batched engine call carrying ``columns`` columns."""
        self._engine_calls.inc()
        self._coalesced_columns.inc(columns)
        if seconds > 0.0:
            self._dispatch_seconds.inc(seconds)
        for name in tenant_names:
            self.tenant(name).engine_calls += 1

    @property
    def coalescing_factor(self) -> float:
        """Mean caller columns per engine call (1.0 = no coalescing win).

        0.0 before any dispatch — the undefined 0/0 must read as "no
        coalescing observed", never raise (regression-tested)."""
        engine_calls = self.engine_calls
        if engine_calls == 0:
            return 0.0
        return self.coalesced_columns / engine_calls

    @property
    def mean_dispatch_s(self) -> float:
        """Mean wall-clock seconds per batched engine dispatch (0.0 before
        any dispatch — feeds ``retry_after_hint``, must never raise)."""
        engine_calls = self.engine_calls
        if engine_calls == 0:
            return 0.0
        return self.dispatch_seconds / engine_calls

    def summary(self) -> dict[str, object]:
        """Nested dictionary for report tables and service snapshots."""
        return {
            "engine_calls": self.engine_calls,
            "coalesced_columns": self.coalesced_columns,
            "coalescing_factor": self.coalescing_factor,
            "shed_requests": self.shed_requests,
            "fault_retries": self.fault_retries,
            "mean_dispatch_s": self.mean_dispatch_s,
            "tenants": {
                name: counters.as_dict() for name, counters in self.tenants.items()
            },
        }
