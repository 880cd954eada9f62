"""Chip statistics accounting tests."""

import pytest

from repro.obs.cost import PULSES_PER_CELL
from repro.obs.report import (
    DIGITAL_CYCLE_TIME,
    DIGITAL_MACS_PER_CYCLE,
    ENERGY_ADC_CONVERSION,
    ENERGY_DAC_CONVERSION,
    ENERGY_DIGITAL_CYCLE,
    ENERGY_WRITE_PULSE,
    TIME_ADC_CONVERSION,
    TIME_DAC_CONVERSION,
    TIME_WRITE_PULSE,
)
from repro.system.stats import ChipStats, ServiceStats, TenantCounters


class TestCounters:
    """Every hardware counter is a read of the ledger ``stats.cost``."""

    def test_instruction_recording(self):
        stats = ChipStats()
        stats.record_instruction("EXE", cycles=8)
        stats.record_instruction("EXE", cycles=8)
        stats.record_instruction("NOP")
        assert stats.instructions["EXE"] == 2
        assert stats.digital_cycles == 17

    def test_solve_recording(self):
        stats = ChipStats()
        stats.cost.add_analog("inv", amplifiers=256, settling_time=2e-6)
        assert stats.analog_solves["inv"] == 1
        assert stats.analog_solve_time == pytest.approx(2e-6)
        assert stats.amp_solve_integral == pytest.approx(256 * 2e-6)

    def test_solve_without_settling_time(self):
        stats = ChipStats()
        stats.cost.add_analog("egv", amplifiers=128, settling_time=None)
        assert stats.analog_solves["egv"] == 1
        assert stats.analog_solve_time == 0.0

    def test_programming_estimate(self):
        stats = ChipStats()
        stats.cost.add_programming(100)
        assert stats.cells_programmed == 100
        assert stats.write_pulses == 100 * PULSES_PER_CELL

    def test_digital_cycles_round_once_over_the_ledger(self):
        """Engine and refinement MACs convert to cycles over the ledger
        totals (the breakdown's rule), not once per recorded call."""
        stats = ChipStats()
        for _ in range(DIGITAL_MACS_PER_CYCLE):
            stats.cost.add_engine_macs(1)
            stats.cost.add_refine(steps=0, dispatches=0, macs=1)
        assert stats.digital_cycles == 2


class TestEstimates:
    def test_energy_composition(self):
        stats = ChipStats()
        stats.cost.add_conversions(dac=10, adc=5)
        stats.cost.add_programming(1)
        expected = (
            10 * ENERGY_DAC_CONVERSION
            + 5 * ENERGY_ADC_CONVERSION
            + PULSES_PER_CELL * ENERGY_WRITE_PULSE
        )
        assert stats.estimated_energy() == pytest.approx(expected)

    def test_latency_composition(self):
        stats = ChipStats()
        stats.record_instruction("NOP", cycles=1000)
        stats.cost.add_analog("mvm", amplifiers=16, settling_time=1e-6)
        assert stats.estimated_latency() == pytest.approx(1000 * 1e-9 + 1e-6)
        stats.cost.add_conversions(dac=10, adc=5)
        stats.cost.add_programming(1)
        assert stats.estimated_latency() == pytest.approx(
            1000 * 1e-9
            + 1e-6
            + 10 * TIME_DAC_CONVERSION
            + 5 * TIME_ADC_CONVERSION
            + PULSES_PER_CELL * TIME_WRITE_PULSE
        )

    def test_summary_keys(self):
        summary = ChipStats().summary()
        for key in ("instructions", "analog_solves", "energy_J", "latency_s"):
            assert key in summary

    def test_energy_is_monotone_under_recording(self):
        """Every ledger write (and ISA instruction) can only grow the
        energy estimate."""
        stats = ChipStats()
        last = stats.estimated_energy()
        for record in (
            lambda: stats.cost.add_conversions(dac=16, adc=16),
            lambda: stats.cost.add_analog("inv", amplifiers=64, settling_time=1e-6),
            lambda: stats.cost.add_programming(32),
            lambda: stats.record_instruction("EXE", cycles=100),
            lambda: stats.cost.add_engine_macs(4096),
            lambda: stats.cost.add_refine(steps=2, dispatches=2, macs=8192),
        ):
            record()
            current = stats.estimated_energy()
            assert current > last
            last = current

    def test_latency_is_monotone_under_recording(self):
        stats = ChipStats()
        last = stats.estimated_latency()
        for record in (
            lambda: stats.record_instruction("NOP", cycles=50),
            lambda: stats.cost.add_analog("mvm", amplifiers=16, settling_time=2e-6),
            lambda: stats.cost.add_engine_macs(1024),
            lambda: stats.cost.add_refine(steps=1, dispatches=1, macs=2048),
            lambda: stats.cost.add_conversions(dac=16, adc=16),
            lambda: stats.cost.add_programming(32),
        ):
            record()
            current = stats.estimated_latency()
            assert current > last
            last = current

    def test_refinement_feeds_energy_and_latency(self):
        """Refinement MACs in the ledger land in the digital-cycle estimates."""
        stats = ChipStats()
        macs = 10 * DIGITAL_MACS_PER_CYCLE
        stats.cost.add_refine(steps=3, dispatches=2, macs=macs)
        assert stats.refine_steps == 3
        assert stats.refine_dispatches == 2
        assert stats.digital_cycles == 10
        assert stats.estimated_energy() == pytest.approx(10 * ENERGY_DIGITAL_CYCLE)
        assert stats.estimated_latency() == pytest.approx(10 * DIGITAL_CYCLE_TIME)


class TestTenantCounters:
    def test_as_dict_and_summary_share_keys(self):
        counters = TenantCounters()
        counters.submitted += 3
        counters.admitted += 2
        assert counters.summary() == counters.as_dict()
        assert set(counters.summary()) == set(counters.as_dict())
        assert counters.as_dict()["submitted"] == 3


class TestServiceStats:
    def test_coalescing_factor_zero_guard(self):
        """No dispatches yet: 0/0 must read 0.0, never raise."""
        stats = ServiceStats()
        assert stats.coalescing_factor == 0.0
        assert stats.summary()["coalescing_factor"] == 0.0

    def test_coalescing_factor_after_dispatch(self):
        stats = ServiceStats()
        stats.record_dispatch(["a", "b"], columns=8)
        stats.record_dispatch(["a"], columns=4)
        assert stats.coalescing_factor == pytest.approx(6.0)
        assert stats.tenant("a").engine_calls == 2
        assert stats.tenant("b").engine_calls == 1

    def test_summary_nests_tenant_tables(self):
        stats = ServiceStats()
        stats.tenant("alice").completed += 1
        summary = stats.summary()
        assert summary["tenants"]["alice"] == stats.tenant("alice").as_dict()

    def test_shared_registry_publishes_serve_counters(self):
        chip = ChipStats()
        stats = ServiceStats(registry=chip.registry)
        stats.record_dispatch(["a"], columns=4)
        names = {family.name for family in chip.registry.families()}
        assert "serve_engine_calls_total" in names
        assert "gramc_digital_cycles_total" in names
