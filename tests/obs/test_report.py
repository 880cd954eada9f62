"""SolveCost arithmetic and the solve_breakdown attribution table."""

from __future__ import annotations

import pytest

from repro.obs.cost import CostAccumulator, SolveCost
from repro.obs.report import (
    COMPONENTS,
    format_breakdown,
    solve_breakdown,
    window_breakdown,
)


class TestSolveCost:
    def test_add_and_sub_are_fieldwise(self):
        a = SolveCost(analog_settling_s=1.0, dac_conversions=10, engine_macs=100)
        b = SolveCost(analog_settling_s=0.5, dac_conversions=4, engine_macs=40)
        total = a + b
        assert total.analog_settling_s == 1.5
        assert total.dac_conversions == 14
        assert total.engine_macs == 140
        back = total - b
        assert back == a

    def test_copy_is_independent(self):
        a = SolveCost(adc_conversions=3)
        b = a.copy()
        b.adc_conversions += 1
        assert a.adc_conversions == 3

    def test_scaled_rounds_integer_counters(self):
        cost = SolveCost(dac_conversions=10, analog_settling_s=1.0, refine_steps=3)
        share = cost.scaled(0.25)
        assert share.dac_conversions == 2  # round(2.5) banker's-rounds to 2
        assert isinstance(share.dac_conversions, int)
        assert share.analog_settling_s == pytest.approx(0.25)
        assert share.refine_steps == 1

    def test_accumulator_snapshot_delta(self):
        acc = CostAccumulator()
        acc.add_conversions(dac=5, adc=7)
        before = acc.snapshot()
        acc.add_conversions(dac=2)
        acc.add_engine_macs(64)
        acc.add_analog("mvm", amplifiers=8, settling_time=1e-6)
        delta = acc.delta(before)
        assert delta.mvm_solves == 1
        assert delta.dac_conversions == 2
        assert delta.adc_conversions == 0
        assert delta.engine_macs == 64
        assert delta.amp_seconds == pytest.approx(8e-6)

    def test_accumulator_ignores_none_settling(self):
        acc = CostAccumulator()
        acc.add_analog("egv", amplifiers=8, settling_time=None)
        assert acc.total.analog_settling_s == 0.0
        assert acc.total.egv_solves == 1


def _sample_cost() -> SolveCost:
    return SolveCost(
        analog_settling_s=2e-6,
        amp_seconds=1e-5,
        dac_conversions=256,
        adc_conversions=256,
        engine_macs=65536,
        refine_macs=16384,
        write_pulses=128,
        queue_wait_s=1e-4,
    )


class TestSolveBreakdown:
    def test_percentages_sum_to_100(self):
        breakdown = solve_breakdown(_sample_cost())
        time_pct = sum(row["time_pct"] for row in breakdown["components"])
        energy_pct = sum(row["energy_pct"] for row in breakdown["components"])
        assert time_pct == pytest.approx(100.0, abs=0.1)
        assert energy_pct == pytest.approx(100.0, abs=0.1)

    def test_component_order_and_domains(self):
        breakdown = solve_breakdown(_sample_cost())
        listed = [(row["component"], row["domain"]) for row in breakdown["components"]]
        assert listed == list(COMPONENTS)

    def test_analog_digital_separately_attributed(self):
        breakdown = solve_breakdown(_sample_cost())
        assert breakdown["analog_time_s"] > 0
        assert breakdown["digital_time_s"] > 0
        assert breakdown["wait_time_s"] == pytest.approx(1e-4)
        # Domains partition the total.
        assert (
            breakdown["analog_time_s"]
            + breakdown["digital_time_s"]
            + breakdown["mixed_time_s"]
            + breakdown["wait_time_s"]
        ) == pytest.approx(breakdown["total_time_s"])

    def test_queue_wait_has_no_energy(self):
        breakdown = solve_breakdown(_sample_cost())
        wait = next(r for r in breakdown["components"] if r["component"] == "queue_wait")
        assert wait["energy_J"] == 0.0

    def test_zero_cost_is_all_zero_not_nan(self):
        breakdown = solve_breakdown(SolveCost())
        assert breakdown["total_time_s"] == 0.0
        for row in breakdown["components"]:
            assert row["time_pct"] == 0.0 and row["energy_pct"] == 0.0

    def test_counters_round_trip(self):
        cost = _sample_cost()
        breakdown = solve_breakdown(cost)
        assert breakdown["counters"] == cost.as_dict()


class TestExtraction:
    def test_accepts_result_with_cost_attribute(self):
        class FakeResult:
            cost = _sample_cost()

        direct = solve_breakdown(_sample_cost())
        via_result = solve_breakdown(FakeResult())
        assert via_result["total_time_s"] == pytest.approx(direct["total_time_s"])

    def test_window_breakdown_sums_members(self):
        costs = [_sample_cost(), _sample_cost()]
        window = window_breakdown(costs)
        single = solve_breakdown(costs[0])
        assert window["total_time_s"] == pytest.approx(2 * single["total_time_s"])
        assert window["counters"]["dac_conversions"] == 512

    def test_rejects_costless_objects(self):
        with pytest.raises(TypeError):
            solve_breakdown(object())


class TestFormatBreakdown:
    def test_markdown_table_shape(self):
        table = format_breakdown(solve_breakdown(_sample_cost()))
        lines = table.splitlines()
        assert lines[0].startswith("| component | domain |")
        # Header + separator + one row per component + total row.
        assert sum(line.startswith("|") for line in lines) == 2 + len(COMPONENTS) + 1
        assert "analog" in table and "digital" in table
