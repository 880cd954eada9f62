"""One ledger per chip: every path writes ``chip.stats.cost`` once.

A :class:`GramcChip` runs an ISA write-verify + execute program, then
MVM/INV/PINV/EGV handle calls and a tiled ``rtol`` solve.  Afterwards
every ``ChipStats`` counter, every ``gramc_*`` Prometheus sample and both
estimates must be reads of that one ledger."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.arrays.mapping import DifferentialMapping
from repro.core.pool import PoolConfig
from repro.core.tiled import TiledOperator
from repro.macro.registers import MacroConfig, PlaneLayout, encode, g_f_code_for
from repro.obs.cost import PULSES_PER_CELL
from repro.obs.export import prometheus_text
from repro.obs.report import (
    DIGITAL_CYCLE_TIME,
    DIGITAL_MACS_PER_CYCLE,
    ENERGY_DIGITAL_CYCLE,
    solve_breakdown,
)
from repro.system.gramc import GramcChip
from repro.workloads.matrices import block_dominant

PROGRAM = """
    CFG  m0, 0
    WRV  m0, 16, 128
    EXE  m0, 200, 8
    MOVO m0, 300, 8
    HALT
"""
#: Controller cycles of PROGRAM: CFG 4, WRV one per cell, EXE 8, MOVO one
#: per word, HALT 1.
ISA_CYCLES = 4 + 128 + 8 + 8 + 1

#: ChipStats attribute -> the SolveCost field it reads.
COUNTER_FIELDS = {
    "analog_solve_time": "analog_settling_s",
    "amp_solve_integral": "amp_seconds",
    "dac_conversions": "dac_conversions",
    "adc_conversions": "adc_conversions",
    "write_pulses": "write_pulses",
    "cells_programmed": "cells_programmed",
    "engine_dispatches": "engine_dispatches",
    "stack_rebuilds": "stack_rebuilds",
    "refine_steps": "refine_steps",
    "refine_dispatches": "refine_dispatches",
}

#: gramc_* metric family -> ChipStats attribute it publishes.
METRIC_COUNTERS = {
    "gramc_digital_cycles_total": "digital_cycles",
    "gramc_analog_solve_seconds_total": "analog_solve_time",
    "gramc_amp_seconds_total": "amp_solve_integral",
    "gramc_dac_conversions_total": "dac_conversions",
    "gramc_adc_conversions_total": "adc_conversions",
    "gramc_write_pulses_total": "write_pulses",
    "gramc_cells_programmed_total": "cells_programmed",
    "gramc_engine_dispatches_total": "engine_dispatches",
    "gramc_stack_rebuilds_total": "stack_rebuilds",
    "gramc_refine_steps_total": "refine_steps",
    "gramc_refine_dispatches_total": "refine_dispatches",
}


def _run_isa(chip: GramcChip) -> None:
    matrix = np.random.default_rng(1).uniform(-1, 1, size=(8, 8))
    mapping = DifferentialMapping.from_matrix(matrix)
    config = MacroConfig(
        mode=AMCMode.MVM, rows=8, cols=16, g_f_code=g_f_code_for(2e-3),
        layout=PlaneLayout.PAIRED_COLUMNS,
    )
    chip.write_config_word(0, encode(config))
    interleaved = np.empty((8, 16))
    interleaved[:, 0::2] = mapping.g_pos
    interleaved[:, 1::2] = mapping.g_neg
    chip.write_operand(16, interleaved)
    chip.write_operand(200, np.random.default_rng(2).uniform(-0.3, 0.3, 8))
    chip.load_assembly(PROGRAM)
    assert chip.run().halted


def _run_handles(chip: GramcChip) -> None:
    rng = np.random.default_rng(3)
    square = 2.0 * np.eye(8) + rng.uniform(-0.1, 0.1, (8, 8))
    with chip.compile(rng.uniform(-1, 1, (8, 8))) as op:
        for _ in range(3):
            op @ rng.uniform(-1, 1, 8)
    with chip.compile(square, AMCMode.INV) as op:
        op.solve(rng.uniform(-1, 1, (8, 2)))
    with chip.compile(np.eye(12, 6) * 2.0, AMCMode.PINV) as op:
        op.lstsq(rng.uniform(-1, 1, 12))
    with chip.compile(square, AMCMode.EGV) as op:
        op.eigvec()
    grid = block_dominant(32, 16, rng=rng)
    with chip.compile(grid, AMCMode.INV) as op:
        assert isinstance(op, TiledOperator)
        op.solve(rng.uniform(-1, 1, (32, 2)), rtol=1e-8)


@pytest.fixture(scope="module")
def chip() -> GramcChip:
    chip = GramcChip(
        PoolConfig(num_macros=32, rows=16, cols=16), rng=np.random.default_rng(0)
    )
    _run_isa(chip)
    _run_handles(chip)
    return chip


def _samples(text: str) -> dict[str, float]:
    """``name{labels}`` -> value for every gramc_* sample line."""
    out = {}
    for line in text.splitlines():
        if line.startswith("gramc_"):
            key, value = line.rsplit(" ", 1)
            out[key] = float(value)
    return out


def test_the_chip_has_one_ledger(chip):
    assert chip.solver.cost is chip.stats.cost
    assert chip.controller.stats is chip.stats


def test_isa_writes_and_executes_land_in_the_solver_ledger():
    chip = GramcChip(
        PoolConfig(num_macros=4, rows=16, cols=16), rng=np.random.default_rng(0)
    )
    _run_isa(chip)
    total = chip.solver.cost.total
    assert total.cells_programmed == 128
    assert total.write_pulses == PULSES_PER_CELL * 128
    assert total.dac_conversions == 8
    assert total.adc_conversions == 8
    assert total.mvm_solves == 1
    assert total.analog_settling_s > 0.0


def test_every_counter_reads_the_ledger(chip):
    stats, total = chip.stats, chip.stats.cost.total
    for attr, field in COUNTER_FIELDS.items():
        assert getattr(stats, attr) == getattr(total, field), attr
    for mode in AMCMode:
        solves = getattr(total, f"{mode.value}_solves")
        assert solves > 0, mode
        assert stats.analog_solves[mode.value] == solves
    assert total.refine_steps > 0
    assert stats.digital_cycles == (
        ISA_CYCLES
        + math.ceil(total.engine_macs / DIGITAL_MACS_PER_CYCLE)
        + math.ceil(total.refine_macs / DIGITAL_MACS_PER_CYCLE)
    )


def test_prometheus_samples_read_the_ledger(chip):
    stats, total = chip.stats, chip.stats.cost.total
    text = prometheus_text(stats.registry)
    samples = _samples(text)
    for name, attr in METRIC_COUNTERS.items():
        assert f"# TYPE {name} counter" in text
        assert samples[name] == getattr(stats, attr), name
    for mode in AMCMode:
        key = f'gramc_analog_solves_total{{mode="{mode.value}"}}'
        assert samples[key] == getattr(total, f"{mode.value}_solves")
    for name in ("CFG", "WRV", "EXE", "MOVO", "HALT"):
        assert samples[f'gramc_instructions_total{{name="{name}"}}'] == 1
    families = set(re.findall(r"^# TYPE (gramc_\w+) counter$", text, re.M))
    assert families == {
        *METRIC_COUNTERS, "gramc_analog_solves_total", "gramc_instructions_total",
    }


def test_estimates_price_the_ledger_with_the_breakdown_model(chip):
    stats = chip.stats
    breakdown = solve_breakdown(stats.cost.total)
    modeled = breakdown["total_time_s"] - breakdown["wait_time_s"]
    assert stats.estimated_latency() == pytest.approx(
        modeled + ISA_CYCLES * DIGITAL_CYCLE_TIME, rel=1e-12
    )
    assert stats.estimated_energy() == pytest.approx(
        breakdown["total_energy_J"] + ISA_CYCLES * ENERGY_DIGITAL_CYCLE, rel=1e-12
    )
    # Conversion and write-pulse time are part of the chip's latency.
    assert stats.estimated_latency() > stats.analog_solve_time + (
        stats.digital_cycles * DIGITAL_CYCLE_TIME
    )
