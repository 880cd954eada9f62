"""Unit tests for the crossbar array."""

import numpy as np
import pytest

from repro.arrays.crossbar import CrossbarArray
from repro.devices.constants import (
    DEFAULT_STACK,
    DeviceStack,
    G_MAX,
    G_MIN,
    VariabilityParams,
)
from repro.programming.levels import LevelMap


def _array(rows=16, cols=16, seed=0, **kwargs) -> CrossbarArray:
    return CrossbarArray(
        DEFAULT_STACK, rows, cols, rng=np.random.default_rng(seed), **kwargs
    )


class TestProgramming:
    def test_initial_state_is_reset(self):
        array = _array()
        assert np.all(array.conductances() == pytest.approx(G_MIN))

    def test_program_targets_lands_in_band(self):
        array = _array()
        level_map = LevelMap()
        targets = np.full((16, 16), 50e-6)
        array.program_targets(targets)
        achieved = array.conductances()
        tolerance = DEFAULT_STACK.write_verify.tolerance * level_map.step
        # band + c2c spread
        assert np.max(np.abs(achieved - targets)) <= tolerance + 4 * 0.02 * 50e-6

    def test_program_levels(self):
        array = _array()
        levels = np.random.default_rng(1).integers(0, 16, size=(16, 16))
        array.program_levels(levels)
        level_map = LevelMap()
        achieved_levels = level_map.conductance_to_level(array.conductances())
        # Tolerance band + c2c spread can flip a borderline cell by one level,
        # but never more.
        assert np.all(np.abs(achieved_levels - levels) <= 1)
        assert np.mean(achieved_levels == levels) > 0.75

    def test_shape_mismatch_rejected(self):
        array = _array()
        with pytest.raises(ValueError):
            array.program_targets(np.zeros((4, 4)))

    def test_active_region_programming(self):
        array = _array()
        array.select_region(4, 4, row_offset=8, col_offset=8)
        array.program_targets(np.full((4, 4), 80e-6))
        region = array.conductances()
        assert region.shape == (4, 4)
        assert np.all(region > 60e-6)
        # The rest of the array is untouched.
        array.select_region(16, 16)
        full = array.conductances()
        assert full[0, 0] == pytest.approx(G_MIN)

    def test_cells_programmed_counter(self):
        array = _array()
        array.program_targets(np.full((16, 16), 10e-6))
        assert array.cells_programmed == 256


class TestReads:
    def test_read_currents_match_matmul(self):
        array = _array()
        targets = np.random.default_rng(2).uniform(5e-6, 90e-6, size=(16, 16))
        array.program_targets(targets)
        v = np.random.default_rng(3).uniform(-0.5, 0.5, 16)
        currents = array.read_currents(v, noisy=False)
        np.testing.assert_allclose(currents, array.conductances() @ v, rtol=1e-9)

    def test_read_currents_shape_check(self):
        array = _array()
        with pytest.raises(ValueError):
            array.read_currents(np.zeros(5))

    def test_noisy_read_differs_per_call(self):
        array = _array()
        array.program_targets(np.full((16, 16), 50e-6))
        a = array.conductances(noisy=True)
        b = array.conductances(noisy=True)
        assert not np.array_equal(a, b)

    def test_wire_resistance_degrades_conductance(self):
        clean = _array()
        resistive = _array(wire_resistance=5.0)
        targets = np.full((16, 16), 80e-6)
        clean.program_targets(targets)
        resistive.program_targets(targets)
        # Same seed → same programming draw; parasitics only reduce values.
        assert np.all(resistive.conductances(noisy=False) < clean.conductances(noisy=False))


class TestFaults:
    def test_stuck_faults_survive_programming(self):
        stack = DeviceStack(
            variability=VariabilityParams(stuck_on_rate=0.1, stuck_off_rate=0.1)
        )
        array = CrossbarArray(stack, 32, 32, rng=np.random.default_rng(5))
        array.program_targets(np.full((32, 32), 50e-6))
        conductances = array.conductances(noisy=False)
        faults = array.fault_map
        assert np.all(conductances[faults == 1] == G_MAX)
        assert np.all(conductances[faults == -1] == G_MIN)
        assert array.fault_fraction() == pytest.approx(0.2, abs=0.06)

    def test_fault_map_is_copy(self):
        array = _array()
        fault_map = array.fault_map
        fault_map[0, 0] = 1
        assert array.fault_map[0, 0] == 0

    def test_region_faults_reads_the_active_region(self):
        stack = DeviceStack(
            variability=VariabilityParams(stuck_on_rate=0.1, stuck_off_rate=0.1)
        )
        array = CrossbarArray(stack, 32, 32, rng=np.random.default_rng(5))
        array.select_region(6, 10, row_offset=3, col_offset=20)
        region = array.region_faults
        np.testing.assert_array_equal(region, array.fault_map[3:9, 20:30])
        region[:] = 0  # a copy of the region: the array is untouched
        np.testing.assert_array_equal(
            array.region_faults, array.fault_map[3:9, 20:30]
        )
        assert array.region_faults.any()
