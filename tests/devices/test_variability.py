"""Unit tests for the stochastic variability model."""

import numpy as np
import pytest

from repro.devices.constants import G_MAX, G_MIN, VariabilityParams
from repro.devices.variability import VariabilityModel


def _model(rng_seed: int = 0, **kwargs) -> VariabilityModel:
    return VariabilityModel(VariabilityParams(**kwargs), np.random.default_rng(rng_seed))


class TestD2D:
    def test_median_near_one(self):
        model = _model(d2d_sigma=0.05)
        draws = model.d2d_multipliers((200, 200))
        assert np.median(draws) == pytest.approx(1.0, abs=0.02)

    def test_sigma_zero_gives_ones(self):
        model = _model(d2d_sigma=0.0)
        assert np.all(model.d2d_multipliers((8, 8)) == 1.0)

    def test_reproducible_from_seed(self):
        a = _model(7).d2d_multipliers((16, 16))
        b = _model(7).d2d_multipliers((16, 16))
        np.testing.assert_array_equal(a, b)

    def test_all_positive(self):
        draws = _model(d2d_sigma=0.2).d2d_multipliers((64, 64))
        assert np.all(draws > 0.0)


class TestReadNoise:
    def test_noise_scales_with_conductance(self):
        model = _model(read_noise_sigma=0.01)
        base = np.full(20000, 50e-6)
        noisy = model.read_noise(base)
        assert np.std(noisy) == pytest.approx(0.01 * 50e-6, rel=0.1)

    def test_zero_sigma_passthrough(self):
        model = _model(read_noise_sigma=0.0)
        base = np.linspace(1e-6, 1e-4, 10)
        np.testing.assert_array_equal(model.read_noise(base), base)

    def test_never_negative(self):
        model = _model(read_noise_sigma=0.8)
        noisy = model.read_noise(np.full(1000, 1e-6))
        assert np.all(noisy >= 0.0)


class TestStuckFaults:
    def test_fault_rates(self):
        model = _model(stuck_on_rate=0.05, stuck_off_rate=0.03)
        faults = model.stuck_fault_map((400, 400))
        assert np.mean(faults == 1) == pytest.approx(0.05, abs=0.01)
        assert np.mean(faults == -1) == pytest.approx(0.03, abs=0.01)

    def test_no_faults_by_default(self):
        faults = _model().stuck_fault_map((50, 50))
        assert np.all(faults == 0)

    def test_apply_faults_pins_conductances(self):
        conductances = np.full((3, 3), 50e-6)
        faults = np.zeros((3, 3), dtype=np.int8)
        faults[0, 0] = 1
        faults[2, 2] = -1
        pinned = VariabilityModel.apply_faults(conductances, faults)
        assert pinned[0, 0] == G_MAX
        assert pinned[2, 2] == G_MIN
        assert pinned[1, 1] == 50e-6

    def test_apply_faults_on_a_healthy_region_copies(self):
        """No stuck cell: the values come back unchanged, in a new array
        (callers own and write to what they get)."""
        conductances = np.linspace(1e-6, 1e-4, 12).reshape(3, 4)
        pinned = VariabilityModel.apply_faults(
            conductances, np.zeros((3, 4), dtype=np.int8)
        )
        assert pinned is not conductances
        np.testing.assert_array_equal(pinned, conductances)
        assert pinned.dtype == float

    def test_apply_faults_does_not_mutate_input(self):
        conductances = np.full((2, 2), 50e-6)
        faults = np.ones((2, 2), dtype=np.int8)
        VariabilityModel.apply_faults(conductances, faults)
        assert np.all(conductances == 50e-6)


class TestC2C:
    def test_c2c_fresh_per_call(self):
        model = _model(c2c_sigma=0.05)
        a = model.c2c_multiplier((16,))
        b = model.c2c_multiplier((16,))
        assert not np.array_equal(a, b)

    def test_c2c_disabled(self):
        model = _model(c2c_sigma=0.0)
        assert np.all(model.c2c_multiplier((8,)) == 1.0)
