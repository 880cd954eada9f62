"""Unit tests for the op-amp macro-model."""

import math

import numpy as np
import pytest

from repro.analog.opamp import IDEAL_OPAMP, OpAmpBank, OpAmpParams, draw_noise


class TestParams:
    def test_tau_formula(self):
        params = OpAmpParams(a0=1e5, gbw=1e7)
        assert params.tau == pytest.approx(1e5 / (2.0 * math.pi * 1e7))

    def test_saturate_clamps_symmetric(self):
        params = OpAmpParams(v_sat=1.0)
        out = params.saturate(np.array([-5.0, -0.5, 0.5, 5.0]))
        np.testing.assert_allclose(out, [-1.0, -0.5, 0.5, 1.0])

    def test_soft_saturate_matches_linear_small_signal(self):
        params = OpAmpParams(v_sat=1.0)
        v = np.array([0.01, -0.02])
        np.testing.assert_allclose(params.soft_saturate(v), v, rtol=1e-3)

    def test_soft_saturate_bounded(self):
        params = OpAmpParams(v_sat=1.2)
        out = params.soft_saturate(np.array([100.0, -100.0]))
        assert np.all(np.abs(out) <= 1.2)

    def test_ideal_opamp_is_quiet(self):
        assert IDEAL_OPAMP.offset_sigma == 0.0
        assert IDEAL_OPAMP.noise_sigma == 0.0
        assert IDEAL_OPAMP.a0 >= 1e8


class TestBank:
    def test_sample_shapes_and_spread(self):
        params = OpAmpParams(offset_sigma=1e-3)
        bank = OpAmpBank.sample(500, params, np.random.default_rng(0))
        assert len(bank) == 500
        assert np.std(bank.offsets) == pytest.approx(1e-3, rel=0.2)

    def test_zero_sigma_zero_offsets(self):
        bank = OpAmpBank.sample(10, OpAmpParams(offset_sigma=0.0), np.random.default_rng(0))
        assert np.all(bank.offsets == 0.0)

    def test_output_noise_draws(self):
        noise = np.zeros((1, 1000, 1))
        draw_noise(noise, 1e-3, [(np.random.default_rng(2), 1000)])
        assert np.std(noise) == pytest.approx(1e-3, rel=0.2)

    def test_output_noise_disabled(self):
        noise = np.zeros((1, 10, 1))
        draw_noise(noise, 0.0, [(np.random.default_rng(2), 10)])
        assert np.all(noise == 0.0)
