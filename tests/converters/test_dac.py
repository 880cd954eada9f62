"""Unit tests for the behavioural DAC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converters.dac import DAC, DACParams


class TestQuantization:
    def test_lsb(self):
        dac = DAC(DACParams(bits=8, v_ref=1.0))
        assert dac.lsb == pytest.approx(2.0 / 255)

    def test_quantize_snaps_to_grid(self):
        dac = DAC(DACParams(bits=4, v_ref=1.0))
        values = dac.convert(np.linspace(-1, 1, 37))
        codes = (values + 1.0) / dac.lsb
        np.testing.assert_allclose(codes, np.rint(codes), atol=1e-9)

    def test_quantize_clips_to_range(self):
        dac = DAC(DACParams(bits=8, v_ref=1.0))
        out = dac.convert(np.array([-5.0, 5.0]))
        np.testing.assert_allclose(out, [-1.0, 1.0])

    def test_quantization_error_bounded(self):
        dac = DAC(DACParams(bits=8, v_ref=1.0))
        v = np.linspace(-1, 1, 999)
        err = np.abs(dac.convert(v.copy()) - v)
        assert err.max() <= dac.lsb / 2 + 1e-12

    @given(v=st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, v):
        dac = DAC(DACParams(bits=6, v_ref=1.0))
        once = float(dac.convert(np.array([v]))[0])
        twice = float(dac.convert(np.array([once]))[0])
        assert once == pytest.approx(twice, abs=1e-12)


class TestNonIdealities:
    def test_inl_bow_is_zero_at_rails(self):
        dac = DAC(DACParams(bits=8, v_ref=1.0, inl_lsb=2.0))
        out = dac.convert(np.array([-1.0, 1.0]))
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-9)

    def test_inl_bow_maximal_midscale(self):
        dac = DAC(DACParams(bits=8, v_ref=1.0, inl_lsb=2.0))
        out = dac.convert(np.array([0.0]))
        # The bow rides on top of the quantized value (mid-scale sits half an
        # LSB off zero for an odd step count).
        quantized = float(DAC(DACParams(bits=8, v_ref=1.0)).convert(np.array([0.0]))[0])
        bow = out[0] - quantized
        assert bow == pytest.approx(2.0 * dac.lsb, rel=1e-2)

    def test_noise_applied_when_enabled(self):
        dac = DAC(DACParams(bits=8, noise_sigma=1e-3))
        rng = np.random.default_rng(0)
        a = dac.convert(np.full((1, 100, 1), 0.5), [(rng, 100)])
        b = dac.convert(np.full((1, 100, 1), 0.5), [(rng, 100)])
        assert not np.array_equal(a, b)

    def test_noiseless_without_draws(self):
        dac = DAC(DACParams(bits=8, noise_sigma=1e-3))
        a = dac.convert(np.full(100, 0.5))
        assert np.all(a == a[0])

    def test_converts_in_place(self):
        dac = DAC(DACParams(bits=4, v_ref=1.0))
        v = np.array([0.33, -0.71])
        out = dac.convert(v)
        assert out is v

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            DAC(DACParams(bits=0))
