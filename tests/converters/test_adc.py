"""Unit tests for the behavioural ADC."""

import numpy as np
import pytest

from repro.converters.adc import ADC, ADCParams


class TestSampling:
    def test_reconstruction_error_bounded(self):
        adc = ADC(ADCParams(bits=8, v_ref=1.0))
        v = np.linspace(-1, 1, 777)
        err = np.abs(adc.sample(v) - v)
        assert err.max() <= adc.lsb / 2 + 1e-12

    def test_clipping(self):
        adc = ADC(ADCParams(bits=8, v_ref=1.0))
        out = adc.sample(np.array([-3.0, 3.0]))
        np.testing.assert_allclose(out, [-1.0, 1.0])

    def test_codes_range(self):
        adc = ADC(ADCParams(bits=4, v_ref=1.0))
        codes = adc.codes(np.linspace(-1.5, 1.5, 100))
        assert codes.min() == 0
        assert codes.max() == 15

    def test_codes_match_sample(self):
        adc = ADC(ADCParams(bits=6, v_ref=1.0))
        v = np.linspace(-0.9, 0.9, 50)
        reconstructed = adc.sample(v)
        codes = adc.codes(v)
        np.testing.assert_allclose(codes * adc.lsb - 1.0, reconstructed, atol=1e-12)

    def test_offset_shifts_readings(self):
        adc = ADC(ADCParams(bits=12, offset=0.1))
        out = adc.sample(np.array([0.0]))
        assert out[0] == pytest.approx(0.1, abs=adc.lsb)

    def test_noise_dithers(self):
        adc = ADC(ADCParams(bits=12, noise_sigma=5e-3))
        rng = np.random.default_rng(0)
        a = adc.sample(np.full((1, 200, 1), 0.3), [(rng, 200)])
        b = adc.sample(np.full((1, 200, 1), 0.3), [(rng, 200)])
        assert not np.array_equal(a, b)

    def test_noise_only_on_valid_lines(self):
        """A padded slot draws noise for its valid lines only, from its
        own stream — the same values a one-slot conversion consumes."""
        adc = ADC(ADCParams(bits=12, noise_sigma=5e-3))
        stack = np.full((2, 4, 3), 0.3)
        out = adc.sample(stack, [(np.random.default_rng(1), 4), (np.random.default_rng(2), 2)])
        alone = adc.sample(np.full((1, 2, 3), 0.3), [(np.random.default_rng(2), 2)])
        np.testing.assert_array_equal(out[1, :2], alone[0])
        np.testing.assert_array_equal(out[1, 2:], adc.sample(np.full((2, 3), 0.3)))

    def test_out_may_alias_the_input(self):
        adc = ADC(ADCParams(bits=8))
        v = np.linspace(-0.9, 0.9, 11)
        expected = adc.sample(v)
        adc.sample(v, out=v)
        np.testing.assert_array_equal(v, expected)


def _saturated(adc: ADC, voltages, railed=False) -> np.ndarray:
    """The saturation rule over the lines axis of ``voltages``."""
    v = np.asarray(voltages, dtype=float)
    return adc.saturated_columns(railed, v.max(axis=-2), v.min(axis=-2))


class TestClipDetector:
    """The converter half of the saturation rule (a column leaves the ADC
    range) and its union with the op-amp rail flag."""

    def test_detects_out_of_range(self):
        adc = ADC(ADCParams(bits=8, v_ref=1.0))
        assert _saturated(adc, [[0.0], [1.2]]).all()
        assert not _saturated(adc, [[0.0], [0.9]]).any()

    def test_accounts_for_offset(self):
        adc = ADC(ADCParams(bits=8, v_ref=1.0, offset=0.2))
        assert _saturated(adc, [[0.9]]).all()
        assert _saturated(adc, [[-1.3]]).all()
        assert not _saturated(adc, [[-1.1]]).any()

    def test_per_column_over_a_stack(self):
        adc = ADC(ADCParams(bits=8, v_ref=1.0, offset=0.1))
        stack = np.array([[[0.0, 0.95, -1.15], [0.5, 0.0, 0.0]]])
        np.testing.assert_array_equal(_saturated(adc, stack), [[False, True, True]])
        np.testing.assert_array_equal(
            _saturated(adc, stack[0]),
            np.any(np.abs(stack[0] + 0.1) > 1.0, axis=0),
        )

    def test_railed_column_is_saturated_in_range(self):
        adc = ADC(ADCParams(bits=8, v_ref=1.0))
        in_range = np.array([[0.5, 0.5], [-0.5, 0.2]])
        np.testing.assert_array_equal(
            _saturated(adc, in_range, railed=np.array([False, True])), [False, True]
        )

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            ADC(ADCParams(bits=0))
