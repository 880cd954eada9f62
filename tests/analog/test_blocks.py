"""Unit tests for the TIA and inverter blocks (one-slot and stacked)."""

import numpy as np
import pytest

from repro.analog.blocks import inverter_output, tia_output
from repro.analog.opamp import IDEAL_OPAMP, OpAmpBank, OpAmpParams, one_slot


def _ideal_bank(n: int) -> OpAmpBank:
    return OpAmpBank.sample(n, IDEAL_OPAMP, np.random.default_rng(0))


def _tia(bank: OpAmpBank, g_f: float, currents, g_node, draws=()) -> np.ndarray:
    """One TIA bank's outputs: the stacked block on a one-slot view."""
    out = np.array(currents, dtype=float)
    tia_output(
        one_slot(out), np.asarray(g_node)[None], bank.offsets[None],
        np.array([g_f]), bank.params, draws,
    )
    return out


def _invert(bank: OpAmpBank, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return inverter_output(one_slot(v), bank.offsets[None], bank.params).reshape(v.shape)


class TestTIA:
    def test_ideal_transfer_is_minus_i_over_gf(self):
        currents = np.array([1e-4, -2e-4, 5e-5, 0.0])
        g_node = np.full(4, 5e-4)
        np.testing.assert_allclose(
            _tia(_ideal_bank(4), 1e-3, currents, g_node), -currents / 1e-3, rtol=1e-6
        )

    def test_finite_gain_error_scales_with_noise_gain(self):
        params = OpAmpParams(a0=1e3, offset_sigma=0.0, noise_sigma=0.0)
        bank = OpAmpBank.sample(1, params, np.random.default_rng(0))
        current = np.array([1e-4])
        light = _tia(bank, 1e-3, current, np.array([1e-4]))
        heavy = _tia(bank, 1e-3, current, np.array([1e-2]))
        ideal = -1e-4 / 1e-3
        assert abs(heavy[0] - ideal) > abs(light[0] - ideal)

    def test_offset_amplified_by_noise_gain(self):
        params = OpAmpParams(a0=1e7, offset_sigma=0.0, noise_sigma=0.0)
        bank = OpAmpBank(params, offsets=np.array([1e-3]))
        out = _tia(bank, 1e-3, np.array([0.0]), np.array([9e-3]))
        # noise gain = 1 + g_node/g_f = 10
        assert out[0] == pytest.approx(1e-3 * 10.0, rel=1e-3)

    def test_batched_transfer_matches_loop(self):
        bank = _ideal_bank(3)
        currents = np.random.default_rng(1).uniform(-1e-4, 1e-4, size=(3, 5))
        g_node = np.array([1e-4, 2e-4, 3e-4])
        batched = _tia(bank, 2e-3, currents, g_node)
        for k in range(5):
            np.testing.assert_array_equal(
                batched[:, k], _tia(bank, 2e-3, currents[:, k], g_node)
            )

    def test_output_saturates(self):
        params = OpAmpParams(v_sat=1.0, offset_sigma=0.0, noise_sigma=0.0)
        bank = OpAmpBank.sample(1, params, np.random.default_rng(0))
        out = _tia(bank, 1e-4, np.array([1e-2]), np.array([1e-4]))
        assert out[0] == pytest.approx(-1.0)

    def test_noise_drawn_from_each_slots_stream(self):
        params = OpAmpParams(offset_sigma=0.0, noise_sigma=1e-3)
        bank = OpAmpBank.sample(3, params, np.random.default_rng(0))
        clean = _tia(bank, 1e-3, np.zeros((3, 2)), np.full(3, 1e-4))
        noisy = _tia(
            bank, 1e-3, np.zeros((3, 2)), np.full(3, 1e-4),
            [(np.random.default_rng(4), 3)],
        )
        expected = clean + np.random.default_rng(4).normal(0.0, 1e-3, size=(3, 2))
        np.testing.assert_array_equal(noisy, np.clip(expected, -1.2, 1.2))

    def test_stacked_slots_match_one_slot_runs(self):
        """Two padded slots with their own offsets, ladders and streams
        equal each tile run alone, bit for bit, on the valid rows."""
        params = OpAmpParams(noise_sigma=1e-3)
        banks = [OpAmpBank.sample(n, params, np.random.default_rng(n)) for n in (4, 3)]
        g_f = np.array([1e-3, 4e-4])
        rng = np.random.default_rng(2)
        currents = [rng.uniform(-1e-4, 1e-4, (n, 2)) for n in (4, 3)]
        g_node = [rng.uniform(1e-4, 1e-3, n) for n in (4, 3)]
        stack = np.zeros((2, 4, 2))
        nodes, offsets = np.zeros((2, 4)), np.zeros((2, 4))
        for t, n in enumerate((4, 3)):
            stack[t, :n] = currents[t]
            nodes[t, :n] = g_node[t]
            offsets[t, :n] = banks[t].offsets
        draws = [(np.random.default_rng(10 + t), n) for t, n in enumerate((4, 3))]
        tia_output(stack, nodes, offsets, g_f, params, draws)
        for t, n in enumerate((4, 3)):
            alone = _tia(
                banks[t], g_f[t], currents[t], g_node[t],
                [(np.random.default_rng(10 + t), n)],
            )
            np.testing.assert_array_equal(stack[t, :n], alone)


class TestInverter:
    def test_ideal_inversion(self):
        v = np.array([0.5, -0.25, 0.0, 1.0])
        np.testing.assert_allclose(_invert(_ideal_bank(4), v), -v, rtol=1e-6)

    def test_finite_gain_shrinks_magnitude(self):
        params = OpAmpParams(a0=100.0, offset_sigma=0.0, noise_sigma=0.0)
        bank = OpAmpBank.sample(1, params, np.random.default_rng(0))
        out = _invert(bank, np.array([1.0]))
        assert out[0] == pytest.approx(-100.0 / 102.0, rel=1e-9)

    def test_offset_doubled_at_output(self):
        params = OpAmpParams(a0=1e9, offset_sigma=0.0, noise_sigma=0.0)
        bank = OpAmpBank(params, offsets=np.array([1e-3]))
        out = _invert(bank, np.array([0.0]))
        assert out[0] == pytest.approx(2e-3, rel=1e-6)

    def test_batched_inversion(self):
        v = np.array([[0.1, 0.2, 0.3], [-0.1, -0.2, -0.3]])
        np.testing.assert_allclose(_invert(_ideal_bank(2), v), -v, rtol=1e-6)

    def test_input_left_untouched(self):
        v = np.array([0.1, -0.2])
        _invert(_ideal_bank(2), v)
        np.testing.assert_array_equal(v, [0.1, -0.2])
