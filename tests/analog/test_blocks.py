"""Unit tests for the TIA and inverter blocks (one-slot and stacked), and
for the output-referred read-noise model they implement."""

import numpy as np
import pytest

from repro.analog.blocks import inverter_output, tia_output
from repro.analog.mvm import MVMCircuit
from repro.analog.opamp import IDEAL_OPAMP, OpAmpBank, OpAmpParams, one_slot
from repro.analog.topologies import AMCMode
from repro.converters.adc import ADCParams
from repro.converters.dac import DACParams
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver


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


def _row_sigma(noise_sigma, g_neg, g_node, g_f, a0):
    """Closed-form output-referred read noise per row (volts)."""
    den = g_f + (g_node + g_f) / a0
    return noise_sigma * np.sqrt(1.0 + (g_neg**2).sum(axis=1) / den**2)


# Draws per row: the variance estimate's relative spread is sqrt(2/N)
# (2 % here), so a 10 % band is about five standard deviations wide.
DRAWS = 5000
VARIANCE_RTOL = 0.10


class TestOutputReferredNoise:
    """One TIA draw per (row, column) carries the inverter plane's share:
    the per-row variance of noisy − noiseless outputs matches
    ``σ_i² = noise_sigma² · (1 + Σ_j g_neg[i,j]² / den_i²)``."""

    PARAMS = OpAmpParams(noise_sigma=1e-3)

    def _circuit(self, signed: bool) -> MVMCircuit:
        rng = np.random.default_rng(3)
        g_pos = rng.uniform(0.0, 1e-4, (12, 10))
        g_neg = rng.uniform(0.0, 1e-4, (12, 10)) if signed else None
        return MVMCircuit(g_pos, g_neg, params=self.PARAMS, g_f=5e-5, rng=rng)

    def _circuit_variance(self, circuit: MVMCircuit) -> np.ndarray:
        v_in = np.tile(np.random.default_rng(4).uniform(-0.02, 0.02, (10, 1)), DRAWS)
        noisy = circuit.solve(v_in).outputs
        clean = circuit.solve(v_in, noisy=False).outputs
        assert np.abs(clean).max() < 0.5 * self.PARAMS.v_sat  # no rail in play
        return np.mean((noisy - clean) ** 2, axis=1)

    def test_signed_circuit_rows_match_closed_form(self):
        circuit = self._circuit(signed=True)
        sigma = _row_sigma(
            self.PARAMS.noise_sigma, circuit.g_neg, circuit.node_conductance(),
            circuit.g_f, self.PARAMS.a0,
        )
        # The inverter share is large here, so the check can tell the
        # models apart: every row sits well above the TIA's own sigma.
        assert np.all(sigma > 1.5 * self.PARAMS.noise_sigma)
        np.testing.assert_allclose(
            self._circuit_variance(circuit), sigma**2, rtol=VARIANCE_RTOL
        )

    def test_unsigned_circuit_keeps_the_tia_sigma(self):
        circuit = self._circuit(signed=False)
        assert circuit.neg_square_sums() is None
        np.testing.assert_allclose(
            self._circuit_variance(circuit),
            np.full(12, self.PARAMS.noise_sigma**2),
            rtol=VARIANCE_RTOL,
        )

    def test_signed_handle_rows_match_closed_form(self):
        """Through a handle's stacked stage, with ideal converters: every
        column carries the same input, so the noiseless output is common
        to all columns and the per-row variance across them is that of
        noisy − noiseless.  It matches ``σ_i`` scaled to problem units by
        the tile's ``g_f · value_scale · input scale``."""
        config = PoolConfig(
            num_macros=4, rows=16, cols=16,
            opamp=OpAmpParams(noise_sigma=1e-3),
            dac=DACParams(bits=16), adc=ADCParams(bits=16),
        )
        solver = GramcSolver(
            pool=MacroPool(config, rng=np.random.default_rng(5)),
            rng=np.random.default_rng(6),
        )
        rng = np.random.default_rng(7)
        matrix = rng.uniform(-1.0, 1.0, (12, 12))
        # One dominant input entry keeps the products small, so ranging
        # settles on a low ``g_f`` and the inverter share is sizeable.
        column = rng.uniform(-0.05, 0.05, (12, 1))
        column[0] = 1.0
        op = solver.compile(matrix, AMCMode.MVM)
        op.mvm(column)  # warm: program and range once
        result = op.mvm(np.tile(column, DRAWS))
        tile = op._tiles[0]
        g_f = tile.primary.config.g_f
        circuit, _ = tile.primary.resident_mvm_circuit(tile.partner)
        assert circuit.g_neg is not None
        sigma = _row_sigma(1e-3, circuit.g_neg, circuit.node_conductance(), g_f, circuit.params.a0)
        assert np.median(sigma) > 1.2e-3
        assert np.all(result.per_column_attempts == 1)  # one evaluation per column
        scale = g_f * tile.mapping.value_scale * result.input_scales[0]
        variance = np.var(result.value, axis=1, ddof=1)
        np.testing.assert_allclose(variance, (sigma * scale) ** 2, rtol=VARIANCE_RTOL)

    def test_padded_rows_draw_nothing(self):
        """A ragged slot draws for its valid rows only, from its own
        stream: its padded row keeps the noiseless transfer, its valid
        rows equal the slot run alone, and the stream advanced by exactly
        ``rows · k`` normals."""
        params = OpAmpParams(noise_sigma=1e-3)
        rng = np.random.default_rng(8)
        currents = rng.uniform(-1e-4, 1e-4, (2, 4, 3))
        g_node = rng.uniform(1e-4, 1e-3, (2, 4))
        offsets = rng.normal(0.0, 1e-4, (2, 4))
        g_neg_sq = rng.uniform(1e-9, 1e-8, (2, 4))  # nonzero on the pad too
        g_f = np.array([1e-3, 4e-4])
        clean = currents.copy()
        tia_output(clean, g_node, offsets, g_f, params)
        streams = [np.random.default_rng(20), np.random.default_rng(21)]
        noisy = currents.copy()
        tia_output(
            noisy, g_node, offsets, g_f, params,
            [(streams[0], 4), (streams[1], 3)], g_neg_sq,
        )
        assert noisy[1, 3].tobytes() == clean[1, 3].tobytes()
        assert not np.array_equal(noisy[1, :3], clean[1, :3])
        alone = currents[1:, :3].copy()
        tia_output(
            alone, g_node[1:, :3], offsets[1:, :3], g_f[1:], params,
            [(np.random.default_rng(21), 3)], g_neg_sq[1:, :3],
        )
        np.testing.assert_array_equal(noisy[1, :3], alone[0])
        after = np.random.default_rng(21)
        after.standard_normal((3, 3))
        assert streams[1].standard_normal() == after.standard_normal()
