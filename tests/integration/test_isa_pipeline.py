"""Full-chip ISA pipeline: assembly programs driving real computations."""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.arrays.mapping import DifferentialMapping
from repro.core.pool import PoolConfig
from repro.macro.registers import MacroConfig, PlaneLayout, encode, g_f_code_for
from repro.system.gramc import GramcChip
from repro.workloads.matrices import wishart


@pytest.fixture()
def chip() -> GramcChip:
    return GramcChip(
        PoolConfig(num_macros=4, rows=32, cols=32), rng=np.random.default_rng(0)
    )


class TestChipPrograms:
    def test_mvm_with_relu_postprocessing(self, chip):
        """CFG → WRV → EXE → MOVO → RELU: a one-layer inference step."""
        matrix = np.random.default_rng(1).uniform(-1, 1, size=(16, 16))
        mapping = DifferentialMapping.from_matrix(matrix)

        config = MacroConfig(
            mode=AMCMode.MVM, rows=16, cols=32, g_f_code=g_f_code_for(2e-3),
            layout=PlaneLayout.PAIRED_COLUMNS,
        )
        chip.write_config_word(0, encode(config))
        interleaved = np.empty((16, 32))
        interleaved[:, 0::2] = mapping.g_pos
        interleaved[:, 1::2] = mapping.g_neg
        chip.write_operand(16, interleaved.ravel())
        x = np.random.default_rng(2).uniform(-0.3, 0.3, 16)
        chip.write_operand(600, x)

        chip.load_assembly(
            """
            CFG  m0, 0
            WRV  m0, 16, 512
            EXE  m0, 600, 16
            MOVO m0, 700, 16
            RELU 700, 16
            HALT
            """
        )
        trace = chip.run()
        assert trace.halted

        outputs = chip.read_result(700, 16)
        g_f = chip.macros[0].config.g_f
        # RELU was applied to the raw (negated) TIA voltages:
        # outputs = relu(adc(−G·v/g_f)); compare against relu of the ideal.
        ideal_voltages = -(mapping.decode() @ x) / (g_f * mapping.value_scale)
        expected = np.maximum(ideal_voltages, 0.0)
        np.testing.assert_allclose(outputs, expected, atol=0.12)

    def test_verify_failure_branch(self, chip):
        """A WRV against unreachable targets must take the BNE branch."""
        chip.macros[0].configure(AMCMode.MVM, 4, 4)
        # Targets far outside the programmable window ⇒ verify fails.
        chip.write_operand(0, np.full(16, 5e-3))
        chip.write_operand(100, np.array([0.0]))
        chip.load_assembly(
            """
            WRV  m0, 0, 16
            BNE  failed
            HALT
            failed:
                SETN 1
                SCAL 100, 100, 101   ; writes 0·x+0 — marker stays 0
                MOVG 100, 102, 1
                HALT
            """
        )
        chip.write_operand(101, np.array([0.0, 99.0]))  # gain 0, offset 99
        trace = chip.run()
        assert trace.halted
        assert chip.read_result(100, 1)[0] == 99.0

    def test_chip_stats_accumulate(self, chip):
        chip.macros[0].configure(AMCMode.MVM, 4, 4)
        chip.write_operand(0, np.full(16, 5e-5))
        chip.load_assembly("WRV m0, 0, 16\nHALT")
        chip.run()
        summary = chip.stats.summary()
        assert summary["cells_programmed"] == 16
        assert summary["write_pulses"] > 0
        assert summary["energy_J"] > 0

    def test_solver_shares_pool_with_controller(self, chip):
        """The runtime path and compiled path use the same physical macros."""
        matrix = wishart(8, rng=np.random.default_rng(3)) + 0.4 * np.eye(8)
        b = np.random.default_rng(4).uniform(-1, 1, 8)
        result = chip.solver.compile(matrix, AMCMode.INV).solve(b)
        assert result.ok
        assert chip.solver.pool is chip.pool
