"""GramcChip facade tests (host I/O, program loading, solver binding)."""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.pool import PoolConfig
from repro.macro.registers import MacroConfig, encode
from repro.system.assembler import AssemblyError
from repro.system.gramc import GramcChip


@pytest.fixture()
def chip() -> GramcChip:
    return GramcChip(PoolConfig(num_macros=2, rows=16, cols=16), rng=np.random.default_rng(0))


class TestHostIO:
    def test_operand_roundtrip(self, chip):
        values = np.array([1.0, -2.5, 3.25])
        chip.write_operand(100, values)
        np.testing.assert_array_equal(chip.read_result(100, 3), values)

    def test_matrix_operand_flattened(self, chip):
        matrix = np.arange(12, dtype=float).reshape(3, 4)
        chip.write_operand(0, matrix)
        np.testing.assert_array_equal(chip.read_result(0, 12), matrix.ravel())

    def test_config_word_staging(self, chip):
        config = MacroConfig(mode=AMCMode.EGV, rows=8, cols=8, g_lambda_code=77)
        chip.write_config_word(20, encode(config))
        assert chip.global_buffer.read_word(20) == encode(config)


class TestProgramLoading:
    def test_assembly_errors_propagate(self, chip):
        with pytest.raises(AssemblyError):
            chip.load_assembly("BOGUS 1, 2")

    def test_program_reload_resets_pc(self, chip):
        chip.load_assembly("NOP\nHALT")
        chip.run()
        assert chip.controller.pc > 0
        chip.load_assembly("HALT")
        assert chip.controller.pc == 0

    def test_instruction_list_loading(self, chip):
        from repro.system.isa import Instruction, Opcode

        chip.load_program([Instruction(Opcode.NOP), Instruction(Opcode.HALT)])
        trace = chip.run()
        assert trace.halted


class TestSolverBinding:
    def test_solver_is_singleton(self, chip):
        assert chip.solver is chip.solver

    def test_solver_uses_chip_macros(self, chip):
        rng = np.random.default_rng(1)
        matrix = rng.uniform(-1, 1, size=(8, 8))
        chip.solver.compile(matrix).mvm(rng.uniform(-1, 1, 8))
        assert any(m.solve_count > 0 for m in chip.macros)

    def test_macro_count_matches_config(self, chip):
        assert len(chip.macros) == 2
