"""The digital control module: PC, decoder, flag register, execution units.

Implements the paper's Fig. 3 state machine: instructions are fetched from
the instruction stack, decoded, and dispatched either down the write-verify
path (WRV — program, read back, compare in the CUs, set the flag) or the
system solution path (CFG/EXE/MOVO — configure registers, run the analog
macro, collect ADC results), with the digital functional module handling
everything after the output buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from repro.analog.topologies import AMCMode
from repro.macro.amc_macro import AMCMacro
from repro.system import functional
from repro.system.buffers import GlobalBuffer
from repro.system.compare import ComparisonUnit
from repro.system.isa import (
    Instruction,
    Opcode,
    unpack_partners,
    unpack_pool_meta,
    unpack_pool_shape,
)
from repro.system.stats import ChipStats


class Flag(IntEnum):
    """Flag-register states produced by the comparison units."""

    EQUAL = 0
    NOT_EQUAL = 1


class ExecutionError(RuntimeError):
    """An instruction could not be executed (bad operands, bad mode, …)."""


@dataclass
class ExecutionTrace:
    """Summary of one program run."""

    instructions_executed: int
    halted: bool
    pc: int


class Controller:
    """Fetch-decode-execute engine over a macro complement."""

    def __init__(
        self,
        macros: list[AMCMacro],
        global_buffer: GlobalBuffer,
        stats: ChipStats | None = None,
        verify_tolerance: float | None = None,
    ):
        self.macros = macros
        self.gb = global_buffer
        self.stats = stats or ChipStats()
        self.program: list[Instruction] = []
        self.pc = 0
        self.flag = Flag.EQUAL
        self.vl = 0
        if verify_tolerance is None and macros:
            level_map = macros[0].level_map
            stack = macros[0].array.stack
            # Same acceptance criterion as ProgramResult.success: the verify
            # loop stops inside the band, then cycle-to-cycle drift may move
            # the cell by up to another band width.
            verify_tolerance = 2.0 * stack.write_verify.tolerance * level_map.step
        self.cu = ComparisonUnit(tolerance=verify_tolerance or 1e-6)

    # -- program management ------------------------------------------------------

    def load(self, program: list[Instruction]) -> None:
        """Load a program into the instruction stack and reset the PC."""
        self.program = list(program)
        self.pc = 0
        self.flag = Flag.EQUAL

    def run(self, max_steps: int = 100_000) -> ExecutionTrace:
        """Execute until HALT, end-of-program, or the step budget."""
        executed = 0
        halted = False
        while self.pc < len(self.program) and executed < max_steps:
            instruction = self.program[self.pc]
            executed += 1
            if instruction.op is Opcode.HALT:
                self.stats.record_instruction("HALT")
                halted = True
                break
            self.step(instruction)
        return ExecutionTrace(instructions_executed=executed, halted=halted, pc=self.pc)

    # -- execution ------------------------------------------------------------------

    def _macro(self, macro_id: int) -> AMCMacro:
        if not 0 <= macro_id < len(self.macros):
            raise ExecutionError(f"macro id {macro_id} out of range")
        return self.macros[macro_id]

    def step(self, instruction: Instruction | None = None) -> None:
        """Execute one instruction (the given one, or the one at PC)."""
        if instruction is None:
            if self.pc >= len(self.program):
                raise ExecutionError("PC past end of program")
            instruction = self.program[self.pc]
        op = instruction.op
        next_pc = self.pc + 1

        if op is Opcode.NOP:
            self.stats.record_instruction("NOP")
        elif op is Opcode.SETN:
            self.vl = instruction.arg1
            self.stats.record_instruction("SETN")
        elif op is Opcode.CFG:
            macro = self._macro(instruction.arg0)
            word = self.gb.read_word(instruction.arg1)
            macro.apply_config_word(word)
            self.stats.record_instruction("CFG", cycles=4)
        elif op is Opcode.WRV:
            self._execute_wrv(instruction)
        elif op is Opcode.EXE:
            self._execute_exe(instruction)
        elif op is Opcode.MOVO:
            macro = self._macro(instruction.arg0)
            values = macro.output_buffer[: instruction.arg2]
            self.gb.write(instruction.arg1, values)
            self.stats.record_instruction("MOVO", cycles=instruction.arg2)
        elif op is Opcode.MOVG:
            values = self.gb.read(instruction.arg2, instruction.arg3)
            self.gb.write(instruction.arg1, values)
            self.stats.record_instruction("MOVG", cycles=instruction.arg3)
        elif op is Opcode.RELU:
            values = self.gb.read(instruction.arg1, instruction.arg2)
            self.gb.write(instruction.arg1, functional.relu(values))
            self.stats.record_instruction("RELU", cycles=instruction.arg2)
        elif op is Opcode.POOL:
            self._execute_pool(instruction)
        elif op is Opcode.ADDS:
            msb = self.gb.read(instruction.arg2, self.vl)
            lsb = self.gb.read(instruction.arg3, self.vl)
            self.gb.write(instruction.arg1, functional.shift_add(msb, lsb, instruction.arg0))
            self.stats.record_instruction("ADDS", cycles=self.vl)
        elif op is Opcode.ARGMAX:
            values = self.gb.read(instruction.arg2, self.vl)
            self.gb.write(instruction.arg1, np.array([functional.argmax(values)]))
            self.stats.record_instruction("ARGMAX", cycles=self.vl)
        elif op is Opcode.CMPV:
            a = self.gb.read(instruction.arg1, self.vl)
            b = self.gb.read(instruction.arg2, self.vl)
            tolerance = float(self.gb.read(instruction.arg3, 1)[0])
            cu = ComparisonUnit(tolerance=tolerance)
            self.flag = Flag.EQUAL if cu.all_equal(a, b) else Flag.NOT_EQUAL
            self.stats.record_instruction("CMPV", cycles=self.vl)
        elif op is Opcode.SCAL:
            values = self.gb.read(instruction.arg2, self.vl)
            gain, offset = self.gb.read(instruction.arg3, 2)
            self.gb.write(instruction.arg1, functional.affine_scale(values, gain, offset))
            self.stats.record_instruction("SCAL", cycles=self.vl)
        elif op is Opcode.JMP:
            next_pc = instruction.arg1
            self.stats.record_instruction("JMP")
        elif op is Opcode.BEQ:
            if self.flag is Flag.EQUAL:
                next_pc = instruction.arg1
            self.stats.record_instruction("BEQ")
        elif op is Opcode.BNE:
            if self.flag is not Flag.EQUAL:
                next_pc = instruction.arg1
            self.stats.record_instruction("BNE")
        elif op is Opcode.HALT:
            self.stats.record_instruction("HALT")
        else:  # pragma: no cover - Opcode covers all
            raise ExecutionError(f"unimplemented opcode {op!r}")
        self.pc = next_pc

    def _execute_pool(self, instruction: Instruction) -> None:
        """Functional-module pooling over a (C, H, W) region of the GB."""
        kind_max, channels = unpack_pool_meta(instruction.arg0)
        height, width = unpack_pool_shape(instruction.arg3)
        count = channels * height * width
        maps = self.gb.read(instruction.arg2, count).reshape(channels, height, width)
        pooled = functional.max_pool2d(maps) if kind_max else functional.avg_pool2d(maps)
        self.gb.write(instruction.arg1, pooled.ravel())
        self.stats.record_instruction("POOL", cycles=count)

    # -- the two data paths -------------------------------------------------------

    def _execute_wrv(self, instruction: Instruction, max_passes: int = 4) -> None:
        """Write-verify path (blue arrows in Fig. 3).

        Implements the paper's loop: program, read back through the ADC,
        compare in the CUs — and if any cell sits outside the band, update
        the write-verify messages and repeat *for the failing cells only*,
        until all pass or the pass budget is exhausted.
        """
        macro = self._macro(instruction.arg0)
        config = macro.config
        count = instruction.arg2
        expected = config.rows * config.cols
        if count != expected:
            raise ExecutionError(
                f"WRV count {count} does not match active region {config.rows}x{config.cols}"
            )
        targets = self.gb.read(instruction.arg1, count).reshape(config.rows, config.cols)

        mask: np.ndarray | None = None  # first pass writes everything
        verified = False
        for _ in range(max_passes):
            macro.array.program_targets(targets, mask=mask)
            achieved = macro.array.conductances(noisy=False)
            failing = self.cu.compare(achieved, targets) != 0
            if not np.any(failing):
                verified = True
                break
            mask = failing
        self.flag = Flag.EQUAL if verified else Flag.NOT_EQUAL
        self.stats.record_instruction("WRV", cycles=count)
        self.stats.cost.add_programming(count)

    def _execute_exe(self, instruction: Instruction) -> None:
        """System solution path (red arrows in Fig. 3)."""
        macro = self._macro(instruction.arg0)
        config = macro.config
        partner, partner_t, partner_neg, partner_t_neg = unpack_partners(instruction.arg3)
        inputs = (
            self.gb.read(instruction.arg1, instruction.arg2)
            if instruction.arg2 > 0
            else np.zeros(0)
        )

        mode = config.mode
        if mode is AMCMode.MVM:
            result = macro.compute_mvm(inputs, partner=self._optional(partner))
        elif mode is AMCMode.INV:
            result = macro.compute_inv(inputs, partner=self._optional(partner))
        elif mode is AMCMode.PINV:
            if partner_t is None:
                raise ExecutionError("PINV EXE needs partner_t")
            result = macro.compute_pinv(
                inputs,
                partner_t=self._macro(partner_t),
                partner_neg=self._optional(partner_neg),
                partner_t_neg=self._optional(partner_t_neg),
            )
        elif mode is AMCMode.EGV:
            result = macro.compute_egv(partner=self._optional(partner))
        else:  # pragma: no cover
            raise ExecutionError(f"unknown mode {mode!r}")

        self.stats.record_instruction("EXE", cycles=8)
        cost = self.stats.cost
        cost.add_analog(mode.value, config.rows + config.cols, result.solution.settling_time)
        cost.add_conversions(dac=inputs.size, adc=result.values.size)

    def _optional(self, macro_id: int | None) -> AMCMacro | None:
        return None if macro_id is None else self._macro(macro_id)
