"""The AMC macro: array + reconfigurable OPA bank + converters (Fig. 2).

One macro owns one 128 × 128 crossbar, a row bank and a column bank of
OPAs, a DAC/ADC pair and an output buffer.  The register array selects one
of the four topologies; partner macros contribute additional conductance
planes for signed (differential) mappings and for the PINV transpose array,
mirroring the paper's macro *group* where two arrays share the OPA column.

Unit convention at this layer: **volts in, volts out** — digital scaling
to/from problem units lives in :mod:`repro.core`.

**One chain.** Operator handles and tiled grids evaluate MVM and INV
through the stacked stages of :mod:`repro.core.grid_engine`, which read
each macro's resident circuit (:meth:`AMCMacro.resident_mvm_circuit` /
:meth:`AMCMacro.resident_inv_circuit`).  ``compute_mvm``/``compute_inv``
run the same converter and amplifier blocks on a one-slot view — the
path of an auto-ranging retry and of the ISA controller's ``EXE``.
PINV and EGV keep their own circuit solves and share the DAC/ADC.
MVM, INV and PINV conversions apply the saturation rule where the ADC
samples (:meth:`~repro.converters.adc.ADC.saturated_columns`); EGV never
flags, since the rail is its operating point.

**Persistent circuits.** The conductances are frozen between programming
events, so each macro keeps the circuit model of its current configuration
alive across solves: one conductance-plane read and (for the feedback
topologies) one eigendecomposition and one equilibrium inverse per
programming event, shared by every subsequent ``compute_*`` call —
including matrix-valued right-hand sides, which stream through the
resident circuit in a single engine call.
The cache invalidates itself whenever the circuit could have changed:
programming (:meth:`program_targets` bumps the array's ``version``),
reconfiguration (register word changes), or a partner macro doing either.
:meth:`set_g_f` is the deliberate exception — the ladder is auto-ranging's
per-solve knob, so MVM retunes the resident circuit in place and INV reads
the ladder at solve time; only PINV (where ``g_f`` sits inside the loop
matrix) pays a rebuild on a ladder move.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.analog.egv import EgvCircuit
from repro.analog.inv import InvCircuit
from repro.analog.mvm import MVMCircuit
from repro.analog.opamp import OpAmpBank, OpAmpParams, one_slot
from repro.analog.pinv import PinvCircuit
from repro.analog.results import CircuitSolution
from repro.analog.topologies import AMCMode
from repro.arrays.crossbar import CrossbarArray
from repro.arrays.mapping import DifferentialMapping
from repro.converters.adc import ADC, ADCParams
from repro.converters.dac import DAC, DACParams
from repro.devices.constants import DEFAULT_STACK, DeviceStack
from repro.macro.registers import (
    MacroConfig,
    MacroRole,
    PlaneLayout,
    RegisterArray,
    g_f_code_for,
    g_lambda_code_for,
)
from repro.macro.switches import build_connections, validate_connections
from repro.programming.levels import LevelMap


@dataclass
class MacroResult:
    """One analog computation as seen by the digital side."""

    values: np.ndarray
    """ADC-sampled output voltages (what lands in the output buffer)."""

    raw: np.ndarray
    """Pre-ADC amplifier outputs (for analysis only)."""

    solution: CircuitSolution
    mode: AMCMode

    @property
    def ok(self) -> bool:
        return self.solution.ok


class AMCMacro:
    """One reconfigurable analog matrix computing macro."""

    def __init__(
        self,
        macro_id: int = 0,
        stack: DeviceStack = DEFAULT_STACK,
        rows: int = 128,
        cols: int = 128,
        opamp_params: OpAmpParams | None = None,
        dac_params: DACParams | None = None,
        adc_params: ADCParams | None = None,
        level_map: LevelMap | None = None,
        rng: np.random.Generator | None = None,
        wire_resistance: float = 0.0,
    ):
        self.macro_id = macro_id
        self.rng = rng if rng is not None else np.random.default_rng(macro_id)
        self.level_map = level_map or LevelMap()
        self.opamp_params = opamp_params or OpAmpParams()
        self.array = CrossbarArray(
            stack, rows, cols, self.level_map, rng=self.rng, wire_resistance=wire_resistance
        )
        self.row_amps = OpAmpBank.sample(rows, self.opamp_params, self.rng)
        self.col_amps = OpAmpBank.sample(cols, self.opamp_params, self.rng)
        self.dac = DAC(dac_params or DACParams())
        self.adc = ADC(adc_params or ADCParams())
        self.registers = RegisterArray()
        self.output_buffer = np.zeros(rows)
        self.layout = PlaneLayout.SINGLE
        self.solve_count = 0
        self._circuits: dict[str, tuple[tuple, object]] = {}
        """Resident circuit per topology, stored as ``(key, circuit)``;
        the key encodes everything the circuit was built from (register
        word, array versions, partners) so any change rebuilds."""

    # -- configuration -------------------------------------------------------------

    def configure(
        self,
        mode: AMCMode,
        rows: int,
        cols: int,
        row_offset: int = 0,
        col_offset: int = 0,
        g_f: float = 1e-3,
        g_lambda: float = 0.0,
        layout: PlaneLayout = PlaneLayout.SINGLE,
        role: MacroRole = MacroRole.PRIMARY,
    ) -> MacroConfig:
        """Write the register array and set up drivers + switch fabric.

        For :attr:`PlaneLayout.PAIRED_COLUMNS`, ``cols`` is the *logical*
        matrix width; the physical active region spans ``2·cols`` columns.
        """
        physical_cols = cols * 2 if layout is PlaneLayout.PAIRED_COLUMNS else cols
        config = MacroConfig(
            mode=mode,
            rows=rows,
            cols=physical_cols,
            row_offset=row_offset,
            col_offset=col_offset,
            g_f_code=g_f_code_for(g_f),
            g_lambda_code=g_lambda_code_for(g_lambda),
            role=role,
            layout=layout,
        )
        self.registers.write(config)
        self.array.select_region(rows, physical_cols, row_offset, col_offset)
        self.layout = layout
        differential = layout is not PlaneLayout.SINGLE
        connections = build_connections(mode, rows, cols, differential)
        validate_connections(connections)
        self.connections = connections
        return config

    def apply_config_word(self, word: int) -> MacroConfig:
        """ISA path: load a raw 64-bit register word from the decoder.

        The word carries the plane layout, so a CFG instruction fully
        configures the macro without side channels.
        """
        config = self.registers.write_word(word)
        self.array.select_region(config.rows, config.cols, config.row_offset, config.col_offset)
        self.layout = config.layout
        return config

    def set_g_f(self, g_f: float) -> float:
        """Re-range the feedback/input-conductance ladder (register rewrite only).

        Changing ``g_f`` never touches the programmed conductances — it is
        the cheap gain knob the digital controller uses for auto-ranging.
        Returns the actually-selected ladder value.
        """
        old = self.config
        new = MacroConfig(
            mode=old.mode,
            rows=old.rows,
            cols=old.cols,
            row_offset=old.row_offset,
            col_offset=old.col_offset,
            g_f_code=g_f_code_for(g_f),
            g_lambda_code=old.g_lambda_code,
            role=old.role,
            layout=old.layout,
        )
        self.registers.write(new)
        return new.g_f

    @property
    def config(self) -> MacroConfig:
        return self.registers.read()

    # -- programming -----------------------------------------------------------------

    def program_targets(self, targets: np.ndarray) -> None:
        """Program raw conductance targets into the active region."""
        self.array.program_targets(targets)

    def program_mapping(
        self, mapping: DifferentialMapping, partner: "AMCMacro | None" = None
    ) -> None:
        """Program a signed mapping according to the configured layout."""
        for macro, targets in self.plane_targets(mapping, partner):
            macro.program_targets(targets)

    def plane_targets(
        self, mapping: DifferentialMapping, partner: "AMCMacro | None" = None
    ) -> list[tuple["AMCMacro", np.ndarray]]:
        """``(macro, region conductance targets)`` per physical plane of
        ``mapping`` under the configured layout."""
        if self.layout is PlaneLayout.SINGLE:
            return [(self, mapping.g_pos)]
        if self.layout is PlaneLayout.PAIRED_COLUMNS:
            rows, cols = mapping.shape
            interleaved = np.empty((rows, 2 * cols))
            interleaved[:, 0::2] = mapping.g_pos
            interleaved[:, 1::2] = mapping.g_neg
            return [(self, interleaved)]
        if partner is None:
            raise ValueError("PAIRED_ARRAYS layout needs a partner macro")
        return [(self, mapping.g_pos), (partner, mapping.g_neg)]

    # -- plane access -----------------------------------------------------------------

    def planes(self, partner: "AMCMacro | None" = None) -> tuple[np.ndarray, np.ndarray | None]:
        """(g_pos, g_neg): one read-noise draw of the stored conductances."""
        plane = self.array.conductances(noisy=True)
        if self.layout is PlaneLayout.SINGLE:
            return plane, None
        if self.layout is PlaneLayout.PAIRED_COLUMNS:
            return plane[:, 0::2], plane[:, 1::2]
        if partner is None:
            raise ValueError("PAIRED_ARRAYS layout needs a partner macro")
        return plane, partner.array.conductances(noisy=True)

    def _active_row_amps(self, count: int) -> OpAmpBank:
        return OpAmpBank(self.opamp_params, self.row_amps.offsets[:count])

    def _active_col_amps(self, count: int) -> OpAmpBank:
        return OpAmpBank(self.opamp_params, self.col_amps.offsets[:count])

    # -- computation -------------------------------------------------------------------

    def _check_mode(self, expected: AMCMode) -> MacroConfig:
        config = self.config
        if config.mode is not expected:
            raise RuntimeError(
                f"macro {self.macro_id} configured for {config.mode.value}, "
                f"cannot run {expected.value} (reconfigure first)"
            )
        return config

    _G_F_BITS = 0xFF << 34
    """The register word's ``g_f_code`` field (see ``registers`` layout)."""

    def _word_key(self, include_g_f: bool) -> int:
        """The register word as a cache-key component.

        ``g_f`` is masked out for topologies where the ladder does not
        enter the circuit matrices (MVM retunes in place, INV applies the
        ladder digitally to the input currents, EGV ignores it) so that
        auto-ranging never invalidates a resident decomposition.
        """
        word = self.registers.word or 0
        return word if include_g_f else word & ~self._G_F_BITS

    @staticmethod
    def _partner_fingerprint(partner: "AMCMacro | None") -> tuple:
        if partner is None:
            return ()
        return (partner.macro_id, partner.array.version)

    def _resident_circuit(self, kind: str, key: tuple, build):
        """The cached circuit for ``key``, rebuilding on any mismatch.

        One slot per topology: a macro is only ever configured for one
        mode at a time, so stale entries are simply overwritten.
        """
        cached = self._circuits.get(kind)
        if cached is not None and cached[0] == key:
            return cached[1]
        circuit = build()
        self._circuits[kind] = (key, circuit)
        return circuit

    def _inverter_bank(
        self, partner: "AMCMacro | None", g_neg: np.ndarray | None, count: int
    ) -> OpAmpBank | None:
        """The column amplifiers re-driving the negative plane (the
        partner's under paired arrays), or ``None`` for a single plane."""
        if g_neg is None:
            return None
        source = partner if self.layout is PlaneLayout.PAIRED_ARRAYS and partner else self
        return source._active_col_amps(count)

    def _plane_key(self, partner: "AMCMacro | None") -> tuple:
        """Residency key of a circuit whose matrices ignore ``g_f``."""
        return (
            self._word_key(include_g_f=False),
            self.array.version,
            self._partner_fingerprint(partner),
        )

    def resident_mvm_circuit(
        self, partner: "AMCMacro | None" = None
    ) -> tuple[MVMCircuit, tuple]:
        """The cached MVM circuit plus its residency key.

        The key is ``(register word sans g_f, crossbar version, partner
        fingerprint)`` — exactly what decides whether the cached
        planes are still the programmed ones.  The grid engine stores it
        per stacked slice so that programming, ``refresh`` or preemption
        invalidates exactly the affected slice, while ``set_g_f`` ladder
        moves (masked out of the word) never do.
        """
        config = self._check_mode(AMCMode.MVM)
        key = self._plane_key(partner)

        def build() -> MVMCircuit:
            g_pos, g_neg = self.planes(partner)
            return MVMCircuit(
                g_pos,
                g_neg,
                params=self.opamp_params,
                g_f=config.g_f,
                rng=self.rng,
                row_amps=self._active_row_amps(g_pos.shape[0]),
                col_amps=self._inverter_bank(partner, g_neg, g_pos.shape[1]),
            )

        circuit: MVMCircuit = self._resident_circuit("mvm", key, build)
        circuit.set_g_f(config.g_f)  # ladder moves never rebuild the planes
        return circuit, key

    def compute_mvm(
        self, x_values: np.ndarray, partner: "AMCMacro | None" = None
    ) -> MacroResult:
        """One analog multiply: input voltages → ADC'd TIA outputs.

        ``x_values`` may be 1-D ``(cols,)`` or 2-D ``(cols, batch)``; the
        batch streams through the resident circuit in one engine call.
        """
        circuit, _ = self.resident_mvm_circuit(partner)
        v_in = self._convert(x_values)
        solution = circuit.solve(v_in)
        return self._finish(solution, AMCMode.MVM)

    def resident_inv_circuit(
        self, partner: "AMCMacro | None" = None
    ) -> tuple[InvCircuit, tuple]:
        """The cached INV circuit plus its residency key (see the MVM twin)."""
        self._check_mode(AMCMode.INV)
        key = self._plane_key(partner)

        def build() -> InvCircuit:
            g_pos, g_neg = self.planes(partner)
            return InvCircuit(
                g_pos,
                g_neg,
                params=self.opamp_params,
                rng=self.rng,
                row_amps=self._active_row_amps(g_pos.shape[0]),
                inverter_amps=self._inverter_bank(partner, g_neg, g_pos.shape[0]),
            )

        circuit: InvCircuit = self._resident_circuit("inv", key, build)
        return circuit, key

    def compute_inv(
        self, b_values: np.ndarray, partner: "AMCMacro | None" = None
    ) -> MacroResult:
        """One-step inversion: input voltages become currents via ``g_f``.

        ``b_values`` may be 1-D ``(n,)`` or 2-D ``(n, batch)`` — every
        column shares the resident circuit's one equilibrium inverse and one
        stability eigendecomposition (``g_f`` scales only the inputs here,
        so auto-ranging keeps the decomposition too).
        """
        circuit, _ = self.resident_inv_circuit(partner)
        v_in = self._convert(b_values)
        # Input conductances from the g_f ladder.
        solution = circuit.static_solve(self.config.g_f * v_in)
        return self._finish(solution, AMCMode.INV)

    def compute_pinv(
        self,
        b_values: np.ndarray,
        partner_t: "AMCMacro",
        partner_neg: "AMCMacro | None" = None,
        partner_t_neg: "AMCMacro | None" = None,
    ) -> MacroResult:
        """Least squares: this macro holds G, ``partner_t`` holds Gᵀ.

        With paired-array layouts the negative planes come from
        ``partner_neg`` / ``partner_t_neg``; with paired columns each macro
        de-interleaves its own planes.  ``b_values`` may be batched
        ``(m, k)``.  ``g_f`` sits inside this loop's matrices, so the
        cache key keeps it: a ladder move rebuilds the circuit (and its
        decomposition), as the physics demands.
        """
        config = self._check_mode(AMCMode.PINV)
        key = (
            self._word_key(include_g_f=True),
            self.array.version,
            self._partner_fingerprint(partner_t),
            self._partner_fingerprint(partner_neg),
            self._partner_fingerprint(partner_t_neg),
        )

        def build() -> PinvCircuit:
            g1_pos, g1_neg = self.planes(partner_neg)
            g2_pos, g2_neg = partner_t.planes(partner_t_neg)
            m, n = g1_pos.shape
            return PinvCircuit(
                g1_pos,
                g1_neg,
                g2_pos,
                g2_neg,
                params=self.opamp_params,
                g_f=config.g_f,
                rng=self.rng,
                stage1_amps=self._active_row_amps(m),
                stage2_amps=self._active_col_amps(n),
            )

        circuit: PinvCircuit = self._resident_circuit("pinv", key, build)
        v_in = self._convert(b_values)
        solution = circuit.static_solve(config.g_f * v_in)
        return self._finish(solution, AMCMode.PINV)

    def compute_egv(
        self, partner: "AMCMacro | None" = None, transient: bool = False
    ) -> MacroResult:
        """Dominant eigenvector; λ comes from the register ladder."""
        config = self._check_mode(AMCMode.EGV)
        if config.g_lambda <= 0.0:
            raise RuntimeError("EGV mode requires a positive g_lambda in the registers")
        key = self._plane_key(partner)

        def build() -> EgvCircuit:
            g_pos, g_neg = self.planes(partner)
            return EgvCircuit(
                g_pos,
                g_neg,
                g_lambda=config.g_lambda,
                params=self.opamp_params,
                rng=self.rng,
                amps=self._active_row_amps(g_pos.shape[0]),
            )

        circuit: EgvCircuit = self._resident_circuit("egv", key, build)
        solution = circuit.transient_solve() if transient else circuit.static_solve()
        eigvec = circuit.eigenvector(solution)
        # The ADC sees the railed amplifier outputs; normalisation happens
        # digitally, so sample the raw outputs and renormalise after.
        sampled = self._sample(solution.outputs)
        norm = np.linalg.norm(sampled)
        values = sampled / norm if norm > 0 else sampled
        pivot = int(np.argmax(np.abs(values)))
        if values[pivot] < 0:
            values = -values
        self.latch_output(values)
        return MacroResult(values=values, raw=eigvec, solution=solution, mode=AMCMode.EGV)

    # -- converters: one-slot views of the stacked DAC/ADC --------------------------

    def _convert(self, values: np.ndarray) -> np.ndarray:
        """DAC conversion of a copy of ``values`` (vector or batch)."""
        v_in = np.array(values, dtype=float)
        self.dac.convert(one_slot(v_in), [(self.rng, v_in.shape[0])])
        return v_in

    def _sample(self, outputs: np.ndarray) -> np.ndarray:
        """ADC conversion of amplifier ``outputs`` (vector or batch)."""
        return self.adc.sample(one_slot(outputs), [(self.rng, outputs.shape[0])]).reshape(
            outputs.shape
        )

    def _finish(self, solution: CircuitSolution, mode: AMCMode) -> MacroResult:
        """Sample a circuit's outputs and apply the saturation rule there:
        the circuit's railed columns plus those the ADC would clip."""
        outputs = solution.outputs
        lines = outputs.reshape(outputs.shape[0], -1)
        solution.column_saturated = self.adc.saturated_columns(
            solution.column_saturated, lines.max(axis=0), lines.min(axis=0)
        )
        values = self._sample(outputs)
        self.latch_output(values)
        return MacroResult(values=values, raw=outputs, solution=solution, mode=mode)

    def latch_output(self, values: np.ndarray) -> None:
        """Latch one conversion's ADC values into the output buffer (the
        last column of a batch) and count it."""
        latest = values[:, -1] if values.ndim == 2 else values
        self.output_buffer[: latest.size] = latest
        self.solve_count += 1
