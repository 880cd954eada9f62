"""MVM topology: matrix-vector multiplication in one read (paper Fig. 4(a)).

Connection plan (what the register array configures):

* DAC input voltages drive the bit lines of the positive plane;
* analog inverters re-drive the negative plane's bit lines with ``−v``;
* every source line lands on a TIA virtual ground with feedback ``g_f``;
* outputs: ``u = −(G⁺ − G⁻)·v / g_f``.

This is the only *feed-forward* topology — no loop, unconditionally stable,
and the settling time is simply the closed-loop TIA bandwidth.

An :class:`MVMCircuit` is persistent: the conductance planes and their row
sums are fixed at construction (one read per programming event) and
``solve`` accepts matrix-valued inputs, so a whole right-hand-side block
streams through one configured circuit.  The feedback ladder is the one
run-time knob — :meth:`set_g_f` retunes it in place so the auto-ranging
loop never rebuilds the circuit.

The inverter drive and the TIA transfer are the stacked blocks of
:mod:`repro.analog.blocks`; ``solve`` runs them on a one-slot view, and
the grid engine runs the same blocks over whole tile stacks.  Read noise
is output-referred: one Gaussian per row and column at the TIA, whose
per-row sigma carries the (noiseless) inverter plane's share through the
cached row sums ``Σ_j g_neg[i,j]²`` (:meth:`MVMCircuit.neg_square_sums`).
"""

from __future__ import annotations

import numpy as np

from repro.analog import determinism
from repro.analog.blocks import inverter_output, tia_output, tia_settling_time
from repro.analog.opamp import OpAmpBank, OpAmpParams, one_slot
from repro.analog.results import CircuitSolution


class MVMCircuit:
    """One configured MVM macro: conductance planes + TIA row bank."""

    def __init__(
        self,
        g_pos: np.ndarray,
        g_neg: np.ndarray | None = None,
        params: OpAmpParams | None = None,
        g_f: float = 1e-3,
        rng: np.random.Generator | None = None,
        row_amps: OpAmpBank | None = None,
        col_amps: OpAmpBank | None = None,
    ):
        self.g_pos = np.asarray(g_pos, dtype=float)
        if self.g_pos.ndim != 2:
            raise ValueError("g_pos must be a matrix")
        self.g_neg = None if g_neg is None else np.asarray(g_neg, dtype=float)
        if self.g_neg is not None and self.g_neg.shape != self.g_pos.shape:
            raise ValueError("g_neg must match g_pos shape")
        self.params = params or OpAmpParams()
        self.g_f = g_f
        self.rng = rng if rng is not None else np.random.default_rng(0)

        rows, cols = self.g_pos.shape
        # Banks may be supplied by the owning macro so that the same sampled
        # offsets persist across solves (they are fabrication artifacts).
        if row_amps is None:
            row_amps = OpAmpBank.sample(rows, self.params, self.rng)
        if len(row_amps) != rows:
            raise ValueError("row amplifier bank size must match row count")
        self.row_amps = row_amps
        """The TIA bank on the source lines."""
        self.col_amps: OpAmpBank | None = None
        """The inverter bank re-driving the negative plane (signed only)."""
        if self.g_neg is not None:
            if col_amps is None:
                col_amps = OpAmpBank.sample(cols, self.params, self.rng)
            if len(col_amps) != cols:
                raise ValueError("column amplifier bank size must match column count")
            self.col_amps = col_amps
        self._g_node: np.ndarray | None = None
        self._g_neg_sq: np.ndarray | None = None

    def set_g_f(self, g_f: float) -> None:
        """Retune the feedback ladder in place (auto-ranging's cheap knob)."""
        self.g_f = g_f

    def node_conductance(self) -> np.ndarray:
        """Per-row conductance loading each TIA virtual ground
        (programming-frozen, cached — stackable circuit state)."""
        if self._g_node is None:
            total = self.g_pos.sum(axis=1)
            if self.g_neg is not None:
                total = total + self.g_neg.sum(axis=1)
            self._g_node = total
        return self._g_node

    def neg_square_sums(self) -> np.ndarray | None:
        """Per-row ``Σ_j g_neg[i,j]²`` (programming-frozen, cached), which
        refers the inverter plane's read noise to the TIA output; ``None``
        for an unsigned tile."""
        if self._g_neg_sq is None and self.g_neg is not None:
            self._g_neg_sq = np.einsum("ij,ij->i", self.g_neg, self.g_neg)
        return self._g_neg_sq

    def solve(self, v_in: np.ndarray, noisy: bool = True) -> CircuitSolution:
        """One analog multiply: column voltages in, TIA row voltages out.

        ``v_in`` may be 1-D ``(cols,)`` or 2-D ``(cols, batch)`` for
        back-to-back conversions through the same configured hardware.
        """
        v_in = np.asarray(v_in, dtype=float)
        if v_in.shape[0] != self.g_pos.shape[1] or v_in.ndim > 2:
            raise ValueError(
                f"expected {self.g_pos.shape[1]} input voltages "
                f"(optionally batched), got shape {v_in.shape}"
            )
        currents = determinism.apply_matrix(self.g_pos, v_in)
        g_neg_sq = self.neg_square_sums()
        if self.g_neg is not None:
            v_neg = inverter_output(one_slot(v_in), self.col_amps.offsets[None], self.params)
            currents = currents + determinism.apply_matrix(
                self.g_neg, v_neg.reshape(v_in.shape)
            )
        g_node = self.node_conductance()
        outputs = currents
        clamp = tia_output(
            one_slot(outputs),
            g_node[None],
            self.row_amps.offsets[None],
            np.array([self.g_f]),
            self.params,
            [(self.rng, self.g_pos.shape[0])] if noisy else (),
            None if g_neg_sq is None else g_neg_sq[None],
        )
        # Feed-forward topology: settling is one closed-loop TIA time constant.
        return CircuitSolution.clamped(
            outputs, clamp, stable=True,
            settling_time=tia_settling_time(float(np.max(g_node)), self.g_f, self.params),
        )

    def ideal_output(self, v_in: np.ndarray) -> np.ndarray:
        """The infinite-gain, noiseless output ``−G·v/g_f`` for reference."""
        g = self.g_pos if self.g_neg is None else self.g_pos - self.g_neg
        return -(g @ np.asarray(v_in, dtype=float)) / self.g_f
