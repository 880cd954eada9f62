"""Operational amplifier model for the reconfigurable OPA bank (Fig. 2).

Every AMC topology in the paper is a feedback network around the same OPA
bank, so one op-amp model serves all four circuits.  The model is the
standard single-pole macro-model:

* open-loop DC gain ``a0`` (finite-gain solution error ∝ 1/a0);
* gain-bandwidth product ``gbw`` — with the single pole at ``gbw/a0``, the
  open-loop time constant is ``τ = a0 / (2π·gbw)``, which sets the
  settling speed of every AMC solve;
* input offset voltage (gaussian per amplifier, sampled once — offsets are
  a *static* fabrication artifact);
* output saturation ``±v_sat`` (essential: it is what fixes the eigenvector
  amplitude in the EGV topology);
* output-referred noise per solve (Gaussian, ``noise_sigma`` at each
  amplifier output; a feed-forward chain refers every upstream draw to
  its output stage, see :func:`repro.analog.blocks.tia_output`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class OpAmpParams:
    """Electrical parameters shared by all amplifiers in a bank.

    ``noise_sigma`` is each amplifier's output-referred read noise per
    evaluation.  Where one amplifier feeds another through a linear
    network — the MVM inverter driving the negative plane into the TIAs —
    the upstream draw is referred to the last output: the TIA on row
    ``i`` draws once with

    ``σ_i = noise_sigma · sqrt(1 + Σ_j g_neg[i,j]² / den_i²)``,
    ``den_i = g_f + (g_node_i + g_f)/a0``,

    the variance of an inverter draw per column pushed through the
    negative plane and the TIA transfer, plus the TIA's own.
    """

    a0: float = 1e5
    gbw: float = 1e7
    v_sat: float = 1.2
    offset_sigma: float = 2e-4
    noise_sigma: float = 5e-4

    @property
    def tau(self) -> float:
        """Open-loop time constant ``a0 / (2π·gbw)`` in seconds."""
        return self.a0 / (2.0 * math.pi * self.gbw)

    def saturate(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Hard output clamp at the rails."""
        return np.clip(v, -self.v_sat, self.v_sat, out=out)

    def clamp_columns(self, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clamp a ``(slots, lines, k)`` stack of amplifier outputs at the
        rails, in place, and flag the columns that hit one.

        Returns ``(railed, top, low)``, each ``(slots, k)``: whether a
        column's output reached ``±v_sat``, and the maximum and minimum of
        its clamped outputs — what the converter range test reads
        (:meth:`repro.converters.adc.ADC.saturated_columns`).  This is the
        one rail test: every circuit and stage clamps its outputs here.
        """
        self.saturate(stack, out=stack)
        top = stack.max(axis=-2)
        low = stack.min(axis=-2)
        return (top >= self.v_sat) | (low <= -self.v_sat), top, low

    def soft_saturate(self, v: np.ndarray) -> np.ndarray:
        """Smooth (tanh) saturation used inside transient integration.

        The smooth variant keeps the EGV amplitude-limiting mechanism
        differentiable for the ODE integrator; it matches the hard clamp to
        within a few percent below 0.8·v_sat.
        """
        return self.v_sat * np.tanh(np.asarray(v, dtype=float) / self.v_sat)


Draws = Sequence[tuple[np.random.Generator, int]]
"""Per-slot noise streams of a stack: ``(generator, valid lines)`` each."""


def draw_noise(
    stack: np.ndarray,
    sigma: "float | np.ndarray",
    draws: Draws,
    scratch: np.ndarray | None = None,
) -> None:
    """Add one Gaussian draw per slot to a ``(slots, lines, k)`` stack, in place.

    ``draws`` pairs each slot of the stack with the random stream of the
    macro it runs on and its valid (unpadded) line count; a slot with
    zero lines draws nothing.  Each draw is ``(lines, k)`` standard
    normals from that slot's own stream, so a slot consumes exactly the
    values it would consume running alone; ``sigma`` — a scalar, or
    per-line sigmas ``(slots, lines)`` — scales them.  The draws land in
    ``scratch`` (a reusable stack-shaped buffer) when given; padded lines
    add exactly zero.  An empty ``draws`` is the noiseless evaluation.
    """
    per_line = np.ndim(sigma) > 0
    if not draws or (not per_line and sigma <= 0.0):
        return
    noise = np.empty(stack.shape) if scratch is None else scratch
    width = stack.shape[1]
    for t, (rng, lines) in enumerate(draws):
        rng.standard_normal(out=noise[t, :lines])
        if lines < width:
            noise[t, lines:] = 0.0
    noise *= sigma[:, :, None] if per_line else sigma
    stack += noise


def one_slot(values: np.ndarray) -> np.ndarray:
    """``values`` (``(lines,)`` or ``(lines, k)``) as a one-slot stack view."""
    return values.reshape(1, values.shape[0], -1)


IDEAL_OPAMP = OpAmpParams(a0=1e9, gbw=1e9, v_sat=1e6, offset_sigma=0.0, noise_sigma=0.0)
"""A practically ideal amplifier — used to isolate quantization effects."""


@dataclass
class OpAmpBank:
    """``n`` amplifiers with per-device sampled offsets."""

    params: OpAmpParams
    offsets: np.ndarray

    @classmethod
    def sample(
        cls, n: int, params: OpAmpParams, rng: np.random.Generator
    ) -> "OpAmpBank":
        """Draw a bank of ``n`` amplifiers with random input offsets."""
        if params.offset_sigma > 0.0:
            offsets = rng.normal(0.0, params.offset_sigma, size=n)
        else:
            offsets = np.zeros(n)
        return cls(params=params, offsets=offsets)

    def __len__(self) -> int:
        return self.offsets.size
