"""Behavioural DAC: digital codes → bit-line voltages (paper Fig. 2).

The macro's DA interface converts the global buffer's digital operands to
analog input voltages.  The model captures the error sources that matter
for AMC accuracy: finite resolution, full-scale range, integral
nonlinearity (a smooth bow), and per-conversion output noise.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.analog.opamp import Draws, draw_noise
from repro.converters.quantizer import BipolarQuantizer


@dataclass(frozen=True)
class DACParams:
    """Static configuration of one DAC channel bank."""

    bits: int = 8
    v_ref: float = 1.0
    """Full scale: codes map to ``[−v_ref, +v_ref]``."""
    inl_lsb: float = 0.0
    """Peak integral nonlinearity in LSB (parabolic bow model)."""
    noise_sigma: float = 0.0
    """Output noise per conversion (volts)."""


class DAC(BipolarQuantizer):
    """Vectorised bipolar DAC."""

    kind = "DAC"

    def convert(
        self, v: np.ndarray, draws: Draws = ()
    ) -> np.ndarray:
        """Convert target voltages to the voltages that land on the bit lines.

        In place on ``v`` (returned): code quantization, the INL bow and
        per-conversion output noise.  With ``draws`` (see
        :func:`~repro.analog.opamp.draw_noise`) ``v`` is a ``(slots,
        lines, k)`` stack; without, any shape converts noiselessly.
        """
        p = self.params
        self.quantize(v, out=v)
        if p.inl_lsb > 0.0:
            # Parabolic bow: zero at the rails, maximal mid-scale.
            bow = v / p.v_ref
            bow *= bow
            np.subtract(1.0, bow, out=bow)
            bow *= p.inl_lsb * self.lsb
            v += bow
        draw_noise(v, p.noise_sigma, draws)
        return v
