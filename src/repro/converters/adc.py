"""Behavioural ADC: TIA output voltages → digital codes (paper Fig. 2).

The AD interface digitises the analog computation results for the output
buffer.  Resolution, range clipping, input-referred noise and offset are
modelled; differential nonlinearity is folded into the noise term (a good
approximation for the thermometer/SAR converters used in AMC macros).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.analog.opamp import Draws, draw_noise
from repro.converters.quantizer import BipolarQuantizer


@dataclass(frozen=True)
class ADCParams:
    """Static configuration of one ADC channel bank."""

    bits: int = 8
    v_ref: float = 1.0
    """Input range ``[−v_ref, +v_ref]``; beyond it the converter clips."""
    noise_sigma: float = 0.0
    offset: float = 0.0


class ADC(BipolarQuantizer):
    """Vectorised bipolar ADC."""

    kind = "ADC"

    def sample(
        self,
        voltages: np.ndarray,
        draws: Draws = (),
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Digitise voltages; returns the *reconstructed* voltage values.

        Returning voltage-domain values (code·LSB − v_ref) keeps the digital
        pipeline unit-consistent; the integer codes are available via
        :meth:`codes`.  With ``draws`` (see
        :func:`~repro.analog.opamp.draw_noise`) ``voltages`` is a
        ``(slots, lines, k)`` stack and each slot adds its input-referred
        noise; ``out`` may alias ``voltages``.
        """
        p = self.params
        if p.offset == 0.0 and p.noise_sigma <= 0.0:
            # Nothing lands before the converter: quantize straight into ``out``.
            return self.quantize(voltages, out=out)
        out = np.add(voltages, p.offset, out=out)
        draw_noise(out, p.noise_sigma, draws)
        return self.quantize(out, out=out)

    def codes(self, voltages: np.ndarray) -> np.ndarray:
        """Raw integer output codes in ``[0, 2**bits − 1]`` (noiseless)."""
        reconstructed = self.sample(voltages)
        return np.rint((reconstructed + self.params.v_ref) / self.lsb).astype(np.int64)

    def saturated_columns(
        self,
        railed: np.ndarray,
        top: np.ndarray,
        low: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """The saturation rule, per column: a column is saturated when its
        amplifier output hit the op-amp rail (``railed``) or, shifted by
        the converter offset, leaves ``[−v_ref, v_ref]``.

        ``top`` and ``low`` are the per-column maximum and minimum of the
        clamped amplifier outputs before the converter adds its own noise
        (rounding ``v + offset`` is monotone, so the shifted extrema are
        the extrema of the shifted signal).  Every conversion point
        decides saturation here, where the ADC samples; ranging reads
        only the result.
        """
        p = self.params
        out = np.greater(np.maximum(top + p.offset, -low - p.offset), p.v_ref, out=out)
        return np.logical_or(out, railed, out=out)
