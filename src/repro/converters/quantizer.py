"""The bipolar quantizer both converter banks share."""

from __future__ import annotations

import numpy as np


class BipolarQuantizer:
    """``2**bits`` mid-rise levels ``(q + ½)·lsb`` spanning ``[−v_ref, +v_ref]``.

    Codes run over ``q ∈ [−2**(bits−1), 2**(bits−1) − 1]``; decision
    thresholds sit on the integer multiples of ``lsb``, so the nearest
    level to ``v`` is ``(⌊v/lsb⌋ + ½)·lsb``, clipped to the code range.
    """

    kind = "converter"

    def __init__(self, params):
        if params.bits < 1:
            raise ValueError(f"{self.kind} needs at least 1 bit")
        self.params = params
        self.lsb = 2.0 * params.v_ref / (2**params.bits - 1)
        """Voltage of one code step."""
        self._per_lsb = 1.0 / self.lsb
        self._top_code = float(2 ** (params.bits - 1) - 1)

    def quantize(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The level nearest each value of ``v`` (rail-clipped), in five
        elementwise passes; ``out`` may alias ``v``."""
        out = np.multiply(v, self._per_lsb, out=out)
        np.floor(out, out=out)
        out.clip(-self._top_code - 1.0, self._top_code, out=out)
        out += 0.5
        out *= self.lsb
        return out
