"""Amplifier blocks: TIAs and analog inverters built from the OPA bank.

The paper's register array "reconfigures OPAs as TIAs and analog inverters"
(§II-B).  These two closed-loop blocks are the only amplifier roles any of
the four topologies needs:

* a **TIA** (transimpedance amplifier) holds an array line at virtual
  ground and converts the line current to a voltage through its feedback
  conductance ``g_f``;
* an **analog inverter** produces ``−v`` to drive the negative plane of a
  differential matrix mapping.

Each block's transfer is written once, over a ``(slots, lines, k)`` stack
of tiles evaluated together: slot ``t`` carries its own amplifier offsets
(``(slots, lines)``), its own ladder value and its own noise stream
(``draws``, see :func:`~repro.analog.opamp.draw_noise`).  A single
circuit is the one-slot case (:func:`~repro.analog.opamp.one_slot`).
Padded lines of a slot compute garbage that the caller masks.
"""

from __future__ import annotations

import numpy as np

from repro.analog.opamp import Draws, OpAmpParams, draw_noise


def tia_output(
    currents: np.ndarray,
    g_node: np.ndarray,
    offsets: np.ndarray,
    g_f: np.ndarray,
    params: OpAmpParams,
    draws: Draws = (),
) -> np.ndarray:
    """Noisy, rail-clamped TIA outputs for injected node ``currents``, in place.

    With node conductance ``g_node`` (everything tied to the virtual-ground
    node *other than* the feedback element, ``(slots, rows)``) and
    per-slot feedback ``g_f`` (``(slots,)``), KCL gives the finite-gain
    transfer

    ``u = (−i + v_os·(g_node + g_f)) / (g_f + (g_node + g_f)/a0)``

    so an ideal amplifier gives ``u = −i/g_f`` and offsets are amplified
    by the noise gain ``1 + g_node/g_f``.  Each column is one conversion
    through the same hardware (offsets fixed, one noise draw each).
    """
    g_f3 = g_f[:, None, None]
    g_sum = g_node[:, :, None] + g_f3
    # ``−i + offset·g_sum``: negation then addition is exactly the one
    # subtraction.
    np.subtract(offsets[:, :, None] * g_sum, currents, out=currents)
    currents /= g_f3 + g_sum / params.a0
    draw_noise(currents, params.noise_sigma, draws)
    currents.clip(-params.v_sat, params.v_sat, out=currents)
    return currents


def tia_settling_time(g_node_peak, g_f, params: OpAmpParams):
    """One closed-loop TIA time constant, ``(1 + g_node/g_f) / (2π·gbw)``,
    at the most heavily loaded row (scalar or per slot)."""
    return (1.0 + g_node_peak / g_f) / (2.0 * np.pi * params.gbw)


def inverter_output(
    v: np.ndarray,
    offsets: np.ndarray,
    params: OpAmpParams,
    draws: Draws = (),
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unity-gain inverter outputs for line voltages ``v`` (a stack).

    Finite gain makes the magnitude slightly less than one
    (``gain = a0/(a0 + 2)``) and the input offset appears doubled at the
    output — both effects retained because they feed the differential
    matrix planes directly.  ``v`` is left untouched unless it is ``out``.
    """
    gain = params.a0 / (params.a0 + 2.0)
    out = np.multiply(v, -gain, out=out)
    out += 2.0 * gain * offsets[:, :, None]
    draw_noise(out, params.noise_sigma, draws)
    out.clip(-params.v_sat, params.v_sat, out=out)
    return out
