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

Read noise is **output-referred**: the MVM chain (inverter → negative
plane → TIA) is linear, so the inverter's Gaussian read noise is carried
by the TIA's single draw.  :func:`inverter_output` is noiseless, and
:func:`tia_output` draws once per ``(slot, row, column)`` with the per-row
sigma ``σ_i = noise_sigma · sqrt(1 + Σ_j g_neg[i,j]² / den_i²)``,
``den_i = g_f + (g_node_i + g_f)/a0`` — the variance of one inverter draw
per column pushed through the negative plane and the TIA transfer, plus
the TIA's own.  Rows of an unsigned tile keep ``σ_i = noise_sigma``.
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
    g_neg_sq: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noisy, rail-clamped TIA outputs for injected node ``currents``, in place.

    With node conductance ``g_node`` (everything tied to the virtual-ground
    node *other than* the feedback element, ``(slots, rows)``) and
    per-slot feedback ``g_f`` (``(slots,)``), KCL gives the finite-gain
    transfer

    ``u = (−i + v_os·(g_node + g_f)) / den``,  ``den = g_f + (g_node + g_f)/a0``

    so an ideal amplifier gives ``u = −i/g_f`` and offsets are amplified
    by the noise gain ``1 + g_node/g_f``.  Each column is one conversion
    through the same hardware (offsets fixed, one noise draw each).
    ``g_neg_sq`` (``(slots, rows)``, ``Σ_j g_neg[i,j]²`` of a signed
    tile's negative plane, zero for unsigned slots) refers the inverter
    plane's read noise to this output; ``None`` is an unsigned stack.
    The draws land in ``scratch`` when given (a reusable stack buffer).
    Returns the per-column ``(railed, top, low)`` of the clamped outputs
    (:meth:`~repro.analog.opamp.OpAmpParams.clamp_columns`).
    """
    g_sum = g_node + g_f[:, None]
    # ``−i + offset·g_sum``: negation then addition is exactly the one
    # subtraction.
    np.subtract((offsets * g_sum)[:, :, None], currents, out=currents)
    den = g_f[:, None] + g_sum / params.a0
    currents *= (1.0 / den)[:, :, None]
    if params.noise_sigma > 0.0 and draws:
        sigma = params.noise_sigma
        if g_neg_sq is not None:
            sigma = sigma * np.sqrt(1.0 + g_neg_sq / (den * den))
        draw_noise(currents, sigma, draws, scratch)
    return params.clamp_columns(currents)


def tia_settling_time(g_node_peak, g_f, params: OpAmpParams):
    """One closed-loop TIA time constant, ``(1 + g_node/g_f) / (2π·gbw)``,
    at the most heavily loaded row (scalar or per slot)."""
    return (1.0 + g_node_peak / g_f) / (2.0 * np.pi * params.gbw)


def inverter_output(
    v: np.ndarray,
    offsets: np.ndarray,
    params: OpAmpParams,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unity-gain inverter outputs for line voltages ``v`` (a stack).

    Finite gain makes the magnitude slightly less than one
    (``gain = a0/(a0 + 2)``) and the input offset appears doubled at the
    output — both effects retained because they feed the differential
    matrix planes directly.  Noiseless: the inverter's read noise is
    referred to the TIA output (see :func:`tia_output`).  ``v`` is left
    untouched unless it is ``out``.
    """
    gain = params.a0 / (params.a0 + 2.0)
    out = np.multiply(v, -gain, out=out)
    out += 2.0 * gain * offsets[:, :, None]
    return params.saturate(out, out=out)
