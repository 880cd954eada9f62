"""Stochastic non-idealities layered on top of the deterministic device model.

The paper attributes the ~10 % solver error to "quantization error and the
intrinsic analog noises in the circuit"; this module supplies the device
half of those noises in a form the array layer can apply vectorised:

* **device-to-device (D2D)** — a fixed lognormal multiplier per cell,
  drawn once when an array is built (fabrication spread);
* **cycle-to-cycle (C2C)** — a fresh lognormal multiplier per write
  (programming stochasticity);
* **read noise** — zero-mean relative gaussian noise per read;
* **stuck-at faults** — cells pinned at G_MIN / G_MAX regardless of writes.

All draws flow through an explicit :class:`numpy.random.Generator`, so any
experiment is exactly reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.constants import G_MAX, G_MIN, VariabilityParams


@dataclass
class VariabilityModel:
    """Vectorised sampler for the stochastic device effects."""

    params: VariabilityParams
    rng: np.random.Generator

    def d2d_multipliers(self, shape: tuple[int, ...]) -> np.ndarray:
        """Per-cell fabrication multipliers (lognormal, median 1)."""
        sigma = self.params.d2d_sigma
        if sigma <= 0.0:
            return np.ones(shape)
        return self.rng.lognormal(mean=0.0, sigma=sigma, size=shape)

    def c2c_multiplier(self, shape: tuple[int, ...] = ()) -> np.ndarray:
        """Per-write multipliers (fresh draw each programming operation)."""
        sigma = self.params.c2c_sigma
        if sigma <= 0.0:
            return np.ones(shape)
        return self.rng.lognormal(mean=0.0, sigma=sigma, size=shape)

    def read_noise(self, conductances: np.ndarray) -> np.ndarray:
        """One noisy read of ``conductances`` (relative gaussian)."""
        sigma = self.params.read_noise_sigma
        if sigma <= 0.0:
            return np.asarray(conductances, dtype=float)
        noise = self.rng.normal(loc=1.0, scale=sigma, size=np.shape(conductances))
        return np.clip(np.asarray(conductances) * noise, 0.0, None)

    def stuck_fault_map(self, shape: tuple[int, ...]) -> np.ndarray:
        """Fault map: 0 = healthy, +1 = stuck at G_MAX, −1 = stuck at G_MIN."""
        faults = np.zeros(shape, dtype=np.int8)
        p_on = self.params.stuck_on_rate
        p_off = self.params.stuck_off_rate
        if p_on <= 0.0 and p_off <= 0.0:
            return faults
        draw = self.rng.random(shape)
        faults[draw < p_on] = 1
        faults[(draw >= p_on) & (draw < p_on + p_off)] = -1
        return faults

    @staticmethod
    def apply_faults(conductances: np.ndarray, faults: np.ndarray) -> np.ndarray:
        """Pin faulty cells to their stuck conductance (always a new array).

        A region that holds no stuck cell skips both mask passes.
        """
        out = np.array(conductances, dtype=float, copy=True)
        if not faults.any():
            return out
        out[faults == 1] = G_MAX
        out[faults == -1] = G_MIN
        return out


@dataclass(frozen=True)
class RetentionModel:
    """Conductance relaxation over time (retention drift).

    RRAM filaments relax toward a mid-window equilibrium with the empirical
    power law ``G(t) = G_eq + (G₀ − G_eq)·(1 + t/t0)^(−ν)`` — fully-SET
    cells lose conductance, fully-RESET cells gain a little.  The drift
    exponent ν and the onset time t0 are the usual fitting parameters of
    retention studies; the defaults give ≈5 % drift of a boundary state per
    decade after ~1000 s, a representative filamentary-oxide figure.

    Deterministic by design: the stochastic scatter around the power law is
    already covered by the read-noise term.
    """

    g_equilibrium: float = 35e-6
    onset_time: float = 1e3
    nu: float = 0.07

    def drifted(self, conductances: np.ndarray, elapsed: float) -> np.ndarray:
        """Conductances after ``elapsed`` seconds of unbiased retention."""
        if elapsed < 0.0:
            raise ValueError("elapsed time must be non-negative")
        g0 = np.asarray(conductances, dtype=float)
        if elapsed == 0.0:
            return g0.copy()
        decay = (1.0 + elapsed / self.onset_time) ** (-self.nu)
        return self.g_equilibrium + (g0 - self.g_equilibrium) * decay

    def worst_case_level_drift(self, level_step: float, elapsed: float) -> float:
        """Largest drift (in level units) any cell in the window can suffer."""
        extremes = np.array([G_MIN, G_MAX])
        moved = self.drifted(extremes, elapsed)
        return float(np.max(np.abs(moved - extremes)) / level_step)
