"""EGV topology: eigenvector computation (paper Fig. 4(d)).

The circuit (after Sun et al.) wires every row of the conductance matrix to
a TIA whose feedback conductance is ``g_λ`` — the analog encoding of the
*target eigenvalue* — followed by a unity inverter that re-drives the
columns.  The loop transfer is then ``x ← (G/g_λ)·x``: any component of
``x`` along an eigenvector with eigenvalue larger than ``g_λ`` grows, and
every other component decays.  Output saturation of the real amplifiers
caps the growth, so the circuit latches onto the dominant eigenvector with
an amplitude set by the rails, seeded by nothing more than the amplifiers'
own input offsets.

``g_λ`` is supplied digitally: the paper's functional module estimates the
dominant eigenvalue (a few power iterations on the quantized matrix) and
the register array programs the feedback conductance.  Setting ``g_λ``
slightly *below* the dominant eigenvalue guarantees growth; the eigenvector
direction is insensitive to the exact margin.
"""

from __future__ import annotations

import numpy as np

from repro.analog.dynamics import TransientResult, integrate_nonlinear
from repro.analog.opamp import OpAmpBank, OpAmpParams, draw_noise, one_slot
from repro.analog.results import CircuitSolution


def estimate_dominant_eigenvalue(
    matrix: np.ndarray, iterations: int = 30, rng: np.random.Generator | None = None
) -> float:
    """Digital power-iteration estimate used to program ``g_λ``."""
    matrix = np.asarray(matrix, dtype=float)
    rng = rng if rng is not None else np.random.default_rng(1)
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(iterations):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        value = float(v @ matrix @ v)
    return value


class EgvCircuit:
    """One configured EGV macro: conductance planes + λ-valued feedback."""

    def __init__(
        self,
        g_pos: np.ndarray,
        g_neg: np.ndarray | None,
        g_lambda: float,
        params: OpAmpParams | None = None,
        rng: np.random.Generator | None = None,
        amps: OpAmpBank | None = None,
    ):
        self.g_pos = np.asarray(g_pos, dtype=float)
        rows, cols = self.g_pos.shape
        if rows != cols:
            raise ValueError("EGV needs a square conductance matrix")
        self.g_neg = None if g_neg is None else np.asarray(g_neg, dtype=float)
        if g_lambda <= 0.0:
            raise ValueError("g_lambda must be a positive conductance")
        self.g_lambda = g_lambda
        self.params = params or OpAmpParams()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.amps = amps if amps is not None else OpAmpBank.sample(rows, self.params, self.rng)
        if len(self.amps) != rows:
            raise ValueError("amplifier bank size must match matrix order")

    @property
    def n(self) -> int:
        return self.g_pos.shape[0]

    def _signed_matrix(self) -> np.ndarray:
        if self.g_neg is None:
            return self.g_pos
        gain = self.params.a0 / (self.params.a0 + 2.0)
        return self.g_pos - gain * self.g_neg

    def _seed(self) -> np.ndarray:
        """Offset-equivalent seed voltages that start the growth.

        In hardware the loop is seeded by amplifier offsets and thermal
        noise; with offsets disabled (ideal amps) a femto-volt numerical
        seed stands in for thermal noise so the dominant mode can grow.
        """
        seed = self.amps.offsets.astype(float).copy()
        if not np.any(seed):
            seed = self.rng.standard_normal(self.n) * 1e-9
        return seed

    # -- solves ----------------------------------------------------------------------

    def transient_solve(
        self, t_end: float | None = None, num_points: int = 400
    ) -> CircuitSolution:
        """Integrate ``τ·ẋ = −x + sat((G·x)/g_λ + seed)`` to steady state."""
        g = self._signed_matrix()
        # The TIA+inverter stage responds at roughly gbw divided by its noise
        # gain; a conservative factor of 50 stands in for the worst-case
        # loading of a full 128-column row.
        tau = 50.0 / (2.0 * np.pi * self.params.gbw)
        seed = self._seed()
        growth_margin = max(
            float(np.max(np.abs(np.linalg.eigvals(g)))) / self.g_lambda - 1.0, 1e-3
        )
        if t_end is None:
            # Growth from offset scale to rail scale takes ~ln(v_sat/offset)/margin
            # loop time constants.
            start = max(float(np.max(np.abs(seed))), 1e-9)
            t_end = tau * (np.log(self.params.v_sat / start) / growth_margin + 20.0)

        def rhs(_t: float, x: np.ndarray) -> np.ndarray:
            loop = (g @ x) / self.g_lambda + seed
            return (-x + self.params.soft_saturate(loop)) / tau

        result: TransientResult = integrate_nonlinear(
            rhs, np.zeros(self.n), t_end, num_points=num_points
        )
        x = result.final.copy()
        draw_noise(one_slot(x), self.params.noise_sigma, [(self.rng, self.n)])
        amplitude = float(np.linalg.norm(x))
        grown = amplitude > 10.0 * float(np.linalg.norm(seed)) + 1e-12
        return CircuitSolution(
            outputs=x,
            # Saturation is the normal operating mode here, never a flag.
            column_saturated=np.zeros(1, dtype=bool),
            stable=result.stable and grown,
            settling_time=result.settling_time,
            transient=result,
        )

    def static_solve(self, noisy: bool = True, max_loops: int = 500) -> CircuitSolution:
        """Loop-unrolled model of the growth phase, seeded by the offsets.

        The circuit's loop transfer is ``x ← (G/g_λ)·x + seed``; each
        traversal multiplies every eigen-component by ``λ_k/g_λ``, so by the
        time the dominant mode has grown from offset scale to the rails the
        others have been suppressed by ``(λ₂/λ₁)^K`` with
        ``K ≈ ln(v_sat/seed)/ln(λ₁/g_λ)`` traversals.  Unrolling exactly
        that many loops reproduces the transient's discrimination without
        integrating the ODE.
        """
        g = self._signed_matrix()
        loop = g / self.g_lambda
        seed = self._seed()
        y = seed.copy()
        grown = False
        target = self.params.v_sat
        for _ in range(max_loops):
            y = loop @ y + seed
            amplitude = float(np.max(np.abs(y)))
            if amplitude >= target:
                grown = True
                break
            if not np.all(np.isfinite(y)):
                break
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return CircuitSolution(
                outputs=y, column_saturated=np.zeros(1, dtype=bool), stable=False
            )
        x = y / norm * (0.9 * self.params.v_sat)
        if noisy:
            draw_noise(one_slot(x), self.params.noise_sigma, [(self.rng, self.n)])
        return CircuitSolution(outputs=x, column_saturated=np.zeros(1, dtype=bool), stable=grown)

    def eigenvector(self, solution: CircuitSolution) -> np.ndarray:
        """Unit-norm eigenvector with a deterministic sign convention."""
        x = solution.outputs
        norm = np.linalg.norm(x)
        if norm == 0.0:
            return x
        x = x / norm
        pivot = int(np.argmax(np.abs(x)))
        return x if x[pivot] >= 0 else -x
