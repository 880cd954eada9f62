"""PINV topology: one-step least squares / pseudoinverse (paper Fig. 4(c)).

Two arrays are configured (the paper's "one or two RRAM arrays"): the first
stores ``G`` (m×n, m ≥ n), the second independently stores ``Gᵀ``.  Two
OPA banks close the loop:

* **stage 1** — m TIAs on the rows of ``G`` with feedback ``g_f``:
  ``w = −(G·x + i)/g_f``;
* **stage 2** — n high-gain (non-inverting, realised with an extra
  inverter) amplifiers whose inputs sum the columns of ``Gᵀ`` driven by
  ``w`` and whose outputs drive ``x``.

Equilibrium forces ``Gᵀ·w = 0``, i.e. the normal equations
``Gᵀ(G·x + i) = 0`` — the least-squares solution ``x = −G⁺·i``.  Finite
stage-2 gain turns this into a ridge-regularised solve with
``λ = g_f·g_tot2/a0``, a faithful model of the real circuit's gain error.

Like :class:`~repro.analog.inv.InvCircuit`, a :class:`PinvCircuit` is
persistent: the block LHS is inverted once, the coupled transient
matrix is eigendecomposed once, and ``i_in`` may be matrix valued
``(m, k)`` — every right-hand-side column rides the same cached matrices.
Note that here the feedback ladder ``g_f`` *does* enter the loop matrix,
so re-ranging ``g_f`` legitimately requires a fresh circuit (the macro
layer rebuilds it); between ``g_f`` moves everything is cached.
"""

from __future__ import annotations

import numpy as np

from repro.analog import determinism
from repro.analog.dynamics import LinearFeedbackSystem
from repro.analog.opamp import Draws, OpAmpBank, OpAmpParams, draw_noise, one_slot
from repro.analog.results import CircuitSolution


class PinvCircuit:
    """Two-array least-squares solver: planes for G and (independently) Gᵀ."""

    def __init__(
        self,
        g1_pos: np.ndarray,
        g1_neg: np.ndarray | None,
        g2_pos: np.ndarray,
        g2_neg: np.ndarray | None,
        params: OpAmpParams | None = None,
        g_f: float = 1e-3,
        rng: np.random.Generator | None = None,
        stage1_amps: OpAmpBank | None = None,
        stage2_amps: OpAmpBank | None = None,
    ):
        self.g1_pos = np.asarray(g1_pos, dtype=float)
        self.g1_neg = None if g1_neg is None else np.asarray(g1_neg, dtype=float)
        self.g2_pos = np.asarray(g2_pos, dtype=float)
        self.g2_neg = None if g2_neg is None else np.asarray(g2_neg, dtype=float)
        m, n = self.g1_pos.shape
        if m < n:
            raise ValueError("PINV expects a tall matrix (m >= n)")
        if self.g2_pos.shape != (n, m):
            raise ValueError("second array must hold the transpose layout (n, m)")
        self.params = params or OpAmpParams()
        self.g_f = g_f
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stage1 = stage1_amps if stage1_amps is not None else OpAmpBank.sample(m, self.params, self.rng)
        self.stage2 = stage2_amps if stage2_amps is not None else OpAmpBank.sample(n, self.params, self.rng)
        if len(self.stage1) != m or len(self.stage2) != n:
            raise ValueError("amplifier bank sizes must match the array shape")
        # Persistent-circuit caches (frozen with the planes and g_f).
        self._lhs_inv: np.ndarray | None = None
        self._system0: LinearFeedbackSystem | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.g1_pos.shape

    def _a1(self) -> np.ndarray:
        """Signed stage-1 matrix (m×n)."""
        if self.g1_neg is None:
            return self.g1_pos
        gain = self.params.a0 / (self.params.a0 + 2.0)
        return self.g1_pos - gain * self.g1_neg

    def _a2(self) -> np.ndarray:
        """Signed stage-2 matrix (n×m) — holds the transpose mapping."""
        if self.g2_neg is None:
            return self.g2_pos
        gain = self.params.a0 / (self.params.a0 + 2.0)
        return self.g2_pos - gain * self.g2_neg

    def _g_node1(self) -> np.ndarray:
        total = self.g1_pos.sum(axis=1)
        if self.g1_neg is not None:
            total = total + self.g1_neg.sum(axis=1)
        return total

    def _g_node2(self) -> np.ndarray:
        total = self.g2_pos.sum(axis=1)
        if self.g2_neg is not None:
            total = total + self.g2_neg.sum(axis=1)
        return np.maximum(total, 1e-12)

    # -- solves ---------------------------------------------------------------------

    def static_solve(self, i_in: np.ndarray, noisy: bool = True) -> CircuitSolution:
        """Block-linear equilibrium of the two coupled amplifier banks.

        ``i_in``: vector ``(m,)`` or matrix ``(m, k)`` — all columns share
        the one cached inverse of the block system and one stability
        check.  The inverse is applied through
        :func:`~repro.analog.determinism.apply_matrix`, so the answer is
        column-independent when that mode is on.
        """
        m, n = self.shape
        i_in = np.asarray(i_in, dtype=float)
        if i_in.shape[0] != m or i_in.ndim > 2:
            raise ValueError(f"expected {m} input currents (optionally batched)")
        g_node1, g_node2 = self._g_node1(), self._g_node2()

        # Unknowns z = [w (m), x (n)]:
        #   stage 1:  (g_f + (g_node1+g_f)/a0)·w + A1·x = −i + v_os1·(g_node1+g_f)
        #   stage 2:  −A2·w + diag(g_node2)/a0·x = −g_node2·v_os2
        offset_rhs = np.concatenate(
            [
                self.stage1.offsets * (g_node1 + self.g_f),
                -g_node2 * self.stage2.offsets,
            ]
        )
        if i_in.ndim == 2:
            rhs = offset_rhs[:, None] - np.concatenate(
                [i_in, np.zeros((n, i_in.shape[1]))], axis=0
            )
        else:
            rhs = offset_rhs - np.concatenate([i_in, np.zeros(n)])
        if self._lhs_inv is None:
            self._lhs_inv = np.linalg.inv(self._equilibrium_lhs())
        solution = determinism.apply_matrix(self._lhs_inv, rhs)
        outputs, railed = self._settle(solution, [(self.rng, n)] if noisy else ())
        return CircuitSolution(outputs=outputs, column_saturated=railed, stable=self.is_stable)

    def _settle(self, state: np.ndarray, draws: Draws) -> tuple[np.ndarray, np.ndarray]:
        """Output stage over the stacked state ``[w, x]``, in place: the
        stage-2 outputs ``x`` take their read noise, then both banks clamp
        at the rails.  Returns ``x`` and the per-column rail state — a
        column is railed when either bank hits a rail."""
        m = self.shape[0]
        draw_noise(one_slot(state[m:]), self.params.noise_sigma, draws)
        railed, _, _ = self.params.clamp_columns(one_slot(state))
        return state[m:], railed[0]

    def _equilibrium_lhs(self) -> np.ndarray:
        """Block system matrix over the stacked unknowns ``[w, x]``."""
        m, n = self.shape
        a0 = self.params.a0
        g_node1, g_node2 = self._g_node1(), self._g_node2()
        lhs = np.zeros((m + n, m + n))
        lhs[:m, :m] = np.diag(self.g_f + (g_node1 + self.g_f) / a0)
        lhs[:m, m:] = self._a1()
        lhs[m:, :m] = -self._a2()
        lhs[m:, m:] = np.diag(g_node2 / a0)
        return lhs

    def _homogeneous_system(self) -> LinearFeedbackSystem:
        """Input-free coupled loop over ``[w, x]`` — eigendecomposed once."""
        if self._system0 is None:
            m, n = self.shape
            a0, tau = self.params.a0, self.params.tau
            a1, a2 = self._a1(), self._a2()
            g_node1 = self._g_node1() + self.g_f
            g_node2 = self._g_node2()

            m_mat = np.zeros((m + n, m + n))
            # τ·ẇ = −w − a0·(A1·x + i + g_f·w)/g_node1 + a0·v_os1
            m_mat[:m, :m] = -(np.eye(m) + (a0 * self.g_f / g_node1)[:, None] * np.eye(m)) / tau
            m_mat[:m, m:] = -(a0 / g_node1)[:, None] * a1 / tau
            # τ·ẋ = −x + a0·(A2·w)/g_node2 − a0·v_os2
            m_mat[m:, :m] = (a0 / g_node2)[:, None] * a2 / tau
            m_mat[m:, m:] = -np.eye(n) / tau
            self._system0 = LinearFeedbackSystem(m_mat)
        return self._system0

    def _rhs(self, i_in: np.ndarray) -> np.ndarray:
        """Transient drive for input currents (vector or matrix)."""
        m, n = self.shape
        a0, tau = self.params.a0, self.params.tau
        g_node1 = self._g_node1() + self.g_f
        offsets = np.concatenate(
            [a0 * self.stage1.offsets / tau, -a0 * self.stage2.offsets / tau]
        )
        if i_in.ndim == 2:
            k = i_in.shape[1]
            drive = np.zeros((m + n, k))
            drive[:m] = -(a0 / g_node1)[:, None] * i_in / tau
            return drive + offsets[:, None]
        drive = np.zeros(m + n)
        drive[:m] = -(a0 / g_node1) * i_in / tau
        return drive + offsets

    @property
    def is_stable(self) -> bool:
        """Loop stability — input-independent, cached with the circuit."""
        return self._homogeneous_system().is_stable

    def system(self, i_in: np.ndarray) -> LinearFeedbackSystem:
        """Coupled transient model over the stacked state ``[w, x]``.

        Shares this circuit's cached decomposition; only ``b`` is rebuilt.
        """
        i_in = np.asarray(i_in, dtype=float)
        return self._homogeneous_system().with_rhs(self._rhs(i_in))

    def transient_solve(
        self, i_in: np.ndarray, t_end: float | None = None, num_points: int = 300
    ) -> CircuitSolution:
        """Power-on transient of the coupled two-bank loop (batched for 2-D)."""
        m, n = self.shape
        i_in = np.asarray(i_in, dtype=float)
        base = self._homogeneous_system()
        if t_end is None:
            t_end = 10.0 * base.time_constant() if base.is_stable else 1e-3
        x0 = np.zeros(m + n if i_in.ndim == 1 else (m + n, i_in.shape[1]))
        result = base.trajectory(x0, t_end, num_points=num_points, b=self._rhs(i_in))
        outputs, railed = self._settle(np.array(result.final), [(self.rng, n)])
        return CircuitSolution(
            outputs=outputs,
            column_saturated=railed,
            stable=result.stable,
            settling_time=result.settling_time,
            transient=result,
        )

    def ideal_solution(self, i_in: np.ndarray) -> np.ndarray:
        """Infinite-gain answer ``−(A2·A1)⁻¹·A2·i`` with the raw planes."""
        a1 = self.g1_pos if self.g1_neg is None else self.g1_pos - self.g1_neg
        a2 = self.g2_pos if self.g2_neg is None else self.g2_pos - self.g2_neg
        normal = a2 @ a1
        return -np.linalg.solve(normal, a2 @ np.asarray(i_in, dtype=float))
