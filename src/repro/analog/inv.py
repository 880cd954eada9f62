"""INV topology: one-step matrix inversion (paper Fig. 4(b)).

Connection plan: every source line is held at a TIA-style virtual ground,
but the feedback element is *the array itself* — each op-amp output drives
its own bit line (positive plane) and, through an analog inverter, the
negative plane's bit line.  Input currents are injected into the virtual
ground nodes.  KCL at node ``i`` then reads

    ``Σ_j (G⁺−G⁻)_ij·x_j + i_i = v⁻_i · g_tot,i``,   ``x_i = −a0·(v⁻_i − v_os,i)``

whose infinite-gain limit is the paper's ``x = −G⁻¹·i``.  The circuit is a
genuine feedback loop: it is stable iff all eigenvalues of the (row-scaled)
signed conductance matrix have positive real part — satisfied by the
paper's Wishart test matrices, and checked explicitly here via the
eigenvalues of the transient system matrix.

An :class:`InvCircuit` is a *persistent* object: everything determined by
the programmed conductances — the signed matrix, the explicit inverse of
the finite-gain equilibrium system, and the eigendecomposition of the loop's
transient matrix ``M`` — is computed once and reused by every solve.  Only
the input currents change between solves, and they may be matrix valued
``(n, k)``: the crossbar applies the loop to every column at once.

The loop's output stage — amplifier noise
(:func:`~repro.analog.opamp.draw_noise`), then the rail clamp and
per-column rail state (:meth:`~repro.analog.opamp.OpAmpParams.clamp_columns`)
— is written once over ``(slots, n, k)`` stacks: ``static_solve`` runs it
on a one-slot view and the grid engine's INV stage over a whole tile stack.
"""

from __future__ import annotations

import numpy as np

from repro.analog import determinism
from repro.analog.dynamics import LinearFeedbackSystem
from repro.analog.opamp import OpAmpBank, OpAmpParams, draw_noise, one_slot
from repro.analog.results import CircuitSolution


class InvCircuit:
    """One configured INV macro for a square conductance matrix."""

    def __init__(
        self,
        g_pos: np.ndarray,
        g_neg: np.ndarray | None = None,
        params: OpAmpParams | None = None,
        rng: np.random.Generator | None = None,
        row_amps: OpAmpBank | None = None,
        inverter_amps: OpAmpBank | None = None,
    ):
        self.g_pos = np.asarray(g_pos, dtype=float)
        rows, cols = self.g_pos.shape
        if rows != cols:
            raise ValueError("INV needs a square conductance matrix")
        self.g_neg = None if g_neg is None else np.asarray(g_neg, dtype=float)
        if self.g_neg is not None and self.g_neg.shape != self.g_pos.shape:
            raise ValueError("g_neg must match g_pos shape")
        self.params = params or OpAmpParams()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.amps = row_amps if row_amps is not None else OpAmpBank.sample(rows, self.params, self.rng)
        if len(self.amps) != rows:
            raise ValueError("row amplifier bank size must match matrix order")
        self.inverter_amps: OpAmpBank | None = None
        """The inverter bank re-driving the negative plane (signed only)."""
        if self.g_neg is not None:
            bank = inverter_amps if inverter_amps is not None else OpAmpBank.sample(rows, self.params, self.rng)
            if len(bank) != rows:
                raise ValueError("inverter bank size must match matrix order")
            self.inverter_amps = bank
        # Persistent-circuit caches: everything below is a pure function of
        # the conductance planes and amplifier bank, i.e. frozen until the
        # macro re-programs (which builds a fresh circuit).
        self._signed: np.ndarray | None = None
        self._g_tot: np.ndarray | None = None
        self._i_offset: np.ndarray | None = None
        self._lhs_inv: np.ndarray | None = None
        self._system0: LinearFeedbackSystem | None = None

    @property
    def n(self) -> int:
        return self.g_pos.shape[0]

    # -- shared electrical quantities ------------------------------------------

    def _signed_matrix(self) -> np.ndarray:
        """Effective feedback matrix including the inverter gain error."""
        if self._signed is None:
            if self.g_neg is None:
                self._signed = self.g_pos
            else:
                inverter_gain = self.params.a0 / (self.params.a0 + 2.0)
                self._signed = self.g_pos - inverter_gain * self.g_neg
        return self._signed

    def _node_conductance(self) -> np.ndarray:
        if self._g_tot is None:
            total = self.g_pos.sum(axis=1)
            if self.g_neg is not None:
                total = total + self.g_neg.sum(axis=1)
            self._g_tot = np.maximum(total, 1e-12)
        return self._g_tot

    def _offset_currents(self) -> np.ndarray:
        """Static error currents injected by the inverter offsets."""
        if self._i_offset is None:
            if self.inverter_amps is None:
                self._i_offset = np.zeros(self.n)
            else:
                inverter_gain = self.params.a0 / (self.params.a0 + 2.0)
                self._i_offset = self.g_neg @ (
                    2.0 * inverter_gain * self.inverter_amps.offsets
                )
        return self._i_offset

    def _homogeneous_system(self) -> LinearFeedbackSystem:
        """The input-free loop ``ẋ = M·x`` — ``M`` is programming-frozen,
        so its (lazily computed) eigendecomposition is cached here and
        shared by every stability check and transient of this circuit."""
        if self._system0 is None:
            g_tot = self._node_conductance()
            g_signed = self._signed_matrix()
            a0, tau = self.params.a0, self.params.tau
            scale = a0 / (g_tot * tau)
            m = -(np.eye(self.n) / tau) - scale[:, None] * g_signed
            self._system0 = LinearFeedbackSystem(m)
        return self._system0

    def _equilibrium_lhs(self) -> np.ndarray:
        """Finite-gain equilibrium system matrix ``G + diag(g_tot)/a0``."""
        return self._signed_matrix() + np.diag(self._node_conductance()) / self.params.a0

    # -- stackable circuit state -------------------------------------------------
    # The grid engine copies these programming-frozen quantities into its
    # contiguous 3-D stacks, so they are exposed as cached accessors shared
    # with static_solve (one inversion per circuit).

    def equilibrium_inverse(self) -> np.ndarray:
        """Cached explicit inverse of the equilibrium system."""
        if self._lhs_inv is None:
            self._lhs_inv = np.linalg.inv(self._equilibrium_lhs())
        return self._lhs_inv

    def offset_rhs(self) -> np.ndarray:
        """Static offset drive added to every equilibrium right-hand side."""
        return -self._offset_currents() + self.amps.offsets * self._node_conductance()

    def _rhs(self, i_in: np.ndarray) -> np.ndarray:
        """The transient drive ``b`` for input currents (vector or matrix)."""
        g_tot = self._node_conductance()
        a0, tau = self.params.a0, self.params.tau
        scale = a0 / (g_tot * tau)
        offsets = (a0 / tau) * self.amps.offsets
        if i_in.ndim == 2:
            return (
                -scale[:, None] * (i_in + self._offset_currents()[:, None])
                + offsets[:, None]
            )
        return -scale * (i_in + self._offset_currents()) + offsets

    def system(self, i_in: np.ndarray) -> LinearFeedbackSystem:
        """The transient model ``ẋ = M·x + b`` of the configured loop.

        The returned system shares this circuit's cached decomposition of
        ``M``; only ``b`` is rebuilt from the input currents.
        """
        i_in = np.asarray(i_in, dtype=float)
        return self._homogeneous_system().with_rhs(self._rhs(i_in))

    @property
    def is_stable(self) -> bool:
        """Loop stability — an input-independent property of ``M``."""
        return self._homogeneous_system().is_stable

    # -- solves -------------------------------------------------------------------

    def static_solve(self, i_in: np.ndarray, noisy: bool = True) -> CircuitSolution:
        """Finite-gain equilibrium ``(G + diag(g_tot)/a0)·x = −i + offsets``.

        ``i_in`` may be a vector ``(n,)`` or a matrix ``(n, k)`` of input
        currents — all columns share the circuit's one cached equilibrium
        inverse and one stability eigendecomposition.  The inverse is
        applied through :func:`~repro.analog.determinism.apply_matrix`,
        so the answer is column-independent when that mode is on.
        """
        i_in = np.asarray(i_in, dtype=float)
        if i_in.shape[0] != self.n or i_in.ndim > 2:
            raise ValueError(f"expected {self.n} input currents (optionally batched)")
        offset_rhs = self.offset_rhs()
        rhs = -i_in + (offset_rhs[:, None] if i_in.ndim == 2 else offset_rhs)
        x = determinism.apply_matrix(self.equilibrium_inverse(), rhs)
        draw_noise(one_slot(x), self.params.noise_sigma, [(self.rng, self.n)] if noisy else ())
        return CircuitSolution.clamped(x, self.params.clamp_columns(one_slot(x)), stable=self.is_stable)

    def transient_solve(
        self, i_in: np.ndarray, t_end: float | None = None, num_points: int = 300
    ) -> CircuitSolution:
        """Full transient from power-on (x = 0), exact linear trajectory.

        Batched for matrix-valued ``i_in``: every column starts from zero
        state and shares the cached modal decomposition.
        """
        i_in = np.asarray(i_in, dtype=float)
        base = self._homogeneous_system()
        x0 = np.zeros(self.n if i_in.ndim == 1 else (self.n, i_in.shape[1]))
        if t_end is None:
            t_end = 10.0 * base.time_constant() if base.is_stable else 50.0 * self.params.tau / self.params.a0
        result = base.trajectory(x0, t_end, num_points=num_points, b=self._rhs(i_in))
        outputs = np.array(result.final)
        draw_noise(one_slot(outputs), self.params.noise_sigma, [(self.rng, self.n)])
        return CircuitSolution.clamped(
            outputs, self.params.clamp_columns(one_slot(outputs)),
            stable=result.stable, settling_time=result.settling_time, transient=result,
        )

    def ideal_solution(self, i_in: np.ndarray) -> np.ndarray:
        """Infinite-gain, noiseless answer ``−G⁻¹·i`` with the raw planes."""
        g = self.g_pos if self.g_neg is None else self.g_pos - self.g_neg
        return -np.linalg.solve(g, np.asarray(i_in, dtype=float))
