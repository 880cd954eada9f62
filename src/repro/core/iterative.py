"""Iterative algorithms built on the analog MVM primitive (extension).

The paper's conclusion: "By combining these matrix primitives … this system
is applicable to more matrix problems."  This module realises that claim
for problems the direct topologies cannot touch:

* systems **larger than one array** (the direct INV loop caps at 128
  unknowns) — solved by Richardson/Jacobi/conjugate-gradient iterations
  whose only expensive step is an analog ``A·x`` (which *does* tile
  across macros); for square systems the blocked
  :class:`~repro.core.tiled.TiledOperator` engine is usually the better
  tool — these iterations remain for non-block-dominant operands;
* systems needing **more accuracy than one analog step** delivers — the
  analog-seeded hybrid iteration refines an AMC seed with analog matvecs
  and digital scalar work.

The accuracy model is the textbook one for inexact matvecs: each analog
product carries a relative error η (quantization + noise), so stationary
iterations stall at a residual floor O(η·κ) instead of converging to zero.
:class:`IterativeResult` reports that floor honestly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.analog.topologies import AMCMode
from repro.core.errors import CapacityError, GramcError
from repro.core.operator import AnalogOperator
from repro.core.solver import GramcSolver


@dataclass
class IterativeResult:
    """Outcome of one hybrid analog/digital iteration."""

    solution: np.ndarray
    residual_norms: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    analog_matvecs: int = 0

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("inf")


class AnalogIterativeSolver:
    """Large/precise linear solves with analog matvecs inside.

    Residuals are evaluated digitally (they are O(n) work); the O(n²)
    products run on the macros.  ``matvec`` chooses the path — analog by
    default, digital for A/B comparisons in tests.
    """

    def __init__(self, solver: GramcSolver, use_analog: bool = True):
        self.solver = solver
        self.use_analog = use_analog
        self._matvec_count = 0

    @contextmanager
    def _compiled(self, matrix: np.ndarray):
        """The iteration's MVM operator: compiled once, closed at the end.

        The sweep loop then runs entirely on the resident handle — zero
        operand re-hashing and zero reprogramming per iteration.  Digital
        mode yields ``None`` and :meth:`_matvec` falls back to
        ``matrix @ x``.
        """
        if not self.use_analog:
            yield None
            return
        operator = self.solver.compile(matrix, AMCMode.MVM)
        try:
            yield operator
        finally:
            operator.close()

    def _matvec(
        self, operator: AnalogOperator | None, matrix: np.ndarray, x: np.ndarray
    ) -> np.ndarray:
        self._matvec_count += 1
        if operator is not None:
            return operator.mvm(x).value
        return matrix @ x

    # -- stationary methods -------------------------------------------------------

    def richardson(
        self,
        matrix: np.ndarray,
        b: np.ndarray,
        omega: float | None = None,
        tolerance: float = 1e-3,
        max_iterations: int = 200,
        x0: np.ndarray | None = None,
    ) -> IterativeResult:
        """Damped Richardson iteration ``x ← x + ω·(b − A·x)``.

        Converges for SPD matrices when ``ω < 2/λ_max``; the default uses a
        digital power-iteration estimate of λ_max (cheap, done once).
        """
        matrix = np.asarray(matrix, dtype=float)
        b = np.asarray(b, dtype=float)
        n = matrix.shape[0]
        if matrix.shape != (n, n) or b.shape != (n,):
            raise GramcError("richardson needs a square system")
        if omega is None:
            from repro.system.functional import power_iteration_estimate

            lam_max = power_iteration_estimate(matrix)
            if lam_max <= 0:
                raise GramcError("richardson needs a positive-definite matrix")
            omega = 1.0 / lam_max
        x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()

        self._matvec_count = 0
        result = IterativeResult(solution=x)
        b_norm = max(float(np.linalg.norm(b)), 1e-300)
        with self._compiled(matrix) as operator:
            for iteration in range(1, max_iterations + 1):
                residual = b - self._matvec(operator, matrix, x)
                norm = float(np.linalg.norm(residual)) / b_norm
                result.residual_norms.append(norm)
                if norm < tolerance:
                    result.converged = True
                    result.iterations = iteration
                    break
                x = x + omega * residual
                result.iterations = iteration
        result.solution = x
        result.analog_matvecs = self._matvec_count if self.use_analog else 0
        return result

    def jacobi(
        self,
        matrix: np.ndarray,
        b: np.ndarray,
        tolerance: float = 1e-3,
        max_iterations: int = 200,
    ) -> IterativeResult:
        """Jacobi iteration — requires a (quantization-robustly) dominant diagonal.

        The diagonal inverse is applied digitally (it is O(n)); the
        off-diagonal product runs on the macros as a full analog MVM of A.
        """
        matrix = np.asarray(matrix, dtype=float)
        b = np.asarray(b, dtype=float)
        diagonal = np.diag(matrix)
        if np.any(np.abs(diagonal) < 1e-300):
            raise GramcError("jacobi needs a nonzero diagonal")
        x = np.zeros_like(b)

        self._matvec_count = 0
        result = IterativeResult(solution=x)
        b_norm = max(float(np.linalg.norm(b)), 1e-300)
        with self._compiled(matrix) as operator:
            for iteration in range(1, max_iterations + 1):
                product = self._matvec(operator, matrix, x)
                residual = b - product
                norm = float(np.linalg.norm(residual)) / b_norm
                result.residual_norms.append(norm)
                if norm < tolerance:
                    result.converged = True
                    result.iterations = iteration
                    break
                # x ← D⁻¹(b − (A − D)x) = x + D⁻¹(b − A·x)
                x = x + residual / diagonal
                result.iterations = iteration
        result.solution = x
        result.analog_matvecs = self._matvec_count if self.use_analog else 0
        return result

    # -- Krylov -----------------------------------------------------------------------

    def conjugate_gradient(
        self,
        matrix: np.ndarray,
        b: np.ndarray,
        tolerance: float = 1e-3,
        max_iterations: int = 200,
        x0: np.ndarray | None = None,
    ) -> IterativeResult:
        """CG with analog matvecs (for SPD systems of any tiled size).

        With inexact products CG stalls near the analog error floor; the
        implementation restarts the search direction when the computed
        residual diverges from the true one (standard inexact-Krylov
        hygiene).
        """
        matrix = np.asarray(matrix, dtype=float)
        b = np.asarray(b, dtype=float)
        n = matrix.shape[0]
        x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()

        self._matvec_count = 0
        result = IterativeResult(solution=x)
        b_norm = max(float(np.linalg.norm(b)), 1e-300)
        with self._compiled(matrix) as operator:
            r = b - self._matvec(operator, matrix, x)
            p = r.copy()
            rs_old = float(r @ r)
            for iteration in range(1, max_iterations + 1):
                norm = float(np.sqrt(rs_old)) / b_norm
                result.residual_norms.append(norm)
                if norm < tolerance:
                    result.converged = True
                    result.iterations = iteration
                    break
                ap = self._matvec(operator, matrix, p)
                curvature = float(p @ ap)
                if curvature <= 0.0:
                    # Analog noise broke positive-definiteness along p: restart.
                    r = b - self._matvec(operator, matrix, x)
                    p = r.copy()
                    rs_old = float(r @ r)
                    result.iterations = iteration
                    continue
                alpha = rs_old / curvature
                x = x + alpha * p
                r = r - alpha * ap
                rs_new = float(r @ r)
                p = r + (rs_new / rs_old) * p
                rs_old = rs_new
                result.iterations = iteration
        result.solution = x
        result.analog_matvecs = self._matvec_count if self.use_analog else 0
        return result

    # -- hybrid: analog seed + analog-matvec refinement ---------------------------------

    def seeded_solve(
        self,
        matrix: np.ndarray,
        b: np.ndarray,
        tolerance: float = 1e-3,
        max_iterations: int = 100,
    ) -> IterativeResult:
        """The paper's full hybrid loop: analog seed, analog-matvec polish.

        One-step analog INV produces the seed for systems that fit one
        array; larger systems seed from a **blocked** solve on the tile
        grid (:class:`~repro.core.tiled.TiledOperator`).  CG with analog
        matvecs polishes either seed.  If the grid does not fit the
        macro pool, CG starts cold from zero instead.
        """
        matrix = np.asarray(matrix, dtype=float)
        x0 = None
        try:
            operator = self.solver.compile(matrix, AMCMode.INV)
        except CapacityError:
            operator = None
        if operator is not None:
            try:
                seed_result = operator.solve(b)
                if seed_result.ok:
                    x0 = seed_result.value
            except GramcError:
                # A diverging blocked sweep (operand not block-dominant)
                # leaves CG to start cold — same contract as a bad seed.
                pass
            finally:
                operator.close()
        return self.conjugate_gradient(
            matrix, b, tolerance=tolerance, max_iterations=max_iterations, x0=x0
        )
