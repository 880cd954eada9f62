"""Markov-chain stationary distributions / PageRank on the EGV topology.

A stochastic matrix's stationary distribution *is* its dominant (λ = 1)
eigenvector, so the paper's EGV circuit computes it in one settling time.
PageRank is the special case where the transition matrix is the Google
matrix ``G = d·M + (1−d)/n·𝟙`` — dense and strictly positive, which is
exactly the friendly regime for the analog loop (Perron-Frobenius gives a
simple dominant eigenvalue).

This is one of the "more matrix problems" the paper's conclusion points at:
no new hardware, just a different operand on the same reconfigurable macro.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analog.topologies import AMCMode
from repro.core.errors import ConvergenceError, GramcError, ShapeError
from repro.core.solver import GramcSolver


@dataclass
class StationaryResult:
    """A computed stationary distribution with quality metrics."""

    distribution: np.ndarray
    reference: np.ndarray
    residual: float
    """``‖πᵀP − πᵀ‖₁`` of the analog answer (stationarity defect)."""

    @property
    def total_variation_error(self) -> float:
        """TV distance between the analog and reference distributions."""
        return 0.5 * float(np.sum(np.abs(self.distribution - self.reference)))


def google_matrix(adjacency: np.ndarray, damping: float = 0.85) -> np.ndarray:
    """Column-stochastic Google matrix of a directed graph.

    Dangling nodes (no out-links) are patched to uniform columns, as in the
    original PageRank formulation.
    """
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise ValueError("adjacency must be square")
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    out_degree = adjacency.sum(axis=0)
    columns = np.where(out_degree > 0, out_degree, 1.0)
    transition = adjacency / columns
    transition[:, out_degree == 0] = 1.0 / n
    return damping * transition + (1.0 - damping) / n


def stationary_distribution(
    solver: GramcSolver, transition: np.ndarray
) -> StationaryResult:
    """Stationary distribution of a column-stochastic matrix, analog EGV.

    The EGV circuit returns a unit-L2 eigenvector; the digital functional
    module renormalises to a probability vector (L1 = 1, non-negative).
    """
    transition = np.asarray(transition, dtype=float)
    n = transition.shape[0]
    if transition.shape != (n, n):
        raise ShapeError("transition matrix must be square")
    column_sums = transition.sum(axis=0)
    if not np.allclose(column_sums, 1.0, atol=1e-6):
        # A value-domain defect, not a shape one — keep it out of ShapeError.
        raise GramcError("transition matrix must be column-stochastic")

    # λ = 1 for the *exact* stochastic matrix, but 4-bit quantization can
    # shrink the realised spectral radius well below that, so the feedback
    # conductance must come from the estimate on the quantized operand
    # (compile default) — a hardcoded λ̂ near 1 would kill the loop growth.
    with solver.compile(transition, AMCMode.EGV) as operator:
        result = operator.eigvec()
    vector = result.value
    # Perron vector is non-negative up to analog noise; rectify + L1-normalise.
    vector = np.maximum(vector, 0.0)
    total = vector.sum()
    if total <= 0.0:
        raise ConvergenceError("analog eigenvector collapsed (no growth)")
    distribution = vector / total

    reference = np.maximum(result.reference, 0.0)
    reference = reference / reference.sum()

    residual = float(np.sum(np.abs(transition @ distribution - distribution)))
    return StationaryResult(
        distribution=distribution, reference=reference, residual=residual
    )


def pagerank(
    solver: GramcSolver, adjacency: np.ndarray, damping: float = 0.6
) -> StationaryResult:
    """PageRank scores of a directed graph via one analog INV solve.

    Uses the linear-system formulation
    ``(I − d·M)·π = (1−d)/n·𝟙`` rather than the eigen-formulation: the
    teleport term ``(1−d)/n`` is far below the 4-bit quantization step for
    graphs beyond a few dozen nodes, so keeping it on the *digital* side
    (the right-hand side) preserves it exactly, while the array only stores
    the well-scaled link matrix.

    **4-bit solvability condition.** ``I − d·M`` has its spectrum inside
    the disk of radius ``d`` around 1, so the exact margin from singularity
    is ``1 − d``.  Quantizing the operand perturbs the spectrum by roughly
    ``step·√(n/3)`` (step = max|A|/15); the margin must exceed that, which
    is why the default damping here is 0.6 rather than the textbook 0.85 —
    at d = 0.85 the margin (0.15) is already below the perturbation for
    n ≳ 20.  A saturated/unstable solve raises with this explanation.
    """
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[0]
    transition = google_matrix(adjacency, damping)
    # Recover d·M from the Google matrix: G = d·M + (1−d)/n.
    link_part = transition - (1.0 - damping) / n
    system = np.eye(n) - link_part
    rhs = np.full(n, (1.0 - damping) / n)

    # One ranking is one scoped INV solve; the handle returns its macros at
    # block exit.  Callers that re-rank the same graph repeatedly should
    # hold `solver.compile(system, mode=AMCMode.INV)` open across calls.
    with solver.compile(system, mode=AMCMode.INV) as operator:
        result = operator.solve(rhs)
    if not result.ok:
        raise ConvergenceError(
            f"analog PageRank solve saturated or went unstable: the margin 1−d "
            f"= {1.0 - damping:.2f} is too small for the 4-bit quantization "
            f"perturbation at n = {n}; lower the damping factor"
        )
    vector = np.maximum(result.value, 0.0)
    total = vector.sum()
    if total <= 0.0:
        raise ConvergenceError("analog PageRank solve collapsed")
    distribution = vector / total

    reference = np.maximum(result.reference, 0.0)
    reference = reference / reference.sum()
    residual = float(np.sum(np.abs(transition @ distribution - distribution)))
    return StationaryResult(
        distribution=distribution, reference=reference, residual=residual
    )


def ring_of_cliques(num_cliques: int, clique_size: int) -> np.ndarray:
    """Benchmark graph: cliques joined in a ring (clear rank structure)."""
    n = num_cliques * clique_size
    adjacency = np.zeros((n, n))
    for c in range(num_cliques):
        base = c * clique_size
        block = slice(base, base + clique_size)
        adjacency[block, block] = 1.0
        np.fill_diagonal(adjacency[block, block], 0.0)
        # One directed bridge to the next clique.
        next_base = ((c + 1) % num_cliques) * clique_size
        adjacency[next_base, base] = 1.0
    return adjacency
