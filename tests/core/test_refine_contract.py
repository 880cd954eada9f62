"""Property test of the ``solve(rtol=...)`` contract.

A refined solve never raises for accuracy and never claims an accuracy
it did not reach: every column with a finite target either meets it on
its float64 residual or comes back flagged unconverged, the reported
per-column residuals are that float64 re-measure, and columns that opted
out with ``rtol=inf`` are the analog answer, untouched.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog.topologies import AMCMode
from repro.core.errors import GramcError
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.programming.levels import LevelMap
from repro.workloads.matrices import block_dominant

TARGETS = (np.inf, 1e-4, 1e-8, 1e-10, 1e-12, 1e-15, 1e-17)
"""1e-15 sits near float64 rounding (≈ ε·κ); 1e-17 is below it, so no
solver meets it and the unconverged branch of the contract is exercised."""


def _twin(seed: int) -> GramcSolver:
    """Same seed ⇒ same programming and the same noise stream, so two
    twins given the same first call return the same analog answer."""
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(num_macros=8, rows=64, cols=64, level_map=LevelMap(num_levels=256)),
            rng=np.random.default_rng(seed),
        ),
        rng=np.random.default_rng(seed + 1),
    )


def _operand(kind: str, n: int, kappa: float, rng: np.random.Generator) -> np.ndarray:
    if kind == "tiled":
        return block_dominant(64, 32, rng=rng)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.logspace(0.0, -np.log10(kappa), n)) @ q.T


def _compile(solver: GramcSolver, kind: str, matrix: np.ndarray):
    if kind == "tiled":
        return solver.compile(matrix, AMCMode.INV, tile=32)
    return solver.compile(matrix, AMCMode.INV)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["single", "single", "tiled"]),
    n=st.sampled_from([16, 24, 32, 48, 64]),
    kappa=st.floats(1.0, 50.0),
    seed=st.integers(0, 2**31 - 1),
    targets=st.lists(st.sampled_from(TARGETS), min_size=1, max_size=4),
    zeros=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_refined_columns_meet_rtol_or_say_so(kind, n, kappa, seed, targets, zeros):
    rng = np.random.default_rng(seed)
    matrix = _operand(kind, n, kappa, rng)
    columns = len(targets)
    b = rng.standard_normal((matrix.shape[0], columns))
    b[:, np.asarray(zeros[:columns])] = 0.0
    rtol = np.array(targets)
    try:
        with _compile(_twin(seed), kind, matrix) as op:
            refined = op.solve(b, rtol=rtol)
        with _compile(_twin(seed), kind, matrix) as op:
            analog = op.solve(b, rtol=np.inf)
    except GramcError:
        return  # a structured refusal is inside the contract

    x = refined.value
    b_norms = np.linalg.norm(b, axis=0)
    measured = np.linalg.norm(b - matrix @ x, axis=0) / np.where(b_norms > 0, b_norms, 1.0)
    rounding = (
        matrix.shape[0] * np.finfo(float).eps * np.linalg.norm(matrix, 2)
        * np.linalg.norm(x, axis=0) / np.where(b_norms > 0, b_norms, 1.0)
    )
    assert np.all(np.isfinite(x))
    np.testing.assert_array_less(
        np.abs(refined.per_column_residual - measured), 1e-9 * measured + rounding + 1e-300
    )
    finite = np.isfinite(rtol)
    met = refined.per_column_converged
    assert np.all(measured[finite & met] <= rtol[finite & met] + rounding[finite & met])
    assert np.all(refined.per_column_residual[finite & ~met] > rtol[finite & ~met])
    assert refined.converged == bool(met.all())
    assert (refined.worst_columns is None) == bool(met.all())
    assert np.array_equal(x[:, ~finite], analog.value[:, ~finite])
