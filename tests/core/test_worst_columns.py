"""``worst_columns``: failing solves name their worst offenders."""

from __future__ import annotations

import numpy as np

from repro.analog.topologies import AMCMode
from repro.core.refine import WORST_COLUMNS_REPORTED, worst_columns_of


def test_worst_columns_of_orders_by_residual():
    residuals = np.array([1e-9, 5e-2, 3e-4, 7e-1, 2e-6])
    mask = np.array([False, True, True, True, False])
    assert worst_columns_of(residuals, mask) == (3, 1, 2)


def test_worst_columns_of_caps_at_k():
    residuals = np.linspace(1.0, 10.0, 10)
    mask = np.ones(10, dtype=bool)
    top = worst_columns_of(residuals, mask)
    assert len(top) == WORST_COLUMNS_REPORTED
    assert top == (9, 8, 7, 6)
    assert worst_columns_of(residuals, mask, k=2) == (9, 8)


def test_worst_columns_of_puts_nonfinite_first():
    residuals = np.array([1e-3, np.nan, 1e-1, np.inf])
    mask = np.ones(4, dtype=bool)
    top = worst_columns_of(residuals, mask, k=4)
    assert set(top[:2]) == {1, 3}  # nan/inf are the worst offenders
    assert top[2:] == (2, 0)


def test_worst_columns_of_empty_mask():
    assert worst_columns_of(np.array([1.0, 2.0]), np.zeros(2, dtype=bool)) == ()


def test_budget_exhausted_result_names_worst_columns(small_solver):
    """A solve(rtol=...) that runs out of refinement budget reports the
    top-k unconverged columns; a converged solve reports None."""
    rng = np.random.default_rng(3)
    n, k = 10, 6
    a = np.eye(n) * 3.0 + rng.normal(0, 0.1, (n, n))
    b = rng.normal(0, 1, (n, k))
    with small_solver.compile(a, AMCMode.INV) as op:
        good = op.solve(b, rtol=1e-6)
        assert good.worst_columns is None  # doubles as "contract held"
        starved = op.solve(b, rtol=1e-14, max_refine_steps=1)
    if starved.worst_columns is not None:
        unconverged = np.flatnonzero(~starved.per_column_converged)
        assert 0 < len(starved.worst_columns) <= WORST_COLUMNS_REPORTED
        assert set(starved.worst_columns) <= set(int(i) for i in unconverged)
        residuals = starved.per_column_residual
        reported = [residuals[i] for i in starved.worst_columns]
        assert reported == sorted(reported, reverse=True)


def test_unmet_contract_names_worst_columns(small_solver):
    """A refined solve that cannot meet its target returns unconverged,
    naming its worst columns (highest float64 residual first) instead of
    raising."""
    rng = np.random.default_rng(5)
    n = 16
    # Condition number 1e9: 1e-12 is beyond both the analog accuracy and
    # the float64 rounding of the residual itself.
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (u * np.logspace(0, -9, n)) @ v.T
    b = rng.normal(0, 1, (n, 3))
    with small_solver.compile(a, AMCMode.INV) as op:
        result = op.solve(b, rtol=1e-12, max_refine_steps=60)
    assert result.converged is False
    assert result.worst_columns is not None
    assert 0 < len(result.worst_columns) <= WORST_COLUMNS_REPORTED
    assert all(0 <= c < 3 for c in result.worst_columns)
    assert not any(result.per_column_converged[c] for c in result.worst_columns)
    reported = [result.per_column_residual[c] for c in result.worst_columns]
    assert reported == sorted(reported, reverse=True)
    measured = np.linalg.norm(b - a @ result.value, axis=0) / np.linalg.norm(b, axis=0)
    rounding = n * np.finfo(float).eps * np.linalg.norm(result.value, axis=0)
    assert np.all(np.abs(result.per_column_residual - measured) <= rounding)
