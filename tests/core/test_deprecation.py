"""The public handle paths run without a single ``DeprecationWarning``.

The serve layer admits and coalesces *handles only*, so every operation
goes through ``compile`` and the handle it returns; none of those calls
may warn."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.analog.topologies import AMCMode


@pytest.fixture()
def operands(rng):
    a = np.eye(8) * 2.0 + rng.normal(0.0, 0.05, (8, 8))
    x = rng.normal(0.0, 1.0, 8)
    return a, x


def test_handle_path_does_not_warn(small_solver, operands, rng):
    a, x = operands
    tall = rng.normal(0.0, 1.0, (8, 4)) + np.eye(8, 4) * 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with small_solver.compile(a, AMCMode.MVM) as operator:
            operator.mvm(x)
            _ = operator @ x
        with small_solver.compile(a, AMCMode.INV) as operator:
            operator.solve(x)
        with small_solver.compile(tall, AMCMode.PINV) as operator:
            operator.lstsq(x)
        with small_solver.compile(np.full((4, 4), 0.25), AMCMode.EGV) as operator:
            operator.eigvec()
        with small_solver.compile(a, AMCMode.INV, tile=4) as operator:
            operator.solve(x)
