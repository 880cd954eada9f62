"""Failure injection: stuck-at cells, their damage, and the compensation.

Real RRAM arrays ship with a fraction of cells stuck at the window's
extremes.  Uncorrected, each stuck-at-G_MAX cell injects a full-scale
coefficient error, so even 1 % faults dominate the error budget.  The
solver therefore applies **sparse fault compensation** on the MVM path
(stuck positions are known hardware state from wafer test; their constant
contribution is subtracted digitally at O(#faults) per solve).  Feedback
topologies (INV) cannot be compensated this way and show the raw damage.
"""

import numpy as np

from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.devices.constants import DeviceStack, VariabilityParams
from repro.workloads.matrices import wishart


def _solver_with_faults(stuck_rate: float, seed: int = 0) -> GramcSolver:
    stack = DeviceStack(
        variability=VariabilityParams(
            stuck_on_rate=stuck_rate / 2.0, stuck_off_rate=stuck_rate / 2.0
        )
    )
    return GramcSolver(
        pool=MacroPool(
            PoolConfig(num_macros=4, rows=32, cols=32, stack=stack),
            rng=np.random.default_rng(seed),
        ),
        rng=np.random.default_rng(seed + 1),
    )


def _mvm_error(solver: GramcSolver, seed: int = 5) -> float:
    rng = np.random.default_rng(seed)
    matrix = wishart(24, rng=rng)
    errors = []
    for _ in range(5):
        x = rng.uniform(-1, 1, 24)
        errors.append(solver.compile(matrix).mvm(x).relative_error)
    return float(np.mean(errors))


class TestCompensatedMVM:
    def test_compensation_restores_accuracy(self):
        """With compensation, 5 % stuck cells cost almost nothing on MVM."""
        healthy = _mvm_error(_solver_with_faults(0.0))
        faulty = _mvm_error(_solver_with_faults(0.05))
        assert faulty < 1.5 * healthy + 0.05

    def test_compensation_is_sparse(self):
        """Healthy tiles carry no correction matrix at all."""
        solver = _solver_with_faults(0.0)
        rng = np.random.default_rng(7)
        matrix = wishart(16, rng=rng)
        solver.compile(matrix).mvm(rng.uniform(-1, 1, 16))
        operator = solver.compile(matrix, AMCMode.MVM)
        assert all(tile.fault_correction is None for tile in operator.tiles)

    def test_faulty_tiles_carry_corrections(self):
        solver = _solver_with_faults(0.10, seed=2)
        rng = np.random.default_rng(8)
        matrix = wishart(16, rng=rng)
        solver.compile(matrix).mvm(rng.uniform(-1, 1, 16))
        operator = solver.compile(matrix, AMCMode.MVM)
        assert any(tile.fault_correction is not None for tile in operator.tiles)

    def test_no_crash_at_extreme_fault_rate(self):
        solver = _solver_with_faults(0.3)
        rng = np.random.default_rng(9)
        matrix = wishart(16, rng=rng)
        result = solver.compile(matrix).mvm(rng.uniform(-1, 1, 16))
        assert np.all(np.isfinite(result.value))


class TestUncompensatedINV:
    def test_inv_error_grows_with_fault_rate(self):
        """Feedback topologies see the raw stuck-cell damage."""
        rng = np.random.default_rng(11)
        matrix = wishart(16, rng=rng) + 0.6 * np.eye(16)
        b = rng.uniform(-1, 1, 16)
        errors = {}
        for rate in (0.0, 0.08):
            solver = _solver_with_faults(rate, seed=3)
            errors[rate] = solver.compile(matrix, AMCMode.INV).solve(b).relative_error
        assert errors[0.08] > errors[0.0]

    def test_inv_flags_remain_meaningful_under_faults(self):
        solver = _solver_with_faults(0.05, seed=3)
        rng = np.random.default_rng(11)
        matrix = wishart(16, rng=rng) + 0.5 * np.eye(16)
        result = solver.compile(matrix, AMCMode.INV).solve(rng.uniform(-1, 1, 16))
        assert np.all(np.isfinite(result.value))
        assert isinstance(result.stable, bool)
