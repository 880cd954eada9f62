"""Integration tests at the paper's full 128-scale on one shared chip."""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.analysis.metrics import cosine_similarity, scatter_stats
from repro.workloads.matrices import gram, wishart
from repro.workloads.regression import pm25_like


@pytest.fixture(scope="module")
def wishart_128():
    return wishart(128, rng=np.random.default_rng(42))


class TestFullScaleMVM:
    def test_wishart_mvm(self, full_solver, wishart_128):
        x = np.random.default_rng(0).uniform(-1, 1, 128)
        result = full_solver.compile(wishart_128).mvm(x)
        assert result.ok
        stats = scatter_stats(*result.scatter_points())
        assert stats.correlation > 0.9
        assert stats.rmse_over_range < 0.15

    def test_repeated_solves_reuse_programming(self, full_solver, wishart_128):
        rng = np.random.default_rng(1)
        before = full_solver.pool.free_count
        for _ in range(3):
            full_solver.compile(wishart_128).mvm(rng.uniform(-1, 1, 128))
        assert full_solver.pool.free_count == before


class TestFullScaleINV:
    def test_wishart_solve(self, full_solver, wishart_128):
        matrix = wishart_128 + 0.4 * np.eye(128)
        b = np.random.default_rng(2).uniform(-1, 1, 128)
        result = full_solver.compile(matrix, AMCMode.INV).solve(b)
        assert result.ok
        stats = scatter_stats(*result.scatter_points())
        assert stats.correlation > 0.8

    def test_seed_solution_refinement(self, full_solver, wishart_128):
        """Paper §III: AMC result as seed for exact digital refinement."""
        from repro.system.functional import iterative_refinement

        matrix = wishart_128 + 0.4 * np.eye(128)
        b = np.random.default_rng(3).uniform(-1, 1, 128)
        result = full_solver.compile(matrix, AMCMode.INV).solve(b)
        refined = iterative_refinement(matrix, b, result.value, iterations=2)
        exact = np.linalg.solve(matrix, b)
        assert np.linalg.norm(refined - exact) / np.linalg.norm(exact) < 1e-8


class TestFullScalePINV:
    def test_pm25_regression(self, full_solver):
        task = pm25_like(rng=np.random.default_rng(4))
        result = full_solver.compile(task.design, AMCMode.PINV).lstsq(task.targets)
        assert result.ok
        assert result.relative_error < 0.25

    def test_weights_close_to_ground_truth(self, full_solver):
        task = pm25_like(rng=np.random.default_rng(5), noise_scale=0.05)
        result = full_solver.compile(task.design, AMCMode.PINV).lstsq(task.targets)
        error = np.linalg.norm(result.value - task.true_weights)
        error /= np.linalg.norm(task.true_weights)
        assert error < 0.3


class TestFullScaleEGV:
    def test_gram_eigenvector(self, full_solver):
        task = pm25_like(rng=np.random.default_rng(6))
        matrix = gram(task.design)  # 128×128, rank 6
        result = full_solver.compile(matrix, AMCMode.EGV).eigvec()
        assert result.ok
        assert cosine_similarity(result.value, result.reference) > 0.95


class TestCrossTopologyConsistency:
    def test_inv_and_pinv_agree_on_square_spd(self, full_solver):
        """On an invertible system the LS solution equals the direct solve."""
        matrix = wishart(24, rng=np.random.default_rng(7)) + 0.5 * np.eye(24)
        b = np.random.default_rng(8).uniform(-1, 1, 24)
        via_inv = full_solver.compile(matrix, AMCMode.INV).solve(b)
        via_pinv = full_solver.compile(matrix, AMCMode.PINV).lstsq(b)
        agreement = np.linalg.norm(via_inv.value - via_pinv.value)
        agreement /= np.linalg.norm(via_inv.reference)
        assert agreement < 0.6  # both carry ~10–30 % analog error

    def test_mvm_inverts_solve(self, full_solver):
        """A·(analog solve of A·y=b) ≈ b — closing the loop digitally."""
        matrix = wishart(32, rng=np.random.default_rng(9)) + 0.5 * np.eye(32)
        b = np.random.default_rng(10).uniform(-1, 1, 32)
        y = full_solver.compile(matrix, AMCMode.INV).solve(b).value
        recovered = matrix @ y
        assert np.linalg.norm(recovered - b) / np.linalg.norm(b) < 0.6
