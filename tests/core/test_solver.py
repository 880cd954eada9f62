"""GramcSolver tests: the public API against numpy references."""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.solver import GramcError
from repro.workloads.matrices import gram, wishart


class TestMVM:
    def test_small_product(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(12, 12))
        x = rng.uniform(-1, 1, 12)
        result = small_solver.compile(matrix).mvm(x)
        assert result.ok
        assert result.relative_error < 0.35

    def test_zero_vector(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(8, 8))
        result = small_solver.compile(matrix).mvm(np.zeros(8))
        assert np.linalg.norm(result.value) < 0.2 * np.linalg.norm(matrix)

    def test_batched_input(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(10, 10))
        batch = rng.uniform(-1, 1, size=(10, 6))
        result = small_solver.compile(matrix).mvm(batch)
        assert result.value.shape == (10, 6)
        assert result.relative_error < 0.35

    def test_tiled_wide_matrix(self, small_solver, rng):
        """A 12×80 operand must tile across several 32-column macros."""
        matrix = rng.uniform(-1, 1, size=(12, 80))
        x = rng.uniform(-1, 1, 80)
        result = small_solver.compile(matrix).mvm(x)
        assert result.relative_error < 0.35
        assert len(result.macro_ids) >= 3

    def test_operator_caching(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(8, 8))
        small_solver.compile(matrix).mvm(rng.uniform(-1, 1, 8))
        op_a = small_solver.compile(matrix, AMCMode.MVM)
        op_b = small_solver.compile(matrix, AMCMode.MVM)
        assert op_a is op_b

    def test_quant_peak_alignment(self, small_solver, rng):
        """Integer matrices with quant_peak=15 suffer no quantization error."""
        matrix = rng.integers(0, 16, size=(8, 8)).astype(float)
        x = rng.uniform(-1, 1, 8)
        result = small_solver.compile(matrix, quant_peak=15.0).mvm(x)
        assert result.relative_error < 0.1

    def test_input_length_validation(self, small_solver):
        with pytest.raises(GramcError):
            small_solver.compile(np.eye(4)).mvm(np.zeros(5))

    def test_solve_counts(self, small_solver, rng):
        before = small_solver.solve_counts["mvm"]
        small_solver.compile(rng.uniform(-1, 1, (6, 6))).mvm(rng.uniform(-1, 1, 6))
        assert small_solver.solve_counts["mvm"] == before + 1


class TestINV:
    def test_spd_solve(self, small_solver, rng):
        matrix = wishart(12, rng=rng) + 0.5 * np.eye(12)
        b = rng.uniform(-1, 1, 12)
        result = small_solver.compile(matrix, AMCMode.INV).solve(b)
        assert result.ok
        assert result.relative_error < 0.45

    def test_identity_solve_is_accurate(self, small_solver, rng):
        matrix = 2.0 * np.eye(10)
        b = rng.uniform(-1, 1, 10)
        result = small_solver.compile(matrix, AMCMode.INV).solve(b)
        assert result.relative_error < 0.1

    def test_requires_square(self, small_solver):
        with pytest.raises(GramcError):
            small_solver.compile(np.ones((3, 4)), AMCMode.INV).solve(np.zeros(3))

    def test_requires_matching_rhs(self, small_solver):
        with pytest.raises(GramcError):
            small_solver.compile(np.eye(4), AMCMode.INV).solve(np.zeros(5))

    def test_too_large_routes_through_blocked_grid(self, small_solver):
        # Pool arrays are 32²: a 64-unknown system no longer raises — it
        # compiles to a 2×2 tile grid and solves with blocked sweeps.
        result = small_solver.compile(np.eye(64), AMCMode.INV).solve(np.ones(64))
        assert result.sweeps is not None and result.sweeps >= 1
        assert result.relative_error < 0.35


class TestPINV:
    def test_least_squares(self, small_solver, rng):
        matrix = rng.standard_normal((24, 5))
        b = rng.uniform(-1, 1, 24)
        result = small_solver.compile(matrix, AMCMode.PINV).lstsq(b)
        assert result.ok
        assert result.relative_error < 0.3

    def test_consistent_system_recovers_solution(self, small_solver, rng):
        matrix = rng.standard_normal((20, 4))
        true_x = rng.uniform(-1, 1, 4)
        result = small_solver.compile(matrix, AMCMode.PINV).lstsq(matrix @ true_x)
        assert np.linalg.norm(result.value - true_x) / np.linalg.norm(true_x) < 0.3

    def test_requires_tall(self, small_solver):
        with pytest.raises(GramcError):
            small_solver.compile(np.ones((3, 5)), AMCMode.PINV).lstsq(np.zeros(3))


class TestEGV:
    def test_gram_dominant_eigenvector(self, small_solver, rng):
        data = rng.standard_normal((16, 4))
        matrix = gram(data)
        result = small_solver.compile(matrix, AMCMode.EGV).eigvec()
        assert result.ok
        assert abs(result.value @ result.reference) > 0.95

    def test_explicit_lambda(self, small_solver, rng):
        data = rng.standard_normal((12, 3))
        matrix = gram(data)
        lam = float(np.linalg.eigvalsh(matrix)[-1])
        result = small_solver.compile(matrix, AMCMode.EGV, lambda_hat=0.9 * lam).eigvec()
        assert abs(result.value @ result.reference) > 0.9

    def test_unit_norm_output(self, small_solver, rng):
        data = rng.standard_normal((12, 3))
        result = small_solver.compile(gram(data), AMCMode.EGV).eigvec()
        assert np.linalg.norm(result.value) == pytest.approx(1.0, abs=0.02)

    def test_rejects_negative_spectrum(self, small_solver):
        with pytest.raises(GramcError):
            small_solver.compile(-np.eye(8), AMCMode.EGV).eigvec()


class TestResults:
    def test_scatter_points(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(8, 8))
        result = small_solver.compile(matrix).mvm(rng.uniform(-1, 1, 8))
        ideal, non_ideal = result.scatter_points()
        assert ideal.shape == non_ideal.shape == (8,)
        np.testing.assert_array_equal(ideal, result.reference)


class TestLedgerCounters:
    def test_counters_read_the_cost_ledger(self, small_solver, rng):
        matrix = 2.0 * np.eye(8) + 0.1 * rng.uniform(-1, 1, (8, 8))
        op = small_solver.compile(matrix, AMCMode.INV)
        result = op.solve(rng.uniform(-1, 1, 8), rtol=1e-10)
        assert result.refine_steps > 0
        total = small_solver.cost.total
        assert small_solver.engine_dispatches == total.engine_dispatches > 0
        assert small_solver.refine_steps == total.refine_steps == result.refine_steps

    def test_counters_are_read_only(self, small_solver):
        with pytest.raises(AttributeError):
            small_solver.engine_dispatches = 0
        with pytest.raises(AttributeError):
            small_solver.refine_steps = 0


class TestDigestFastPath:
    @pytest.fixture()
    def hash_counter(self, monkeypatch):
        """Count O(n²) byte hashes without changing their results."""
        from repro.core import solver as solver_module

        counts = {"bytes": 0}
        original = solver_module._bytes_digest

        def counting(matrix):
            counts["bytes"] += 1
            return original(matrix)

        monkeypatch.setattr(solver_module, "_bytes_digest", counting)
        return counts

    def test_read_only_operand_hashed_once(self, small_solver, rng, hash_counter):
        matrix = rng.uniform(-1, 1, size=(12, 12))
        matrix.setflags(write=False)
        x = rng.uniform(-1, 1, 12)
        small_solver.compile(matrix).mvm(x)
        after_first = hash_counter["bytes"]
        for _ in range(5):
            small_solver.compile(matrix).mvm(x)
        # Every compile after the first hits the (id, weakref) memo.
        assert hash_counter["bytes"] == after_first

    def test_writeable_operand_rehashed_every_call(self, small_solver, rng, hash_counter):
        matrix = rng.uniform(-1, 1, size=(12, 12))
        x = rng.uniform(-1, 1, 12)
        small_solver.compile(matrix).mvm(x)
        first = hash_counter["bytes"]
        small_solver.compile(matrix).mvm(x)
        assert hash_counter["bytes"] > first  # no unsound id-keyed reuse

    def test_mutated_writeable_operand_gets_fresh_operator(self, small_solver, rng):
        matrix = rng.uniform(-1, 1, size=(10, 10))
        x = rng.uniform(-1, 1, 10)
        before = small_solver.compile(matrix).mvm(x)
        matrix[0, 0] += 2.5  # in-place mutation must change the cache key
        after = small_solver.compile(matrix).mvm(x)
        assert not np.array_equal(before.reference, after.reference)
        assert np.allclose(after.reference, matrix @ x)

    def test_facade_reuses_programmed_operator(self, small_solver, rng):
        """Repeated compiles of the same read-only ndarray perform zero
        re-programming (and zero re-hashing)."""
        matrix = rng.uniform(-1, 1, size=(12, 12))
        matrix.setflags(write=False)
        x = rng.uniform(-1, 1, 12)
        small_solver.compile(matrix).mvm(x)
        acquisitions = small_solver.pool.acquisitions
        versions = [m.array.version for m in small_solver.pool.macros]
        for _ in range(4):
            small_solver.compile(matrix).mvm(x)
        assert small_solver.pool.acquisitions == acquisitions
        assert [m.array.version for m in small_solver.pool.macros] == versions

    def test_read_only_view_of_writeable_base_not_memoized(self, small_solver, rng):
        """A read-only view can still change through its writeable base —
        it must never hit the (id, weakref) digest memo."""
        base = rng.uniform(-1, 1, size=(10, 10))
        view = base[:]
        view.setflags(write=False)
        x = rng.uniform(-1, 1, 10)
        small_solver.compile(view).mvm(x)
        base[0, 0] += 5.0
        after = small_solver.compile(view).mvm(x)
        assert np.allclose(after.reference, view @ x)
