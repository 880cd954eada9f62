"""Digital functional module tests."""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.system import functional


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(
            functional.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_leaky_relu(self):
        out = functional.leaky_relu(np.array([-1.0, 2.0]), slope=0.1)
        np.testing.assert_allclose(out, [-0.1, 2.0])

    def test_softmax_sums_to_one(self):
        probs = functional.softmax(np.array([1.0, 2.0, 3.0]))
        assert probs.sum() == pytest.approx(1.0)
        assert np.argmax(probs) == 2

    def test_softmax_stable_for_large_logits(self):
        probs = functional.softmax(np.array([1000.0, 1001.0]))
        assert np.all(np.isfinite(probs))


class TestPooling:
    def test_max_pool(self):
        maps = np.arange(16, dtype=float).reshape(1, 4, 4)
        pooled = functional.max_pool2d(maps)
        np.testing.assert_array_equal(pooled[0], [[5.0, 7.0], [13.0, 15.0]])

    def test_avg_pool(self):
        maps = np.ones((2, 4, 4))
        pooled = functional.avg_pool2d(maps)
        assert pooled.shape == (2, 2, 2)
        assert np.all(pooled == 1.0)

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError):
            functional.max_pool2d(np.ones((1, 5, 4)))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            functional.max_pool2d(np.ones((4, 4)))


class TestShiftAdd:
    def test_nibble_recombination(self):
        msb = np.array([7.0, 1.0])
        lsb = np.array([15.0, 0.0])
        np.testing.assert_array_equal(
            functional.shift_add(msb, lsb), [127.0, 16.0]
        )

    def test_custom_shift(self):
        np.testing.assert_array_equal(
            functional.shift_add(np.array([1.0]), np.array([1.0]), shift_bits=8),
            [257.0],
        )


class TestHelpers:
    def test_argmax(self):
        assert functional.argmax(np.array([0.1, 0.9, 0.5])) == 1

    def test_affine_scale(self):
        np.testing.assert_allclose(
            functional.affine_scale(np.array([1.0, 2.0]), 3.0, 1.0), [4.0, 7.0]
        )

    def test_normalize(self):
        out = functional.normalize(np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [0.6, 0.8])

    def test_normalize_zero_vector(self):
        np.testing.assert_array_equal(functional.normalize(np.zeros(3)), np.zeros(3))

    def test_power_iteration_estimate(self):
        matrix = np.diag([5.0, 1.0, 0.5])
        assert functional.power_iteration_estimate(matrix) == pytest.approx(5.0, rel=1e-3)


class TestIterativeRefinement:
    def test_refinement_converges_from_noisy_seed(self, small_solver):
        """The paper's seed-solution use case: AMC answer → exact answer,
        through ``solve(rtol=...)`` on the programmed operator."""
        rng = np.random.default_rng(0)
        matrix = np.eye(8) * 2.0 + 0.1 * rng.standard_normal((8, 8))
        b = rng.uniform(-1, 1, 8)
        exact = np.linalg.solve(matrix, b)
        with small_solver.compile(matrix, AMCMode.INV) as op:
            seed = op.solve(b).value  # the ~1e-2-accurate analog answer
            refined = op.solve(b, rtol=1e-12).value
        assert np.linalg.norm(seed - exact) / np.linalg.norm(exact) > 1e-6
        assert np.linalg.norm(refined - exact) / np.linalg.norm(exact) < 1e-10
