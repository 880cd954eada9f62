"""Digital functional modules (paper Fig. 3, "EU / functional module").

The analog macros only multiply and solve; everything else a real workload
needs — activation functions, pooling, bit-slice recombination, argmax,
affine rescaling — runs in these digital units.  The LeNet-5 demonstration
of Fig. 5 exercises ReLU, pooling and (for INT8) the shift-add unit.

All functions are pure and vectorised; the ISA layer wraps them, and the
neural-network layer calls them directly.
"""

from __future__ import annotations

import numpy as np


def relu(values: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(values, dtype=float), 0.0)


def leaky_relu(values: np.ndarray, slope: float = 0.01) -> np.ndarray:
    """Leaky ReLU (extension activation for the functional module)."""
    values = np.asarray(values, dtype=float)
    return np.where(values >= 0.0, values, slope * values)


def _pool2d(feature_maps: np.ndarray, reducer) -> np.ndarray:
    maps = np.asarray(feature_maps, dtype=float)
    if maps.ndim != 3:
        raise ValueError("pooling expects (channels, height, width)")
    c, h, w = maps.shape
    if h % 2 or w % 2:
        raise ValueError("the 2×2/stride-2 pooling unit needs even dimensions")
    window = maps.reshape(c, h // 2, 2, w // 2, 2)
    return reducer(window, axis=(2, 4))


def max_pool2d(feature_maps: np.ndarray) -> np.ndarray:
    """2×2 stride-2 max pooling over (C, H, W) feature maps."""
    return _pool2d(feature_maps, np.max)


def avg_pool2d(feature_maps: np.ndarray) -> np.ndarray:
    """2×2 stride-2 average pooling over (C, H, W) feature maps."""
    return _pool2d(feature_maps, np.mean)


def shift_add(msb: np.ndarray, lsb: np.ndarray, shift_bits: int = 4) -> np.ndarray:
    """Bit-slice recombination: ``out = msb·2^shift + lsb``.

    This is the digital half of the paper's INT8 scheme: two 4-bit arrays
    produce partial MVMs that the shift-add unit merges.
    """
    return np.asarray(msb, dtype=float) * float(1 << shift_bits) + np.asarray(lsb, dtype=float)


def affine_scale(values: np.ndarray, gain: float, offset: float = 0.0) -> np.ndarray:
    """``gain·x + offset`` — unit conversion between analog and problem domains."""
    return gain * np.asarray(values, dtype=float) + offset


def argmax(values: np.ndarray) -> int:
    """Classification head: index of the largest logit."""
    return int(np.argmax(np.asarray(values)))


def softmax(values: np.ndarray) -> np.ndarray:
    """Numerically-stable softmax (extension op for probability outputs)."""
    values = np.asarray(values, dtype=float)
    shifted = values - values.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def normalize(values: np.ndarray) -> np.ndarray:
    """Unit-L2 normalisation (used by the EGV post-processing path)."""
    values = np.asarray(values, dtype=float)
    norm = np.linalg.norm(values)
    if norm == 0.0:
        return values.copy()
    return values / norm


def power_iteration_estimate(
    matrix: np.ndarray, iterations: int = 30, rng: np.random.Generator | None = None
) -> float:
    """Dominant-eigenvalue estimate — the digital helper the EGV mode needs."""
    matrix = np.asarray(matrix, dtype=float)
    rng = rng if rng is not None else np.random.default_rng(11)
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(iterations):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        value = float(v @ matrix @ v)
    return value

