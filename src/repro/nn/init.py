"""Weight initialisation schemes.

Every scheme returns float32 arrays: parameters are float32, and the
compute dtype of a model follows its parameters.  The draws are the
float64 draws of the generator, rounded once.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng

__all__ = ["xavier_uniform", "xavier_normal", "he_normal", "zeros", "normal"]


def xavier_uniform(
    shape: tuple[int, ...], rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Glorot/Xavier uniform init: U(-a, a) with a = sqrt(6/(fan_in+fan_out))."""
    rng = ensure_rng(rng)
    fan_in, fan_out = _fans(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def xavier_normal(
    shape: tuple[int, ...], rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Glorot/Xavier normal init: N(0, 2/(fan_in+fan_out))."""
    rng = ensure_rng(rng)
    fan_in, fan_out = _fans(shape)
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def he_normal(
    shape: tuple[int, ...], rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """He/Kaiming normal init for ReLU-family activations: N(0, 2/fan_in)."""
    rng = ensure_rng(rng)
    fan_in, _ = _fans(shape)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)


def normal(
    shape: tuple[int, ...],
    std: float = 0.01,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Plain N(0, std^2) init (used for embedding tables)."""
    return ensure_rng(rng).normal(0.0, std, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero init (biases)."""
    return np.zeros(shape, dtype=np.float32)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
