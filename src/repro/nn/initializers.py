"""Parameter initializers for the NumPy neural-network substrate.

Each initializer is a callable ``init(shape, rng) -> np.ndarray`` where ``rng``
is a :class:`numpy.random.Generator`.  Fan-in / fan-out are derived from the
shape using the same conventions as Keras (the framework used by the paper):

* Dense kernels have shape ``(fan_in, fan_out)``.
* Conv kernels have shape ``(out_channels, in_channels, kh, kw)``.
* Transposed-conv kernels have shape ``(in_channels, out_channels, kh, kw)``.

Deterministic initializers (``zeros``/``ones``/``constant``) materialise
arrays in the current default precision policy; random draws come out of the
generator in float64 and are cast to the owning layer's dtype by
``Layer.add_param``, which performs the authoritative cast in all cases.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .precision import resolve_dtype

__all__ = [
    "compute_fans",
    "zeros",
    "ones",
    "constant",
    "normal",
    "uniform",
    "glorot_uniform",
    "glorot_normal",
    "he_uniform",
    "he_normal",
    "get_initializer",
]

Initializer = Callable[[Tuple[int, ...], np.random.Generator], np.ndarray]


def compute_fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a parameter tensor shape.

    For 2-D kernels the first axis is fan-in and the second fan-out.  For 4-D
    convolution kernels the receptive-field size multiplies both fans.
    """
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    # Convolution-style kernel: (c_out, c_in, kh, kw) or (c_in, c_out, kh, kw).
    receptive = int(np.prod(shape[2:]))
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def zeros(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-zeros initializer (used for biases)."""
    del rng
    return np.zeros(shape, dtype=resolve_dtype(None))


def ones(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-ones initializer (used for batch-norm scale)."""
    del rng
    return np.ones(shape, dtype=resolve_dtype(None))


def constant(value: float) -> Initializer:
    """Return an initializer filling the tensor with ``value``."""

    def _init(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        del rng
        return np.full(shape, float(value), dtype=resolve_dtype(None))

    return _init


def normal(stddev: float = 0.02, mean: float = 0.0) -> Initializer:
    """Gaussian initializer with the DCGAN-style default ``stddev=0.02``."""

    def _init(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.normal(mean, stddev, size=shape)

    return _init


def uniform(limit: float = 0.05) -> Initializer:
    """Uniform initializer on ``[-limit, limit]``."""

    def _init(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-limit, limit, size=shape)

    return _init


def glorot_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initializer (Keras default for Dense/Conv)."""
    fan_in, fan_out = compute_fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def glorot_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier normal initializer."""
    fan_in, fan_out = compute_fans(shape)
    stddev = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, stddev, size=shape)


def he_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He uniform initializer, suited to ReLU-family activations."""
    fan_in, _ = compute_fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He normal initializer, suited to ReLU-family activations."""
    fan_in, _ = compute_fans(shape)
    stddev = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, stddev, size=shape)


_NAMED: dict[str, Initializer] = {
    "zeros": zeros,
    "ones": ones,
    "glorot_uniform": glorot_uniform,
    "glorot_normal": glorot_normal,
    "he_uniform": he_uniform,
    "he_normal": he_normal,
}


def get_initializer(name_or_fn) -> Initializer:
    """Resolve a named initializer or pass a callable through unchanged."""
    if callable(name_or_fn):
        return name_or_fn
    try:
        return _NAMED[str(name_or_fn)]
    except KeyError as exc:
        raise ValueError(f"Unknown initializer {name_or_fn!r}; known: {sorted(_NAMED)}") from exc
