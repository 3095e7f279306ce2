"""Parameter-vector helpers shared by the distributed trainers.

The distributed algorithms ship model parameters (FL-GAN rounds, MD-GAN
discriminator swaps) as flat float vectors.  These helpers centralise the
byte-size accounting used by the traffic meters and provide simple averaging
utilities for federated aggregation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from .model import Sequential

__all__ = [
    "FLOAT_BYTES",
    "parameter_bytes",
    "vector_bytes",
    "average_parameters",
    "weighted_average_parameters",
    "copy_parameters",
    "model_state",
    "load_model_state",
]

#: Size in bytes of one transmitted scalar.  The paper counts parameters and
#: data features in 32-bit floats; all byte figures in the analytic model and
#: the traffic meters use this constant.  Under the default float32 precision
#: policy (see :mod:`repro.nn.precision`) in-memory payloads now genuinely
#: occupy this many bytes per scalar, so simulated and real sizes agree.
FLOAT_BYTES = 4


def parameter_bytes(model: Sequential) -> int:
    """Number of bytes required to ship every parameter of ``model``."""
    return model.num_parameters * FLOAT_BYTES


def vector_bytes(array: np.ndarray) -> int:
    """Number of bytes required to ship ``array`` as 32-bit floats."""
    return int(np.asarray(array).size) * FLOAT_BYTES


def average_parameters(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Uniform average of flat parameter vectors (FedAvg aggregation)."""
    if not vectors:
        raise ValueError("Cannot average an empty collection of parameter vectors")
    flat = [np.asarray(v).ravel() for v in vectors]
    sizes = {v.size for v in flat}
    if len(sizes) != 1:
        raise ValueError(f"Parameter vectors have inconsistent sizes: {sizes}")
    out_dtype = np.result_type(np.float32, *flat)
    # Accumulate in float64 regardless of policy: averaging many float32
    # vectors in float32 loses bits needlessly for a one-off reduction.
    return np.stack(flat).mean(axis=0, dtype=np.float64).astype(out_dtype, copy=False)


def weighted_average_parameters(
    vectors: Sequence[np.ndarray], weights: Iterable[float]
) -> np.ndarray:
    """Weighted average of flat parameter vectors.

    Weights are normalised to sum to one; they typically carry the local
    dataset sizes, matching the FedAvg formulation for unbalanced shards.
    """
    weights = np.asarray(list(weights), dtype=np.float64)
    if len(vectors) != weights.size:
        raise ValueError(f"Got {len(vectors)} vectors but {weights.size} weights")
    bad = np.flatnonzero(~np.isfinite(weights) | (weights < 0))
    if bad.size:
        raise ValueError(f"Weight {bad[0]} is {weights[bad[0]]}; weights must be finite and >= 0")
    if weights.sum() <= 0:
        raise ValueError("Weights must sum to a positive value")
    weights = weights / weights.sum()
    flat = [np.asarray(v).ravel() for v in vectors]
    out_dtype = np.result_type(np.float32, *flat)
    stacked = np.stack(flat).astype(np.float64, copy=False)
    return (weights[:, None] * stacked).sum(axis=0).astype(out_dtype, copy=False)


def copy_parameters(source: Sequential, destination: Sequential) -> None:
    """Copy parameters from one model into another of identical architecture."""
    destination.set_parameters(source.get_parameters())


def model_state(models: Dict[str, Sequential]) -> Dict[str, np.ndarray]:
    """Each model's parameters under its name, and its BatchNorm statistics, if any,
    under ``"<name>_buffers"``: a model without BatchNorm ships its parameters alone."""
    state = {}
    for name, model in models.items():
        state[name] = model.get_parameters()
        buffers = model.get_buffers()
        if buffers.size:
            state[f"{name}_buffers"] = buffers
    return state


def load_model_state(models: Dict[str, Sequential], state: Dict[str, np.ndarray]) -> None:
    """Write a :func:`model_state` dict back into ``models``."""
    for name, model in models.items():
        model.set_parameters(state[name])
        if f"{name}_buffers" in state:
            model.set_buffers(state[f"{name}_buffers"])
