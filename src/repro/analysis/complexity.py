"""Analytic computation / memory complexity model (paper Table II).

The paper summarises the asymptotic workload of FL-GAN and MD-GAN at the
central server ``C`` and at a worker ``W`` as:

================  ============================  =========================
Quantity          FL-GAN                        MD-GAN
================  ============================  =========================
Computation C     ``O(I b N (|w|+|θ|)/(m E))``  ``O(I b (d N + k |w|))``
Memory C          ``O(N (|w|+|θ|))``            ``O(b (d N + k |w|))``
Computation W     ``O(I b (|w|+|θ|))``          ``O(I b |θ|)``
Memory W          ``O(|w|+|θ|)``                ``O(|θ|)``
================  ============================  =========================

The grey rows of the paper's table highlight the headline claim: MD-GAN
removes the generator from the workers, roughly halving their computation
and memory because ``|w| ≈ |θ|`` for typical GANs.

:func:`table2_complexities` instantiates these formulas for a concrete
configuration (dropping the big-O constants), and
:func:`worker_reduction_factor` computes the worker-side reduction factor the
paper advertises as "a factor of two".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = [
    "ComplexityInputs",
    "table2_complexities",
    "worker_reduction_factor",
]


@dataclass(frozen=True)
class ComplexityInputs:
    """Scalar quantities the Table II formulas depend on (paper Table I).

    Attributes
    ----------
    generator_params:
        ``|w|`` — number of generator parameters.
    discriminator_params:
        ``|θ|`` — number of discriminator parameters.
    object_size:
        ``d`` — number of scalar features per data object.
    batch_size:
        ``b``.
    num_workers:
        ``N``.
    num_batches:
        ``k`` — generated batches per MD-GAN iteration.
    iterations:
        ``I`` — global iterations.
    local_dataset_size:
        ``m`` — objects per worker shard.
    epochs_per_round:
        ``E`` — local epochs between FL-GAN rounds / MD-GAN swaps.
    """

    generator_params: int
    discriminator_params: int
    object_size: int
    batch_size: int
    num_workers: int
    num_batches: int
    iterations: int
    local_dataset_size: int
    epochs_per_round: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "generator_params",
            "discriminator_params",
            "object_size",
            "batch_size",
            "num_workers",
            "num_batches",
            "iterations",
            "local_dataset_size",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # ``not x > 0`` also rejects NaN; ``E = inf`` (never average) stays valid.
        if not self.epochs_per_round > 0:
            raise ValueError("epochs_per_round must be positive")
        if self.num_batches > self.num_workers:
            raise ValueError("num_batches (k) must satisfy k <= N")


def table2_complexities(inputs: ComplexityInputs) -> Dict[str, Dict[str, float]]:
    """Instantiate the Table II formulas (big-O constants dropped).

    Returns a nested mapping ``{quantity: {"fl-gan": value, "md-gan": value}}``
    with the four quantities ``computation_server``, ``memory_server``,
    ``computation_worker`` and ``memory_worker``.
    """
    w = float(inputs.generator_params)
    theta = float(inputs.discriminator_params)
    d = float(inputs.object_size)
    b = float(inputs.batch_size)
    n = float(inputs.num_workers)
    k = float(inputs.num_batches)
    i = float(inputs.iterations)
    m = float(inputs.local_dataset_size)
    e = float(inputs.epochs_per_round)

    return {
        "computation_server": {
            "fl-gan": i * b * n * (w + theta) / (m * e),
            "md-gan": i * b * (d * n + k * w),
        },
        "memory_server": {
            "fl-gan": n * (w + theta),
            "md-gan": b * (d * n + k * w),
        },
        "computation_worker": {
            "fl-gan": i * b * (w + theta),
            "md-gan": i * b * theta,
        },
        "memory_worker": {
            "fl-gan": w + theta,
            "md-gan": theta,
        },
    }


def worker_reduction_factor(inputs: ComplexityInputs) -> Dict[str, float]:
    """Worker-side FL-GAN / MD-GAN ratios (the paper's "factor of two" claim).

    Returns the computation and memory reduction factors; both equal
    ``(|w| + |θ|) / |θ|`` and are close to 2 when generator and discriminator
    have similar sizes.
    """
    table = table2_complexities(inputs)
    return {
        "computation": table["computation_worker"]["fl-gan"]
        / table["computation_worker"]["md-gan"],
        "memory": table["memory_worker"]["fl-gan"] / table["memory_worker"]["md-gan"],
    }
