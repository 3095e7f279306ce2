"""Analytic communication model (paper Tables III, IV and Figure 2).

The paper accounts for three communication types in MD-GAN and two in
FL-GAN.  With ``θ`` and ``w`` the discriminator / generator parameter counts,
``b`` the batch size, ``d`` the object size (in scalar features), ``N`` the
number of workers, ``m`` the local dataset size, ``E`` the number of local
epochs per round and ``I`` the total number of generator iterations:

=====================  ==================  ===================
Communication           FL-GAN              MD-GAN
=====================  ==================  ===================
C -> W   (at C)         ``N (θ + w)``       ``b d N`` per batch sent to each
                                            worker (two batches are sent, so
                                            the measured figure is ``2 b d N``)
C -> W   (at W)         ``θ + w``           ``b d`` (``2 b d`` measured)
W -> C   (at W)         ``θ + w``           ``b d``
W -> C   (at C)         ``N (θ + w)``       ``b d N``
# C <-> W rounds         ``I b / (m E)``     ``I``
W -> W   (at W)         —                   ``θ``
# W <-> W rounds         —                   ``I b / (m E)``
=====================  ==================  ===================

All quantities are numbers of 32-bit floats; byte figures multiply by 4.
Table III's ``C->W`` rows count a single generated batch per worker while the
prose of Section IV-D1 counts the two batches actually shipped (``2bd`` per
worker); :func:`table3_communication` exposes both via the
``count_both_generated_batches`` flag (default ``True``, matching what the
trainers charge to the cluster's Table III meter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..nn.serialize import FLOAT_BYTES

__all__ = [
    "CommunicationInputs",
    "table3_communication",
    "table4_costs",
    "ingress_traffic_per_iteration",
    "ingress_traffic_sweep",
    "crossover_batch_size",
    "MEGABYTE",
]

#: The paper reports megabytes using the binary convention (2**20 bytes).
MEGABYTE = float(2**20)


@dataclass(frozen=True)
class CommunicationInputs:
    """Scalar quantities the communication formulas depend on."""

    generator_params: int
    discriminator_params: int
    object_size: int
    batch_size: int
    num_workers: int
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
            "iterations",
            "local_dataset_size",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.epochs_per_round <= 0:
            raise ValueError("epochs_per_round must be positive")

    @property
    def model_floats(self) -> int:
        """``θ + w`` — floats shipped per FL-GAN model transfer."""
        return self.generator_params + self.discriminator_params


def table3_communication(
    inputs: CommunicationInputs, count_both_generated_batches: bool = True
) -> Dict[str, Dict[str, float]]:
    """Instantiate the Table III communication complexities (in floats).

    Returns ``{row: {"fl-gan": value, "md-gan": value}}`` where rows follow
    the paper's table: ``server_to_worker_at_server``,
    ``server_to_worker_at_worker``, ``worker_to_server_at_worker``,
    ``worker_to_server_at_server``, ``num_server_worker_rounds``,
    ``worker_to_worker_at_worker``, ``num_worker_worker_rounds``.
    """
    w = float(inputs.generator_params)
    theta = float(inputs.discriminator_params)
    d = float(inputs.object_size)
    b = float(inputs.batch_size)
    n = float(inputs.num_workers)
    i = float(inputs.iterations)
    m = float(inputs.local_dataset_size)
    e = float(inputs.epochs_per_round)
    gen_factor = 2.0 if count_both_generated_batches else 1.0

    return {
        "server_to_worker_at_server": {
            "fl-gan": n * (theta + w),
            "md-gan": gen_factor * b * d * n,
        },
        "server_to_worker_at_worker": {
            "fl-gan": theta + w,
            "md-gan": gen_factor * b * d,
        },
        "worker_to_server_at_worker": {
            "fl-gan": theta + w,
            "md-gan": b * d,
        },
        "worker_to_server_at_server": {
            "fl-gan": n * (theta + w),
            "md-gan": b * d * n,
        },
        "num_server_worker_rounds": {
            "fl-gan": i * b / (m * e),
            "md-gan": i,
        },
        "worker_to_worker_at_worker": {
            "fl-gan": 0.0,
            "md-gan": theta,
        },
        "num_worker_worker_rounds": {
            "fl-gan": 0.0,
            "md-gan": i * b / (m * e),
        },
    }


def table4_costs(
    inputs: CommunicationInputs, count_both_generated_batches: bool = True
) -> Dict[str, Dict[str, float]]:
    """Per-communication costs in megabytes (paper Table IV).

    Converts the Table III float counts into MB (4-byte floats, binary MB)
    and keeps the round counts unchanged.
    """
    floats = table3_communication(inputs, count_both_generated_batches)
    costs: Dict[str, Dict[str, float]] = {}
    for row, values in floats.items():
        if row.startswith("num_"):
            costs[row] = dict(values)
        else:
            costs[row] = {
                algo: value * FLOAT_BYTES / MEGABYTE for algo, value in values.items()
            }
    return costs


def ingress_traffic_per_iteration(
    inputs: CommunicationInputs, count_both_generated_batches: bool = True
) -> Dict[str, Dict[str, float]]:
    """Maximum ingress traffic per iteration, in bytes (paper Figure 2).

    For FL-GAN a "communication" is one federated round: the worker receives
    the full model (``θ + w`` floats) and the server receives ``N`` models.
    For MD-GAN an iteration brings ``(1 or 2) b d`` floats of generated data
    to each worker plus ``θ`` floats when a swap happens, and ``b d N``
    floats of feedback to the server.

    Returns ``{"worker": {...}, "server": {...}}`` with per-algorithm byte
    figures.
    """
    w = float(inputs.generator_params)
    theta = float(inputs.discriminator_params)
    d = float(inputs.object_size)
    b = float(inputs.batch_size)
    n = float(inputs.num_workers)
    gen_factor = 2.0 if count_both_generated_batches else 1.0

    return {
        "worker": {
            "fl-gan": (theta + w) * FLOAT_BYTES,
            "md-gan": (gen_factor * b * d + theta) * FLOAT_BYTES,
        },
        "server": {
            "fl-gan": n * (theta + w) * FLOAT_BYTES,
            "md-gan": n * b * d * FLOAT_BYTES,
        },
    }


def ingress_traffic_sweep(
    inputs: CommunicationInputs,
    batch_sizes: Iterable[int],
    count_both_generated_batches: bool = True,
) -> List[Dict[str, float]]:
    """Sweep the batch size and tabulate Figure 2's four curves.

    Returns one row per batch size with keys ``batch_size``,
    ``flgan_worker``, ``flgan_server``, ``mdgan_worker``, ``mdgan_server``
    (bytes per communication).
    """
    rows = []
    for b in batch_sizes:
        if b <= 0:
            raise ValueError(f"batch sizes must be positive, got {b}")
        swept = CommunicationInputs(
            generator_params=inputs.generator_params,
            discriminator_params=inputs.discriminator_params,
            object_size=inputs.object_size,
            batch_size=int(b),
            num_workers=inputs.num_workers,
            iterations=inputs.iterations,
            local_dataset_size=inputs.local_dataset_size,
            epochs_per_round=inputs.epochs_per_round,
        )
        traffic = ingress_traffic_per_iteration(swept, count_both_generated_batches)
        rows.append(
            {
                "batch_size": float(b),
                "flgan_worker": traffic["worker"]["fl-gan"],
                "flgan_server": traffic["server"]["fl-gan"],
                "mdgan_worker": traffic["worker"]["md-gan"],
                "mdgan_server": traffic["server"]["md-gan"],
            }
        )
    return rows


def crossover_batch_size(
    inputs: CommunicationInputs, count_both_generated_batches: bool = True
) -> float:
    """Worker-side batch size at which MD-GAN traffic overtakes FL-GAN's.

    Solving ``gen_factor * b * d + θ = θ + w`` for ``b`` gives
    ``b* = w / (gen_factor * d)``.  Below ``b*`` MD-GAN is cheaper per
    communication at the worker; above it FL-GAN is (Figure 2's crossover,
    "in the order of hundreds of images" for MNIST/CIFAR10).
    """
    gen_factor = 2.0 if count_both_generated_batches else 1.0
    return float(inputs.generator_params) / (gen_factor * float(inputs.object_size))
