"""Wall-clock estimation for distributed GAN training.

The paper leaves "raw timing performances of learning tasks" to future work
because its emulation shares one machine between all workers.  This module
provides the missing estimator.  It restates no cost: it divides the
per-phase operation counts the trainers charge to their compute ledgers by a
:class:`HardwareProfile` (device throughput in FLOP/s), and Table III's
per-worker byte counts by a :class:`~repro.simulation.network.LinkModel`
(bandwidth + latency), both read from :mod:`repro.analysis.cost`.  Workers
run in parallel, so an iteration's worker compute is one worker's step, and
each communication phase lasts one worker link's transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.cost import (
    CostInputs,
    fedavg_ops,
    flgan_local_iteration_ops,
    mdgan_generation_ops,
    mdgan_generator_update_ops,
    mdgan_worker_step_ops,
    table3_communication,
)
from ..nn.serialize import FLOAT_BYTES
from .network import LinkModel

__all__ = ["HardwareProfile", "IterationTimeline", "estimate_iteration_time"]


@dataclass(frozen=True)
class HardwareProfile:
    """Sustained throughput of the participating machines, in FLOP/s.

    Defaults approximate the paper's setup: server GPUs around 5 TFLOP/s
    sustained, workers an order of magnitude slower (edge-class devices).
    """

    server_flops_per_s: float = 5e12
    worker_flops_per_s: float = 5e11

    def __post_init__(self) -> None:
        if not (self.server_flops_per_s > 0 and self.worker_flops_per_s > 0):
            raise ValueError("Throughputs must be positive")

    @staticmethod
    def datacenter() -> "HardwareProfile":
        """Server and workers are all datacenter GPUs."""
        return HardwareProfile(5e12, 5e12)

    @staticmethod
    def edge() -> "HardwareProfile":
        """Server is a GPU, workers are edge devices (CPU / mobile SoC)."""
        return HardwareProfile(5e12, 5e10)


@dataclass
class IterationTimeline:
    """Breakdown of one global iteration's estimated duration (seconds)."""

    server_generate_s: float
    downlink_s: float
    worker_compute_s: float
    uplink_s: float
    server_update_s: float
    swap_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Total estimated duration of the iteration."""
        return (
            self.server_generate_s
            + self.downlink_s
            + self.worker_compute_s
            + self.uplink_s
            + self.server_update_s
            + self.swap_s
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "server_generate_s": self.server_generate_s,
            "downlink_s": self.downlink_s,
            "worker_compute_s": self.worker_compute_s,
            "uplink_s": self.uplink_s,
            "server_update_s": self.server_update_s,
            "swap_s": self.swap_s,
            "total_s": self.total_s,
        }


def estimate_iteration_time(
    algorithm: str,
    inputs: CostInputs,
    swap_this_iteration: bool = False,
    hardware: Optional[HardwareProfile] = None,
    link: Optional[LinkModel] = None,
) -> IterationTimeline:
    """Estimate the duration of one global iteration of MD-GAN or FL-GAN.

    For MD-GAN an iteration is: the server generates ``k`` batches and ships
    two to every worker, the workers take their step in parallel, the
    feedbacks return and the server backpropagates all ``N`` of them.  For
    FL-GAN it is one local iteration on every worker; on a round boundary
    (``swap_this_iteration=True``) full models travel both ways and the
    server averages them.  ``swap_this_iteration`` also charges an MD-GAN
    SWAP.  Operations are the ledgers' per-phase counts and bytes are Table
    III's per-worker rows, both from :mod:`repro.analysis.cost`.
    """
    if algorithm not in ("md-gan", "fl-gan"):
        raise ValueError(f"algorithm must be 'md-gan' or 'fl-gan', got {algorithm!r}")
    hardware = hardware or HardwareProfile()
    link = link or LinkModel.wan()
    b, n = inputs.batch_size, inputs.num_workers
    w, theta = inputs.generator_params, inputs.discriminator_params
    rows = table3_communication(inputs)
    moves_data = algorithm == "md-gan" or swap_this_iteration

    def link_s(row: str, sent: bool) -> float:
        # Links to the N workers operate in parallel: the phase lasts one
        # worker's transfer (the paper's per-worker ingress accounting).
        nbytes = rows[row][algorithm] * FLOAT_BYTES if sent else 0.0
        return link.transfer_time(int(nbytes)) if nbytes else 0.0

    if algorithm == "md-gan":
        generate_ops = sum(mdgan_generation_ops(inputs.num_batches, b, w).values())
        update_ops = sum(mdgan_generator_update_ops(n, b, w).values())
        worker_ops = sum(mdgan_worker_step_ops(b, theta, inputs.disc_steps).values())
    else:
        generate_ops = 0
        update_ops = sum(fedavg_ops(n, w, theta).values()) if swap_this_iteration else 0
        worker_ops = sum(flgan_local_iteration_ops(b, w, theta, inputs.disc_steps).values())

    return IterationTimeline(
        server_generate_s=generate_ops / hardware.server_flops_per_s,
        downlink_s=link_s("server_to_worker_at_worker", moves_data),
        worker_compute_s=worker_ops / hardware.worker_flops_per_s,
        uplink_s=link_s("worker_to_server_at_worker", moves_data),
        server_update_s=update_ops / hardware.server_flops_per_s,
        swap_s=link_s("worker_to_worker_at_worker", swap_this_iteration),
    )
