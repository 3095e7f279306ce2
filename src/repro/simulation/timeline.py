"""Wall-clock estimation for distributed GAN training.

The paper leaves "raw timing performances of learning tasks" to future work
because its emulation shares one machine between all workers.  This module
provides the missing estimator: it combines

* the compute cost model of Section IV-B3/IV-C2 (operations proportional to
  the parameter counts, charged to each node's
  :class:`~repro.simulation.node.ComputeLedger` during training), and
* a :class:`~repro.simulation.network.LinkModel` (bandwidth + latency), with
  the per-message byte counts produced by the traffic meter,

to estimate the duration of one global iteration — and of a full training
run — for a given hardware profile (device throughput in FLOP/s) and network
profile (datacenter / WAN / edge).  Workers run in parallel, so the compute
part of an iteration is bounded by the *slowest* worker plus the server;
communication phases are modelled as the maximum transfer over the parallel
links plus the serialised server-side aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

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
    generator_params: int,
    discriminator_params: int,
    object_size: int,
    batch_size: int,
    num_workers: int,
    num_batches: int = 1,
    disc_steps: int = 1,
    swap_this_iteration: bool = False,
    hardware: Optional[HardwareProfile] = None,
    link: Optional[LinkModel] = None,
    float_bytes: int = 4,
) -> IterationTimeline:
    """Estimate the duration of one global iteration of MD-GAN or FL-GAN.

    For MD-GAN an iteration is: server generates ``k`` batches, ships two per
    worker, workers run ``L`` discriminator steps and one feedback pass in
    parallel, feedbacks return, the server chains them through the generator.
    For FL-GAN an "iteration" is one local iteration on every worker (model
    transfers are charged on the iterations where a round completes — pass
    ``swap_this_iteration=True`` for those and the model size is used for the
    up/down links instead of image batches).

    The cost constants follow the paper: one forward pass over one object
    costs ``~|params|`` operations, a backward pass twice that.
    """
    if algorithm not in ("md-gan", "fl-gan"):
        raise ValueError(f"algorithm must be 'md-gan' or 'fl-gan', got {algorithm!r}")
    if min(generator_params, discriminator_params, object_size, batch_size, num_workers) <= 0:
        raise ValueError("All model/batch/worker quantities must be positive")
    hardware = hardware or HardwareProfile()
    link = link or LinkModel.wan()

    w, theta = float(generator_params), float(discriminator_params)
    b, n, k, steps = float(batch_size), float(num_workers), float(num_batches), float(disc_steps)
    forward, backward = 1.0, 2.0

    if algorithm == "md-gan":
        # Server: generate k batches (forward only), later backprop the
        # feedbacks of every worker through the generator.
        generate_ops = k * b * w * forward
        update_ops = n * b * w * (forward + backward)
        # Worker (parallel): L discriminator steps on 2b images + one
        # feedback pass (forward + backward w.r.t. the input) on b images.
        worker_ops = steps * 2.0 * b * theta * (forward + backward) + b * theta * (
            forward + backward
        )
        downlink_bytes = 2.0 * b * object_size * float_bytes
        uplink_bytes = b * object_size * float_bytes
        swap_bytes = theta * float_bytes if swap_this_iteration else 0.0
    else:
        # FL-GAN: every worker trains a full local GAN; the server only acts
        # at round boundaries, when full models travel both ways.
        generate_ops = 0.0
        update_ops = 0.0
        worker_ops = steps * 2.0 * b * theta * (forward + backward) + b * (w + theta) * (
            forward + backward
        )
        round_bytes = (w + theta) * float_bytes if swap_this_iteration else 0.0
        downlink_bytes = round_bytes
        uplink_bytes = round_bytes
        swap_bytes = 0.0

    timeline = IterationTimeline(
        server_generate_s=generate_ops / hardware.server_flops_per_s,
        # Links to the N workers operate in parallel: the phase lasts one
        # worker's transfer (the server NIC is modelled per-link, as in the
        # paper's per-worker ingress accounting).
        downlink_s=link.transfer_time(int(downlink_bytes)) if downlink_bytes else 0.0,
        worker_compute_s=worker_ops / hardware.worker_flops_per_s,
        uplink_s=link.transfer_time(int(uplink_bytes)) if uplink_bytes else 0.0,
        server_update_s=update_ops / hardware.server_flops_per_s,
        swap_s=link.transfer_time(int(swap_bytes)) if swap_bytes else 0.0,
    )
    return timeline
