"""The paper's cost model, stated once (Tables I-IV, Figure 2).

Every cost this repo reports is read from here: the trainers charge the
per-phase operation counts to their compute ledgers, the table runners
instantiate Tables II-IV and Figure 2, ``traffic_check`` compares the
Table III meter with :func:`table3_communication`, and
:func:`~repro.simulation.timeline.estimate_iteration_time` divides the
phase counts and Table III's per-worker rows by a hardware / link profile.

Table II is the paper's big-O table with the constants dropped:

================  ============================  =========================
Quantity          FL-GAN                        MD-GAN
================  ============================  =========================
Computation C     ``O(I b N (|w|+|θ|)/(m E))``  ``O(I b (d N + k |w|))``
Memory C          ``O(N (|w|+|θ|))``            ``O(b (d N + k |w|))``
Computation W     ``O(I b (|w|+|θ|))``          ``O(I b |θ|)``
Memory W          ``O(|w|+|θ|)``                ``O(|θ|)``
================  ============================  =========================

The per-phase operation counts (``*_ops``) are what the ledgers charge:
one pass over ``b`` objects through a model of ``p`` parameters costs
``b·p``, and a discriminator update or input gradient (forward plus
backward) costs ``2·b·|θ|``.  Table III counts 32-bit floats per
communication; :func:`table4_costs` converts them to binary megabytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..nn.serialize import FLOAT_BYTES

__all__ = [
    "MEGABYTE",
    "GENERATED_BATCHES",
    "CostInputs",
    "mdgan_worker_step_ops",
    "mdgan_generation_ops",
    "mdgan_generator_update_ops",
    "flgan_local_iteration_ops",
    "fedavg_ops",
    "table2_complexities",
    "worker_reduction_factor",
    "table3_communication",
    "table4_costs",
    "ingress_traffic_per_iteration",
    "ingress_traffic_sweep",
    "crossover_batch_size",
]

#: The paper reports megabytes using the binary convention (2**20 bytes).
MEGABYTE = float(2**20)

#: Generated batches an MD-GAN worker receives per iteration, ``X_n^{(d)}``
#: and ``X_n^{(g)}``.  Table III prints one; the trainers ship and charge two.
GENERATED_BATCHES = 2


@dataclass(frozen=True)
class CostInputs:
    """Table I's symbols: ``|w|, |θ|, d, b, N, I, m``, then ``k, L, E``.

    ``E = inf`` (never swap / average) is valid; zero, negative and NaN
    values are not, and ``k`` must satisfy ``k <= N``.
    """

    generator_params: int
    discriminator_params: int
    object_size: int
    batch_size: int
    num_workers: int
    iterations: int
    local_dataset_size: int
    num_batches: int = 1
    disc_steps: int = 1
    epochs_per_round: float = 1.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            # ``not x > 0`` also rejects NaN.
            if not value > 0:
                raise ValueError(f"{field.name} must be positive, got {value}")
        if self.num_batches > self.num_workers:
            raise ValueError("num_batches (k) must satisfy k <= N")

    def floats(self) -> Tuple[float, ...]:
        """``|w|, |θ|, d, b, N, I, m, k, L, E`` as floats, in field order."""
        return tuple(float(getattr(self, field.name)) for field in dataclasses.fields(self))


# -- operations per phase, in the ledgers' charge order -----------------------


def mdgan_worker_step_ops(b: int, theta: int, disc_steps: int) -> Dict[str, int]:
    """An MD-GAN worker step: ``L`` discriminator updates and one ``F_n``."""
    cost = 2 * b * theta
    return {"discriminator_training": disc_steps * cost, "feedback": cost}


def mdgan_generation_ops(k: int, b: int, w: int) -> Dict[str, int]:
    """The MD-GAN server generates ``k`` batches of ``b`` objects."""
    return {"batch_generation": k * b * w}


def mdgan_generator_update_ops(n: int, b: int, w: int) -> Dict[str, int]:
    """The MD-GAN server backpropagates ``n`` feedbacks through ``w``.

    A fresh batch reuses the forward charged by its generation; a stale
    batch's replayed forward goes uncharged.
    """
    return {"generator_update": n * b * w}


def flgan_local_iteration_ops(b: int, w: int, theta: int, disc_steps: int) -> Dict[str, int]:
    """An FL-GAN local iteration: one worker runs every MD-GAN phase itself.

    It generates a batch for each discriminator update and one for the
    generator update, takes MD-GAN's worker step, and updates its generator
    from that one feedback.
    """
    return {
        **mdgan_generation_ops(disc_steps + 1, b, w),
        **mdgan_worker_step_ops(b, theta, disc_steps),
        **mdgan_generator_update_ops(1, b, w),
    }


def fedavg_ops(n: int, w: int, theta: int) -> Dict[str, int]:
    """The FL-GAN server averages ``n`` GANs."""
    return {"fedavg": n * (w + theta)}


# -- Table II: computation and memory --------------------------------------------


def table2_complexities(inputs: CostInputs) -> Dict[str, Dict[str, float]]:
    """Instantiate the Table II formulas (big-O constants dropped).

    Returns a nested mapping ``{quantity: {"fl-gan": value, "md-gan": value}}``
    with the four quantities ``computation_server``, ``memory_server``,
    ``computation_worker`` and ``memory_worker``.
    """
    w, theta, d, b, n, i, m, k, _, e = inputs.floats()

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


def worker_reduction_factor(inputs: CostInputs) -> Dict[str, float]:
    """Worker-side FL-GAN / MD-GAN ratios (the paper's "factor of two" claim).

    Both equal ``(|w| + |θ|) / |θ|``, close to 2 when generator and
    discriminator have similar sizes.
    """
    table = table2_complexities(inputs)
    return {
        "computation": table["computation_worker"]["fl-gan"]
        / table["computation_worker"]["md-gan"],
        "memory": table["memory_worker"]["fl-gan"] / table["memory_worker"]["md-gan"],
    }


# -- Tables III / IV and Figure 2: communication ---------------------------------


def table3_communication(inputs: CostInputs) -> Dict[str, Dict[str, float]]:
    """Instantiate the Table III communication complexities (in floats).

    Returns ``{row: {"fl-gan": value, "md-gan": value}}`` where rows follow
    the paper's table: ``server_to_worker_at_server``,
    ``server_to_worker_at_worker``, ``worker_to_server_at_worker``,
    ``worker_to_server_at_server``, ``num_server_worker_rounds``,
    ``worker_to_worker_at_worker``, ``num_worker_worker_rounds``.  The C->W
    rows count :data:`GENERATED_BATCHES` batches per worker.

    The FL-GAN column counts parameters only, as the paper does.  The
    trainer's meter also charges the BatchNorm running statistics FedAvg
    averages, 2·C floats per BatchNorm layer of C channels, so a CNN
    ``traffic-check`` reads about 1.0004 (mnist-cnn, smoke scale), not 1.
    """
    w, theta, d, b, n, i, m, _, _, e = inputs.floats()

    return {
        "server_to_worker_at_server": {
            "fl-gan": n * (theta + w),
            "md-gan": GENERATED_BATCHES * b * d * n,
        },
        "server_to_worker_at_worker": {
            "fl-gan": theta + w,
            "md-gan": GENERATED_BATCHES * b * d,
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


def table4_costs(inputs: CostInputs) -> Dict[str, Dict[str, float]]:
    """Per-communication costs in megabytes (paper Table IV).

    Converts the Table III float counts into MB (4-byte floats, binary MB)
    and keeps the round counts unchanged.
    """
    costs: Dict[str, Dict[str, float]] = {}
    for row, values in table3_communication(inputs).items():
        if row.startswith("num_"):
            costs[row] = dict(values)
        else:
            costs[row] = {
                algo: value * FLOAT_BYTES / MEGABYTE for algo, value in values.items()
            }
    return costs


def ingress_traffic_per_iteration(inputs: CostInputs) -> Dict[str, Dict[str, float]]:
    """Maximum ingress traffic per communication, in bytes (paper Figure 2).

    A worker receives Table III's C->W row plus, for MD-GAN, a swapped
    discriminator (``θ``); the server receives its W->C row.  Returns
    ``{"worker": {...}, "server": {...}}`` with per-algorithm byte figures.
    """
    table = table3_communication(inputs)
    return {
        "worker": {
            algo: (value + table["worker_to_worker_at_worker"][algo]) * FLOAT_BYTES
            for algo, value in table["server_to_worker_at_worker"].items()
        },
        "server": {
            algo: value * FLOAT_BYTES
            for algo, value in table["worker_to_server_at_server"].items()
        },
    }


def ingress_traffic_sweep(inputs: CostInputs, batch_sizes: Iterable[int]) -> List[Dict[str, float]]:
    """Sweep the batch size and tabulate Figure 2's four curves.

    Returns one row per batch size with keys ``batch_size``,
    ``flgan_worker``, ``flgan_server``, ``mdgan_worker``, ``mdgan_server``
    (bytes per communication).
    """
    rows = []
    for b in batch_sizes:
        traffic = ingress_traffic_per_iteration(dataclasses.replace(inputs, batch_size=int(b)))
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


def crossover_batch_size(inputs: CostInputs) -> float:
    """Worker-side batch size at which MD-GAN traffic overtakes FL-GAN's.

    Solving ``2 b d + θ = θ + w`` for ``b`` gives ``b* = w / (2 d)``.  Below
    ``b*`` MD-GAN is cheaper per communication at the worker; above it FL-GAN
    is (Figure 2's crossover, "in the order of hundreds of images" for
    MNIST/CIFAR10).
    """
    return float(inputs.generator_params) / (GENERATED_BATCHES * float(inputs.object_size))
