"""Runners for the paper's analytic tables (Table II, III, IV) and Figure 2.

These experiments instantiate the closed-form complexity / communication
models with the paper's architectures and dataset geometries, and — where a
measured counterpart exists — cross-check the formulas against the byte counts
the trainers charge to the cluster's Table III meter.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..analysis import (
    CostInputs,
    crossover_batch_size,
    ingress_traffic_sweep,
    table2_complexities,
    table3_communication,
    table4_costs,
    worker_reduction_factor,
)
from ..core.config import paper_num_batches
from ..datasets import CIFAR10_SPEC, MNIST_SPEC
from ..models import build_cifar10_cnn_gan, build_mnist_cnn_gan, build_mnist_mlp_gan
from .common import ExperimentResult

__all__ = [
    "paper_architecture_params",
    "cost_inputs",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_fig2",
]

#: Parameter counts reported in the paper (Section V-A-b), used to
#: instantiate the analytic tables exactly as the authors did.
PAPER_PARAM_COUNTS: Dict[str, Dict[str, int]] = {
    "mnist-mlp": {"generator": 716_560, "discriminator": 670_219},
    "mnist-cnn": {"generator": 628_058, "discriminator": 286_048},
    "cifar10-cnn": {"generator": 628_110, "discriminator": 100_203},
}


def paper_architecture_params(use_paper_counts: bool = True) -> Dict[str, Dict[str, int]]:
    """Generator/discriminator parameter counts per architecture.

    With ``use_paper_counts=True`` (default) returns the counts printed in
    the paper; otherwise instantiates this repo's full-size architectures and
    counts their parameters (slightly different because of the ACGAN
    conditioning scheme: the one-hot label concatenated to the noise widens
    the first layer).
    """
    if use_paper_counts:
        return {k: dict(v) for k, v in PAPER_PARAM_COUNTS.items()}
    builders = {
        "mnist-mlp": lambda: build_mnist_mlp_gan(),
        "mnist-cnn": lambda: build_mnist_cnn_gan(),
        "cifar10-cnn": lambda: build_cifar10_cnn_gan(),
    }
    return {name: builder().parameter_counts() for name, builder in builders.items()}


def cost_inputs(
    architecture: str,
    params: Dict[str, int],
    batch_size: int,
    num_workers: int,
    iterations: int = 50_000,
    **symbols,
) -> CostInputs:
    """Table I's symbols for ``architecture`` on its dataset, split over ``N`` workers.

    ``k`` defaults to the paper's ``⌊log N⌋``; ``symbols`` sets ``k``, ``L``
    or ``E``.
    """
    spec = MNIST_SPEC if architecture.startswith("mnist") else CIFAR10_SPEC
    symbols.setdefault("num_batches", paper_num_batches(num_workers))
    return CostInputs(
        generator_params=params["generator"],
        discriminator_params=params["discriminator"],
        object_size=spec.object_size,
        batch_size=batch_size,
        num_workers=num_workers,
        iterations=iterations,
        local_dataset_size=spec.train_size // num_workers,
        **symbols,
    )


def run_table2(
    batch_size: int = 10,
    num_workers: int = 10,
    iterations: int = 50_000,
    use_paper_counts: bool = True,
) -> ExperimentResult:
    """Table II: computation and memory complexity, FL-GAN vs MD-GAN."""
    result = ExperimentResult(
        name="Table II",
        description=(
            "Computation and memory complexity at the server (C) and at a "
            "worker (W), instantiated for the paper's architectures "
            f"(b={batch_size}, N={num_workers}, I={iterations})."
        ),
    )
    for architecture, params in paper_architecture_params(use_paper_counts).items():
        inputs = cost_inputs(architecture, params, batch_size, num_workers, iterations)
        table = table2_complexities(inputs)
        reduction = worker_reduction_factor(inputs)
        for quantity, values in table.items():
            result.add_row(
                architecture=architecture,
                quantity=quantity,
                flgan=values["fl-gan"],
                mdgan=values["md-gan"],
                mdgan_over_flgan=values["md-gan"] / values["fl-gan"],
            )
        result.add_note(
            f"{architecture}: worker computation reduction factor "
            f"{reduction['computation']:.2f}x, memory reduction "
            f"{reduction['memory']:.2f}x (paper claims ~2x)"
        )
    return result


def run_table3(
    batch_size: int = 10,
    num_workers: int = 10,
    iterations: int = 50_000,
    use_paper_counts: bool = True,
) -> ExperimentResult:
    """Table III: communication complexities per message type (in floats)."""
    result = ExperimentResult(
        name="Table III",
        description=(
            "Communication complexity (number of transmitted floats) per "
            "communication type, FL-GAN vs MD-GAN "
            f"(b={batch_size}, N={num_workers}, I={iterations})."
        ),
    )
    for architecture, params in paper_architecture_params(use_paper_counts).items():
        inputs = cost_inputs(architecture, params, batch_size, num_workers, iterations)
        table = table3_communication(inputs)
        for row, values in table.items():
            result.add_row(
                architecture=architecture,
                communication=row,
                flgan=values["fl-gan"],
                mdgan=values["md-gan"],
            )
    return result


def run_table4(
    batch_sizes: Sequence[int] = (10, 100),
    num_workers: int = 10,
    iterations: int = 50_000,
    use_paper_counts: bool = True,
) -> ExperimentResult:
    """Table IV: instantiated communication costs for the CIFAR10 experiment (MB)."""
    result = ExperimentResult(
        name="Table IV",
        description=(
            "Per-communication costs (MB) for the CIFAR10 experiment with "
            f"N={num_workers} workers, FL-GAN vs MD-GAN, b in {tuple(batch_sizes)}."
        ),
    )
    params = paper_architecture_params(use_paper_counts)["cifar10-cnn"]
    for batch_size in batch_sizes:
        inputs = cost_inputs("cifar10-cnn", params, batch_size, num_workers, iterations)
        costs = table4_costs(inputs)
        for row, values in costs.items():
            result.add_row(
                batch_size=batch_size,
                communication=row,
                flgan=values["fl-gan"],
                mdgan=values["md-gan"],
            )
    result.add_note(
        "Costs use 4-byte floats and binary megabytes; MD-GAN C->W rows count "
        "the two generated batches actually shipped to each worker."
    )
    return result


def run_fig2(
    num_workers: int = 10,
    batch_sizes: Optional[Sequence[int]] = None,
    use_paper_counts: bool = True,
) -> ExperimentResult:
    """Figure 2: maximal ingress traffic per communication vs batch size."""
    if batch_sizes is None:
        batch_sizes = np.unique(
            np.logspace(0, 4, 25).astype(int)
        ).tolist()
    result = ExperimentResult(
        name="Figure 2",
        description=(
            "Maximal ingress traffic (bytes) per communication at a worker "
            "(plain) and at the server (dotted), for the MNIST-MLP and "
            "CIFAR10-CNN GANs, as a function of the batch size."
        ),
    )
    params = paper_architecture_params(use_paper_counts)
    for architecture in ("mnist-mlp", "cifar10-cnn"):
        inputs = cost_inputs(architecture, params[architecture], 10, num_workers, 50_000)
        for row in ingress_traffic_sweep(inputs, batch_sizes):
            result.add_row(architecture=architecture, **row)
        crossover = crossover_batch_size(inputs)
        result.add_note(
            f"{architecture}: worker-side MD-GAN/FL-GAN crossover at "
            f"b ~= {crossover:.0f} images (paper reports 'hundreds of images')"
        )
    return result
