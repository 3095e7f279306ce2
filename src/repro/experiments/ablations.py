"""Ablation runners for MD-GAN design choices.

The paper motivates two design knobs without dedicating a figure to each:

* the number of generated batches ``k`` per iteration (Section IV-B4: the
  complexity vs data-diversity trade-off) — :func:`run_ablation_k` sweeps
  ``k in {1, floor(log N), N}``;
* the swap period ``E`` (Section IV-C1: discriminator overfitting) —
  :func:`run_ablation_swap` sweeps ``E in {1, 5, infinity}``;
* the Section VII perspectives (the asynchronous setting as
  ``aggregation="async"`` with bound ``N - 1``, partial worker participation
  as ``participation_fraction``) — :func:`run_ablation_extensions` compares
  them to the synchronous full-participation baseline.

Every runner forwards ``**runtime`` (any :class:`TrainingConfig` execution
field: ``backend``, ``max_workers``, ``transport``, ``pipeline_depth``,
``on_slot_loss``, ...) verbatim into the config it builds; the swept field
of each ablation is applied after it.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..core.config import paper_num_batches
from .common import (
    Cell,
    ExperimentResult,
    ExperimentScale,
    base_config,
    final_scores,
    get_scale,
    prepare,
    run_grid,
)

__all__ = ["run_ablation_k", "run_ablation_swap", "run_ablation_extensions"]


def run_ablation_k(
    dataset: str = "mnist",
    architecture: str = "mnist-mlp",
    scale: ExperimentScale | str = "smoke",
    k_values: Sequence[int] | None = None,
    **runtime,
) -> ExperimentResult:
    """Sweep the number of generated batches ``k`` (data-diversity trade-off).

    ``num_batches`` is set per row, after ``runtime``.
    """
    scale = get_scale(scale)
    if k_values is None:
        k_values = sorted({1, paper_num_batches(scale.num_workers), scale.num_workers})
    cells = [Cell(f"k{int(k)}", "md-gan", {"num_batches": int(k)}) for k in k_values]
    setup = prepare(dataset, architecture, scale)
    runs = run_grid(setup, base_config(scale, eval_every=scale.iterations, **runtime), cells)

    result = ExperimentResult(
        name="Ablation: k",
        description=(
            f"Final MD-GAN scores for different numbers of generated batches k "
            f"on {dataset} / {architecture} (N={scale.num_workers}, scale={scale.name})."
        ),
    )
    for cell, history, _ in runs:
        result.add_row(
            k=cell.overrides["num_batches"],
            **final_scores(history),
            server_egress_bytes=history.traffic.get("server_egress_bytes", 0.0),
            server_flops=history.compute.get("server_flops", 0.0),
        )
    result.add_note(
        "Larger k increases the diversity of generated data across workers at "
        "the cost of server workload (Section IV-B4)."
    )
    return result


def run_ablation_swap(
    dataset: str = "mnist",
    architecture: str = "mnist-mlp",
    scale: ExperimentScale | str = "smoke",
    epochs_values: Sequence[float] = (1.0, 5.0, math.inf),
    **runtime,
) -> ExperimentResult:
    """Sweep the swap period ``E`` (discriminator overfitting mitigation).

    ``epochs_per_swap`` is set per row, after ``runtime``.
    """
    scale = get_scale(scale)
    cells = [Cell(f"E{e}", "md-gan", {"epochs_per_swap": e}) for e in epochs_values]
    setup = prepare(dataset, architecture, scale)
    runs = run_grid(setup, base_config(scale, eval_every=scale.iterations, **runtime), cells)

    result = ExperimentResult(
        name="Ablation: swap period E",
        description=(
            f"Final MD-GAN scores for different swap periods E on {dataset} / "
            f"{architecture} (N={scale.num_workers}, scale={scale.name}); "
            "E=inf disables swapping."
        ),
    )
    for cell, history, _ in runs:
        epochs = cell.overrides["epochs_per_swap"]
        result.add_row(
            epochs_per_swap=("inf" if math.isinf(epochs) else epochs),
            swaps=len(history.events_of_kind("swap")),
            **final_scores(history),
            swap_bytes=history.traffic.get("swap_bytes", 0.0),
        )
    result.add_note(
        "Swapping counters per-shard overfitting of the discriminators "
        "(Section IV-C1); E=inf corresponds to the dotted curves of Figure 4."
    )
    return result


def run_ablation_extensions(
    dataset: str = "mnist",
    architecture: str = "mnist-mlp",
    scale: ExperimentScale | str = "smoke",
    participation_fraction: float = 0.5,
    **runtime,
) -> ExperimentResult:
    """Compare the Section VII perspectives against the reference MD-GAN.

    Each variant is a config mode: ``md-gan-async`` sets
    ``aggregation="async", max_staleness=N - 1`` and
    ``md-gan-sampled-{p}`` sets ``participation_fraction=p``, both after
    ``runtime``.
    """
    scale = get_scale(scale)
    cells = [
        Cell("md-gan", "md-gan"),
        Cell(
            "md-gan-async",
            "md-gan",
            {"aggregation": "async", "max_staleness": scale.num_workers - 1},
        ),
        Cell(
            f"md-gan-sampled-{participation_fraction}",
            "md-gan",
            {"participation_fraction": participation_fraction},
        ),
    ]
    setup = prepare(dataset, architecture, scale)
    runs = run_grid(setup, base_config(scale, eval_every=scale.iterations, **runtime), cells)

    result = ExperimentResult(
        name="Ablation: Section VII extensions",
        description=(
            f"Reference MD-GAN vs asynchronous aggregation and partial participation "
            f"on {dataset} / {architecture} (N={scale.num_workers}, scale={scale.name})."
        ),
    )
    for cell, history, _ in runs:
        result.add_row(
            variant=cell.name,
            **final_scores(history),
            total_bytes=history.traffic.get("total_bytes", 0.0),
        )
    return result
