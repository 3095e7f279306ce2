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

from ..core import MDGANTrainer, TrainingConfig
from .common import (
    ExperimentResult,
    ExperimentScale,
    get_scale,
    prepare_dataset,
    prepare_evaluator,
    prepare_factory,
    prepare_shards,
)

__all__ = ["run_ablation_k", "run_ablation_swap", "run_ablation_extensions"]


def _base_config(scale: ExperimentScale, **runtime) -> TrainingConfig:
    return TrainingConfig(
        iterations=scale.iterations,
        batch_size=scale.batch_size_small,
        epochs_per_swap=1.0,
        eval_every=scale.iterations,
        eval_sample_size=scale.eval_sample_size,
        seed=scale.seed,
        **runtime,
    )


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
    train, test = prepare_dataset(dataset, scale)
    evaluator = prepare_evaluator(train, test, scale)
    factory = prepare_factory(architecture, train, scale)
    shards = prepare_shards(train, scale.num_workers, scale.seed)
    if k_values is None:
        k_log = max(
            1,
            int(math.floor(math.log(scale.num_workers))) if scale.num_workers > 1 else 1,
        )
        k_values = sorted({1, k_log, scale.num_workers})

    result = ExperimentResult(
        name="Ablation: k",
        description=(
            f"Final MD-GAN scores for different numbers of generated batches k "
            f"on {dataset} / {architecture} (N={scale.num_workers}, scale={scale.name})."
        ),
    )
    for k in k_values:
        config = _base_config(scale, **runtime).with_overrides(num_batches=int(k))
        with MDGANTrainer(factory, shards, config, evaluator=evaluator) as trainer:
            history = trainer.train()
        final = history.final_evaluation
        result.add_row(
            k=int(k),
            score=final.score if final else float("nan"),
            fid=final.fid if final else float("nan"),
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
    train, test = prepare_dataset(dataset, scale)
    evaluator = prepare_evaluator(train, test, scale)
    factory = prepare_factory(architecture, train, scale)
    shards = prepare_shards(train, scale.num_workers, scale.seed)

    result = ExperimentResult(
        name="Ablation: swap period E",
        description=(
            f"Final MD-GAN scores for different swap periods E on {dataset} / "
            f"{architecture} (N={scale.num_workers}, scale={scale.name}); "
            "E=inf disables swapping."
        ),
    )
    for epochs in epochs_values:
        config = _base_config(scale, **runtime).with_overrides(epochs_per_swap=epochs)
        with MDGANTrainer(factory, shards, config, evaluator=evaluator) as trainer:
            history = trainer.train()
        final = history.final_evaluation
        result.add_row(
            epochs_per_swap=("inf" if math.isinf(epochs) else epochs),
            swaps=len(history.events_of_kind("swap")),
            score=final.score if final else float("nan"),
            fid=final.fid if final else float("nan"),
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
    train, test = prepare_dataset(dataset, scale)
    evaluator = prepare_evaluator(train, test, scale)
    factory = prepare_factory(architecture, train, scale)
    shards = prepare_shards(train, scale.num_workers, scale.seed)
    config = _base_config(scale, **runtime)

    result = ExperimentResult(
        name="Ablation: Section VII extensions",
        description=(
            f"Reference MD-GAN vs asynchronous aggregation and partial participation "
            f"on {dataset} / {architecture} (N={scale.num_workers}, scale={scale.name})."
        ),
    )
    variants = {
        "md-gan": config,
        "md-gan-async": config.with_overrides(
            aggregation="async", max_staleness=scale.num_workers - 1
        ),
        f"md-gan-sampled-{participation_fraction}": config.with_overrides(
            participation_fraction=participation_fraction
        ),
    }
    for name, variant in variants.items():
        with MDGANTrainer(factory, shards, variant, evaluator=evaluator) as trainer:
            history = trainer.train()
        final = history.final_evaluation
        result.add_row(
            variant=name,
            score=final.score if final else float("nan"),
            fid=final.fid if final else float("nan"),
            total_bytes=history.traffic.get("total_bytes", 0.0),
        )
    return result
