"""Non-i.i.d. data ablation (beyond the paper).

The paper assumes local shards are i.i.d. (Section III-a).  This ablation
quantifies how much that assumption matters: the same MD-GAN and FL-GAN
configuration is trained on an i.i.d. split, a Dirichlet label-skew split and
a pathological per-label split, and the final scores are compared.

Discriminator swapping is expected to partially compensate for label skew in
MD-GAN (a discriminator that only ever saw two digit classes eventually
visits workers holding the others), which is a behaviour the paper's
discussion of the swap motivates but never measures.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..core import FLGANTrainer, MDGANTrainer, TrainingConfig
from ..datasets import ImageDataset, partition_by_label, partition_dirichlet, partition_iid
from .common import (
    ExperimentResult,
    ExperimentScale,
    get_scale,
    prepare_dataset,
    prepare_evaluator,
    prepare_factory,
)

__all__ = ["run_ablation_noniid"]


def _make_shards(
    train: ImageDataset, scheme: str, num_workers: int, seed: int
) -> List[ImageDataset]:
    rng = np.random.default_rng(seed + 31)
    if scheme == "iid":
        return partition_iid(train, num_workers, rng)
    if scheme == "dirichlet":
        return partition_dirichlet(train, num_workers, alpha=0.3, rng=rng)
    if scheme == "label-skew":
        classes_per_worker = max(1, train.num_classes // num_workers)
        return partition_by_label(train, num_workers, classes_per_worker, rng)
    raise ValueError(f"Unknown partitioning scheme {scheme!r}")


def run_ablation_noniid(
    dataset: str = "mnist",
    architecture: str = "mnist-mlp",
    scale: ExperimentScale | str = "smoke",
    schemes: Sequence[str] = ("iid", "dirichlet", "label-skew"),
    algorithms: Sequence[str] = ("md-gan", "fl-gan"),
    **runtime,
) -> ExperimentResult:
    """Compare MD-GAN and FL-GAN under increasingly skewed data partitions.

    ``runtime`` (any :class:`TrainingConfig` execution field) goes verbatim
    into the config, as in :func:`~repro.experiments.run_fig5`.
    """
    scale = get_scale(scale)
    train, test = prepare_dataset(dataset, scale)
    evaluator = prepare_evaluator(train, test, scale)
    factory = prepare_factory(architecture, train, scale)
    config = TrainingConfig(
        iterations=scale.iterations,
        batch_size=scale.batch_size_small,
        epochs_per_swap=1.0,
        eval_every=scale.iterations,
        eval_sample_size=scale.eval_sample_size,
        seed=scale.seed,
        **runtime,
    )

    result = ExperimentResult(
        name="Ablation: non-i.i.d. shards",
        description=(
            f"Final scores of MD-GAN and FL-GAN on {dataset} / {architecture} "
            f"under i.i.d., Dirichlet(0.3) and per-label partitions "
            f"(N={scale.num_workers}, scale={scale.name})."
        ),
    )
    for scheme in schemes:
        shards = _make_shards(train, scheme, scale.num_workers, scale.seed)
        # Drop empty shards that pathological splits may produce.
        shards = [s for s in shards if len(s) > 0]
        trainers: Dict[str, object] = {}
        if "md-gan" in algorithms:
            trainers["md-gan"] = MDGANTrainer(factory, shards, config, evaluator=evaluator)
        if "fl-gan" in algorithms:
            trainers["fl-gan"] = FLGANTrainer(factory, shards, config, evaluator=evaluator)
        for name, trainer in trainers.items():
            with trainer:
                history = trainer.train()
            final = history.final_evaluation
            result.add_row(
                scheme=scheme,
                algorithm=name,
                num_shards=len(shards),
                min_classes_per_shard=int(
                    min((s.class_counts() > 0).sum() for s in shards)
                ),
                score=final.score if final else float("nan"),
                fid=final.fid if final else float("nan"),
            )
    result.add_note(
        "The paper assumes i.i.d. shards; this ablation measures the degradation "
        "under label skew and the extent to which discriminator swapping "
        "compensates for it in MD-GAN."
    )
    return result
