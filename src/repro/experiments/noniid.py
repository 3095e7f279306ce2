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

from typing import List, Sequence

import numpy as np

from ..datasets import ImageDataset, partition_by_label, partition_dirichlet, partition_iid
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
    setup = prepare(dataset, architecture, scale)
    points, cells = [], []
    for scheme in schemes:
        shards = _make_shards(setup.train, scheme, scale.num_workers, scale.seed)
        # Drop empty shards that pathological splits may produce.
        shards = [s for s in shards if len(s) > 0]
        stats = dict(
            num_shards=len(shards),
            min_classes_per_shard=int(min((s.class_counts() > 0).sum() for s in shards)),
        )
        for algorithm in ("md-gan", "fl-gan"):
            if algorithm in algorithms:
                points.append(dict(scheme=scheme, algorithm=algorithm, **stats))
                cells.append(Cell(f"{scheme}-{algorithm}", algorithm, shards=shards))
    runs = run_grid(setup, base_config(scale, eval_every=scale.iterations, **runtime), cells)

    result = ExperimentResult(
        name="Ablation: non-i.i.d. shards",
        description=(
            f"Final scores of MD-GAN and FL-GAN on {dataset} / {architecture} "
            f"under i.i.d., Dirichlet(0.3) and per-label partitions "
            f"(N={scale.num_workers}, scale={scale.name})."
        ),
    )
    for point, (_, history, _) in zip(points, runs):
        result.add_row(**point, **final_scores(history))
    result.add_note(
        "The paper assumes i.i.d. shards; this ablation measures the degradation "
        "under label skew and the extent to which discriminator swapping "
        "compensates for it in MD-GAN."
    )
    return result
