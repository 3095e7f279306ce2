"""Figure 3 runner: convergence of standalone GAN, FL-GAN and MD-GAN.

The paper's Figure 3 plots the MNIST score / Inception score and the FID
against the number of generator iterations for six competitors:

* standalone GAN with ``b = 10`` and ``b = 100``,
* FL-GAN with ``b = 10`` and ``b = 100`` (``E = 1``),
* MD-GAN with ``k = 1`` and ``k = floor(log N)`` (``E = 1``),

on three dataset / architecture cells (MNIST-MLP, MNIST-CNN, CIFAR10-CNN)
with ``N = 10`` workers and an i.i.d. split.

:func:`run_fig3` reproduces one cell.  The run scale (dataset size, image
size, iteration count, worker count) is governed by an
:class:`~repro.experiments.common.ExperimentScale`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..core import (
    FLGANTrainer,
    MDGANTrainer,
    StandaloneGANTrainer,
    TrainingConfig,
    TrainingHistory,
)
from .common import (
    ExperimentResult,
    ExperimentScale,
    get_scale,
    prepare_dataset,
    prepare_evaluator,
    prepare_factory,
    prepare_shards,
)

__all__ = ["fig3_competitors", "run_fig3"]

#: Dataset / architecture cells of Figure 3.
FIG3_CELLS = (
    ("mnist", "mnist-mlp"),
    ("mnist", "mnist-cnn"),
    ("cifar10", "cifar10-cnn"),
)


def fig3_competitors(scale: ExperimentScale, num_workers: int) -> Dict[str, Dict]:
    """The six competitor configurations of Figure 3 at the given scale."""
    k_log = max(1, int(math.floor(math.log(num_workers))) if num_workers > 1 else 1)
    return {
        f"standalone-b{scale.batch_size_small}": {
            "kind": "standalone",
            "batch_size": scale.batch_size_small,
        },
        f"standalone-b{scale.batch_size_large}": {
            "kind": "standalone",
            "batch_size": scale.batch_size_large,
        },
        f"fl-gan-b{scale.batch_size_small}": {
            "kind": "fl-gan",
            "batch_size": scale.batch_size_small,
        },
        f"fl-gan-b{scale.batch_size_large}": {
            "kind": "fl-gan",
            "batch_size": scale.batch_size_large,
        },
        "md-gan-k1": {
            "kind": "md-gan",
            "batch_size": scale.batch_size_small,
            "num_batches": 1,
        },
        f"md-gan-klog{k_log}": {
            "kind": "md-gan",
            "batch_size": scale.batch_size_small,
            "num_batches": k_log,
        },
    }


def _run_competitor(
    name: str,
    spec: Dict,
    factory,
    train,
    shards,
    evaluator,
    scale: ExperimentScale,
    runtime: Dict,
) -> TrainingHistory:
    config = TrainingConfig(
        iterations=scale.iterations,
        batch_size=spec["batch_size"],
        disc_steps=1,
        epochs_per_swap=1.0,
        num_batches=spec.get("num_batches"),
        eval_every=scale.eval_every,
        eval_sample_size=scale.eval_sample_size,
        seed=scale.seed,
        **runtime,
    )
    kind = spec["kind"]
    if kind == "standalone":
        trainer = StandaloneGANTrainer(factory, train, config, evaluator=evaluator)
    elif kind == "fl-gan":
        trainer = FLGANTrainer(factory, shards, config, evaluator=evaluator)
    elif kind == "md-gan":
        trainer = MDGANTrainer(factory, shards, config, evaluator=evaluator)
    else:  # pragma: no cover - defensive
        raise ValueError(f"Unknown competitor kind {kind!r}")
    # The backend is trainer-owned since the serving-layer change: close it
    # (uniform across all trainer kinds) so sweep runs don't pile up pools.
    with trainer:
        history = trainer.train()
    history.config["competitor"] = name
    return history


def run_fig3(
    dataset: str = "mnist",
    architecture: str = "mnist-mlp",
    scale: ExperimentScale | str = "smoke",
    competitors: Optional[List[str]] = None,
    **runtime,
) -> ExperimentResult:
    """Reproduce one dataset/architecture cell of Figure 3.

    Parameters
    ----------
    dataset, architecture:
        One of the paper's cells, e.g. ``("mnist", "mnist-mlp")``.
    scale:
        Scale preset name or explicit :class:`ExperimentScale`.
    competitors:
        Optional subset of competitor names to run (default: all six).
    runtime:
        :class:`~repro.core.TrainingConfig` execution fields (``backend``,
        ``max_workers``, ``transport``, ``pipeline_depth``, ``on_slot_loss``,
        ...), passed verbatim into every competitor's config.  All backends
        produce bitwise-identical seeded runs, so the figure's numbers never
        depend on the backend; it only changes wall-clock time.
    """
    scale = get_scale(scale)
    train, test = prepare_dataset(dataset, scale)
    evaluator = prepare_evaluator(train, test, scale)
    factory = prepare_factory(architecture, train, scale)
    shards = prepare_shards(train, scale.num_workers, scale.seed)

    specs = fig3_competitors(scale, scale.num_workers)
    if competitors is not None:
        unknown = set(competitors) - set(specs)
        if unknown:
            raise ValueError(f"Unknown competitors {sorted(unknown)}; known {sorted(specs)}")
        specs = {name: specs[name] for name in competitors}
    result = ExperimentResult(
        name="Figure 3",
        description=(
            f"Dataset score and FID vs iterations on {dataset} / {architecture} "
            f"({scale.num_workers} workers, scale={scale.name})."
        ),
    )
    histories: Dict[str, TrainingHistory] = {}
    for name, spec in specs.items():
        history = _run_competitor(
            name, spec, factory, train, shards, evaluator, scale, runtime
        )
        histories[name] = history
        for evaluation in history.evaluations:
            result.add_row(
                competitor=name,
                iteration=evaluation.iteration,
                score=evaluation.score,
                fid=evaluation.fid,
                modes_covered=evaluation.modes_covered,
            )
    # Summary note: final scores ordering.
    finals = {
        name: history.final_evaluation
        for name, history in histories.items()
        if history.final_evaluation is not None
    }
    if finals:
        best_score = max(finals.items(), key=lambda item: item[1].score)
        best_fid = min(finals.items(), key=lambda item: item[1].fid)
        result.add_note(
            f"best final score: {best_score[0]} ({best_score[1].score:.3f}); "
            f"best final FID: {best_fid[0]} ({best_fid[1].fid:.3f})"
        )
    result.extras["histories"] = {name: h.as_dict() for name, h in histories.items()}
    return result
