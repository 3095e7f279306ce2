"""Figure 6 runner: validation on the (synthetic) CelebA dataset.

The paper validates MD-GAN on CelebA (200k face images of 128x128) with
``N in {1, 5}`` workers, comparing the Inception score and FID of the
standalone GAN (b=200), FL-GAN (b=200) and MD-GAN (b=40, i.e. 200 images
processed per generator update with 5 workers).  Each competitor uses its own
Adam settings, which the paper tuned separately:

* standalone / FL-GAN: ``lr=0.003 / 0.002``, ``beta1=0.5``, ``beta2=0.999``
  for G / D,
* MD-GAN: ``lr=0.001 / 0.004``, ``beta1=0.0``, ``beta2=0.9`` for G / D.

This runner keeps those relative settings while scaling dataset size, image
size and batch sizes through the experiment scale.
"""

from __future__ import annotations

from typing import Dict

from ..core import (
    FLGANTrainer,
    MDGANTrainer,
    OptimizerConfig,
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

__all__ = ["run_fig6"]


def run_fig6(
    scale: ExperimentScale | str = "smoke",
    num_workers: int = 5,
    **runtime,
) -> ExperimentResult:
    """Reproduce Figure 6: CelebA-like validation of the three competitors.

    ``runtime`` (any :class:`TrainingConfig` execution field) goes verbatim
    into every competitor's config, as in :func:`~repro.experiments.run_fig5`.
    """
    scale = get_scale(scale)
    train, test = prepare_dataset("celeba", scale)
    evaluator = prepare_evaluator(train, test, scale)
    factory = prepare_factory("celeba-cnn", train, scale)
    num_workers = min(num_workers, max(1, len(train) // 2))
    shards = prepare_shards(train, num_workers, scale.seed)

    # Batch sizes follow the paper's ratio: MD-GAN uses b / N so that one
    # generator update consumes the same number of images as the baselines.
    standalone_batch = scale.batch_size_large
    mdgan_batch = max(1, standalone_batch // num_workers)

    standalone_opts = dict(
        generator_opt=OptimizerConfig(learning_rate=3e-3 / 10, beta1=0.5, beta2=0.999),
        discriminator_opt=OptimizerConfig(learning_rate=2e-3 / 10, beta1=0.5, beta2=0.999),
    )
    mdgan_opts = dict(
        generator_opt=OptimizerConfig(learning_rate=1e-3 / 10, beta1=0.0, beta2=0.9),
        discriminator_opt=OptimizerConfig(learning_rate=4e-3 / 10, beta1=0.0, beta2=0.9),
    )

    base = TrainingConfig(
        iterations=scale.iterations,
        batch_size=standalone_batch,
        epochs_per_swap=1.0,
        eval_every=scale.eval_every,
        eval_sample_size=scale.eval_sample_size,
        seed=scale.seed,
        **runtime,
    )

    histories: Dict[str, TrainingHistory] = {}
    with StandaloneGANTrainer(
        factory, train, base.with_overrides(**standalone_opts), evaluator=evaluator
    ) as standalone:
        histories["standalone"] = standalone.train()

    with FLGANTrainer(
        factory, shards, base.with_overrides(**standalone_opts), evaluator=evaluator
    ) as flgan:
        histories[f"fl-gan-N{num_workers}"] = flgan.train()

    with MDGANTrainer(
        factory,
        shards,
        base.with_overrides(batch_size=mdgan_batch, **mdgan_opts),
        evaluator=evaluator,
    ) as mdgan:
        histories[f"md-gan-N{num_workers}"] = mdgan.train()

    result = ExperimentResult(
        name="Figure 6",
        description=(
            "Inception-style score and FID on the CelebA-like dataset "
            f"(N={num_workers} workers, scale={scale.name}; standalone/FL-GAN "
            f"b={standalone_batch}, MD-GAN b={mdgan_batch})."
        ),
    )
    for name, history in histories.items():
        for evaluation in history.evaluations:
            result.add_row(
                competitor=name,
                iteration=evaluation.iteration,
                score=evaluation.score,
                fid=evaluation.fid,
            )
    finals = {
        name: h.final_evaluation for name, h in histories.items() if h.final_evaluation
    }
    if finals:
        ordering = sorted(finals.items(), key=lambda item: -item[1].score)
        result.add_note(
            "final score ordering: "
            + ", ".join(f"{name} ({ev.score:.3f})" for name, ev in ordering)
        )
    result.extras["histories"] = {k: h.as_dict() for k, h in histories.items()}
    return result
