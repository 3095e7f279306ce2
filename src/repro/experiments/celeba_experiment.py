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

from ..core import OptimizerConfig
from .common import (
    Cell,
    ExperimentResult,
    ExperimentScale,
    add_curves,
    base_config,
    get_scale,
    prepare,
    run_grid,
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
    setup = prepare("celeba", "celeba-cnn", scale)
    # N is capped by the loaded train set, so the shards follow the load.
    num_workers = min(num_workers, max(1, len(setup.train) // 2))
    shards = setup.iid_shards(num_workers)

    # Batch sizes follow the paper's ratio: MD-GAN uses b / N so that one
    # generator update consumes the same number of images as the baselines.
    standalone_batch = scale.batch_size_large
    mdgan_batch = max(1, standalone_batch // num_workers)

    standalone_opts = dict(
        generator_opt=OptimizerConfig(learning_rate=3e-3 / 10, beta1=0.5, beta2=0.999),
        discriminator_opt=OptimizerConfig(learning_rate=2e-3 / 10, beta1=0.5, beta2=0.999),
    )
    mdgan_opts = dict(
        batch_size=mdgan_batch,
        generator_opt=OptimizerConfig(learning_rate=1e-3 / 10, beta1=0.0, beta2=0.9),
        discriminator_opt=OptimizerConfig(learning_rate=4e-3 / 10, beta1=0.0, beta2=0.9),
    )
    cells = [
        Cell("standalone", "standalone", standalone_opts),
        Cell(f"fl-gan-N{num_workers}", "fl-gan", standalone_opts, shards),
        Cell(f"md-gan-N{num_workers}", "md-gan", mdgan_opts, shards),
    ]
    runs = run_grid(setup, base_config(scale, batch_size=standalone_batch, **runtime), cells)

    result = ExperimentResult(
        name="Figure 6",
        description=(
            "Inception-style score and FID on the CelebA-like dataset "
            f"(N={num_workers} workers, scale={scale.name}; standalone/FL-GAN "
            f"b={standalone_batch}, MD-GAN b={mdgan_batch})."
        ),
    )
    add_curves(result, runs)
    finals = [(cell.name, h.final_evaluation) for cell, h, _ in runs if h.final_evaluation]
    if finals:
        ordering = sorted(finals, key=lambda item: -item[1].score)
        result.add_note(
            "final score ordering: "
            + ", ".join(f"{name} ({ev.score:.3f})" for name, ev in ordering)
        )
    return result
