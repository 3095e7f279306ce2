"""``repro.core`` — the paper's training algorithms.

* :class:`StandaloneGANTrainer` — single-server baseline GAN.
* :class:`FLGANTrainer` — federated learning adapted to GANs (FL-GAN).
* :class:`MDGANTrainer` — the MD-GAN algorithm (single server-side generator,
  per-worker discriminators, error-feedback aggregation, discriminator
  swapping).  The Section VII perspectives are modes of its
  :class:`TrainingConfig`: ``aggregation="async"`` for the asynchronous
  setting and ``participation_fraction`` for sampling workers.
"""

from .config import OptimizerConfig, TrainingConfig, resolve_num_batches
from .flgan import FLGANTrainer, FLGANWorkerState
from .gan_ops import (
    GANObjective,
    GeneratedBatch,
    apply_feedback_to_generator,
    discriminator_update,
    generator_feedback,
    generator_update,
    sample_generator_images,
)
from .history import TrainingHistory
from .mdgan import MDGANTrainer, MDGANWorkerState
from .standalone import StandaloneGANTrainer

__all__ = [
    "OptimizerConfig",
    "TrainingConfig",
    "resolve_num_batches",
    "TrainingHistory",
    "GANObjective",
    "GeneratedBatch",
    "discriminator_update",
    "generator_feedback",
    "generator_update",
    "apply_feedback_to_generator",
    "sample_generator_images",
    "StandaloneGANTrainer",
    "FLGANTrainer",
    "FLGANWorkerState",
    "MDGANTrainer",
    "MDGANWorkerState",
]
