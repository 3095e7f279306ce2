"""Standalone (single-server) GAN training — the paper's baseline.

The standalone GAN has access to the whole dataset ``B`` and trains on a
single machine, exactly as in the original GAN formulation: ``L``
discriminator learning steps followed by one generator learning step per
iteration, both with the Adam optimizer.  That is one FL-GAN worker's local
iteration, so the trainer runs :func:`~repro.runtime.tasks.flgan_step` on a
one-worker state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..datasets.base import ImageDataset
from ..datasets.sampler import EpochSampler
from ..metrics.evaluator import GeneratorEvaluator
from ..models.base import GANFactory
from ..nn.model import Sequential
from ..runtime.tasks import FLGANResidentState, flgan_step
from .config import TrainingConfig
from .gan_ops import GANObjective, draw_generator_input
from .history import TrainingHistory

__all__ = ["StandaloneGANTrainer"]


class StandaloneGANTrainer:
    """Classic single-machine GAN trainer (paper's "standalone GAN")."""

    def __init__(
        self,
        factory: GANFactory,
        dataset: ImageDataset,
        config: TrainingConfig,
        evaluator: Optional[GeneratorEvaluator] = None,
    ) -> None:
        self.factory = factory
        dtype = config.dtype
        self.dataset = dataset.astype(dtype)
        self.config = config
        self.evaluator = evaluator

        self._rng = np.random.default_rng(config.seed)
        self.generator: Sequential = factory.make_generator(self._rng, dtype=dtype)
        self.discriminator: Sequential = factory.make_discriminator(self._rng, dtype=dtype)
        self._gen_opt = config.generator_opt.build()
        self._disc_opt = config.discriminator_opt.build()
        self._objective = GANObjective(
            factory,
            non_saturating=config.non_saturating,
            label_smoothing=config.label_smoothing,
        )
        self._sampler = EpochSampler(self.dataset, config.batch_size, self._rng)
        # The same objects as above, by reference: the step mutates them.
        self._state = FLGANResidentState(
            worker_index=0,
            generator=self.generator,
            discriminator=self.discriminator,
            gen_opt=self._gen_opt,
            disc_opt=self._disc_opt,
            sampler=self._sampler,
            rng=self._rng,
            objective=self._objective,
            disc_steps=config.disc_steps,
            batch_size=config.batch_size,
        )
        self.history = TrainingHistory(
            algorithm="standalone",
            config={
                "batch_size": config.batch_size,
                "iterations": config.iterations,
                "disc_steps": config.disc_steps,
                "dataset": dataset.name,
                "architecture": factory.name,
            },
        )

    # -- sampling interface used by the evaluator -----------------------------
    def sample_images(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Generate ``n`` images from the current generator (evaluation mode)."""
        _, _, g_input = draw_generator_input(self.generator, self.factory, n, rng)
        return self.generator.predict(g_input)

    # -- training ---------------------------------------------------------------
    def train_iteration(self, iteration: int) -> None:
        """Run one global iteration (L discriminator steps + 1 generator step)."""
        step = flgan_step(self._state)
        self.history.record_losses(iteration, step.gen_loss, step.disc_loss)

    def train(self) -> TrainingHistory:
        """Train for ``config.iterations`` iterations and return the history."""
        cfg = self.config
        for iteration in range(1, cfg.iterations + 1):
            self.train_iteration(iteration)
            if (
                self.evaluator is not None
                and cfg.eval_every
                and (iteration % cfg.eval_every == 0 or iteration == cfg.iterations)
            ):
                result = self.evaluator.evaluate(self.sample_images, iteration)
                self.history.record_evaluation(result)
        return self.history

    def close(self) -> None:
        """Release resources — a no-op, for parity with the distributed trainers.

        The standalone trainer holds no execution backend or process pool;
        ``close`` (and the context-manager form) exists so experiment runners
        can dispose of every trainer uniformly.
        """

    def __enter__(self) -> "StandaloneGANTrainer":
        """Context-manager entry (interface parity with the other trainers)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: no resources to release."""
        self.close()
