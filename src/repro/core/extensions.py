"""Extensions of MD-GAN discussed in the paper's perspectives (Section VII).

Two extensions are provided as thin variants of :class:`MDGANTrainer`:

* :class:`AsyncMDGANTrainer` — the "asynchronous setting" of Section VII-1.
  Instead of averaging all worker feedbacks and applying one generator
  update per global iteration, the server applies an update for each
  feedback as it is processed.  The update *schedule* — and therefore the
  staleness of the parameters each worker's feedback was computed on —
  matches the asynchronous variant while the merge order stays
  deterministic, so the variant composes with every execution backend of
  :mod:`repro.runtime` (``TrainingConfig(backend="thread"|"process")``),
  which both subclasses inherit from :class:`MDGANTrainer` unchanged.
* :class:`SampledMDGANTrainer` — the "scaling the number of workers"
  discussion of Section VII-4.  Only a random fraction of workers
  participates in each global iteration, the way federated learning samples
  a subset of devices per round; discriminator swapping still circulates
  models across the full population so the whole distributed dataset is
  eventually leveraged.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..datasets.base import ImageDataset
from ..metrics.evaluator import GeneratorEvaluator
from ..models.base import GANFactory
from ..simulation.failures import CrashSchedule
from .config import TrainingConfig
from .mdgan import MDGANTrainer

__all__ = ["AsyncMDGANTrainer", "SampledMDGANTrainer"]


class AsyncMDGANTrainer(MDGANTrainer):
    """MD-GAN with per-feedback generator updates (Section VII-1)."""

    def __init__(
        self,
        factory: GANFactory,
        shards: Sequence[ImageDataset],
        config: TrainingConfig,
        evaluator: Optional[GeneratorEvaluator] = None,
        crash_schedule: Optional[CrashSchedule] = None,
        swap_enabled: bool = True,
    ) -> None:
        super().__init__(
            factory,
            shards,
            config,
            evaluator=evaluator,
            crash_schedule=crash_schedule,
            swap_enabled=swap_enabled,
            per_feedback_updates=True,
        )
        self.history.algorithm = "md-gan-async"


class SampledMDGANTrainer(MDGANTrainer):
    """MD-GAN with partial worker participation per iteration (Section VII-4)."""

    def __init__(
        self,
        factory: GANFactory,
        shards: Sequence[ImageDataset],
        config: TrainingConfig,
        participation_fraction: float = 0.5,
        evaluator: Optional[GeneratorEvaluator] = None,
        crash_schedule: Optional[CrashSchedule] = None,
        swap_enabled: bool = True,
    ) -> None:
        config = config.with_overrides(participation_fraction=participation_fraction)
        super().__init__(
            factory,
            shards,
            config,
            evaluator=evaluator,
            crash_schedule=crash_schedule,
            swap_enabled=swap_enabled,
        )
        self.history.algorithm = "md-gan-sampled"
