"""``repro.serving`` — generation-as-a-service on the warm resident pool.

MD-GAN's central server (conf_ipps_HardyMS19) exists to *serve generated
samples* to a fleet; during training the resident pool already does exactly
that, inside ``train()``.  This package turns the same warm pool into a
request-facing service:

* :class:`GeneratorService` — queued, coalesced, latency-accounted
  ``serve()``/``submit()`` on any execution backend (on the pool: a group
  in flight on every idle slot), with the versioned param cache (an
  unchanged generator ships zero parameter bytes) and fail-stop broadcast.
* :mod:`repro.serving.stats` — the latency/throughput accounting behind the
  ``serve-bench`` experiment (p50/p95/p99, samples/s, coalescing factor).
* :mod:`repro.serving.checkpoint` — serialise service and mid-run trainer
  state (including full :meth:`~repro.datasets.sampler.EpochSampler.
  cursor_state` positions) so a pool survives process restarts without
  retraining.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    load_checkpoint,
    restore_service,
    restore_trainer,
    save_checkpoint,
    service_checkpoint,
    trainer_checkpoint,
)
from .service import GeneratorService, PendingSamples, ServedBatch, ServiceClosed
from .stats import ServingStats

__all__ = [
    "GeneratorService",
    "PendingSamples",
    "ServedBatch",
    "ServiceClosed",
    "ServingStats",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "service_checkpoint",
    "restore_service",
    "trainer_checkpoint",
    "restore_trainer",
    "save_checkpoint",
    "load_checkpoint",
]
