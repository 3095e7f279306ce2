"""Figure 5 runner: MD-GAN fault tolerance under worker crashes.

The paper triggers one fail-stop worker crash every ``I / N`` iterations (so
all workers have crashed by the end of the run), with the crashed worker's
data share disappearing from the system.  MD-GAN with ``k = floor(log N)`` is
compared against the same configuration without crashes and against the
standalone baseline with two batch sizes.
"""

from __future__ import annotations

import math
from typing import Dict

from ..core import MDGANTrainer, StandaloneGANTrainer, TrainingConfig, TrainingHistory
from ..simulation import CrashSchedule, worker_name
from .common import (
    ExperimentResult,
    ExperimentScale,
    get_scale,
    prepare_dataset,
    prepare_evaluator,
    prepare_factory,
    prepare_shards,
)

__all__ = ["run_fig5"]


def run_fig5(
    dataset: str = "mnist",
    architecture: str = "mnist-mlp",
    scale: ExperimentScale | str = "smoke",
    **runtime,
) -> ExperimentResult:
    """Reproduce Figure 5: scores vs iterations with a rolling crash schedule.

    ``runtime`` (any :class:`TrainingConfig` execution field: ``backend``,
    ``max_workers``, ``transport``, ``on_slot_loss``, ...) goes verbatim
    into every competitor's config; crash handling is backend-independent
    (crashes apply at iteration boundaries, before the per-worker fan-out).
    ``pipeline_depth > 0`` runs the MD-GAN competitors under the pipelined
    schedule, so this figure doubles as the staleness-vs-convergence probe:
    each history records the realised per-iteration batch staleness
    alongside the scores.
    """
    scale = get_scale(scale)
    train, test = prepare_dataset(dataset, scale)
    evaluator = prepare_evaluator(train, test, scale)
    factory = prepare_factory(architecture, train, scale)
    shards = prepare_shards(train, scale.num_workers, scale.seed)

    k_log = max(
        1, int(math.floor(math.log(scale.num_workers))) if scale.num_workers > 1 else 1
    )
    base_config = TrainingConfig(
        iterations=scale.iterations,
        batch_size=scale.batch_size_small,
        num_batches=k_log,
        epochs_per_swap=1.0,
        eval_every=scale.eval_every,
        eval_sample_size=scale.eval_sample_size,
        seed=scale.seed,
        **runtime,
    )
    crash_schedule = CrashSchedule.uniform(
        [worker_name(i) for i in range(scale.num_workers)], scale.iterations
    )

    histories: Dict[str, TrainingHistory] = {}

    with MDGANTrainer(
        factory, shards, base_config, evaluator=evaluator, crash_schedule=crash_schedule
    ) as trainer:
        histories["md-gan-crashes"] = trainer.train()

    with MDGANTrainer(factory, shards, base_config, evaluator=evaluator) as trainer:
        histories["md-gan-no-crash"] = trainer.train()

    for batch_size in (scale.batch_size_small, scale.batch_size_large):
        config = base_config.with_overrides(batch_size=batch_size, num_batches=None)
        with StandaloneGANTrainer(factory, train, config, evaluator=evaluator) as standalone:
            histories[f"standalone-b{batch_size}"] = standalone.train()

    result = ExperimentResult(
        name="Figure 5",
        description=(
            f"Score and FID vs iterations on {dataset} / {architecture} with one "
            f"worker crash every I/N iterations (N={scale.num_workers}, "
            f"scale={scale.name})."
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
    crash_events = histories["md-gan-crashes"].events_of_kind("crash")
    result.add_note(
        f"{len(crash_events)} workers crashed during the MD-GAN run "
        f"(schedule: one crash every {scale.iterations // scale.num_workers} iterations)"
    )
    result.extras["histories"] = {k: h.as_dict() for k, h in histories.items()}
    return result
