"""Figure 5 runner: MD-GAN fault tolerance under worker crashes.

The paper triggers one fail-stop worker crash every ``I / N`` iterations (so
all workers have crashed by the end of the run), with the crashed worker's
data share disappearing from the system.  MD-GAN with ``k = floor(log N)`` is
compared against the same configuration without crashes and against the
standalone baseline with two batch sizes.
"""

from __future__ import annotations

from ..core.config import paper_num_batches
from ..simulation import CrashSchedule, worker_name
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
    crash_schedule = CrashSchedule.uniform(
        [worker_name(i) for i in range(scale.num_workers)], scale.iterations
    )
    standalone = [
        Cell(f"standalone-b{b}", "standalone", {"batch_size": b, "num_batches": None})
        for b in (scale.batch_size_small, scale.batch_size_large)
    ]
    cells = [
        Cell("md-gan-crashes", "md-gan", trainer_kwargs={"crash_schedule": crash_schedule}),
        Cell("md-gan-no-crash", "md-gan"),
        *standalone,
    ]
    setup = prepare(dataset, architecture, scale)
    config = base_config(scale, num_batches=paper_num_batches(scale.num_workers), **runtime)
    runs = run_grid(setup, config, cells)

    result = ExperimentResult(
        name="Figure 5",
        description=(
            f"Score and FID vs iterations on {dataset} / {architecture} with one "
            f"worker crash every I/N iterations (N={scale.num_workers}, "
            f"scale={scale.name})."
        ),
    )
    add_curves(result, runs)
    crash_events = runs[0][1].events_of_kind("crash")
    result.add_note(
        f"{len(crash_events)} workers crashed during the MD-GAN run "
        f"(schedule: one crash every {scale.iterations // scale.num_workers} iterations)"
    )
    return result
