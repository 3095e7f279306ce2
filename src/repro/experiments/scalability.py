"""Figure 4 runner: MD-GAN score vs number of workers.

The paper's Figure 4 varies the number of workers ``N`` in {1, 10, 25, 50}
for MD-GAN with the MNIST MLP architecture and reports the final MNIST score
and FID under four configurations:

* swapping enabled vs disabled (``E = 1`` vs ``E = infinity``),
* constant workload per worker (the batch size ``b`` stays fixed as ``N``
  grows) vs constant workload at the server (``b`` shrinks as ``1/N`` so the
  server processes the same number of images per iteration).

Because the dataset is split over the workers, increasing ``N`` shrinks the
local shards (``|B_n| = |B| / N``), which is the effect the figure studies.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

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

__all__ = ["run_fig4"]


def _batch_size_for_mode(mode: str, base_batch: int, num_workers: int, reference_workers: int) -> int:
    """Batch size under the two workload-normalisation modes of Figure 4."""
    if mode == "constant_worker":
        return base_batch
    if mode == "constant_server":
        return max(1, int(round(base_batch * reference_workers / num_workers)))
    raise ValueError(f"Unknown workload mode {mode!r}")


def run_fig4(
    dataset: str = "mnist",
    architecture: str = "mnist-mlp",
    scale: ExperimentScale | str = "smoke",
    worker_counts: Optional[Sequence[int]] = None,
    modes: Sequence[str] = ("constant_worker", "constant_server"),
    swap_settings: Sequence[bool] = (True, False),
    **runtime,
) -> ExperimentResult:
    """Reproduce Figure 4: final MD-GAN scores as a function of ``N``.

    ``runtime`` (any :class:`TrainingConfig` execution field) goes verbatim
    into each sweep point's config.  Results are bitwise identical across
    backends, but ``backend="thread"``/``"process"`` let the large-``N``
    points use the host's cores instead of running every worker
    sequentially.  A disabled swap is ``epochs_per_swap=math.inf``.
    """
    scale = get_scale(scale)
    if worker_counts is None:
        # The paper uses {1, 10, 25, 50}; scaled presets use a smaller ladder
        # bounded by the dataset size.
        if scale.name == "paper":
            worker_counts = (1, 10, 25, 50)
        else:
            worker_counts = (1, 2, scale.num_workers, scale.num_workers * 2)
    reference_workers = max(1, min(worker_counts, key=lambda n: abs(n - scale.num_workers)))

    setup = prepare(dataset, architecture, scale)
    points, cells = [], []
    for num_workers in worker_counts:
        if num_workers > len(setup.train):
            continue
        shards = setup.iid_shards(num_workers)
        for mode in modes:
            batch_size = _batch_size_for_mode(
                mode, scale.batch_size_small, num_workers, reference_workers
            )
            for swap in swap_settings:
                points.append(
                    dict(
                        num_workers=num_workers,
                        mode=mode,
                        swap=swap,
                        batch_size=batch_size,
                        local_shard_size=len(shards[0]),
                    )
                )
                overrides = dict(
                    batch_size=batch_size, epochs_per_swap=1.0 if swap else math.inf
                )
                cells.append(Cell(f"N{num_workers}-{mode}-swap{swap}", "md-gan", overrides, shards))
    runs = run_grid(setup, base_config(scale, eval_every=scale.iterations, **runtime), cells)

    result = ExperimentResult(
        name="Figure 4",
        description=(
            f"Final MD-GAN score/FID vs number of workers on {dataset} / "
            f"{architecture} (scale={scale.name}); swap on/off and constant "
            "worker vs constant server workload."
        ),
    )
    for point, (_, history, _) in zip(points, runs):
        result.add_row(**point, **final_scores(history))
    result.add_note(
        "constant_worker keeps b fixed as N grows (higher server load); "
        "constant_server shrinks b ~ 1/N to keep the server workload flat."
    )
    return result
