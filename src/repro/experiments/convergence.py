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

from typing import List, Optional

from ..core.config import paper_num_batches
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

__all__ = ["fig3_competitors", "run_fig3"]


def fig3_competitors(scale: ExperimentScale, num_workers: int) -> List[Cell]:
    """The six competitor cells of Figure 3 at the given scale."""
    k_log = paper_num_batches(num_workers)
    small, large = scale.batch_size_small, scale.batch_size_large
    return [
        Cell(f"standalone-b{small}", "standalone", {"batch_size": small}),
        Cell(f"standalone-b{large}", "standalone", {"batch_size": large}),
        Cell(f"fl-gan-b{small}", "fl-gan", {"batch_size": small}),
        Cell(f"fl-gan-b{large}", "fl-gan", {"batch_size": large}),
        Cell("md-gan-k1", "md-gan", {"batch_size": small, "num_batches": 1}),
        Cell(f"md-gan-klog{k_log}", "md-gan", {"batch_size": small, "num_batches": k_log}),
    ]


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
    cells = fig3_competitors(scale, scale.num_workers)
    if competitors is not None:
        known = {cell.name: cell for cell in cells}
        unknown = set(competitors) - set(known)
        if unknown:
            raise ValueError(f"Unknown competitors {sorted(unknown)}; known {sorted(known)}")
        cells = [known[name] for name in dict.fromkeys(competitors)]
    setup = prepare(dataset, architecture, scale)
    runs = run_grid(setup, base_config(scale, **runtime), cells)
    for cell, history, _ in runs:
        history.config["competitor"] = cell.name

    result = ExperimentResult(
        name="Figure 3",
        description=(
            f"Dataset score and FID vs iterations on {dataset} / {architecture} "
            f"({scale.num_workers} workers, scale={scale.name})."
        ),
    )
    add_curves(result, runs, "modes_covered")
    finals = [
        (cell.name, history.final_evaluation)
        for cell, history, _ in runs
        if history.final_evaluation is not None
    ]
    if finals:
        best_score = max(finals, key=lambda item: item[1].score)
        best_fid = min(finals, key=lambda item: item[1].fid)
        result.add_note(
            f"best final score: {best_score[0]} ({best_score[1].score:.3f}); "
            f"best final FID: {best_fid[0]} ({best_fid[1].fid:.3f})"
        )
    return result
