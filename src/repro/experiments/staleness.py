"""Staleness-vs-convergence sweep (beyond the paper's figures).

Both relaxations of the strict synchronous schedule trade staleness for
wall-clock overlap:

* the **pipelined** schedule (``TrainingConfig.pipeline_depth > 0``) lets the
  server pre-generate up to ``depth`` future batch sets, introducing a
  bounded *batch* staleness;
* **asynchronous aggregation** (``TrainingConfig(aggregation="async")``)
  buffers completion-order worker contributions and folds them in
  staleness-weighted flushes under the bounded-staleness gate
  (:mod:`repro.core.async_aggregation`).

:func:`run_staleness_sweep` runs one MD-GAN cell (fig3-style) through the
synchronous baseline, the pipelined schedule at depths 1-4, the async
schedule at staleness bounds 1-4 and the composed ``async+pipelined``
schedule at (bound, depth) pairs, and reports the realised staleness
distribution (mean / max / p95), the final scores and the wall-clock time of
each run — the convergence-vs-staleness picture neither Figure 3 nor
Figure 5 captures.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence, Tuple

from ..core import MDGANTrainer, TrainingConfig, TrainingHistory
from .common import (
    ExperimentResult,
    ExperimentScale,
    get_scale,
    prepare_dataset,
    prepare_evaluator,
    prepare_factory,
    prepare_shards,
)

__all__ = ["run_staleness_sweep"]


def run_staleness_sweep(
    dataset: str = "mnist",
    architecture: str = "mnist-mlp",
    scale: ExperimentScale | str = "smoke",
    depths: Sequence[int] = (1, 2, 3, 4),
    staleness_bounds: Sequence[int] = (1, 2, 3, 4),
    composed: Sequence[Tuple[int, int]] = ((1, 1), (2, 2)),
    **runtime,
) -> ExperimentResult:
    """Sweep pipeline depths and async staleness bounds on one MD-GAN cell.

    Every run shares the dataset, architecture, shards and seed; only the
    schedule changes.  Rows report the mode (``sync`` / ``pipelined`` /
    ``async`` / ``async+pipelined``), the schedule parameter (depth or
    bound; composed rows carry the bound in ``parameter`` and the lookahead
    window in ``depth``), the realised staleness aggregates from the
    history's overlap summary, the final score/FID and the measured
    wall-clock seconds.  ``runtime`` (any :class:`TrainingConfig`
    execution field) goes verbatim into the base config, as in
    :func:`~repro.experiments.run_fig5`.  The sweep then pins its own
    fields after it: ``pipeline_depth`` (0 unless the row sweeps a depth, so
    a runtime ``pipeline_depth`` is overridden) and, on async rows,
    ``aggregation`` and ``max_staleness``.  Async rows are only
    *concurrent* (and therefore only interesting) on the parallel backends.
    """
    scale = get_scale(scale)
    train, test = prepare_dataset(dataset, scale)
    evaluator = prepare_evaluator(train, test, scale)
    factory = prepare_factory(architecture, train, scale)
    shards = prepare_shards(train, scale.num_workers, scale.seed)

    base = TrainingConfig(
        iterations=scale.iterations,
        batch_size=scale.batch_size_small,
        epochs_per_swap=1.0,
        eval_every=scale.eval_every,
        eval_sample_size=scale.eval_sample_size,
        seed=scale.seed,
        **runtime,
    ).with_overrides(pipeline_depth=0)

    runs = [("sync", 0, 0, base)]
    for depth in depths:
        runs.append(
            ("pipelined", int(depth), int(depth), base.with_overrides(pipeline_depth=int(depth)))
        )
    for bound in staleness_bounds:
        runs.append(
            (
                "async",
                int(bound),
                0,
                base.with_overrides(aggregation="async", max_staleness=int(bound)),
            )
        )
    for bound, depth in composed:
        runs.append(
            (
                "async+pipelined",
                int(bound),
                int(depth),
                base.with_overrides(
                    aggregation="async",
                    max_staleness=int(bound),
                    pipeline_depth=int(depth),
                ),
            )
        )

    result = ExperimentResult(
        name="Staleness sweep",
        description=(
            f"Convergence vs realised staleness for the synchronous, pipelined "
            f"(depth 1-{max(depths) if depths else 0}), bounded-staleness "
            f"async (bound 1-{max(staleness_bounds) if staleness_bounds else 0}) "
            f"and composed async+pipelined ({len(tuple(composed))} bound/depth "
            f"pairs) schedules on {dataset} / {architecture} "
            f"(N={scale.num_workers}, backend={base.backend}, scale={scale.name})."
        ),
    )
    histories: Dict[str, TrainingHistory] = {}
    for mode, param, depth, config in runs:
        label = {
            "sync": "sync",
            "pipelined": f"depth-{param}",
            "async": f"bound-{param}",
            "async+pipelined": f"bound-{param}-depth-{depth}",
        }[mode]
        started = time.perf_counter()
        with MDGANTrainer(factory, shards, config, evaluator=evaluator) as trainer:
            history = trainer.train()
        wall_seconds = time.perf_counter() - started
        histories[label] = history
        final = history.final_evaluation
        overlap = history.overlap
        result.add_row(
            mode=mode,
            parameter=param,
            depth=depth,
            score=final.score if final else float("nan"),
            fid=final.fid if final else float("nan"),
            mean_staleness=overlap.get("mean_staleness", 0.0),
            max_staleness=overlap.get("max_staleness", 0.0),
            p95_staleness=overlap.get("p95_staleness", 0.0),
            max_worker_staleness=history.max_worker_staleness(),
            lookahead_generations=overlap.get("lookahead_generations", 0.0),
            iterations=len(history.iterations),
            wall_seconds=wall_seconds,
        )
        if mode in ("async", "async+pipelined") and history.max_worker_staleness() > param:
            raise AssertionError(
                f"bounded-staleness contract violated: {history.max_worker_staleness()} "
                f"> {param} in run {label}"
            )
    result.add_note(
        "Both schedules bound the recorded staleness by their parameter; "
        "async mode additionally enforces it per worker contribution "
        "(max_worker_staleness column).  Composed async+pipelined rows keep "
        "the per-contribution bound while pre-generating up to `depth` batch "
        "sets (lookahead_generations column)."
    )
    result.extras["histories"] = {name: h.as_dict() for name, h in histories.items()}
    return result
