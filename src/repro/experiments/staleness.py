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

from typing import Sequence, Tuple

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
    base = base_config(scale, **runtime).with_overrides(pipeline_depth=0)
    # (mode, parameter, depth, cell) per run.
    points = [("sync", 0, 0, Cell("sync", "md-gan"))]
    for d in map(int, depths):
        points.append(("pipelined", d, d, Cell(f"depth-{d}", "md-gan", {"pipeline_depth": d})))
    for b in map(int, staleness_bounds):
        overrides = {"aggregation": "async", "max_staleness": b}
        points.append(("async", b, 0, Cell(f"bound-{b}", "md-gan", overrides)))
    for b, d in composed:
        b, d = int(b), int(d)
        overrides = {"aggregation": "async", "max_staleness": b, "pipeline_depth": d}
        points.append(("async+pipelined", b, d, Cell(f"bound-{b}-depth-{d}", "md-gan", overrides)))
    setup = prepare(dataset, architecture, scale)
    runs = run_grid(setup, base, [point[3] for point in points])

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
    for (mode, param, depth, cell), (_, history, wall_seconds) in zip(points, runs):
        overlap = history.overlap
        result.add_row(
            mode=mode,
            parameter=param,
            depth=depth,
            **final_scores(history),
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
                f"> {param} in run {cell.name}"
            )
    result.add_note(
        "Both schedules bound the recorded staleness by their parameter; "
        "async mode additionally enforces it per worker contribution "
        "(max_worker_staleness column).  Composed async+pipelined rows keep "
        "the per-contribution bound while pre-generating up to `depth` batch "
        "sets (lookahead_generations column)."
    )
    result.extras["histories"] = {cell.name: h.as_dict() for cell, h, _ in runs}
    return result
