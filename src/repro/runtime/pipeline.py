"""Pipelined execution mode: overlap server work with worker compute.

The synchronous trainers are strictly phase-serial inside one global
iteration: the server generates ``k`` batches, *waits* for every worker's
discriminator steps and feedback, then aggregates — so the server sits idle
while the workers compute and vice versa, on every backend.  This module
provides the building blocks for the opt-in **pipelined** mode
(``TrainingConfig(pipeline_depth=d)`` / ``--pipeline-depth d``) in which the
server runs ahead of the workers by up to ``d`` iterations:

* while the workers compute iteration ``t`` (dispatched asynchronously
  through :meth:`~repro.runtime.resident.ResidentBackend.start_steps`; on
  ``serial``'s inline slot it is answered at dispatch), the server
  pre-generates the batches for iterations ``t+1 .. t+d`` into a
  :class:`BatchAheadQueue`;
* batches consumed from the queue are **stale**: the batch set for iteration
  ``t`` was produced by a generator that had only absorbed the feedback of
  iterations ``1 .. t-1-s`` (``s`` = staleness, ``<= d``), whereas the
  synchronous schedule always generates with ``s = 0``.  Each iteration's
  staleness is recorded in :class:`~repro.core.history.TrainingHistory` so
  convergence-vs-staleness trade-offs (the paper's Section VII-1 asynchronous
  setting) can be quantified;
* when the queue misses (cold start, post-crash), the iteration generates
  its batch set inline, on the spot.  The ``resident`` backend runs its
  lookahead generation on the pool's dedicated generation op
  (:func:`start_resident_generation`, asynchronous), so there lookahead
  generation leaves the trainer thread entirely; ``serial``
  declines the generation op and generates the lookahead inline.

``pipeline_depth = 0`` (the default) keeps the synchronous schedule and is
bitwise identical to every execution backend's historical behaviour; any
``d > 0`` relaxes that parity — deliberately, behind the explicit opt-in —
while remaining deterministic: for a fixed seed *and* fixed depth, every
backend still produces the same trajectory.

FL-GAN needs no staleness at all: its local iterations between federated
rounds leave the server model untouched, so pipelining there only overlaps
the trainer's merge/bookkeeping with the pool's compute (see
:class:`InflightWindow`) and preserves bitwise parity at **every** depth.

Resident generation
-------------------

:func:`start_resident_generation` runs the server's ``k``-batch generation
(``MDGANTrainer._generate_batches``) on resident pool slots while
reproducing the serial loop bit for bit:

* all noise/label draws happen first, on the caller's RNG, in the exact order
  the serial loop would make them (forward passes consume no server RNG);
* each batch's forward pass runs on a slot's **copy** of the generator, as
  one segment of the pass over all the batches that slot was given;
* :class:`~repro.nn.layers.BatchNorm` normalises by *batch* statistics in
  training mode, so the images do not depend on the running statistics;
  each batch's ``batch_stats(j)`` come back with its images and are folded
  into the caller's generator in batch order (``BatchNorm.fold``);
* the batches carry no snapshot (it never travels), so feedback replays them.

Generators containing layers whose forward pass consumes a private RNG
(:class:`~repro.nn.layers.Dropout`) cannot be reproduced on copies; for those
(and on ``serial``, whose inline slot declines the op: a slot generation
ships no forward snapshot, so every generator forward would be replayed)
:func:`start_resident_generation` returns ``None`` and the caller
generates inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.gan_ops import GeneratedBatch, draw_generator_input
from ..nn.layers import Dropout

__all__ = [
    "BatchAheadQueue",
    "PipelineStats",
    "InflightWindow",
    "GeneratorHandle",
    "PendingGeneration",
    "start_resident_generation",
    "can_generate_resident",
]


# -- lookahead queue ---------------------------------------------------------------


@dataclass
class _QueuedBatches:
    target_iteration: int
    batches: List[GeneratedBatch]
    generated_at_update: int


class BatchAheadQueue:
    """FIFO queue of pre-generated batch sets keyed by target iteration.

    The pipelined MD-GAN loop fills it while workers compute (one batch set
    per future iteration, up to the configured depth) and pops the entry for
    iteration ``t`` at the top of iteration ``t``.  Each entry remembers the
    server's generator-update counter at generation time; the consumer
    derives the realised staleness as ``updates_now - generated_at_update``
    (missed updates, which is robust to iterations that applied no update).
    Entries for iterations that were skipped are discarded on the next pop.
    """

    def __init__(self) -> None:
        self._entries: List[_QueuedBatches] = []
        #: Highest iteration a batch set was ever generated for; the filler
        #: uses it to keep targets contiguous across pops and skips.
        self.last_target = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(
        self,
        target_iteration: int,
        batches: List[GeneratedBatch],
        generated_at_update: int,
    ) -> None:
        """Queue ``batches`` for ``target_iteration`` (targets must ascend)."""
        if target_iteration <= self.last_target:
            raise ValueError(
                f"lookahead targets must ascend: got {target_iteration} after "
                f"{self.last_target}"
            )
        self._entries.append(_QueuedBatches(target_iteration, batches, generated_at_update))
        self.last_target = target_iteration

    def pop(self, iteration: int) -> Optional[Tuple[List[GeneratedBatch], int]]:
        """Return ``(batches, generated_at_update)`` for ``iteration``, or ``None``.

        Entries for earlier iterations are dropped (their iteration never
        consumed them — e.g. it ran without participants).
        """
        while self._entries and self._entries[0].target_iteration < iteration:
            self._entries.pop(0)
        if self._entries and self._entries[0].target_iteration == iteration:
            entry = self._entries.pop(0)
            return entry.batches, entry.generated_at_update
        return None

    def clear(self) -> None:
        """Drop every queued batch set and reset the target high-water mark.

        A cleared queue behaves exactly like a freshly constructed one:
        ``last_target`` returns to 0, so a crash-path clear followed by a
        refill at an *earlier* target than the pre-clear high-water mark is
        legitimate and no longer trips the ascending-target check.  (The
        check exists to stop a filler from double-generating a target within
        one queue generation; after a clear there is nothing left to
        double-generate against.)  Pinned by
        ``tests/runtime/test_pipeline_mode.py::TestBatchAheadQueue``.
        """
        self._entries.clear()
        self.last_target = 0


# -- run statistics ----------------------------------------------------------------


@dataclass
class PipelineStats:
    """Counters describing how much pipelining a run actually achieved.

    Summarised into ``TrainingHistory.overlap`` at the end of training so
    experiment reports can tell a genuinely overlapped run from one that
    degenerated to the synchronous schedule (e.g. depth 0).
    """

    depth: int
    #: Batch sets generated ahead of time, while workers were computing.
    lookahead_generations: int = 0
    #: Batch sets generated on demand at the top of their own iteration
    #: (cold start, or the queue was invalidated/missed).
    immediate_generations: int = 0
    #: Lookahead batch sets whose forward passes ran inside resident pool
    #: slots (off the trainer thread) via :func:`start_resident_generation`.
    resident_generations: int = 0
    #: Per-iteration staleness values observed (mirrors the history column).
    staleness_values: List[int] = field(default_factory=list)
    #: Largest number of simultaneously in-flight worker step batches.
    max_in_flight: int = 0

    def observe_in_flight(self, count: int) -> None:
        """Record an in-flight window size."""
        self.max_in_flight = max(self.max_in_flight, count)

    def record_staleness(self, staleness: int) -> None:
        """Record one iteration's batch staleness."""
        self.staleness_values.append(int(staleness))

    def as_overlap_dict(self) -> Dict[str, float]:
        """JSON-friendly summary stored in ``TrainingHistory.overlap``.

        ``iterations`` counts the staleness observations behind the
        aggregates (one per recorded iteration/update), so sweep reports can
        weight or sanity-check the mean/p95/max without re-deriving them
        from the raw history column.
        """
        values = self.staleness_values
        return {
            "pipeline_depth": float(self.depth),
            "lookahead_generations": float(self.lookahead_generations),
            "immediate_generations": float(self.immediate_generations),
            "resident_generations": float(self.resident_generations),
            "max_in_flight": float(self.max_in_flight),
            "mean_staleness": float(np.mean(values)) if values else 0.0,
            "max_staleness": float(max(values)) if values else 0.0,
            "p95_staleness": float(np.percentile(values, 95)) if values else 0.0,
            "iterations": float(len(values)),
        }


# -- in-flight window (FL-GAN) -----------------------------------------------------


class InflightWindow:
    """Bounded FIFO of dispatched-but-unmerged iterations.

    Used by the pipelined FL-GAN loop: up to ``depth`` iterations may stay in
    flight behind the newest dispatch, so the trainer's merge/bookkeeping for
    iteration ``t`` overlaps the pool's compute for ``t+1``.  ``drain``
    yields the oldest entries first, preserving merge order — which is why
    pipelined FL-GAN remains bitwise identical to the synchronous schedule.
    """

    def __init__(self, depth: int) -> None:
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.depth = depth
        self._entries: List[Tuple[Any, ...]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, entry: Tuple[Any, ...]) -> None:
        """Append a dispatched iteration's bookkeeping tuple."""
        self._entries.append(entry)

    def drain(self, limit: Optional[int] = None):
        """Yield entries FIFO until ``len() <= limit`` (default: the depth)."""
        target = self.depth if limit is None else limit
        while len(self._entries) > target:
            yield self._entries.pop(0)


# -- resident-side generation ------------------------------------------------------


# The resident pool's dedicated generation op installs a generator copy once
# per slot and ships current parameters only when the handle's version says
# the slot copy is stale.  ``start_resident_generation`` is asynchronous — the
# returned handle lets the pipelined MD-GAN iteration keep lookahead
# generation in flight while it merges worker results, which is what moves
# lookahead generation off the trainer thread on ``resident``.

#: Well-known resident key under which the server generator is installed
#: (internal; the public surface is :class:`GeneratorHandle`).
_GENERATOR_KEY = "__server_generator__"


@dataclass
class GeneratorHandle:
    """Typed, versioned identity of a generator installed on pool slots.

    ``key`` names the resident generator copy on each slot (structure
    installs are tracked per slot under it); ``version`` is a monotonic
    counter identifying the current *parameters* of the generator the handle
    describes.

    The resident backend caches, per ``(key, slot)``, the version whose flat
    parameter vector it last shipped: a request whose handle version matches
    ships **zero parameter bytes** — the slot's copy is already bit-identical
    — while any mismatch re-ships and updates the cache.  Callers must
    therefore :meth:`bump` the handle on *every* mutation of the generator's
    parameters (optimizer step, ``set_parameters``) before the next dispatch;
    a stale version would silently serve old weights.

    ``version=None`` marks the handle *unversioned*: parameters re-ship on
    every request (the pre-handle behaviour, and the safe default when no one
    tracks generator updates).
    """

    key: str = _GENERATOR_KEY
    version: Optional[int] = None

    def bump(self) -> None:
        """Advance the version after a parameter mutation (cache invalidation)."""
        self.version = 0 if self.version is None else self.version + 1


def can_generate_resident(backend, generator, k: int) -> bool:
    """Whether :func:`start_resident_generation` can run exactly for this setup.

    A single batch (``k == 1``) qualifies — even one forward pass is worth
    moving off the trainer thread when it can overlap the merge/aggregation
    work.
    """
    if k < 1 or not getattr(backend, "supports_resident_generation", False):
        return False
    if not getattr(generator, "built", False):
        return False
    # Dropout draws masks from a layer-private RNG whose advancement depends
    # on execution order; copies cannot reproduce the serial stream.
    return not any(isinstance(layer, Dropout) for layer in generator.layers)


class PendingGeneration:
    """In-flight resident k-batch generation; ``collect()`` finishes it.

    Keeps the trainer-side halves of the bitwise contract next to the
    backend's :class:`~repro.runtime.resident.PendingSteps` handle: the noise
    and labels drawn serially at dispatch, and the BatchNorm fold that
    ``collect()`` applies in batch order.
    """

    def __init__(self, handle, generator, drawn) -> None:
        self._handle = handle
        self._generator = generator
        #: Per batch, the ``(noise, labels, g_input)`` drawn at dispatch.
        self._drawn = drawn

    def collect(self) -> List[GeneratedBatch]:
        """Receive the slot replies, fold BatchNorm stats, build the batches."""
        outputs = self._handle.result()
        for _, stats in outputs:
            self._generator.fold_batch_stats(stats)
        return [
            GeneratedBatch(images=images, noise=noise, labels=labels, batch_index=j)
            for j, ((images, _), (noise, labels, _)) in enumerate(zip(outputs, self._drawn))
        ]


def start_resident_generation(
    backend,
    generator,
    factory,
    batch_size: int,
    k: int,
    rng: np.random.Generator,
    handle: Optional[GeneratorHandle] = None,
) -> Optional[PendingGeneration]:
    """Dispatch ``k``-batch generation onto resident pool slots, non-blocking.

    Draws all noise/labels from ``rng`` first (same order as ``k`` serial
    :func:`~repro.core.gan_ops.sample_generator_images` calls), ships the
    generator inputs to the pool via
    :meth:`~repro.runtime.resident.ResidentBackend.start_generation` (batch
    ``j`` on the ``j``-th slot from the least loaded, parameters attached), and
    returns a :class:`PendingGeneration` whose ``collect()`` yields batches
    bitwise identical to the serial loop.  Returns ``None`` when exact
    resident generation is not possible (see :func:`can_generate_resident`);
    the caller then generates inline.

    ``handle`` identifies the generator on the pool slots.  A *versioned*
    handle (one whose owner bumps it on every parameter update, as
    ``MDGANTrainer`` and ``repro.serving.GeneratorService`` do) lets the
    backend skip the parameter payload whenever the slot copy is already
    current — bitwise-neutral, since the skip only happens when the shipped
    vector would be identical.  ``None`` builds an unversioned default handle
    whose parameters re-ship every request.
    """
    if not can_generate_resident(backend, generator, k):
        return None
    if handle is None:
        handle = GeneratorHandle()
    drawn = [draw_generator_input(generator, factory, batch_size, rng) for _ in range(k)]
    pending = backend.start_generation(
        handle,
        lambda: generator,
        generator.get_parameters,
        [g_input for _, _, g_input in drawn],
    )
    return PendingGeneration(pending, generator, drawn)
