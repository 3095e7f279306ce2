"""The unified execution engine: one dispatch → collect → merge schedule.

Both trainers (:class:`~repro.core.mdgan.MDGANTrainer`,
:class:`~repro.core.flgan.FLGANTrainer`) used to carry four hand-rolled
loops — synchronous, pipelined, asynchronous and elastic — that were
pairwise forbidden by ``TrainingConfig`` guards because each loop owned its
own notion of a barrier.  :class:`ExecutionEngine` owns the schedule once
and expresses the modes as composable policies on it:

* **sync** is a depth-0 lookahead with a full-drain barrier: every
  iteration dispatches, collects everything, merges, and only then starts
  the next iteration;
* **pipelining** is a lookahead window on the same schedule — up to
  ``pipeline_depth`` units of future work (batch sets for MD-GAN, local
  iterations for FL-GAN) run ahead of the barrier;
* **async** replaces the full-drain barrier with the
  :class:`~repro.core.async_aggregation.BoundedStalenessScheduler` gate:
  the barrier "opens" (a flush is applied) whenever contributions are
  buffered and one more update cannot push any in-flight unit past the
  staleness bound;
* **elastic** is one membership boundary, owned by the trainer's
  :class:`~repro.core.elastic.MembershipController` and called only from
  here: after every synchronous iteration (a slot loss first drains the
  lookahead window through the trainer's pipeline hooks), and behind a
  drain barrier of the asynchronous schedule whenever a loss is pending.
  Either way the boundary (evict/wait, admit, revive, rebalance, mirror,
  publish) runs against a quiescent pool.

The engine is deliberately thin: trainer-specific bodies (what a unit *is*,
how it merges) stay on the trainers as hook methods, declared with inert
defaults on :class:`EngineHooks`.  Every mode that was legal before this
engine existed runs **bitwise identical** schedules through it — the parity
suite pins that — and the previously forbidden compositions now run through
the same code path instead of raising.

``CAPABILITY_MATRIX`` + :func:`check_composition` are the single source of
truth for which compositions are supported; ``TrainingConfig`` validation
delegates here so an unsupported combination fails at construction time
with an error naming the matrix, never as a deep runtime error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..runtime.membership import LOST, SlotLossError
from ..runtime.pipeline import PipelineStats
from .async_aggregation import BoundedStalenessScheduler

__all__ = [
    "CAPABILITY_MATRIX",
    "check_composition",
    "AsyncContext",
    "EngineHooks",
    "ExecutionEngine",
    "UnitAccountingError",
]


#: The mode-composition support matrix.  ``TrainingConfig.__post_init__``
#: validates against this table via :func:`check_composition`; README's
#: support matrix and the ARCHITECTURE.md "execution engine" section render
#: the same facts for humans.  Keep the three views in sync.
CAPABILITY_MATRIX: Dict[str, Any] = {
    "axes": {
        "aggregation": ("sync", "async"),
        "pipeline_depth": "0 (synchronous barrier) or a positive lookahead window",
        "on_slot_loss": ("fail_stop", "degrade", "wait"),
        "participation_fraction": "(0, 1]",
        "backend": ("serial", "thread", "process", "resident"),
    },
    "supported": (
        "sync x any pipeline_depth x any membership policy x any participation",
        "async x pipeline_depth > 0: the server pre-generates batch sets "
        "while the staleness gate is open (MD-GAN); FL-GAN's async unit is "
        "already a single local iteration, so the depth is accepted and "
        "recorded but adds no extra lookahead",
        "async x participation_fraction < 1: units from deselected workers "
        "are discarded through the scheduler, the same accounting as the "
        "synchronous schedule's final-round discard",
        "async x on_slot_loss in (degrade, wait): a pending loss drains "
        "the collector, then the synchronous schedule's membership "
        "boundary runs against the quiescent pool",
        "elastic (degrade/wait) x pipeline_depth > 0: the in-flight window "
        "drains before any membership remap touches the pool",
    ),
    "unsupported": {
        "elastic x non-resident backend": (
            "only the resident pool has slots to lose and a membership "
            "layer to heal them; on_slot_loss != 'fail_stop' requires "
            "backend='resident'"
        ),
    },
}


def check_composition(config: Any) -> None:
    """Validate a config's mode composition against :data:`CAPABILITY_MATRIX`.

    Raises ``ValueError`` naming the capability matrix for any combination
    listed under ``CAPABILITY_MATRIX["unsupported"]``; everything else is a
    supported composition and passes silently.
    """
    if config.on_slot_loss != "fail_stop" and config.backend != "resident":
        raise ValueError(
            "unsupported mode composition 'elastic x non-resident backend': "
            + CAPABILITY_MATRIX["unsupported"]["elastic x non-resident backend"]
            + " (see repro.core.engine.CAPABILITY_MATRIX)"
        )


class UnitAccountingError(RuntimeError):
    """An answer arrived for a worker key with no outstanding unit."""

    def __init__(self, key: Any) -> None:
        super().__init__(
            f"answer for worker {key!r}, which has no outstanding unit "
            "(answered twice, or never dispatched)"
        )
        self.key = key


@dataclass
class AsyncContext:
    """Mutable per-run state threaded through the async schedule's hooks.

    The engine owns the common fields (scheduler, stats, collector, the
    outstanding units, the lookahead store, swap bookkeeping, the
    participation set); trainers may attach extra per-run
    state (FL-GAN keeps its round progress here) — the dataclass is
    intentionally not slotted.
    """

    #: The staleness gate deciding when the barrier opens.
    sched: BoundedStalenessScheduler
    #: Overlap/staleness accounting shared with the pipelined schedule.
    stats: PipelineStats
    #: The backend's completion-order collector for this run.
    collector: Any
    #: The engine driving this run (hooks may reach its helpers).
    engine: Optional["ExecutionEngine"] = None
    #: Worker key -> its one dispatched, unanswered unit (see
    #: :meth:`ExecutionEngine.dispatch`).
    units: Dict[Any, Any] = field(default_factory=dict)
    #: Pre-generated units waiting for dispatch: ``(unit, dispatch_mark)``.
    lookahead: List[Tuple[Any, int]] = field(default_factory=list)
    #: Worker keys selected for the current participation window, or
    #: ``None`` when every alive worker participates.
    participants: Optional[Set[int]] = None
    #: True while a due SWAP waits behind the drain barrier (MD-GAN).
    swap_pending: bool = False
    #: SWAP period in updates (0 disables), and the next due update.
    swap_period: int = 0
    next_swap: int = 0


class EngineHooks:
    """Default (inert) trainer hooks for :class:`ExecutionEngine`.

    Trainers inherit this and override the hooks their schedule needs; the
    defaults make every optional behaviour a no-op so a minimal trainer
    only implements its unit bodies.
    """

    #: Program name handed to ``backend.open_collector`` for async runs.
    _async_program: str = ""
    #: The trainer's :class:`~repro.core.elastic.MembershipController`, or
    #: ``None`` under fail-stop.
    elastic: Any = None

    # -- synchronous schedule ----------------------------------------------------
    def _sync_schedule(self, engine: "ExecutionEngine") -> Callable[[int], None]:
        """Return the per-iteration body for the synchronous schedule.

        Called once before the iteration loop; implementations choose the
        depth-0 or windowed body and may set ``engine.stats`` to record an
        overlap summary.
        """
        raise NotImplementedError  # pragma: no cover - trainers override

    def _sync_should_continue(self, iteration: int) -> bool:
        """Pre-iteration continue check (e.g. the all-crashed early exit)."""
        return True

    def _pipeline_idle(self) -> bool:
        """Whether no pipelined work is in flight (the membership boundary needs this)."""
        return True

    def _drain_pipeline_for_membership(self) -> None:
        """Flush/discard the in-flight lookahead window after a slot loss.

        Default is a no-op (depth-0 bodies are always drained at the
        boundary); pipelined trainers override it so the membership
        boundary meets a quiescent pool.
        """

    # -- asynchronous schedule ---------------------------------------------------
    def _async_begin(self, ctx: AsyncContext) -> None:
        """Set up per-run async state and issue any initial dispatches."""

    def _async_active(self, ctx: AsyncContext) -> bool:
        """Whether the async loop should run another turn."""
        raise NotImplementedError  # pragma: no cover - trainers override

    def _async_dispatch(self, ctx: AsyncContext) -> None:
        """Refill idle workers / the lookahead store (start of each turn)."""

    def _async_make_unit(self, ctx: AsyncContext, worker: Any) -> tuple:
        """Build one unit for ``worker``: ``(unit, step_input, dispatch_mark)``.

        A ``None`` mark reads the model as of now.  The default unit is
        empty (FL-GAN's local iteration).
        """
        return None, None, None

    def _async_fold(self, ctx: AsyncContext, worker: Any, unit: Any, result: Any) -> Any:
        """Adopt one answered step; return its contribution payload or ``None``."""
        raise NotImplementedError  # pragma: no cover - trainers override

    def _async_merge(self, ctx: AsyncContext, contributions: list, stalenesses: list) -> None:
        """Fold the flushed contributions into the model as ONE global update."""
        raise NotImplementedError  # pragma: no cover - trainers override

    def _async_after_update(self, ctx: AsyncContext, update: int) -> None:
        """Post-flush bookkeeping: eval cadence, crash schedule, reselection."""

    def _async_barrier(self, ctx: AsyncContext) -> None:
        """Work that runs only behind a drained barrier (e.g. MD-GAN SWAP)."""

    def _async_resume_healed(self, keys: list, ctx: AsyncContext) -> None:
        """Resume workers that left or re-entered the fleet at a membership boundary.

        The default relies on the engine's idle refill.
        """

    def _async_generate_unit(self, ctx: AsyncContext) -> Any:
        """Produce one pre-generatable unit for the lookahead store."""
        raise NotImplementedError  # pragma: no cover - trainers override

    def _async_finish(self, ctx: AsyncContext) -> None:
        """Post-loop trainer bookkeeping (e.g. FL-GAN's final evaluation)."""


class ExecutionEngine:
    """Drives one training run for a trainer exposing the hook protocol.

    The engine owns only control flow — loop structure, barrier placement,
    the shared eval/cleanup/summary scaffolding.  All model math stays on
    the trainer.  One engine instance drives one ``train()`` call.
    """

    def __init__(self, trainer: Any) -> None:
        """Bind the engine to ``trainer`` (an :class:`EngineHooks` host)."""
        self.trainer = trainer
        #: Overlap stats for the run, or ``None`` when nothing overlaps.
        self.stats: Optional[PipelineStats] = None

    # -- entry point -------------------------------------------------------------
    def run(self) -> Any:
        """Run the configured schedule and return the trainer's history."""
        if self.trainer.config.aggregation == "async":
            return self._run_async()
        return self._run_sync()

    # -- shared scaffolding ------------------------------------------------------
    def _evaluate_if_due(self, iteration: int) -> None:
        """Record an evaluation at the shared sync-loop cadence."""
        trainer = self.trainer
        cfg = trainer.config
        if (
            trainer.evaluator is not None
            and cfg.eval_every
            and (iteration % cfg.eval_every == 0 or iteration == cfg.iterations)
        ):
            result = trainer.evaluator.evaluate(trainer.sample_images, iteration)
            trainer.history.record_evaluation(result)

    # -- the synchronous schedule (full-drain barrier, depth >= 0) ---------------
    def _run_sync(self) -> Any:
        """Iteration loop: barrier per iteration, lookahead inside the body."""
        trainer = self.trainer
        cfg = trainer.config
        step = trainer._sync_schedule(self)
        iteration = 0
        try:
            for iteration in range(1, cfg.iterations + 1):
                if not trainer._sync_should_continue(iteration):
                    break
                self.sync_iteration(iteration, step)
                self._evaluate_if_due(iteration)
        except BaseException:
            trainer._cleanup_after_failure()
            raise
        else:
            self._close_run(iteration)
        finally:
            # Recorded on every exit path (completion, early break,
            # exception) so early exits keep their overlap summary.
            if self.stats is not None:
                trainer.history.overlap = self.stats.as_overlap_dict()
        trainer._record_run_summaries()
        return trainer.history

    def sync_iteration(self, iteration: int, body: Callable[[int], None]) -> None:
        """Run one synchronous iteration, then (elastic runs) the membership boundary.

        Fail-stop runs call ``body`` and return.  Elastic runs absorb a
        mid-iteration :class:`SlotLossError` (the un-merged remainder of the
        iteration is discarded, like a crash), drain the trainer's in-flight
        window when a loss is pending, and run the boundary once the
        trainer reports a quiescent pool.
        """
        trainer = self.trainer
        elastic = trainer.elastic
        if elastic is None:
            body(iteration)
            return
        try:
            body(iteration)
        except SlotLossError as exc:
            trainer.history.record_event(
                iteration, "membership_iteration_loss", slot=exc.slot_index, detail=str(exc)
            )
            trainer._drain_pipeline_for_membership()
        if elastic.pending_loss and not trainer._pipeline_idle():
            trainer._drain_pipeline_for_membership()
        if trainer._pipeline_idle():
            elastic.boundary(iteration)

    def _close_run(self, iteration: int) -> None:
        """Mirror the final resident state into the trainer's objects, then publish.

        Authority is not reclaimed: the pool stays warm for the next
        ``train()`` call.  Membership events are published after the pull,
        so a slot lost during it is in the history too.
        """
        self.trainer.sync_worker_state(reclaim=False)
        if self.trainer.elastic is not None:
            self.trainer.elastic.publish(iteration)

    # -- the asynchronous schedule (staleness-gated barrier) ---------------------
    def _run_async(self) -> Any:
        """Event-driven loop: dispatch, collect, flush when the gate opens, heal."""
        trainer = self.trainer
        elastic = trainer.elastic
        cfg = trainer.config
        sched = BoundedStalenessScheduler(cfg.max_staleness)
        stats = PipelineStats(depth=cfg.pipeline_depth)
        self.stats = stats
        collector = trainer.executor.open_collector(trainer._async_program)
        ctx = AsyncContext(sched=sched, stats=stats, collector=collector, engine=self)
        trainer._async_begin(ctx)
        try:
            while trainer._async_active(ctx):
                trainer._async_dispatch(ctx)
                stats.observe_in_flight(collector.outstanding)
                if collector.outstanding:
                    self._collect(ctx)
                if sched.buffered and sched.gate_open:
                    self._apply(ctx)
                trainer._async_barrier(ctx)
                if elastic is not None and elastic.pending_loss:
                    self._drain_barrier(ctx)
            # Straggler units past the end of training are answered and
            # discarded (never merged, never charged).
            while collector.outstanding:
                self._answer(ctx)
            collector.close()
        except BaseException:
            trainer._cleanup_after_failure()
            raise
        else:
            self._close_run(sched.updates)
        finally:
            trainer.history.overlap = stats.as_overlap_dict()
        trainer._async_finish(ctx)
        trainer._record_run_summaries()
        return trainer.history

    # -- the unit record: every dispatched unit answered exactly once -----------
    def dispatch(self, ctx: AsyncContext, worker: Any) -> None:
        """Dispatch one unit to ``worker`` and record it until it is answered.

        Workers that are gone (see :meth:`_gone`) get nothing.  The read
        point is noted only when the scheduler does not already hold one for
        the key: FL-GAN's mid-round units keep their round-start mark.
        """
        trainer = self.trainer
        key = worker.index
        if self._gone(ctx, key):
            return
        unit, step_input, mark = trainer._async_make_unit(ctx, worker)
        trainer._dispatch_unit(ctx.collector, worker, step_input)
        ctx.units[key] = unit
        if key not in ctx.sched.tracked_keys():
            ctx.sched.note_dispatch(key, mark=mark)

    def _answer(self, ctx: AsyncContext) -> Tuple[Any, Any, Any]:
        """Block for the next answer; pop its unit and return ``(key, result, unit)``."""
        key, result = ctx.collector.collect_any()
        if key not in ctx.units:
            raise UnitAccountingError(key)
        return key, result, ctx.units.pop(key)

    def _gone(self, ctx: AsyncContext, key: Any) -> bool:
        """Whether ``key``'s worker crashed, was evicted, or lost its slot."""
        trainer = self.trainer
        if not trainer.cluster.workers[key].alive:
            return True
        return trainer.elastic is not None and key in trainer.elastic.pending_loss

    def _collect(self, ctx: AsyncContext) -> None:
        """Block for one answer and settle its unit: discard, fold, or buffer.

        A unit answered :data:`LOST`, or whose worker is gone, is discarded —
        the fail-stop model loses in-flight work.  A worker deselected by
        partial participation while in flight keeps its folded state, but
        the contribution is discarded through the scheduler: the same
        accounting as the synchronous schedule.
        """
        trainer = self.trainer
        sched = ctx.sched
        key, result, unit = self._answer(ctx)
        if result is LOST or self._gone(ctx, key):
            sched.discard(key)
            return
        payload = trainer._async_fold(ctx, trainer.workers[key], unit, result)
        if payload is None:
            return
        if ctx.participants is not None and key not in ctx.participants:
            sched.discard(key)
            trainer.history.record_event(sched.updates, "participation_discard", worker=key)
            return
        sched.note_completion(key, payload)

    def _apply(self, ctx: AsyncContext) -> None:
        """Flush the buffer as ONE global update and record its staleness."""
        trainer = self.trainer
        history = trainer.history
        sched = ctx.sched
        contributions = sched.take_buffered()
        stalenesses = [sched.staleness_of(c) for c in contributions]
        sched.note_applied()
        update = sched.updates
        trainer._async_merge(ctx, contributions, stalenesses)
        history.record_losses(
            update,
            float(np.mean([c.payload["gen_loss"] for c in contributions])),
            float(np.mean([c.payload["disc_loss"] for c in contributions])),
        )
        history.record_staleness(update, max(stalenesses))
        ctx.stats.record_staleness(max(stalenesses))
        for contribution, staleness in zip(contributions, stalenesses):
            history.record_worker_staleness(contribution.key, staleness)
        # Waiting joiners are admitted as extra capacity; evicted workers
        # are revived only at a membership boundary.
        if trainer.elastic is not None and trainer.elastic.admit_joiners():
            trainer.elastic.publish(update)
        trainer._async_after_update(ctx, update)

    def _drain_barrier(self, ctx: AsyncContext) -> None:
        """Answer every outstanding unit, then run the membership boundary.

        Survivors buffer their contributions (or advance to their round
        boundary) and every ``LOST`` is consumed, so the boundary meets a
        quiescent pool.  The keys it lost or revived are dropped from the
        scheduler and handed to the trainer to resume; they re-enter with a
        fresh dispatch mark, so ``max_worker_staleness() <= max_staleness``
        stays pinned.
        """
        while ctx.collector.outstanding:
            self._collect(ctx)
        keys = self.trainer.elastic.boundary(ctx.sched.updates)
        for key in keys:
            ctx.sched.discard(key)
        self.trainer._async_resume_healed(keys, ctx)

    # -- the lookahead store (async x pipelined) ---------------------------------
    def refill_lookahead(self, ctx: AsyncContext) -> None:
        """Pre-generate units up to ``pipeline_depth`` while the gate is open.

        Each stored unit carries the update count it was generated against
        (its dispatch mark); generation overlaps the workers' in-flight
        compute, which is the pipelined wall-clock win carried over to the
        async schedule.
        """
        trainer = self.trainer
        cfg = trainer.config
        sched = ctx.sched
        while (
            ctx.stats.depth
            and len(ctx.lookahead) < ctx.stats.depth
            and sched.updates < cfg.iterations
        ):
            ctx.lookahead.append((trainer._async_generate_unit(ctx), sched.updates))
            ctx.stats.lookahead_generations += 1

    def take_lookahead(self, ctx: AsyncContext) -> Optional[Tuple[Any, int]]:
        """Pop the freshest usable pre-generated unit, or ``None``.

        A stored unit is usable only if dispatching it now cannot do worse
        than a fresh generation: its mark must still be inside the staleness
        bound (``updates - mark < max_staleness``), so the gate keeps the
        end-to-end bound exactly as for fresh dispatches.  Units that aged
        out are dropped — regenerating is cheaper than throttling the gate.
        """
        sched = ctx.sched
        while ctx.lookahead:
            unit, mark = ctx.lookahead.pop(0)
            if mark == sched.updates or sched.updates - mark < sched.max_staleness:
                return unit, mark
        return None

    # -- the dispatch refill (async) ---------------------------------------------
    def dispatch_idle(self, ctx: AsyncContext) -> None:
        """Dispatch one unit to every idle, alive, participating worker.

        Skipped entirely while a SWAP drains the barrier.  It stops at the
        first pending slot loss (a failed send here is one): lost workers
        come back through the membership boundary, not by landing on a
        survivor's slot.  A worker is idle when the scheduler
        neither tracks it in flight nor holds its buffered contribution
        (buffered workers wait for the flush — that is the gate's
        blocking-dispatch back-pressure).
        """
        trainer = self.trainer
        if ctx.swap_pending:
            return
        tracked = ctx.sched.tracked_keys()
        for worker in trainer._alive_workers():
            if trainer.elastic is not None and trainer.elastic.pending_loss:
                return
            if worker.index in tracked:
                continue
            if ctx.participants is not None and worker.index not in ctx.participants:
                continue
            self.dispatch(ctx, worker)
