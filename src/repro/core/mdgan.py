"""MD-GAN — multi-discriminator GAN over distributed datasets (paper Section IV).

The algorithm keeps a *single* generator on the central server and one
discriminator per worker; workers never see each other's data.  One global
iteration implements the four steps of Algorithm 1:

1. the server generates ``k`` batches (``k <= N``) and sends two of them to
   every participating worker (``X_n^{(d)}`` for discriminator training,
   ``X_n^{(g)}`` for the generator's error feedback);
2. every worker performs ``L`` discriminator learning steps against a real
   batch drawn from its local shard;
3. every worker computes the error feedback
   ``F_n = dB~(X_n^{(g)}) / dx`` — the gradient of the generator objective
   with respect to the generated images — and ships it to the server;
4. the server chains every feedback back through the forward pass that
   generated its batch (kept since step 1; a batch generated before the
   latest generator update, or on a pool slot, is re-run on its stored
   noise), averages them and applies one Adam step.

Every ``E`` local epochs the workers swap their discriminator parameters in
a gossip fashion (the ``SWAP`` procedure), which combats the overfitting of a
discriminator to its local shard.

The trainer hands every payload to its destination directly and charges it
to the cluster's Table III meter at that point, so byte-level traffic is
measured; it supports the paper's fail-stop crash experiments.  The two
Section VII perspectives are :class:`TrainingConfig` modes, not trainer
variants: the asynchronous setting is ``aggregation="async"`` and sampling a
fraction of workers per iteration is ``participation_fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.cost import (
    mdgan_generation_ops,
    mdgan_generator_update_ops,
    mdgan_worker_step_ops,
)
from ..datasets.base import ImageDataset
from ..datasets.sampler import EpochSampler
from ..metrics.evaluator import GeneratorEvaluator
from ..models.base import GANFactory
from ..nn.model import Sequential
from ..runtime.backend import PendingResult
from ..runtime.pipeline import (
    BatchAheadQueue,
    GeneratorHandle,
    PendingGeneration,
    PipelineStats,
    start_resident_generation,
)
from .elastic import MembershipController
from .engine import AsyncContext, EngineHooks, ExecutionEngine
from .lifecycle import WorkerStateOwner
from ..runtime.membership import LOST, SlotLossError
from ..runtime.tasks import (
    MDGANResidentState,
    MDGANStepInput,
    MDGANStepResult,
    run_mdgan_worker_task,
)
from ..simulation.cluster import SERVER_NAME, Cluster
from ..simulation.failures import CrashSchedule
from ..simulation.traffic import MessageKind, payload_nbytes
from .async_aggregation import staleness_weights
from .config import TrainingConfig, resolve_num_batches
from .gan_ops import (
    GANObjective,
    GeneratedBatch,
    apply_feedback_to_generator,
    draw_generator_input,
    sample_generator_images,
)
from .history import TrainingHistory

__all__ = ["MDGANWorkerState", "MDGANTrainer"]


@dataclass
class MDGANWorkerState:
    """Per-worker state: a discriminator, its optimizer and the local shard."""

    index: int
    discriminator: Sequential
    disc_opt: object
    sampler: EpochSampler
    dataset: ImageDataset
    rng: np.random.Generator


class MDGANTrainer(EngineHooks, WorkerStateOwner):
    """MD-GAN trainer: one server-side generator versus ``N`` worker discriminators.

    The trainer owns its execution backend and its workers' state (see
    :class:`~repro.core.lifecycle.WorkerStateOwner`): warm resident pools
    survive across ``train()`` calls until :meth:`close` / the
    context-manager exit.
    """

    _state_type = MDGANResidentState

    def __init__(
        self,
        factory: GANFactory,
        shards: Sequence[ImageDataset],
        config: TrainingConfig,
        evaluator: Optional[GeneratorEvaluator] = None,
        crash_schedule: Optional[CrashSchedule] = None,
    ) -> None:
        if not shards:
            raise ValueError("MD-GAN needs at least one worker shard")
        # Convert shards once so an explicit precision opt-in reaches the data.
        shards = [shard.astype(config.dtype) for shard in shards]
        self.factory = factory
        self.config = config
        self.evaluator = evaluator
        self.cluster = Cluster(num_workers=len(shards), crash_schedule=crash_schedule)

        self._rng = np.random.default_rng(config.seed)
        # Backend ownership state lives on BackendOwner (lazy build, warm
        # across train() calls, released by close()/context-manager exit).
        # Built on the factory's picklable spec so worker tasks (which carry
        # the objective) survive the process backend's pickle round-trip.
        self._objective = GANObjective(
            factory.spec(),
            non_saturating=config.non_saturating,
            label_smoothing=config.label_smoothing,
        )
        self._step_context = {
            "objective": self._objective,
            "disc_steps": config.disc_steps,
            "batch_size": config.batch_size,
        }

        # Server-side generator (the only generator in the system).
        self._dtype = config.dtype
        self.generator: Sequential = factory.make_generator(self._rng, dtype=self._dtype)
        self._gen_opt = config.generator_opt.build()
        #: Number of iterations whose feedback has been applied to the
        #: generator; the pipelined mode derives batch staleness from it.
        self._gen_update_count = 0
        #: Versioned identity of the server generator on resident pool slots:
        #: bumped on every parameter update, so repeat generation dispatches
        #: against an unchanged generator ship zero parameter bytes.
        self._generator_handle = GeneratorHandle(version=0)
        #: Each in-flight participant's ``X_n^{(g)}``, recorded at the hand-over
        #: and taken back at the merge, which pairs the worker's ``F_n`` with it.
        self._handed_g: Dict[int, GeneratedBatch] = {}
        self._reset_pipeline()

        # Worker-side discriminators.
        self.workers: List[MDGANWorkerState] = []
        for index, shard in enumerate(shards):
            worker_rng = np.random.default_rng(config.seed + 1000 + index)
            self.workers.append(
                MDGANWorkerState(
                    index=index,
                    discriminator=factory.make_discriminator(
                        worker_rng, dtype=self._dtype
                    ),
                    disc_opt=config.discriminator_opt.build(),
                    sampler=EpochSampler(shard, config.batch_size, worker_rng),
                    dataset=shard,
                    rng=worker_rng,
                )
            )

        self.num_batches = resolve_num_batches(config, len(shards))
        self.history = TrainingHistory(
            algorithm="md-gan",
            config={
                "batch_size": config.batch_size,
                "iterations": config.iterations,
                "disc_steps": config.disc_steps,
                "num_workers": len(shards),
                "num_batches_k": self.num_batches,
                "epochs_per_swap": config.epochs_per_swap,
                "participation_fraction": config.participation_fraction,
                "architecture": factory.name,
                "pipeline_depth": config.pipeline_depth,
                "aggregation": config.aggregation,
                "max_staleness": config.max_staleness,
            },
        )
        policy = config.membership_policy()
        #: Trainer-side elastic membership; ``None`` under fail-stop.
        self.elastic = None if policy is None else MembershipController(self, policy)

    # -- helpers -----------------------------------------------------------------
    @property
    def swap_period(self) -> int:
        """Iterations between swaps: ``m E / b`` (Algorithm 1, line 11)."""
        if math.isinf(self.config.epochs_per_swap):
            return 0
        m = min(len(w.dataset) for w in self.workers)
        return max(1, int(round(m * self.config.epochs_per_swap / self.config.batch_size)))

    def _participating_workers(self) -> List[MDGANWorkerState]:
        """Workers taking part in this iteration (Section VII-4 extension)."""
        alive = self._alive_workers()
        frac = self.config.participation_fraction
        if frac >= 1.0 or len(alive) <= 1:
            return alive
        count = max(1, int(round(frac * len(alive))))
        chosen = self._rng.choice(len(alive), size=count, replace=False)
        return [alive[i] for i in sorted(chosen)]

    def sample_images(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Generate ``n`` images from the server generator (evaluation mode)."""
        _, _, g_input = draw_generator_input(self.generator, self.factory, n, rng)
        return self.generator.predict(g_input)

    # -- server side --------------------------------------------------------------
    def _charge_generation(self, k: int) -> None:
        """Charge the server for generating ``k`` batches, holding ``k·b·d`` floats.

        Shared by the inline and resident generation paths so their ledgers
        can never drift apart.
        """
        b = self.config.batch_size
        server = self.cluster.server.compute
        server.charge_all(mdgan_generation_ops(k, b, self.generator.num_parameters))
        server.observe_memory(k * b * self.factory.object_size)

    def _generate_batches(self, k: int) -> List[GeneratedBatch]:
        """Step 1: the server generates ``k`` batches of size ``b``."""
        batches = []
        for j in range(k):
            batches.append(
                sample_generator_images(
                    self.generator,
                    self.factory,
                    self.config.batch_size,
                    self._rng,
                    batch_index=j,
                )
            )
        self._charge_generation(k)
        return batches

    def _hand_batches(
        self,
        iteration: int,
        worker: MDGANWorkerState,
        g_batch: GeneratedBatch,
        d_batch: GeneratedBatch,
    ) -> MDGANStepInput:
        """``worker``'s step input, charged as one ``GENERATED_BATCHES`` message."""
        self.cluster.meter.charge(
            MessageKind.GENERATED_BATCHES,
            SERVER_NAME,
            self.cluster.workers[worker.index].name,
            payload_nbytes([d_batch.images, g_batch.images]),
            iteration,
        )
        return MDGANStepInput(
            x_d=d_batch.images,
            x_g=g_batch.images,
            labels_d=d_batch.labels,
            labels_g=g_batch.labels,
        )

    def _distribute_batches(
        self, iteration: int, batches: List[GeneratedBatch], participants: List[MDGANWorkerState]
    ) -> List[Tuple[MDGANWorkerState, MDGANStepInput]]:
        """Step 1 (cont.): hand two batches to every participating worker.

        Uses the paper's round-robin assignment keyed on the *worker index*
        ``n`` — ``X_n^{(g)} = X^{(n mod k)}`` and ``X_n^{(d)} = X^{((n+1) mod
        k)}`` — not on enumeration order over the participant list, so each
        worker's assignment is stable under crashes and partial
        participation.  Records each ``X_n^{(g)}`` for the merge and returns
        the ``(worker, step_input)`` pairs in participant order.
        """
        k = len(batches)
        work = []
        for worker in participants:
            g_batch = self._handed_g[worker.index] = batches[worker.index % k]
            d_batch = batches[(worker.index + 1) % k]
            work.append((worker, self._hand_batches(iteration, worker, g_batch, d_batch)))
        return work

    def _aggregate_feedback(
        self, batches: List[GeneratedBatch], feedbacks: List[np.ndarray], weights=None
    ) -> None:
        """Step 4: chain each ``F_n`` through its batch's forward, in order; update ``w``.

        Both schedules drop the snapshot of a batch with staleness > 0 (the
        generator moved since it was made), so only that batch is replayed.
        """
        self._gen_update_count += 1
        # The generator's parameters are about to change: invalidate the
        # per-slot param cache before the next generation dispatch.
        self._generator_handle.bump()
        self.cluster.server.compute.observe_memory(
            len(batches) * self.config.batch_size * self.factory.object_size
        )
        self.generator.zero_grad()
        apply_feedback_to_generator(self.generator, self.factory, batches, feedbacks, weights)
        self._gen_opt.step(self.generator)
        self.cluster.server.compute.charge_all(
            mdgan_generator_update_ops(
                len(batches), self.config.batch_size, self.generator.num_parameters
            )
        )

    # -- worker side ---------------------------------------------------------------
    #
    # Steps 2-3 are ``repro.runtime.tasks.mdgan_step`` on every backend,
    # merged in worker-index order, so any backend yields bitwise-identical
    # trajectories.  Resident backends install worker state once and ship
    # only the step input; stateless ones map the step over (state, input)
    # tasks.  How state is installed, adopted, mirrored and reclaimed — and
    # backend ownership — comes from WorkerStateOwner.

    def _dispatch_worker_phase(
        self, work: List[Tuple[MDGANWorkerState, MDGANStepInput]]
    ) -> tuple[List[MDGANWorkerState], PendingResult]:
        """Dispatch the per-worker phase (Algorithm 1 steps 2-3) asynchronously.

        Hands the ``(worker, step_input)`` pairs to the backend without
        blocking.  Returns ``(live_workers, handle)``; ``handle.result()``
        yields the results in worker-index order.
        """
        handle = self._start_steps(run_mdgan_worker_task, work)
        return [worker for worker, _ in work], handle

    def _merge_worker_phase(
        self,
        iteration: int,
        live_workers: List[MDGANWorkerState],
        handle: PendingResult,
    ) -> tuple[List[float], List[float], List[Tuple[GeneratedBatch, np.ndarray]]]:
        """Collect a dispatched worker phase and merge it in worker-index order.

        Returns the losses and the ``(X_n^{(g)}, F_n)`` feedbacks, in merge
        order.
        """
        gen_losses: List[float] = []
        disc_losses: List[float] = []
        feedback: List[Tuple[GeneratedBatch, np.ndarray]] = []
        for worker, result in zip(live_workers, handle.result()):
            g_batch = self._handed_g.pop(worker.index)
            if result is LOST:
                # The worker's slot died with this contribution in flight:
                # elastic membership discards it (crash semantics) and the
                # boundary pipeline decides the worker's fate.
                continue
            step = self._merge_worker_result(iteration, worker, result)
            gen_losses.append(step.gen_loss)
            disc_losses.append(step.disc_loss)
            feedback.append((g_batch, step.feedback))
        return gen_losses, disc_losses, feedback

    def _merge_worker_result(
        self,
        iteration: int,
        worker: MDGANWorkerState,
        result,
    ) -> MDGANStepResult:
        """Merge phase: adopt worker state/cursors, charge the step and ``F_n``."""
        step = self._adopt_step(worker, result)
        node = self.cluster.workers[worker.index]
        theta = worker.discriminator.num_parameters
        node.compute.charge_all(
            mdgan_worker_step_ops(self.config.batch_size, theta, self.config.disc_steps)
        )
        node.compute.observe_memory(theta)
        self.cluster.meter.charge(
            MessageKind.ERROR_FEEDBACK,
            node.name,
            SERVER_NAME,
            payload_nbytes(step.feedback),
            iteration,
        )
        return step

    def _swap_discriminators(self, iteration: int) -> None:
        """The SWAP procedure: gossip discriminator parameters between workers.

        The destination assignment is a random permutation of the alive
        workers (a self-mapped worker keeps its own parameters), preserving
        the one-discriminator-per-worker invariant.
        """
        alive = self._alive_workers()
        if len(alive) < 2:
            return
        # Resident workers keep their state in the pool: read the parameter
        # vectors out (pull) and write the received vectors back in place
        # (push) — the optimizer/sampler/RNG state never crosses the IPC
        # boundary.
        resident = self._active_resident()
        pulled: Dict[int, np.ndarray] = {}
        if resident is not None:
            keys = [w.index for w in alive if resident.installed(w.index)]
            if keys:
                pulled = resident.pull_params(keys)
        permutation = self._rng.permutation(len(alive))
        parameter_vectors: Dict[int, np.ndarray] = {}
        for src_pos, dst_pos in enumerate(permutation):
            if src_pos == dst_pos:
                continue
            src = alive[src_pos]
            dst = alive[dst_pos]
            if src.index in pulled:
                params = pulled[src.index]
            else:
                params = src.discriminator.get_parameters()
            self.cluster.meter.charge(
                MessageKind.DISCRIMINATOR_SWAP,
                self.cluster.workers[src.index].name,
                self.cluster.workers[dst.index].name,
                payload_nbytes(params),
                iteration,
            )
            parameter_vectors[dst.index] = params
        push_map: Dict[int, np.ndarray] = {}
        for worker in alive:
            params = parameter_vectors.get(worker.index)
            if params is None:
                continue
            if resident is not None and resident.installed(worker.index):
                push_map[worker.index] = params
            else:
                worker.discriminator.set_parameters(params)
        if push_map:
            resident.push_params(push_map)
        if parameter_vectors:
            self.history.record_event(iteration, "swap", exchanged=len(parameter_vectors))

    # -- main loop -------------------------------------------------------------------
    def _begin_iteration(self, iteration: int) -> List[MDGANWorkerState]:
        """Apply scheduled crashes and select this iteration's participants.

        Crashed workers leave the pool permanently: their last resident state
        is reclaimed so the trainer's view of them stays exact.  Returns the
        participating workers (possibly empty).
        """
        crashed = self.cluster.apply_crashes(iteration)
        for name in crashed:
            self.history.record_event(iteration, "crash", worker=name)
        if crashed:
            names = set(crashed)
            self.sync_worker_state(
                [w for w in self.workers if self.cluster.workers[w.index].name in names]
            )
        return self._participating_workers()

    def _finish_iteration(
        self,
        iteration: int,
        gen_losses: List[float],
        disc_losses: List[float],
        feedback: List[Tuple[GeneratedBatch, np.ndarray]],
        staleness: Optional[int] = None,
    ) -> None:
        """Aggregate feedback, record losses (and staleness), swap if due."""
        if feedback:
            # Merge order fixes the accumulation order.
            self._aggregate_feedback([b for b, _ in feedback], [f for _, f in feedback])
        if gen_losses:
            self.history.record_losses(
                iteration, float(np.mean(gen_losses)), float(np.mean(disc_losses))
            )
            if staleness is not None:
                self.history.record_staleness(iteration, staleness)
        period = self.swap_period
        if period and iteration % period == 0:
            self._swap_discriminators(iteration)

    def train_iteration(self, iteration: int) -> None:
        """Run one global MD-GAN iteration (Algorithm 1 body, synchronous).

        The per-worker phase fans out through the execution backend and
        merges in participant (= worker-index) order, so seeded runs are
        bitwise identical across serial/thread/process/resident.

        With ``pipeline_depth > 0`` the iteration consumes the batch set
        pre-generated for it (recording the realised staleness; a queue miss
        generates on the spot) and, **while the workers compute**, generates
        the batch sets of the next ``depth`` iterations — on the pool slots
        on ``resident``, inline elsewhere.  Noise draws happen at dispatch,
        in exact serial order, and resident-side generations are collected
        after the merge, which never touches the generator, so every
        backend yields the same trajectory at a fixed depth.
        """
        participants = self._begin_iteration(iteration)
        if not participants:
            return
        k = min(self.num_batches, len(participants))
        queue = self._pipeline_queue
        if queue is None:
            batches, staleness = self._generate_batches(k), None
        else:
            batches, staleness = self._take_batches(iteration, k)
        work = self._distribute_batches(iteration, batches, participants)
        live_workers, handle = self._dispatch_worker_phase(work)
        lookahead = None if queue is None else self._start_lookahead(iteration)
        merged = self._merge_worker_phase(iteration, live_workers, handle)
        if lookahead is not None:
            self._finish_lookahead(lookahead, staleness)
        self._finish_iteration(iteration, *merged, staleness=staleness)

    def _take_batches(self, iteration: int, k: int) -> Tuple[List[GeneratedBatch], int]:
        """This iteration's pre-generated batch set and its staleness (depth > 0).

        Staleness is the number of generator updates the set missed; a stale
        set's snapshots are dropped, so its feedback replays the forward.  A
        queue miss (cold start, a skipped or drained iteration) generates
        inline, with staleness 0.
        """
        entry = self._pipeline_queue.pop(iteration)
        if entry is None:
            self._pipeline_stats.immediate_generations += 1
            return self._generate_batches(k), 0
        batches, generated_at_update = entry
        staleness = self._gen_update_count - generated_at_update
        if staleness:
            batches = [replace(batch, snapshot=None) for batch in batches]
        return batches, staleness

    def _start_lookahead(self, iteration: int) -> List[tuple]:
        """Start generating the batch sets of ``iteration + 1 .. + depth``.

        Returns ``(target, k, batches_or_pending, generated_at_update)``
        entries for :meth:`_finish_lookahead`.
        """
        queue, stats = self._pipeline_queue, self._pipeline_stats
        lookahead: List[tuple] = []
        next_target = max(queue.last_target, iteration)
        while len(queue) + len(lookahead) < stats.depth and next_target < self.config.iterations:
            next_target += 1
            k = min(self.num_batches, max(1, len(self._alive_workers())))
            pending = start_resident_generation(
                self.executor,
                self.generator,
                self.factory,
                self.config.batch_size,
                k,
                self._rng,
                handle=self._generator_handle,
            )
            if pending is None:
                pending = self._generate_batches(k)
            lookahead.append((next_target, k, pending, self._gen_update_count))
            stats.lookahead_generations += 1
        stats.observe_in_flight(1)
        return lookahead

    def _finish_lookahead(self, lookahead: List[tuple], staleness: int) -> None:
        """Collect resident-side generations, queue every set, record staleness."""
        stats = self._pipeline_stats
        for target, k, pending, at_update in lookahead:
            if isinstance(pending, PendingGeneration):
                pending = pending.collect()
                self._charge_generation(k)
                stats.resident_generations += 1
            self._pipeline_queue.put(target, pending, at_update)
        stats.record_staleness(staleness)

    # -- asynchronous aggregation (bounded staleness) ---------------------------------
    #
    # ``config.aggregation="async"`` replaces the phase sequence with the
    # engine's event-driven loop over the completion-order collector:
    # finished feedbacks are buffered and folded into whole-buffer,
    # staleness-weighted generator updates (see
    # :mod:`repro.core.async_aggregation`).  With ``pipeline_depth > 0`` the
    # lookahead store dispatches with backdated marks, so the bound holds
    # end to end.  Only the serial backend is bitwise deterministic.

    _async_program = "mdgan"

    def _async_worker_fn(self, worker: MDGANWorkerState):
        """The pure per-unit function dispatched for ``worker`` (stateless backends).

        A dedicated seam so benchmarks/tests can inject per-worker slowdowns
        (straggler experiments) without touching the scheduler.
        """
        return run_mdgan_worker_task

    def _async_participants(self) -> Optional[set]:
        """The current participation selection (worker keys), or ``None`` for all.

        Reselected after every applied update, mirroring the synchronous
        schedule's per-iteration draw; full participation never touches the
        RNG, keeping pure-async runs bitwise identical.
        """
        if self.config.participation_fraction >= 1.0:
            return None
        return {w.index for w in self._participating_workers()}

    def _async_begin(self, ctx: AsyncContext) -> None:
        """Arm SWAP/participation bookkeeping and apply the first crash window."""
        period = self.swap_period
        ctx.swap_period = period
        ctx.next_swap = period if period else 0
        ctx.participants = self._async_participants()
        for name in self.cluster.apply_crashes(1):
            self.history.record_event(1, "crash", worker=name)

    def _async_active(self, ctx: AsyncContext) -> bool:
        """Run until ``config.iterations`` generator updates (or a dead fleet)."""
        sched = ctx.sched
        if sched.updates >= self.config.iterations:
            return False
        if (
            not self._alive_workers()
            and not ctx.collector.outstanding
            and not sched.buffered
        ):
            self.history.record_event(sched.updates + 1, "all_workers_crashed")
            return False
        return True

    def _async_dispatch(self, ctx: AsyncContext) -> None:
        """Refill idle participating workers, then top up the lookahead store.

        The lookahead refill runs even while a SWAP drains the barrier —
        SWAP never touches the generator, so pre-generated batch sets stay
        valid across it.
        """
        ctx.engine.dispatch_idle(ctx)
        ctx.engine.refill_lookahead(ctx)

    def _async_generate_unit(self, ctx: AsyncContext) -> List[GeneratedBatch]:
        """One pre-generated batch-set unit for the async lookahead store."""
        return self._generate_batches(min(self.num_batches, 2))

    def _async_make_unit(self, ctx: AsyncContext, worker: MDGANWorkerState):
        """One batch-set unit, from the lookahead store or generated fresh.

        The unit's dispatch mark is the update count its batches were
        generated against — that is what the eventual contribution's
        staleness is measured against.  ``k`` degenerates to at most two
        batches per unit (the worker only consumes ``X_d``/``X_g``).
        """
        sched = ctx.sched
        entry = ctx.engine.take_lookahead(ctx)
        if entry is None:
            batches = self._generate_batches(min(self.num_batches, 2))
            mark = sched.updates
            if ctx.stats.depth:
                ctx.stats.immediate_generations += 1
        else:
            batches, mark = entry
        step_input = self._hand_batches(sched.updates, worker, batches[0], batches[-1])
        return batches, step_input, mark

    def _async_fold(self, ctx: AsyncContext, worker: MDGANWorkerState, batches, result):
        """Merge one finished unit; its feedback and losses are the contribution."""
        step = self._merge_worker_result(ctx.sched.updates, worker, result)
        return {
            "batch": batches[0],
            "feedback": step.feedback,
            "gen_loss": step.gen_loss,
            "disc_loss": step.disc_loss,
        }

    def _async_merge(self, ctx: AsyncContext, contributions, stalenesses) -> None:
        """One staleness-weighted generator Adam step; staleness-0 batches keep their snapshot."""
        self._aggregate_feedback(
            [
                replace(c.payload["batch"], snapshot=None) if staleness else c.payload["batch"]
                for c, staleness in zip(contributions, stalenesses)
            ],
            [c.payload["feedback"] for c in contributions],
            staleness_weights(stalenesses),
        )

    def _async_after_update(self, ctx: AsyncContext, update: int) -> None:
        """Reselect participants, arm due SWAPs, evaluate, apply crashes.

        Scheduled crashes apply at update boundaries (the async axis is
        updates, not lockstep iterations); crashed residents are not
        reclaimed mid-run — the final mirror refresh reconciles the
        trainer's objects.
        """
        ctx.participants = self._async_participants()
        if ctx.swap_period and update >= ctx.next_swap:
            ctx.swap_pending = True
        ctx.engine._evaluate_if_due(update)
        if update < self.config.iterations:
            for name in self.cluster.apply_crashes(update + 1):
                self.history.record_event(update + 1, "crash", worker=name)

    def _async_barrier(self, ctx: AsyncContext) -> None:
        """Run a due SWAP once the barrier has fully drained.

        Due swaps stop re-dispatch (see the engine's idle refill), wait for
        the in-flight set and buffer to empty, gossip, then the fleet
        refills on the next turn.
        """
        sched = ctx.sched
        if ctx.swap_pending and not ctx.collector.outstanding and not sched.buffered:
            try:
                self._swap_discriminators(sched.updates)
            except SlotLossError:
                # A gossip partner's slot died mid-swap: the swap is
                # abandoned for this period (state already pushed to
                # survivors stands); the turn's loss check applies the policy.
                pass
            ctx.next_swap = ctx.swap_period * (sched.updates // ctx.swap_period + 1)
            ctx.swap_pending = False

    # -- the engine-driven schedules ------------------------------------------------
    def train(self) -> TrainingHistory:
        """Train for ``config.iterations`` global updates and return the history.

        The schedule — synchronous, pipelined, async, elastic, or any
        composition the capability matrix supports — is driven by
        :class:`repro.core.engine.ExecutionEngine`; this trainer supplies
        the MD-GAN bodies through the engine's hook protocol.  On success
        the pool stays **warm** (a second ``train()`` ships no installs);
        on failure cleanup is best-effort and never masks the original
        exception.  :meth:`close` / context-manager exit releases the
        backend.
        """
        return ExecutionEngine(self).run()

    def _reset_pipeline(self) -> None:
        """Fresh lookahead queue and overlap counters (``None`` at depth 0)."""
        depth = self.config.pipeline_depth
        self._pipeline_queue = BatchAheadQueue() if depth else None
        self._pipeline_stats = PipelineStats(depth=depth) if depth else None

    def _sync_schedule(self, engine: ExecutionEngine):
        """The per-iteration body, over a fresh pipeline."""
        self._reset_pipeline()
        engine.stats = self._pipeline_stats
        return self.train_iteration

    def _sync_should_continue(self, iteration: int) -> bool:
        """Stop (and record) once every worker has crashed."""
        if not self._alive_workers():
            self.history.record_event(iteration, "all_workers_crashed")
            return False
        return True

    def _drain_pipeline_for_membership(self) -> None:
        """Discard the lookahead queue and any in-flight pool frames.

        Pre-generated batch sets may assume the pre-loss fleet; dropping
        them is sound (the pipelined body regenerates on a queue miss), and
        the resident drain clears frames the quarantined slot will never
        answer, so the membership boundary meets a quiescent pool.  Feedback
        the abandoned iteration already merged lived in that iteration's
        call frame and is gone with it.
        """
        if self._pipeline_queue is not None:
            self._pipeline_queue.clear()
        resident = self._active_resident()
        if resident is not None:
            resident.drain_inflight()

    def _record_run_summaries(self) -> None:
        """Fold the run's traffic/compute meters into the history (both loops)."""
        meter = self.cluster.meter
        self.history.traffic = {
            "total_bytes": float(meter.total_bytes()),
            "server_ingress_bytes": float(meter.node_ingress(SERVER_NAME)),
            "server_egress_bytes": float(meter.node_egress(SERVER_NAME)),
            "swap_bytes": float(
                meter.total_bytes(MessageKind.DISCRIMINATOR_SWAP)
            ),
            "feedback_bytes": float(meter.total_bytes(MessageKind.ERROR_FEEDBACK)),
            "generated_batch_bytes": float(
                meter.total_bytes(MessageKind.GENERATED_BATCHES)
            ),
        }
        self.history.compute = self.cluster.compute_summary()
