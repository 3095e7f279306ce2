"""FL-GAN — federated learning adapted to GANs (paper Section III-c).

Each worker holds a *complete* GAN (generator plus discriminator) treated as
one atomic object, and trains it locally on its data shard exactly like the
standalone baseline.  Every ``E`` local epochs the workers ship both
parameter sets, with any BatchNorm running statistics, to the central
server, which averages them (FedAvg) and broadcasts the result back; all
active workers start the next round from the same averaged model.

Evaluation uses the server's averaged generator, as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.cost import fedavg_ops, flgan_local_iteration_ops
from ..datasets.base import ImageDataset
from ..datasets.sampler import EpochSampler
from ..metrics.evaluator import GeneratorEvaluator
from ..models.base import GANFactory
from ..nn.model import Sequential
from ..nn.serialize import load_model_state, model_state, weighted_average_parameters
from ..runtime.membership import LOST, SlotLossError
from ..runtime.pipeline import InflightWindow, PipelineStats
from .elastic import MembershipController
from .engine import AsyncContext, EngineHooks, ExecutionEngine
from .lifecycle import WorkerStateOwner
from ..runtime.tasks import FLGANResidentState, flgan_models
from ..simulation.cluster import SERVER_NAME, Cluster
from ..simulation.traffic import MessageKind, payload_nbytes
from .config import TrainingConfig
from .gan_ops import GANObjective, draw_generator_input
from .history import TrainingHistory

__all__ = ["FLGANWorkerState", "FLGANTrainer"]


@dataclass
class FLGANWorkerState:
    """Per-worker state: a full local GAN plus its optimizers and sampler."""

    index: int
    generator: Sequential
    discriminator: Sequential
    gen_opt: object
    disc_opt: object
    sampler: EpochSampler
    dataset: ImageDataset
    #: Worker-local random stream; required — sampling code must never see
    #: a missing generator.
    rng: np.random.Generator


class FLGANTrainer(EngineHooks, WorkerStateOwner):
    """Federated-averaging GAN trainer over ``N`` emulated workers.

    The trainer owns its execution backend and its workers' state (see
    :class:`~repro.core.lifecycle.WorkerStateOwner`): warm resident pools
    survive across ``train()`` calls until :meth:`close` / the
    context-manager exit.
    """

    _state_type = FLGANResidentState

    def __init__(
        self,
        factory: GANFactory,
        shards: Sequence[ImageDataset],
        config: TrainingConfig,
        evaluator: Optional[GeneratorEvaluator] = None,
    ) -> None:
        if not shards:
            raise ValueError("FL-GAN needs at least one worker shard")
        # Convert shards once so an explicit precision opt-in reaches the data.
        shards = [shard.astype(config.dtype) for shard in shards]
        self.factory = factory
        self.config = config
        self.evaluator = evaluator
        self.cluster = Cluster(num_workers=len(shards))

        self._rng = np.random.default_rng(config.seed)
        # Backend ownership state lives on BackendOwner (lazy build, warm
        # across train() calls, released by close()/context-manager exit).
        # Built on the factory's picklable spec so worker tasks (which carry
        # the objective) survive the install's pickle round-trip.
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
        #: Dispatched-but-unmerged local iterations; deeper than 0 only
        #: under ``pipeline_depth > 0`` (see _sync_schedule).
        self._pipeline_window = InflightWindow(0)

        # The server keeps the reference (averaged) generator/discriminator.
        dtype = config.dtype
        self.server_generator = factory.make_generator(self._rng, dtype=dtype)
        self.server_discriminator = factory.make_discriminator(self._rng, dtype=dtype)

        self.workers: List[FLGANWorkerState] = []
        for index, shard in enumerate(shards):
            worker_rng = np.random.default_rng(config.seed + 1000 + index)
            generator = factory.make_generator(worker_rng, dtype=dtype)
            discriminator = factory.make_discriminator(worker_rng, dtype=dtype)
            # All workers start from the same global model, as in federated
            # learning where the server initialises the round-0 model.
            generator.set_parameters(self.server_generator.get_parameters())
            discriminator.set_parameters(self.server_discriminator.get_parameters())
            self.workers.append(
                FLGANWorkerState(
                    index=index,
                    generator=generator,
                    discriminator=discriminator,
                    gen_opt=config.generator_opt.build(),
                    disc_opt=config.discriminator_opt.build(),
                    sampler=EpochSampler(shard, config.batch_size, worker_rng),
                    dataset=shard,
                    rng=worker_rng,
                )
            )

        self.history = TrainingHistory(
            algorithm="fl-gan",
            config={
                "batch_size": config.batch_size,
                "iterations": config.iterations,
                "epochs_per_round": config.epochs_per_swap,
                "num_workers": len(shards),
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
    def iterations_per_round(self) -> int:
        """Local iterations between two federated rounds: ``E * m / b``."""
        m = min(len(w.dataset) for w in self.workers)
        if math.isinf(self.config.epochs_per_swap):
            return self.config.iterations + 1
        return max(1, int(round(self.config.epochs_per_swap * m / self.config.batch_size)))

    def sample_images(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Generate ``n`` images from the server's averaged generator."""
        _, _, g_input = draw_generator_input(self.server_generator, self.factory, n, rng)
        return self.server_generator.predict(g_input)

    # -- local epochs ---------------------------------------------------------------
    #
    # A local iteration between federated rounds is
    # ``repro.runtime.tasks.flgan_step`` on every backend; every backend
    # installs the full local GAN once per round era and only the losses
    # come back.  How state is installed, mirrored and reclaimed comes from
    # WorkerStateOwner.

    def _merge_local_result(self, worker: FLGANWorkerState, result) -> tuple:
        """Merge phase: charge the step (in MD-GAN's categories, holding the full GAN)."""
        ledger = self.cluster.workers[worker.index].compute
        w, theta = worker.generator.num_parameters, worker.discriminator.num_parameters
        ledger.charge_all(
            flgan_local_iteration_ops(self.config.batch_size, w, theta, self.config.disc_steps)
        )
        ledger.observe_memory(w + theta)
        return result.gen_loss, result.disc_loss

    def _federated_round(self, iteration: int) -> None:
        """Workers upload their GANs, the server averages and broadcasts.

        FedAvg weights every worker's model state by its shard size
        ``m_n / sum m_n`` — with unequal or non-IID shards an unweighted mean
        would bias the global model toward small shards.  Installed workers
        exchange only flat vectors with the pool (pull before the upload,
        push after the broadcast); optimizer, sampler and RNG state never
        leave their pool slot.
        """
        pool = self.executor
        alive = self._alive_workers()
        pulled = pool.pull_params([w.index for w in alive if pool.installed(w.index)])
        states, weights = [], []
        for worker in alive:
            if worker.index in pulled:
                state = pulled[worker.index]
            else:
                state = model_state(flgan_models(worker))
            self._charge_upload(iteration, worker, state)
            states.append(state)
            # Weight by the sampler's *live* shard size, not the construction-
            # time `worker.dataset` — replace_dataset churn changes the former.
            weights.append(float(len(worker.sampler)))
        if not states:
            return
        average = self._fedavg(states, weights)
        self._broadcast_average(iteration, alive, average)
        self.history.record_event(iteration, "federated_round", workers=len(states))

    def _server_models(self) -> Dict[str, Sequential]:
        return {"generator": self.server_generator, "discriminator": self.server_discriminator}

    def _fedavg(self, states, weights) -> Dict[str, np.ndarray]:
        """Average ``n`` GANs' :func:`model_state` into the server's; charge the server.

        BatchNorm running statistics average with the parameters' weights.
        """
        average = {
            key: weighted_average_parameters([state[key] for state in states], weights)
            for key in states[0]
        }
        load_model_state(self._server_models(), average)
        self.cluster.server.compute.charge_all(
            fedavg_ops(len(states), average["generator"].size, average["discriminator"].size)
        )
        return average

    def _charge_upload(self, iteration: int, worker: FLGANWorkerState, payload) -> None:
        """Charge one worker's GAN upload as a ``MODEL_UPDATE`` message."""
        self.cluster.meter.charge(
            MessageKind.MODEL_UPDATE,
            self.cluster.workers[worker.index].name,
            SERVER_NAME,
            payload_nbytes(payload),
            iteration,
        )

    def _broadcast_average(
        self,
        iteration: int,
        workers: Sequence[FLGANWorkerState],
        average: Dict[str, np.ndarray],
    ) -> None:
        """Broadcast the averaged model to ``workers`` and write it into each.

        Each hand-over is charged as one ``MODEL_BROADCAST`` message.
        Installed residents receive the model through the backend's
        ``push_params`` (mid-flight on an async run, behind the steps queued
        on each slot); every other worker's own objects are set directly.
        """
        nbytes = payload_nbytes(average)
        push_map: Dict[int, Dict[str, np.ndarray]] = {}
        for worker in workers:
            self.cluster.meter.charge(
                MessageKind.MODEL_BROADCAST,
                SERVER_NAME,
                self.cluster.workers[worker.index].name,
                nbytes,
                iteration,
            )
            if self.executor.installed(worker.index):
                push_map[worker.index] = dict(average)
            else:
                load_model_state(flgan_models(worker), average)
        if push_map:
            self.executor.push_params(push_map)

    # -- main loop --------------------------------------------------------------------
    def _merge_local_iteration(
        self, iteration: int, active: Sequence[FLGANWorkerState], results
    ) -> None:
        """Merge one local iteration's results (worker-index order) + record."""
        gen_losses, disc_losses = [], []
        for worker, result in zip(active, results):
            if result is LOST:
                # The worker's slot died with this iteration in flight:
                # elastic membership discards the contribution (crash
                # semantics); the boundary pipeline decides the worker's fate.
                continue
            gen_loss, disc_loss = self._merge_local_result(worker, result)
            gen_losses.append(gen_loss)
            disc_losses.append(disc_loss)
        if gen_losses:
            self.history.record_losses(
                iteration, float(np.mean(gen_losses)), float(np.mean(disc_losses))
            )

    # -- asynchronous aggregation -------------------------------------------------
    #
    # Under ``aggregation="async"`` each worker marches through its local
    # iterations independently; only round boundaries touch the scheduler:
    # the round-start dispatch marks the read point and the round-end
    # upload buffers the worker's full GAN as one contribution, folded in
    # whole-buffer staleness-weighted FedAvg flushes anchored on the server
    # model.  Only the serial backend is bitwise deterministic.

    _async_program = "flgan"

    def _async_fold(self, ctx: AsyncContext, worker: FLGANWorkerState, unit, result):
        """Advance the worker's round; at its boundary, upload the GAN.

        Mid-round completions re-dispatch against the same round-start
        mark and contribute nothing; a round-boundary completion returns the
        worker's GAN as a contribution; a final *partial* round is
        discarded.
        """
        key = worker.index
        gen_loss, disc_loss = self._merge_local_result(worker, result)
        gen_acc, disc_acc = ctx.round_losses[key]
        gen_acc.append(gen_loss)
        disc_acc.append(disc_loss)
        ctx.done_iters[key] += 1
        done = ctx.done_iters[key]
        if done % self.iterations_per_round:
            if done < self.config.iterations:
                ctx.engine.dispatch(ctx, worker)
            else:
                ctx.sched.discard(key)
            return None
        try:
            # The GAN lives in the pool: snapshot it with a mid-flight pull.
            payload = self.executor.pull_params([key])[key]
        except SlotLossError:
            # The worker's slot died at its round boundary: the round's
            # contribution is lost with it (the turn's loss check discards it).
            return None
        self._charge_upload(ctx.sched.updates, worker, payload)
        ctx.round_losses[key] = ([], [])
        return {
            "state": payload,
            "num_samples": float(len(worker.sampler)),
            "gen_loss": float(np.mean(gen_acc)),
            "disc_loss": float(np.mean(disc_acc)),
        }

    def _async_merge(self, ctx: AsyncContext, contributions, stalenesses) -> None:
        """One staleness-weighted FedAvg merge, broadcast back to its contributors.

        The merge averages ``[server] + contributors``: each contributor
        weighs its shard size decayed by ``1 / (1 + staleness)``; the server
        anchor absorbs the non-contributing and staleness-lost mass, so an
        all-fresh full-fleet flush degenerates to synchronous shard-weighted
        FedAvg exactly.  Contributors receive the merged model and start
        their next round against the new merge count.
        """
        decay = [1.0 / (1.0 + float(s)) for s in stalenesses]
        contrib_keys = {c.key for c in contributions}
        outside_mass = sum(
            float(len(w.sampler))
            for w in self._alive_workers()
            if w.index not in contrib_keys
        )
        lost_mass = sum(
            c.payload["num_samples"] * (1.0 - d)
            for c, d in zip(contributions, decay)
        )
        states = [model_state(self._server_models())]
        weights = [outside_mass + lost_mass]
        for contribution, d in zip(contributions, decay):
            states.append(contribution.payload["state"])
            weights.append(contribution.payload["num_samples"] * d)
        average = self._fedavg(states, weights)
        update = ctx.sched.updates
        self.history.record_event(
            update, "federated_round", workers=len(contributions)
        )
        receivers = [
            self.workers[c.key] for c in contributions if self.cluster.workers[c.key].alive
        ]
        try:
            self._broadcast_average(update, receivers, average)
        except SlotLossError:
            # A contributor's slot died during the broadcast push: its
            # merged copy is lost (the turn's loss check applies the
            # policy); the merge itself already happened.
            pass
        for worker in receivers:
            if ctx.done_iters[worker.index] < self.config.iterations:
                ctx.engine.dispatch(ctx, worker)

    def _async_begin(self, ctx: AsyncContext) -> None:
        """Initialise per-round progress and dispatch every active worker.

        Every worker runs its full ``config.iterations`` local iterations
        (same per-worker work as a synchronous run); losses, evaluations
        and staleness are recorded on the *merge-count* axis — async
        federated rounds have no shared local-iteration clock.
        """
        ctx.done_iters = {worker.index: 0 for worker in self.workers}
        ctx.round_losses = {worker.index: ([], []) for worker in self.workers}
        for worker in self._alive_workers():
            ctx.engine.dispatch(ctx, worker)

    def _async_active(self, ctx: AsyncContext) -> bool:
        """Run until nothing is in flight or buffered."""
        return bool(ctx.collector.outstanding or ctx.sched.buffered)

    def _async_after_update(self, ctx: AsyncContext, update: int) -> None:
        """Record the evaluation cadence on the merge-count axis."""
        cfg = self.config
        if self.evaluator is not None and cfg.eval_every and update % cfg.eval_every == 0:
            self.history.record_evaluation(
                self.evaluator.evaluate(self.sample_images, update)
            )

    def _async_resume_healed(self, keys, ctx: AsyncContext) -> None:
        """Restart healed or revived workers' rounds from the current server model.

        The lost round's progress is gone with the slot (crash-discard
        semantics); re-seeding from the server model is exactly a fresh
        federated broadcast, and the fresh round-start dispatch mark
        re-pins the healed worker's staleness to the bound.  Evicted
        workers stay out.
        """
        for key in keys:
            if not self.cluster.workers[key].alive:
                continue
            worker = self.workers[key]
            load_model_state(flgan_models(worker), model_state(self._server_models()))
            ctx.round_losses[key] = ([], [])
            if ctx.done_iters[key] < self.config.iterations:
                ctx.engine.dispatch(ctx, worker)

    def _async_finish(self, ctx: AsyncContext) -> None:
        """Catch up the final evaluation if the last merge wasn't evaluated."""
        cfg = self.config
        if self.evaluator is not None and cfg.eval_every:
            last = self.history.evaluations[-1] if self.history.evaluations else None
            if last is None or last.iteration != ctx.sched.updates:
                self.history.record_evaluation(
                    self.evaluator.evaluate(self.sample_images, ctx.sched.updates)
                )

    def train(self) -> TrainingHistory:
        """Run ``config.iterations`` local iterations with federated rounds.

        The schedule is driven by
        :class:`repro.core.engine.ExecutionEngine`.  Local iterations merge
        in worker-index order, so seeded runs are bitwise identical across
        serial/resident — including ``pipeline_depth > 0``, where the
        in-flight window drains before every federated round / evaluation
        (FL-GAN pipelining introduces no staleness).  On success the pool stays
        warm for re-entry; on failure cleanup is best-effort;
        :meth:`close` releases the backend.
        """
        return ExecutionEngine(self).run()

    def _sync_iteration(self, iteration: int, stats: Optional[PipelineStats] = None) -> None:
        """One local iteration through the in-flight window, plus its due round.

        Dispatch, then merge out (FIFO) whatever exceeds the window's depth
        — everything at a round / evaluation / final boundary, and always
        at depth 0, which is the plain synchronous iteration.
        """
        cfg = self.config
        window = self._pipeline_window
        round_length = self.iterations_per_round
        active = self._alive_workers()
        window.push((iteration, active, self._start_steps([(worker, None) for worker in active])))
        if stats is not None and window.depth:
            stats.observe_in_flight(len(window))
        at_boundary = (
            iteration % round_length == 0
            or iteration == cfg.iterations
            or (
                self.evaluator is not None
                and cfg.eval_every
                and iteration % cfg.eval_every == 0
            )
        )
        for it, act, handle in window.drain(0 if at_boundary else None):
            self._merge_local_iteration(it, act, handle.result())
        if iteration % round_length == 0:
            self._federated_round(iteration)

    def _sync_schedule(self, engine: ExecutionEngine):
        """The per-iteration body over this run's window of ``pipeline_depth``."""
        depth = self.config.pipeline_depth
        if depth > 0:
            engine.stats = PipelineStats(depth=depth)
        self._pipeline_window = InflightWindow(depth)
        return partial(self._sync_iteration, stats=engine.stats)

    def _pipeline_idle(self) -> bool:
        """Quiescent only when the in-flight window has fully drained."""
        return len(self._pipeline_window) == 0

    def _drain_pipeline_for_membership(self) -> None:
        """Merge out the in-flight window (LOST entries skipped) and clear frames.

        Entries collect in dispatch (FIFO) order; contributions from the
        quarantined slot come back as ``LOST`` and are discarded by the
        merge, so the membership boundary meets a quiescent pool with every
        surviving iteration accounted for.
        """
        for it, act, handle in self._pipeline_window.drain(0):
            self._merge_local_iteration(it, act, handle.result())
        self.executor.drain_inflight()

    def _record_run_summaries(self) -> None:
        """Fold the run's traffic/compute meters into the history (both loops)."""
        meter = self.cluster.meter
        self.history.traffic = {
            "total_bytes": float(meter.total_bytes()),
            "server_ingress_bytes": float(meter.node_ingress(SERVER_NAME)),
            "server_egress_bytes": float(meter.node_egress(SERVER_NAME)),
            "rounds": float(len(self.history.events_of_kind("federated_round"))),
        }
        self.history.compute = self.cluster.compute_summary()
