"""Picklable per-worker payloads for the execution backends.

Two payload families serve the two execution styles:

* **Full-snapshot tasks** (``MDGANWorkerTask`` / ``FLGANLocalTask``) carry a
  worker's complete state every iteration.  They feed the stateless
  ``serial``/``thread``/``process`` backends: the trainers snapshot, the
  backend maps the pure runner over the tasks, and the (possibly pickle
  round-tripped) state is re-adopted in the merge phase.
* **Resident payloads** split the same work into a *build-once* state object
  (``MDGANResidentState`` / ``FLGANResidentState``) installed into a pool
  process exactly once, a *per-iteration* input (``MDGANStepInput``; FL-GAN
  local epochs need none), and a *delta* result (``MDGANStepResult`` /
  ``FLGANStepResult``) carrying only losses, feedback, compute tapes and the
  RNG/sampler cursors.  They feed the ``resident`` backend
  (:mod:`repro.runtime.resident`), which ships orders of magnitude fewer
  bytes per iteration because model, optimizer, sampler and shard stay put.

Both families execute the *same* compute cores (``_run_mdgan_compute`` /
``_run_flgan_compute``), so every backend produces bitwise identical seeded
trajectories.  Two identity invariants make the pickling backends faithful:

* a full-snapshot task and its result reference the *same* stateful objects
  (discriminator, optimizer, sampler, RNG), so under ``serial``/``thread``
  the merge phase's re-assignment is a no-op, while under ``process`` the
  round-tripped copies transparently replace the parent's state;
* the sampler and the worker RNG share one :class:`numpy.random.Generator`,
  and pickle preserves that sharing because both travel in the same payload
  object graph (task, result, or resident install).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..core.gan_ops import (
    GANObjective,
    GeneratedBatch,
    discriminator_update,
    generator_feedback,
    generator_update,
    sample_generator_images,
)
from ..datasets.sampler import EpochSampler
from ..nn.model import Sequential
from ..simulation.node import ComputeTape
from .programs import ResidentProgram, register_program

__all__ = [
    "MDGANWorkerTask",
    "MDGANWorkerResult",
    "MDGANResidentState",
    "MDGANStepInput",
    "MDGANStepResult",
    "FLGANLocalTask",
    "FLGANLocalResult",
    "FLGANResidentState",
    "FLGANStepResult",
    "run_mdgan_worker_task",
    "run_flgan_local_task",
    "run_mdgan_resident_step",
    "run_flgan_resident_step",
]


# -- MD-GAN: Algorithm 1 steps 2-3 ------------------------------------------------


@dataclass
class MDGANWorkerTask:
    """One worker's share of an MD-GAN global iteration (full snapshot)."""

    worker_index: int
    discriminator: Sequential
    disc_opt: object
    sampler: EpochSampler
    rng: np.random.Generator
    objective: GANObjective
    disc_steps: int
    batch_size: int
    latent_dim: int
    x_d: np.ndarray
    x_g: np.ndarray
    labels_d: Optional[np.ndarray]
    labels_g: Optional[np.ndarray]
    batch_index_g: int


@dataclass
class MDGANWorkerResult:
    """Updated worker state plus the error feedback destined for the server."""

    worker_index: int
    discriminator: Sequential
    disc_opt: object
    sampler: EpochSampler
    rng: np.random.Generator
    disc_loss: float
    gen_loss: float
    feedback: np.ndarray
    batch_index_g: int
    tape: ComputeTape = field(default_factory=ComputeTape)


@dataclass
class MDGANResidentState:
    """Build-once payload installed into a resident pool process.

    Bundles the worker's stateful objects with the static per-run context
    (objective, hyper-parameters) so per-iteration messages carry neither.
    """

    worker_index: int
    discriminator: Sequential
    disc_opt: object
    sampler: EpochSampler
    rng: np.random.Generator
    objective: GANObjective
    disc_steps: int
    batch_size: int
    latent_dim: int


@dataclass
class MDGANStepInput:
    """Per-iteration input for a resident MD-GAN worker: the two batches."""

    x_d: np.ndarray
    x_g: np.ndarray
    labels_d: Optional[np.ndarray]
    labels_g: Optional[np.ndarray]
    batch_index_g: int


@dataclass
class MDGANStepResult:
    """Delta result of one resident MD-GAN step: outputs and cursors only.

    ``rng_state``/``samples_drawn``/``epochs_completed`` let the trainer keep
    its local accounting exact while the heavyweight state stays resident.
    """

    worker_index: int
    disc_loss: float
    gen_loss: float
    feedback: np.ndarray
    batch_index_g: int
    samples_drawn: int
    epochs_completed: int
    rng_state: Dict[str, Any]
    tape: ComputeTape = field(default_factory=ComputeTape)


def _run_mdgan_compute(holder, step, tape: ComputeTape):
    """Shared MD-GAN compute core: ``L`` discriminator steps plus feedback.

    ``holder`` provides the stateful objects and static context (a
    :class:`MDGANWorkerTask` or :class:`MDGANResidentState`); ``step``
    provides the per-iteration inputs (the task itself, or a
    :class:`MDGANStepInput`).  Keeping one core guarantees bitwise-identical
    numerics across every backend.
    """
    disc_loss = 0.0
    for _ in range(holder.disc_steps):
        real_images, real_labels = holder.sampler.next_batch()
        disc_loss = discriminator_update(
            holder.discriminator,
            holder.objective,
            holder.disc_opt,
            real_images,
            real_labels if holder.objective.conditional else None,
            step.x_d,
            step.labels_d,
        )
        tape.charge(
            "discriminator_training",
            2 * holder.batch_size * holder.discriminator.num_parameters,
        )

    gen_batch = GeneratedBatch(
        images=step.x_g,
        noise=np.zeros((step.x_g.shape[0], holder.latent_dim), dtype=step.x_g.dtype),
        labels=step.labels_g,
        batch_index=step.batch_index_g,
    )
    gen_loss, feedback = generator_feedback(holder.discriminator, holder.objective, gen_batch)
    tape.charge("feedback", 2 * holder.batch_size * holder.discriminator.num_parameters)
    tape.observe_memory(holder.discriminator.num_parameters)
    return disc_loss, gen_loss, feedback


def run_mdgan_worker_task(task: MDGANWorkerTask) -> MDGANWorkerResult:
    """Run ``L`` discriminator steps and compute the error feedback ``F_n``.

    Pure with respect to the trainer: touches only objects inside ``task``
    and records compute costs on a private tape.
    """
    tape = ComputeTape()
    disc_loss, gen_loss, feedback = _run_mdgan_compute(task, task, tape)
    return MDGANWorkerResult(
        worker_index=task.worker_index,
        discriminator=task.discriminator,
        disc_opt=task.disc_opt,
        sampler=task.sampler,
        rng=task.rng,
        disc_loss=disc_loss,
        gen_loss=gen_loss,
        feedback=feedback,
        batch_index_g=task.batch_index_g,
        tape=tape,
    )


def run_mdgan_resident_step(state: MDGANResidentState, step: MDGANStepInput) -> MDGANStepResult:
    """One resident MD-GAN step: mutate resident state, return the delta."""
    tape = ComputeTape()
    disc_loss, gen_loss, feedback = _run_mdgan_compute(state, step, tape)
    return MDGANStepResult(
        worker_index=state.worker_index,
        disc_loss=disc_loss,
        gen_loss=gen_loss,
        feedback=feedback,
        batch_index_g=step.batch_index_g,
        samples_drawn=state.sampler.samples_drawn,
        epochs_completed=state.sampler.epochs_completed,
        rng_state=state.rng.bit_generator.state,
        tape=tape,
    )


# -- FL-GAN: one local iteration of the full GAN ----------------------------------


@dataclass
class FLGANLocalTask:
    """One worker's local GAN iteration between two federated rounds."""

    worker_index: int
    generator: Sequential
    discriminator: Sequential
    gen_opt: object
    disc_opt: object
    sampler: EpochSampler
    rng: np.random.Generator
    objective: GANObjective
    disc_steps: int
    batch_size: int


@dataclass
class FLGANLocalResult:
    """Updated local GAN state plus the iteration's losses."""

    worker_index: int
    generator: Sequential
    discriminator: Sequential
    gen_opt: object
    disc_opt: object
    sampler: EpochSampler
    rng: np.random.Generator
    gen_loss: float
    disc_loss: float


@dataclass
class FLGANResidentState:
    """Build-once payload for a resident FL-GAN worker (full local GAN)."""

    worker_index: int
    generator: Sequential
    discriminator: Sequential
    gen_opt: object
    disc_opt: object
    sampler: EpochSampler
    rng: np.random.Generator
    objective: GANObjective
    disc_steps: int
    batch_size: int


@dataclass
class FLGANStepResult:
    """Delta result of one resident FL-GAN local iteration: losses + cursors.

    Between federated rounds the trainer needs nothing else — the local GAN
    evolves entirely inside the pool.
    """

    worker_index: int
    gen_loss: float
    disc_loss: float
    samples_drawn: int
    epochs_completed: int
    rng_state: Dict[str, Any]


def _run_flgan_compute(holder):
    """Shared FL-GAN compute core: one discriminator+generator local step."""
    factory = holder.objective.factory
    disc_loss = 0.0
    for _ in range(holder.disc_steps):
        real_images, real_labels = holder.sampler.next_batch()
        generated = sample_generator_images(
            holder.generator, factory, holder.batch_size, holder.rng
        )
        disc_loss = discriminator_update(
            holder.discriminator,
            holder.objective,
            holder.disc_opt,
            real_images,
            real_labels if holder.objective.conditional else None,
            generated.images,
            generated.labels,
        )
    gen_loss = generator_update(
        holder.generator,
        holder.discriminator,
        factory,
        holder.objective,
        holder.gen_opt,
        holder.batch_size,
        holder.rng,
    )
    return gen_loss, disc_loss


def run_flgan_local_task(task: FLGANLocalTask) -> FLGANLocalResult:
    """One discriminator+generator local step, as in the standalone baseline."""
    gen_loss, disc_loss = _run_flgan_compute(task)
    return FLGANLocalResult(
        worker_index=task.worker_index,
        generator=task.generator,
        discriminator=task.discriminator,
        gen_opt=task.gen_opt,
        disc_opt=task.disc_opt,
        sampler=task.sampler,
        rng=task.rng,
        gen_loss=gen_loss,
        disc_loss=disc_loss,
    )


def run_flgan_resident_step(state: FLGANResidentState, step: None) -> FLGANStepResult:
    """One resident FL-GAN local iteration (``step`` carries no payload)."""
    gen_loss, disc_loss = _run_flgan_compute(state)
    return FLGANStepResult(
        worker_index=state.worker_index,
        gen_loss=gen_loss,
        disc_loss=disc_loss,
        samples_drawn=state.sampler.samples_drawn,
        epochs_completed=state.sampler.epochs_completed,
        rng_state=state.rng.bit_generator.state,
    )


# -- resident program registration -------------------------------------------------
#
# Boundary mutations (SWAP gossip, FedAvg broadcast) touch only model
# parameters, so pull/push exchange flat vectors and leave optimizer, sampler
# and RNG state untouched inside the pool.


def _mdgan_mirror(state: MDGANResidentState) -> Dict[str, Any]:
    """Light-weight end-of-run view: model, moments and cursors — no shard.

    Served through :meth:`~repro.runtime.resident.ResidentBackend.pull_mirror`
    when a ``train()`` call finishes successfully: the trainer's worker
    objects adopt the final discriminator/optimizer and fold the RNG/sampler
    cursors (including the mid-epoch shuffle order, so the mirrored sampler
    is complete and a later re-install resumes bitwise-exactly) back, while
    the dataset shard (immutable inside the pool, and a copy of what the
    trainer already holds) never re-crosses the pipe.
    """
    return {
        "discriminator": state.discriminator,
        "disc_opt": state.disc_opt,
        "rng_state": state.rng.bit_generator.state,
        "sampler_cursor": state.sampler.cursor_state(),
    }


def _flgan_mirror(state: FLGANResidentState) -> Dict[str, Any]:
    """Light-weight end-of-run view of a resident FL-GAN worker (no shard)."""
    return {
        "generator": state.generator,
        "discriminator": state.discriminator,
        "gen_opt": state.gen_opt,
        "disc_opt": state.disc_opt,
        "rng_state": state.rng.bit_generator.state,
        "sampler_cursor": state.sampler.cursor_state(),
    }


def _mdgan_pull_params(state: MDGANResidentState) -> np.ndarray:
    return state.discriminator.get_parameters()


def _mdgan_push_params(state: MDGANResidentState, vector: np.ndarray) -> None:
    state.discriminator.set_parameters(vector)


def _flgan_pull_params(state: FLGANResidentState) -> Dict[str, np.ndarray]:
    return {
        "generator": state.generator.get_parameters(),
        "discriminator": state.discriminator.get_parameters(),
    }


def _flgan_push_params(state: FLGANResidentState, params: Dict[str, np.ndarray]) -> None:
    state.generator.set_parameters(params["generator"])
    state.discriminator.set_parameters(params["discriminator"])


register_program(
    ResidentProgram(
        name="mdgan",
        step=run_mdgan_resident_step,
        pull_params=_mdgan_pull_params,
        push_params=_mdgan_push_params,
        mirror=_mdgan_mirror,
    )
)
register_program(
    ResidentProgram(
        name="flgan",
        step=run_flgan_resident_step,
        pull_params=_flgan_pull_params,
        push_params=_flgan_push_params,
        mirror=_flgan_mirror,
    )
)
