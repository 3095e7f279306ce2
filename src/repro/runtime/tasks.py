"""Per-worker state, step inputs, step results and the one step per algorithm.

In the paper a worker *is* its discriminator, its optimizer and its shard
``B_n``, and Algorithm 1 steps 2-3 are one function of that state and two
generated batches.  This module states exactly that, once per algorithm:

* a **state** dataclass (``MDGANResidentState`` / ``FLGANResidentState``) —
  the worker's stateful objects plus the static per-run context.  Its
  ``STATE_FIELDS`` tuple names the stateful objects; install payload,
  mirror payload (:func:`mirror_payload`), mirror restore and snapshot
  adoption are all derived from that one tuple;
* a **step input** (``MDGANStepInput``; FL-GAN local iterations need none);
* a **step result** (``MDGANStepResult`` / ``FLGANStepResult``) carrying only
  what the worker computed: losses, feedback and the RNG/sampler cursors
  (the owner charges the step's Table II compute at the merge);
* one **step function** ``step(state, step_input) -> result``
  (:func:`mdgan_step` / :func:`flgan_step`) that mutates the state in place.

The ``resident`` backend (:mod:`repro.runtime.resident`) installs the state
into a pool process once and registers the step function as its program, so
only inputs and results cross the wire.  The stateless
``serial``/``thread``/``process`` backends map a one-argument adapter
(:func:`run_mdgan_worker_task` / :func:`run_flgan_local_task`) over
:class:`WorkerTask` pairs; the adapter returns the state next to the step
result, so under ``process`` the pickle round-tripped copies replace the
trainer's objects in the merge, while under ``serial``/``thread`` that
re-assignment is a no-op.  Every backend therefore runs the *same* step
function and produces bitwise identical seeded trajectories.

The sampler and the worker RNG share one :class:`numpy.random.Generator`;
pickle preserves that sharing because both travel in the same state object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, NamedTuple, Optional, Tuple

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
from .programs import ResidentProgram, register_program

__all__ = [
    "WorkerTask",
    "MDGANResidentState",
    "MDGANStepInput",
    "MDGANStepResult",
    "FLGANResidentState",
    "FLGANStepResult",
    "mdgan_step",
    "flgan_step",
    "mirror_payload",
    "restore_mirror",
    "run_mdgan_worker_task",
    "run_flgan_local_task",
]


class WorkerTask(NamedTuple):
    """The stateless backends' one-argument form of ``step(state, step_input)``."""

    state: Any
    step_input: Any = None

    @property
    def worker_index(self) -> int:
        """The worker the task belongs to (straggler injection keys on it)."""
        return self.state.worker_index


def mirror_payload(state) -> Dict[str, Any]:
    """The stateful part of a worker state, with sampler and RNG as cursors.

    What ``pull_mirror`` (pool stays warm) and ``pull_state`` (pool drops the
    resident) both reply with: the ``STATE_FIELDS`` objects by value, the RNG
    as its bit-generator state and the sampler as its full cursor (including
    the mid-epoch shuffle order, so a later re-install resumes
    bitwise-exactly).  The dataset shard — immutable inside the pool, and a
    copy of what the trainer already holds — never re-crosses the wire.
    """
    payload = {
        name: getattr(state, name)
        for name in state.STATE_FIELDS
        if name not in ("sampler", "rng")
    }
    payload["rng_state"] = state.rng.bit_generator.state
    payload["sampler_cursor"] = state.sampler.cursor_state()
    return payload


def restore_mirror(worker, mirror: Dict[str, Any]) -> None:
    """Set a worker's objects to a :func:`mirror_payload` (its inverse).

    The sampler position is restored in full (incl. the mid-epoch shuffle
    order), so a later re-install resumes exactly where the pool left off.
    """
    for name, value in mirror.items():
        if name == "rng_state":
            worker.rng.bit_generator.state = value
        elif name == "sampler_cursor":
            worker.sampler.restore_cursor_state(value)
        else:
            setattr(worker, name, value)


# -- MD-GAN: Algorithm 1 steps 2-3 ------------------------------------------------


@dataclass
class MDGANResidentState:
    """One MD-GAN worker: its stateful objects plus the static per-run context.

    Installed into a resident pool process exactly once, so per-iteration
    messages carry neither the state nor the context (objective,
    hyper-parameters).
    """

    #: The stateful objects — every ``MDGANWorkerState`` field but its
    #: ``index`` and ``dataset``.
    STATE_FIELDS: ClassVar[Tuple[str, ...]] = ("discriminator", "disc_opt", "sampler", "rng")

    worker_index: int
    discriminator: Sequential
    disc_opt: object
    sampler: EpochSampler
    rng: np.random.Generator
    objective: GANObjective
    disc_steps: int
    batch_size: int


@dataclass
class MDGANStepInput:
    """Per-iteration input for an MD-GAN worker: the two generated batches."""

    x_d: np.ndarray
    x_g: np.ndarray
    labels_d: Optional[np.ndarray]
    labels_g: Optional[np.ndarray]


@dataclass
class MDGANStepResult:
    """Result of one MD-GAN worker step: outputs and cursors only.

    ``rng_state``/``samples_drawn``/``epochs_completed`` let the trainer keep
    its local accounting exact while the heavyweight state stays resident.
    """

    disc_loss: float
    gen_loss: float
    feedback: np.ndarray
    samples_drawn: int
    epochs_completed: int
    rng_state: Dict[str, Any]


def mdgan_step(state: MDGANResidentState, step: MDGANStepInput) -> MDGANStepResult:
    """``L`` discriminator steps plus the error feedback ``F_n``.

    Mutates ``state`` in place and touches nothing else; the owner charges
    the step's compute when it merges the result.
    """
    disc_loss = 0.0
    for _ in range(state.disc_steps):
        real_images, real_labels = state.sampler.next_batch()
        disc_loss = discriminator_update(
            state.discriminator,
            state.objective,
            state.disc_opt,
            real_images,
            real_labels if state.objective.conditional else None,
            step.x_d,
            step.labels_d,
        )

    # Only the owner holds X_n^(g)'s noise; the feedback needs images and labels.
    gen_batch = GeneratedBatch(images=step.x_g, noise=None, labels=step.labels_g)
    gen_loss, feedback = generator_feedback(state.discriminator, state.objective, gen_batch)
    return MDGANStepResult(
        disc_loss=disc_loss,
        gen_loss=gen_loss,
        feedback=feedback,
        samples_drawn=state.sampler.samples_drawn,
        epochs_completed=state.sampler.epochs_completed,
        rng_state=state.rng.bit_generator.state,
    )


def run_mdgan_worker_task(task: WorkerTask) -> Tuple[MDGANResidentState, MDGANStepResult]:
    """Stateless-backend adapter: run :func:`mdgan_step`, return the state with it."""
    state, step_input = task
    return state, mdgan_step(state, step_input)


# -- FL-GAN: one local iteration of the full GAN ----------------------------------


@dataclass
class FLGANResidentState:
    """One FL-GAN worker: its full local GAN plus the static per-run context."""

    #: The stateful objects — every ``FLGANWorkerState`` field but its
    #: ``index`` and ``dataset``.
    STATE_FIELDS: ClassVar[Tuple[str, ...]] = (
        "generator",
        "discriminator",
        "gen_opt",
        "disc_opt",
        "sampler",
        "rng",
    )

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
    """Result of one FL-GAN local iteration: losses + cursors.

    Between federated rounds the trainer needs nothing else — the local GAN
    evolves entirely inside the worker state.
    """

    gen_loss: float
    disc_loss: float
    samples_drawn: int
    epochs_completed: int
    rng_state: Dict[str, Any]


def flgan_step(state: FLGANResidentState, step: None = None) -> FLGANStepResult:
    """One discriminator+generator local step, as in the standalone baseline.

    ``step`` carries no payload: a local iteration is a function of the
    worker state alone.
    """
    factory = state.objective.factory
    disc_loss = 0.0
    for _ in range(state.disc_steps):
        real_images, real_labels = state.sampler.next_batch()
        generated = sample_generator_images(state.generator, factory, state.batch_size, state.rng)
        disc_loss = discriminator_update(
            state.discriminator,
            state.objective,
            state.disc_opt,
            real_images,
            real_labels if state.objective.conditional else None,
            generated.images,
            generated.labels,
        )
    gen_loss = generator_update(
        state.generator,
        state.discriminator,
        factory,
        state.objective,
        state.gen_opt,
        state.batch_size,
        state.rng,
    )
    return FLGANStepResult(
        gen_loss=gen_loss,
        disc_loss=disc_loss,
        samples_drawn=state.sampler.samples_drawn,
        epochs_completed=state.sampler.epochs_completed,
        rng_state=state.rng.bit_generator.state,
    )


def run_flgan_local_task(task: WorkerTask) -> Tuple[FLGANResidentState, FLGANStepResult]:
    """Stateless-backend adapter: run :func:`flgan_step`, return the state with it."""
    state, step_input = task
    return state, flgan_step(state, step_input)


# -- resident program registration -------------------------------------------------
#
# Boundary mutations (SWAP gossip, FedAvg broadcast) touch only model
# parameters, so pull/push exchange flat vectors and leave optimizer, sampler
# and RNG state untouched inside the pool.


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
        step=mdgan_step,
        pull_params=_mdgan_pull_params,
        push_params=_mdgan_push_params,
        mirror=mirror_payload,
    )
)
register_program(
    ResidentProgram(
        name="flgan",
        step=flgan_step,
        pull_params=_flgan_pull_params,
        push_params=_flgan_push_params,
        mirror=mirror_payload,
    )
)
