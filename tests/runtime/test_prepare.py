"""A slot prepares the real-data half of a worker's next step while it idles.

:func:`repro.runtime.slot.serve_slot` runs ``ResidentProgram.prepare`` for
each resident that has stepped since it was last prepared, for as long as no
frame is pending; the next ``run`` consumes it, and any other op but
``generate`` rolls it back first.  These tests pin that the preparation never
moves a bit:

* prepare + run equals a plain run — result, parameters, optimizer moments,
  RNG state, sampler cursor and Dropout streams — on a tiny conditional CNN
  with Dropout, for one and two discriminator steps, also where the
  prepared draw crosses an epoch boundary and reshuffles;
* a prepare followed by ``pull_params``, ``push_params``, ``pull_mirror`` or
  ``pull_state`` replies exactly as with no prepare, and the run after it
  is the plain one;
* a slot with a frame already pending does not prepare, and the inline slot
  never does;
* a slot killed while it prepares leaves the same membership events and
  surviving-worker bits as a slot killed at the same point that never
  prepares (``-m chaos``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from repro.core import MDGANTrainer, TrainingConfig
from repro.core.engine import ExecutionEngine
from repro.datasets import make_mnist_like, partition_iid
from repro.models import build_mnist_cnn_gan
from repro.nn.layers import BatchNorm
from repro.runtime import MDGANStepInput, ResidentProgram, mirror_payload, serve_slot
from repro.runtime.programs import get_program, register_program
from repro.runtime.slot import SlotHandler

BATCH = 8


@pytest.fixture(scope="module")
def cnn_setup():
    """4 shards of 20 8x8 images (an epoch is 2.5 batches) and a tiny conditional CNN GAN.

    Its discriminator has Dropout (a stream a pass advances) and, after the
    first convolution, a BatchNorm (running statistics a pass moves).
    """
    train, _ = make_mnist_like(n_train=80, n_test=8, image_size=8, seed=5)
    factory = build_mnist_cnn_gan(
        image_shape=train.spec.shape,
        latent_dim=8,
        num_classes=train.num_classes,
        conditional=True,
        width_factor=0.125,
    )
    cnn_layers = factory.discriminator_builder

    def with_batchnorm(factory):
        layers = cnn_layers(factory)
        return layers[:1] + [BatchNorm()] + layers[1:]

    factory = dataclasses.replace(factory, discriminator_builder=with_batchnorm)
    shards = partition_iid(train, 4, np.random.default_rng(2))
    return shards, factory


@pytest.fixture
def restore_mdgan_program():
    """Put the built-in ``mdgan`` program back after a test re-registers it."""
    program = get_program("mdgan")
    yield program
    register_program(program)


def _state(cnn_setup, disc_steps: int):
    """Worker 0's install payload, as a pool slot receives it (a pickled copy)."""
    shards, factory = cnn_setup
    config = TrainingConfig(backend="serial", batch_size=BATCH, seed=11, disc_steps=disc_steps)
    trainer = MDGANTrainer(factory, shards, config)
    try:
        return pickle.dumps(trainer._resident_state(trainer.workers[0]))
    finally:
        trainer.close_backend()


def _step_inputs(count: int):
    rng = np.random.default_rng(9)

    def images():
        return rng.uniform(-1.0, 1.0, size=(BATCH, 1, 8, 8)).astype(np.float32)

    def labels():
        return rng.integers(0, 10, size=BATCH)

    return [MDGANStepInput(images(), images(), labels(), labels()) for _ in range(count)]


def _bits(value) -> bytes:
    """A reply or state as bytes: equal bytes are bitwise equal values."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _state_bits(state) -> bytes:
    """Parameters, optimizer moments, RNG, full sampler cursor and every layer's stream."""
    streams = [layer._rng.bit_generator.state for layer in state.discriminator.layers
               if hasattr(layer, "_rng")]  # fmt: skip
    return _bits((mirror_payload(state), streams))


def _prepared(handler: SlotHandler) -> bool:
    return "_prepared" in vars(handler.residents[0][2])


def _run(handler: SlotHandler, step, install=None):
    [result] = handler("run", [(0, "mdgan", 0, install, step)])
    return _bits(result)


def _trajectory(payload: bytes, steps, prepare: bool):
    """Install, then one ``run`` per step input, preparing between runs if asked."""
    handler = SlotHandler()
    results = [_run(handler, steps[0], install=pickle.loads(payload))]
    crossed = False
    for step in steps[1:]:
        if prepare:
            sampler = handler.residents[0][2].sampler
            epochs = sampler.epochs_completed
            handler.prepare_next()
            assert _prepared(handler)
            crossed |= sampler.epochs_completed > epochs
        results.append(_run(handler, step))
    return results, _state_bits(handler.residents[0][2]), crossed


@pytest.mark.parametrize("disc_steps", (1, 2))
def test_prepare_then_run_is_bitwise_a_plain_run(cnn_setup, disc_steps):
    payload = _state(cnn_setup, disc_steps)
    steps = _step_inputs(6)
    plain, plain_state, _ = _trajectory(payload, steps, prepare=False)
    prepared, prepared_state, crossed = _trajectory(payload, steps, prepare=True)
    assert prepared == plain
    assert prepared_state == plain_state
    # 20-sample shards and batches of 8: some prepared draws reshuffle.
    assert crossed


@pytest.mark.parametrize("disc_steps", (1, 2))
@pytest.mark.parametrize("op", ("pull_params", "push_params", "pull_mirror", "pull_state"))
def test_every_other_op_sees_the_unprepared_state(cnn_setup, op, disc_steps):
    payload = _state(cnn_setup, disc_steps)
    steps = _step_inputs(5)
    vector = np.linspace(-0.1, 0.1, len(pickle.loads(payload).discriminator.get_parameters()))
    frame = {"push_params": {0: vector.astype(np.float32)}}.get(op, [0])
    replies, states, follow_ups = [], [], []
    for prepare in (False, True):
        handler = SlotHandler()
        _run(handler, steps[0], install=pickle.loads(payload))
        # Three steps take the 20-sample shard past its first epoch, so the
        # prepared draw reshuffles before it is rolled back.
        for step in steps[1:4]:
            _run(handler, step)
        state = handler.residents[0][2]
        if prepare:
            handler.prepare_next()
            assert _prepared(handler)
        replies.append(_bits(handler(op, frame)))
        assert "_prepared" not in vars(state)
        if op == "pull_state":
            assert not handler.residents
            continue
        states.append(_state_bits(handler.residents[0][2]))
        follow_ups.append(_run(handler, steps[4]))
    assert replies[0] == replies[1]
    assert states[:1] == states[1:]
    assert follow_ups[:1] == follow_ups[1:]


class _StubChannel:
    """Serves scripted frames; ``poll`` reports a pending frame as told."""

    def __init__(self, frames, pending: bool) -> None:
        self._frames = [pickle.dumps(frame) for frame in frames]
        self._pending = pending
        self.replies = []

    def poll(self, timeout: float = 0.0) -> bool:
        return self._pending

    def recv_bytes(self) -> bytes:
        if not self._frames:
            raise EOFError
        return self._frames.pop(0)

    def send_bytes(self, data: bytes) -> None:
        self.replies.append(pickle.loads(data))


_PREPARED = []


def _count_step(state, payload):
    state["steps"] += 1
    return (state["steps"], state.pop("prepared", None))


def _count_prepare(state):
    _PREPARED.append(state["steps"])
    state["prepared"] = state["steps"]


register_program(
    ResidentProgram(
        name="prepare-count",
        step=_count_step,
        pull_params=lambda state: dict(state),
        push_params=lambda state, params: state.update(params),
        prepare=_count_prepare,
        rollback=lambda state: state.pop("prepared", None),
    )
)


@pytest.mark.parametrize("pending", (False, True))
def test_a_slot_prepares_only_while_no_frame_is_pending(pending):
    _PREPARED.clear()
    frames = [
        ("run", [(0, "prepare-count", 0, {"steps": 0}, None), (1, "prepare-count", 0, {"steps": 0}, None)]),
        ("run", [(0, "prepare-count", 0, None, None)]),
        ("close", None),
    ]  # fmt: skip
    channel = _StubChannel(frames, pending)
    serve_slot(channel)
    if pending:
        assert _PREPARED == []
        assert channel.replies == [("ok", [(1, None), (1, None)]), ("ok", [(2, None)])]
    else:
        # Both residents are prepared after the first reply, worker 0 again after its run.
        assert sorted(_PREPARED) == [1, 1, 2]
        assert channel.replies == [("ok", [(1, None), (1, None)]), ("ok", [(2, 1)])]


def test_the_inline_slot_never_prepares(cnn_setup, restore_mdgan_program):
    calls = []

    def counting_prepare(state):
        calls.append(state.worker_index)
        return restore_mdgan_program.prepare(state)

    register_program(dataclasses.replace(restore_mdgan_program, prepare=counting_prepare))
    shards, factory = cnn_setup
    config = TrainingConfig(backend="serial", batch_size=BATCH, seed=11, iterations=3)
    with MDGANTrainer(factory, shards, config) as trainer:
        trainer.train()
    assert calls == []


def _kill_in_first_iteration(cnn_setup, victim=None):
    """Three degrade-policy iterations on 2 pipe slots, one slot killed in the first.

    The kill lands after the first iteration's merge, before its boundary.
    With ``victim=None`` it hits the first slot to prepare, held inside its
    preparation once the real half is computed; otherwise it hits slot
    ``victim`` idle, its program having no ``prepare`` (the slot loop of a
    tree without preparation).  Returns the killed slot and what the run
    leaves: events, losses, generator and surviving workers.
    """
    program = get_program("mdgan")
    holder = multiprocessing.get_context().Value("q", 0)

    def held_prepare(state):
        program.prepare(state)
        with holder.get_lock():
            first = holder.value == 0
            if first:
                holder.value = os.getpid()
        if first:
            time.sleep(60.0)  # killed in here

    prepare = held_prepare if victim is None else None
    register_program(dataclasses.replace(program, prepare=prepare))
    shards, factory = cnn_setup
    config = TrainingConfig(
        backend="resident", transport="pipe", max_workers=2, batch_size=BATCH, seed=11,
        iterations=3, on_slot_loss="degrade", min_workers=1,
    )  # fmt: skip
    # Pipe slots fork at the first iteration, after the registration above.
    trainer = MDGANTrainer(factory, shards, config)
    finish = trainer._finish_iteration

    def finish_then_kill(iteration, *args, **kwargs):
        nonlocal victim
        finish(iteration, *args, **kwargs)
        if iteration != 1:
            return
        processes = trainer._backend._transport._processes
        if victim is None:
            deadline = time.monotonic() + 30.0
            while holder.value == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            victim = [process.pid for process in processes].index(holder.value)
        processes[victim].kill()
        processes[victim].join()

    trainer._finish_iteration = finish_then_kill
    try:
        for iteration in (1, 2, 3):
            ExecutionEngine(trainer).sync_iteration(iteration, trainer.train_iteration)
        trainer.sync_worker_state()
        history = trainer.history
        return victim, {
            "events": _bits(history.events),
            "membership": dict(history.membership),
            "losses": _bits((history.generator_loss, history.discriminator_loss)),
            "generator": _bits(trainer.generator.get_parameters()),
            "survivors": [
                (worker.index, _state_bits(trainer._resident_state(worker)))
                for worker in trainer._alive_workers()
            ],
        }
    finally:
        trainer.close_backend()


@pytest.mark.chaos
def test_a_slot_killed_while_preparing_is_a_slot_killed_idle(cnn_setup, restore_mdgan_program):
    victim, preparing = _kill_in_first_iteration(cnn_setup)
    _, idle = _kill_in_first_iteration(cnn_setup, victim=victim)
    assert preparing["membership"]["slot_loss"] == 1
    assert len(preparing["survivors"]) == 2
    assert preparing == idle
