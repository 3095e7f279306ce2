"""Benchmark: resident-state pool vs a stateless process pool.

Validates the IPC promise of the ``resident`` execution backend
(:mod:`repro.runtime.resident`) on a conv model with a non-trivial shard: a
stateless process pool (``concurrent.futures.ProcessPoolExecutor`` mapping
the step over ``(state, step_input)`` pairs) re-pickles every worker's full state
(discriminator, Adam moments, sampler + dataset shard, RNG) in both
directions every iteration, while ``resident`` ships only the generated
batches out and the loss/feedback/cursor delta back.  Steady-state
per-iteration IPC must be at least 2x smaller (in practice it is >10x).

The stateless pool's bytes are computed by pickling what it would ship —
the task out, ``(state, step result)`` back — with the same protocol;
resident bytes come from the backend's own IPC meter, taking the delta
between two iterations so the one-off state install is excluded.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import MDGANTrainer, TrainingConfig
from repro.datasets import make_mnist_like, partition_iid
from repro.models import build_architecture
from repro.runtime import mdgan_step

pytestmark = [
    pytest.mark.slow,  # timing / multi-run benchmark; excluded from the fast lane
    pytest.mark.paper_artifact("resident-backend"),
]

_NUM_WORKERS = 8
_BATCH_SIZE = 16
_ITERATIONS = 2


@pytest.fixture(scope="module")
def conv_setup():
    """An 8-worker MD-GAN on the conv architecture with real shards."""
    train, _ = make_mnist_like(n_train=640, n_test=160, image_size=16, seed=7)
    factory = build_architecture(
        "mnist-cnn",
        image_shape=train.spec.shape,
        num_classes=train.num_classes,
        width_factor=0.5,
        use_minibatch_discrimination=False,
    )
    shards = partition_iid(train, _NUM_WORKERS, np.random.default_rng(3))
    return factory, shards


def _build_trainer(conv_setup, backend: str, iterations: int = _ITERATIONS):
    factory, shards = conv_setup
    config = TrainingConfig(
        iterations=iterations,
        batch_size=_BATCH_SIZE,
        num_batches=_NUM_WORKERS,
        seed=11,
        backend=backend,
        max_workers=_NUM_WORKERS,
    )
    return MDGANTrainer(factory, shards, config)


def _process_iteration_bytes(conv_setup) -> int:
    """Bytes a stateless process pool ships for one steady-state iteration.

    Measured as ``len(pickle.dumps(task)) + len(pickle.dumps((state,
    result)))`` over every worker — the payloads a ProcessPoolExecutor
    pickles when the worker state must come back with the result, on
    iteration-2 state so Adam moments and sampler cursors are warm.
    """
    trainer = _build_trainer(conv_setup, "serial")
    trainer.train_iteration(1)
    participants = trainer._participating_workers()
    k = min(trainer.num_batches, len(participants))
    batches = trainer._generate_batches(k)
    work = trainer._distribute_batches(2, batches, participants)
    total = 0
    for worker, step_input in work:
        state = trainer._resident_state(worker)
        total += len(pickle.dumps((state, step_input), protocol=pickle.HIGHEST_PROTOCOL))
        reply = (state, mdgan_step(state, step_input))
        total += len(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
    trainer.close_backend()
    return total


def _resident_iteration_bytes(conv_setup) -> int:
    """Steady-state per-iteration IPC of the resident backend (its own meter).

    Iteration 1 includes the one-off state installs, so the figure is the
    meter delta across iteration 2.
    """
    trainer = _build_trainer(conv_setup, "resident")
    try:
        trainer.train_iteration(1)
        backend = trainer._backend
        before = backend.ipc_bytes_sent + backend.ipc_bytes_received
        trainer.train_iteration(2)
        after = backend.ipc_bytes_sent + backend.ipc_bytes_received
    finally:
        trainer.sync_worker_state()
        trainer.close_backend()
    return after - before


def test_resident_ships_at_least_2x_fewer_bytes_than_process(conv_setup):
    process_bytes = _process_iteration_bytes(conv_setup)
    resident_bytes = _resident_iteration_bytes(conv_setup)
    ratio = process_bytes / max(1, resident_bytes)
    print(
        f"per-iteration IPC at {_NUM_WORKERS} workers: process "
        f"{process_bytes / 1e6:.2f} MB, resident {resident_bytes / 1e6:.2f} MB "
        f"({ratio:.1f}x less)"
    )
    assert resident_bytes * 2 <= process_bytes, (
        f"resident backend shipped {resident_bytes} bytes/iteration vs process "
        f"{process_bytes}; expected at least a 2x reduction"
    )
