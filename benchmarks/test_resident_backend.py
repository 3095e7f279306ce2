"""Benchmark: resident-state pool vs the stateless process pool.

Validates the two promises of the ``resident`` execution backend
(:mod:`repro.runtime.resident`) on a conv model with a non-trivial shard:

* **IPC volume** — the ``process`` backend re-pickles every worker's full
  state (discriminator, Adam moments, sampler + dataset shard, RNG) in both
  directions every iteration, while ``resident`` ships only the generated
  batches out and the loss/feedback/cursor delta back.  Steady-state
  per-iteration IPC must be at least 2x smaller (in practice it is >10x).
* **Wall clock** — with 8 workers on a multi-core host, skipping the
  per-iteration state pickling makes resident strictly faster than process.

Process-backend bytes are measured by pickling the exact task/result objects
the pool ships (`pickle.dumps` with the same protocol); resident bytes come
from the backend's own IPC meter, taking the delta between two iterations so
the one-off state install is excluded.  Timing uses best-of-N interleaved
``perf_counter`` runs, as in ``test_parallel_backend.py``.
"""

from __future__ import annotations

import os
import pickle
import time

import numpy as np
import pytest

from repro.core import MDGANTrainer, TrainingConfig
from repro.datasets import make_mnist_like, partition_iid
from repro.models import build_architecture
from repro.runtime import WorkerTask, run_mdgan_worker_task

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
    """Bytes the process backend ships for one steady-state iteration.

    Measured as ``len(pickle.dumps(task)) + len(pickle.dumps(result))`` over
    every worker — exactly the payloads ProcessPoolExecutor pickles, on
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
        task = WorkerTask(trainer._resident_state(worker), step_input)
        total += len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
        result = run_mdgan_worker_task(task)
        total += len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
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


def _timed_run(conv_setup, backend: str, iterations: int) -> float:
    trainer = _build_trainer(conv_setup, backend, iterations=iterations)
    start = time.perf_counter()
    trainer.train()
    return time.perf_counter() - start


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="wall-clock comparison needs a multi-core host (>= 4 cores)",
)
def test_resident_wall_clock_beats_process_at_8_workers(conv_setup):
    # Warm both pools once, then interleave best-of-N so a background load
    # spike cannot bias one backend.
    iterations = 3
    _timed_run(conv_setup, "process", iterations)
    _timed_run(conv_setup, "resident", iterations)
    best = {"process": float("inf"), "resident": float("inf")}
    speedup = 0.0
    for attempt_reps in (3, 5):
        for _ in range(attempt_reps):
            for backend in ("process", "resident"):
                best[backend] = min(
                    best[backend], _timed_run(conv_setup, backend, iterations)
                )
        speedup = best["process"] / best["resident"]
        if speedup >= 1.1:
            break
    print(
        f"{iterations}-iteration md-gan at {_NUM_WORKERS} workers: process "
        f"{best['process']:.2f}s, resident {best['resident']:.2f}s "
        f"({speedup:.2f}x, {os.cpu_count()} cores)"
    )
    assert speedup >= 1.05, (
        f"resident backend only {speedup:.2f}x faster than process at "
        f"{_NUM_WORKERS} workers on {os.cpu_count()} cores; expected a "
        "measurable win (>= 1.05x)"
    )
