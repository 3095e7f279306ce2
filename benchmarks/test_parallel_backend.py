"""Benchmark: the parallel execution backends vs the serial reference.

Validates the two promises of the ``repro.runtime`` subsystem:

* seeded training is **bitwise identical** across the ``serial`` and
  ``resident`` backends (checked here end-to-end on the conv architecture;
  the fine-grained parity matrix lives in ``tests/runtime/test_parity.py``);
* on a multi-core host, fanning the 8-worker MD-GAN per-iteration phase out
  to the resident backend's slot processes is at least 1.5x faster than
  running the same workers sequentially.

The speedup assertion needs real cores: it is skipped when the host exposes
fewer than four, and reported informationally otherwise.  Timing uses
best-of-N ``perf_counter`` repetitions with interleaved backend order, which
is robust against background load; pytest-benchmark is not used because the
assertion needs both timings inside one test.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import MDGANTrainer, TrainingConfig
from repro.datasets import make_mnist_like, partition_iid
from repro.models import build_architecture
from repro.runtime import BACKENDS

pytestmark = [
    pytest.mark.slow,  # timing / multi-run benchmark; excluded from the fast lane
    pytest.mark.paper_artifact("parallel-backend"),
]

_NUM_WORKERS = 8
_BATCH_SIZE = 16
_ITERATIONS = 2


@pytest.fixture(scope="module")
def conv_setup():
    """An 8-worker MD-GAN on the conv architecture (the paper's MNIST CNN)."""
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


def _build_trainer(conv_setup, backend: str) -> MDGANTrainer:
    factory, shards = conv_setup
    config = TrainingConfig(
        iterations=_ITERATIONS,
        batch_size=_BATCH_SIZE,
        num_batches=_NUM_WORKERS,
        seed=11,
        backend=backend,
        max_workers=_NUM_WORKERS,
    )
    return MDGANTrainer(factory, shards, config)


def _timed_run(conv_setup, backend: str):
    with _build_trainer(conv_setup, backend) as trainer:
        start = time.perf_counter()
        history = trainer.train()
        elapsed = time.perf_counter() - start
    return trainer, history, elapsed


def test_all_backends_bitwise_identical_on_conv_model(conv_setup):
    runs = {backend: _timed_run(conv_setup, backend) for backend in BACKENDS}
    _, ref_history, _ = runs["serial"]
    ref_params = runs["serial"][0].generator.get_parameters()
    assert np.all(np.isfinite(ref_history.generator_loss))
    trainer, history, _ = runs["resident"]
    assert history.generator_loss == ref_history.generator_loss
    assert history.discriminator_loss == ref_history.discriminator_loss
    assert np.array_equal(trainer.generator.get_parameters(), ref_params)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup needs a multi-core host (>= 4 cores)",
)
def test_resident_backend_speedup_at_8_workers(conv_setup):
    # Warm both paths once (slot spin-up, allocator), then interleave the
    # measurements so a load spike cannot bias one backend; take best-of-N.
    _timed_run(conv_setup, "serial")
    _timed_run(conv_setup, "resident")
    best = {"serial": float("inf"), "resident": float("inf")}
    speedup = 0.0
    for attempt_reps in (3, 5):
        for _ in range(attempt_reps):
            for backend in ("serial", "resident"):
                best[backend] = min(
                    best[backend], _timed_run(conv_setup, backend)[2]
                )
        speedup = best["serial"] / best["resident"]
        if speedup >= 1.5:
            break
    print(
        f"8-worker md-gan iterations: serial {best['serial']:.2f}s, "
        f"resident {best['resident']:.2f}s ({speedup:.2f}x, "
        f"{os.cpu_count()} cores)"
    )
    assert speedup >= 1.5, (
        f"resident backend only {speedup:.2f}x faster than serial at "
        f"{_NUM_WORKERS} workers on {os.cpu_count()} cores; expected >= 1.5x"
    )
