"""Unit tests for the execution-backend abstraction (repro.runtime.backend)."""

from __future__ import annotations

import multiprocessing
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.core import MDGANTrainer, TrainingConfig
from repro.core.lifecycle import close_quietly
from repro.datasets import make_gaussian_ring, partition_iid
from repro.models import build_toy_gan
from repro.runtime import (
    BACKENDS,
    ResidentBackend,
    SerialBackend,
    create_backend,
    default_max_workers,
)


def _square(x):
    return x * x


def _slot_threads():
    return [t for t in threading.enumerate() if t.name.startswith("resident-slot")]


class TestCreateBackend:
    def test_known_names(self):
        assert BACKENDS == ("serial", "thread", "resident")
        assert isinstance(create_backend("serial"), SerialBackend)
        assert isinstance(create_backend("thread"), ResidentBackend)
        assert isinstance(create_backend("resident"), ResidentBackend)

    def test_backend_names_match_registry(self):
        for name in BACKENDS:
            assert create_backend(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="Unknown backend"):
            create_backend("gpu")

    def test_process_is_gone(self):
        names = r"\('serial', 'thread', 'resident'\)"
        with pytest.raises(ValueError, match=names):
            create_backend("process")
        with pytest.raises(ValueError, match=names):
            TrainingConfig(backend="process")

    def test_invalid_max_workers_raises(self):
        with pytest.raises(ValueError, match="max_workers"):
            create_backend("thread", max_workers=0)

    def test_serial_ignores_max_workers(self):
        assert isinstance(create_backend("serial", max_workers=7), SerialBackend)

    def test_default_max_workers_positive(self):
        assert default_max_workers() >= 1


class TestSerialSubmitOrdered:
    def test_runs_inline_in_task_order(self):
        handle = SerialBackend().submit_ordered(_square, list(range(8)))
        assert handle.done
        assert handle.result() == [x * x for x in range(8)]

    def test_empty(self):
        assert SerialBackend().submit_ordered(_square, []).result() == []


@pytest.fixture(scope="module")
def ring():
    train, _ = make_gaussian_ring(n_train=80, n_test=20, image_size=8, seed=7)
    factory = build_toy_gan(
        image_shape=train.spec.shape, num_classes=train.num_classes, latent_dim=8, hidden=16
    )
    return factory, partition_iid(train, 4, np.random.default_rng(3))


def _config(backend, **overrides):
    return TrainingConfig(iterations=3, batch_size=8, seed=1, backend=backend, **overrides)


class TestThreadBackend:
    """``thread`` is the resident protocol with its slots on threads of this process."""

    def test_run_starts_no_child_process_and_close_joins_slots(self, ring):
        trainer = MDGANTrainer(*ring, _config("thread", max_workers=2))
        trainer.train()
        assert multiprocessing.active_children() == []
        assert len(_slot_threads()) == 2
        trainer.close()
        assert _slot_threads() == []

    def test_more_slots_than_cores_under_fast_switching_match_serial(self, ring):
        # Four slot threads on every core, switching every 10 us: slots hold
        # their own unpickled copies, so no interleaving may move a bit.
        reference = MDGANTrainer(*ring, _config("serial")).train()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MDGANTrainer(*ring, _config("thread", max_workers=4)) as trainer:
                got = trainer.train()
        finally:
            sys.setswitchinterval(interval)
        assert got.generator_loss == reference.generator_loss
        assert got.discriminator_loss == reference.discriminator_loss
        assert _slot_threads() == []

    def test_transport_settings_stay_on_resident(self):
        backend = TrainingConfig(backend="thread", transport="tcp").build_backend()
        try:
            assert backend.transport.name == "pipe" and backend.transport.threads
            assert backend.alive_slot_count() >= 1
            assert multiprocessing.active_children() == []
        finally:
            backend.close()
        resident = TrainingConfig(backend="resident", transport="tcp").build_backend()
        assert resident.transport == "tcp"

    def test_pool_is_lazy_and_reusable_after_close(self):
        backend = create_backend("thread", max_workers=2)
        assert _slot_threads() == []
        assert backend.alive_slot_count() == 2
        backend.close()
        assert _slot_threads() == []
        assert backend.alive_slot_count() == 2
        backend.close()
        assert _slot_threads() == []


def test_close_quietly_swallows_close_errors_silently():
    # The owners' GC / interpreter-exit finalizer: a shutdown-time failure
    # must neither surface nor warn.
    class _ExplodingBackend:
        closed = 0

        def close(self) -> None:
            self.closed += 1
            raise RuntimeError("boom")

    target = _ExplodingBackend()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        close_quietly(target)
    assert target.closed == 1
