"""Unit tests for the execution backends (repro.runtime.backend).

Every backend is the resident protocol; ``serial`` runs it on one inline
slot, ``resident`` on child processes or worker hosts.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import sys
import threading
import warnings

import numpy as np
import pytest

import repro.runtime.ledger as ledger_module
import repro.runtime.slot as slot_module
from repro.core import FLGANTrainer, MDGANTrainer, TrainingConfig
from repro.core.lifecycle import close_quietly
from repro.datasets import make_gaussian_ring, partition_iid
from repro.models import build_toy_gan
from repro.runtime import (
    BACKENDS,
    ResidentBackend,
    ResidentProgram,
    create_backend,
    default_max_workers,
    get_program,
    register_program,
)
from repro.runtime.programs import _PROGRAMS
from repro.runtime.transport.local import InlineTransport
from repro.serving import GeneratorService


def _square_step(state, x):
    state["calls"] = state.get("calls", 0) + 1
    return x * x


register_program(
    ResidentProgram(
        name="backend-square",
        step=_square_step,
        pull_params=lambda state: dict(state),
        push_params=lambda state, params: state.update(params),
    )
)


class TestCreateBackend:
    def test_known_names(self):
        assert BACKENDS == ("serial", "resident")
        for name in BACKENDS:
            assert isinstance(create_backend(name), ResidentBackend)

    def test_backend_names_match(self):
        for name in BACKENDS:
            assert create_backend(name).name == name

    def test_only_serial_is_inline(self):
        for name in BACKENDS:
            backend = create_backend(name)
            assert backend.supports_resident_generation == (name != "serial")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="Unknown backend"):
            create_backend("gpu")

    def test_deleted_backends_are_rejected(self):
        names = r"\('serial', 'resident'\)"
        for name in ("process", "thread"):
            with pytest.raises(ValueError, match=names):
                create_backend(name)
            with pytest.raises(ValueError, match=names):
                TrainingConfig(backend=name)

    def test_invalid_max_workers_raises(self):
        with pytest.raises(ValueError, match="max_workers"):
            create_backend("resident", max_workers=0)

    def test_serial_ignores_max_workers(self):
        assert create_backend("serial", max_workers=7).max_workers == 1

    def test_in_process_backends_take_no_options(self):
        with pytest.raises(TypeError, match="no options"):
            create_backend("serial", transport="tcp")

    def test_default_max_workers_positive(self):
        assert default_max_workers() >= 1


class _NoPickle:
    """Stands in for ``pickle`` in a module that must not pickle anything."""

    @staticmethod
    def dumps(*args, **kwargs):
        raise AssertionError("pickle.dumps called on the inline slot path")

    @staticmethod
    def loads(*args, **kwargs):
        raise AssertionError("pickle.loads called on the inline slot path")


@pytest.fixture
def no_pickle(monkeypatch):
    monkeypatch.setattr(ledger_module, "pickle", _NoPickle)
    monkeypatch.setattr(slot_module, "pickle", _NoPickle)


def _patch_step(monkeypatch, name, wrap):
    """Replace the registered program ``name``'s step with ``wrap(step)``."""
    program = get_program(name)
    monkeypatch.setitem(_PROGRAMS, name, dataclasses.replace(program, step=wrap(program.step)))


class TestSerialInlineSlot:
    """``serial`` is the resident protocol on one slot that runs in the caller."""

    def test_one_inline_slot_starts_no_thread_and_no_process(self):
        threads = threading.active_count()
        backend = create_backend("serial")
        try:
            assert backend.alive_slot_count() == 1
            assert isinstance(backend._transport, InlineTransport)
            assert not backend.supports_resident_generation
            assert threading.active_count() == threads
            assert multiprocessing.active_children() == []
        finally:
            backend.close()

    def test_steps_are_answered_at_dispatch_in_order(self, no_pickle):
        with create_backend("serial") as backend:
            handle = backend.start_steps(
                "backend-square", [(key, dict, key) for key in (3, 1, 2)]
            )
            assert backend._ledger.entries() == []
            assert handle.result() == [9, 1, 4]
            assert backend.ipc_bytes_sent == backend.ipc_bytes_received == 0

    def test_mdgan_runs_move_no_bytes_and_pickle_nothing(self, ring, no_pickle):
        for overrides in (
            dict(epochs_per_swap=0.2),
            dict(pipeline_depth=1),
            dict(aggregation="async", epochs_per_swap=0.2),
        ):
            with MDGANTrainer(*ring, _config("serial", **overrides)) as trainer:
                history = trainer.train()
                assert trainer.executor.ipc_bytes_sent == 0
                assert trainer.executor.ipc_bytes_received == 0
            if "pipeline_depth" not in overrides:
                assert history.events_of_kind("swap"), overrides

    def test_flgan_round_moves_no_bytes_and_pickles_nothing(self, ring, no_pickle):
        with FLGANTrainer(*ring, _config("serial", epochs_per_swap=0.2)) as trainer:
            history = trainer.train()
            assert trainer.executor.ipc_bytes_sent == 0
            assert trainer.executor.ipc_bytes_received == 0
        assert history.events_of_kind("federated_round")

    def test_close_leaves_the_stepped_objects_on_the_workers(self, ring, monkeypatch):
        stepped = {}

        def wrap(step):
            def recording_step(state, step_input):
                stepped[state.worker_index] = state.discriminator
                return step(state, step_input)

            return recording_step

        _patch_step(monkeypatch, "mdgan", wrap)
        trainer = MDGANTrainer(*ring, _config("serial", epochs_per_swap=0.2))
        trainer.train()
        trainer.close()
        assert sorted(stepped) == [w.index for w in trainer.workers]
        for worker in trainer.workers:
            assert worker.discriminator is stepped[worker.index]

    def test_worker_step_error_reaches_the_caller_as_itself(self, ring, monkeypatch):
        def wrap(step):
            def failing_step(state, step_input):
                raise ValueError(f"worker {state.worker_index} refuses")

            return failing_step

        _patch_step(monkeypatch, "mdgan", wrap)
        trainer = MDGANTrainer(*ring, _config("serial"))
        with pytest.raises(ValueError, match="worker 0 refuses"):
            trainer.train()

    def test_service_warmup_draws_one_request(self, ring):
        factory = ring[0]
        generator = factory.make_generator(np.random.default_rng(5))
        with GeneratorService(generator, factory, TrainingConfig(backend="serial")) as service:
            assert service.executor.max_workers == 1
            assert len(service.warmup()) == 1
            assert service.stats.requests == 1


@pytest.fixture(scope="module")
def ring():
    train, _ = make_gaussian_ring(n_train=80, n_test=20, image_size=8, seed=7)
    factory = build_toy_gan(
        image_shape=train.spec.shape, num_classes=train.num_classes, latent_dim=8, hidden=16
    )
    return factory, partition_iid(train, 4, np.random.default_rng(3))


def _config(backend, **overrides):
    return TrainingConfig(iterations=3, batch_size=8, seed=1, backend=backend, **overrides)


class TestResidentSlots:
    """``resident``'s slots are child processes (pipe) or worker hosts (tcp)."""

    @pytest.mark.parametrize("transport", ("pipe", "tcp"))
    def test_pool_is_lazy_and_reusable_after_close(self, transport):
        items = [(key, dict, key) for key in (2, 3)]
        backend = create_backend("resident", max_workers=2, transport=transport)
        try:
            assert backend._transport is None  # construction starts nothing
            assert backend.start_steps("backend-square", items).result() == [4, 9]
            first = list(backend._transport._processes)
            assert len(first) == 2 and all(p.is_alive() for p in first)
            backend.close()
            assert backend._transport is None
            assert not any(p.is_alive() for p in first)
            # A closed pool reopens on its next use, with fresh processes.
            assert backend.start_steps("backend-square", items).result() == [4, 9]
            second = backend._transport._processes
            assert len(second) == 2 and not set(second) & set(first)
            backend.close()
            backend.close()  # idempotent
            assert not any(p.is_alive() for p in second)
        finally:
            backend.close()

    def test_a_slot_per_worker_under_fast_switching_matches_serial(self, ring):
        # Four slot processes, the owner's threads switching every 10 us:
        # replies merge in worker order, so no interleaving may move a bit.
        reference = MDGANTrainer(*ring, _config("serial")).train()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MDGANTrainer(*ring, _config("resident", max_workers=4)) as trainer:
                got = trainer.train()
                assert trainer._backend.alive_slot_count() == 4
        finally:
            sys.setswitchinterval(interval)
        assert got.generator_loss == reference.generator_loss
        assert got.discriminator_loss == reference.discriminator_loss


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
