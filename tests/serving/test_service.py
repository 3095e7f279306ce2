"""Tests for :class:`repro.serving.GeneratorService` (the request path).

Pins the serving contracts: concurrent requests are bitwise identical to a
serial ``sample_generator_images`` loop on the same draws, and BatchNorm
running statistics end up the same on every backend; the versioned param
cache ships zero bytes for an unchanged generator and exactly one re-ship
per slot after ``update_generator()``; the dispatcher keeps a group in
flight on every idle slot, so concurrent clients use both slots of a 2-slot
pool; a killed slot fail-stops every posted and queued request and the
service refuses traffic afterwards, while a malformed request fails only its
own caller; and ``from_trainer()`` serves off a trainer's warm pool without
owning it.
"""

from __future__ import annotations

import copy
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import MDGANTrainer, TrainingConfig
from repro.core.gan_ops import sample_generator_images
from repro.datasets import make_mnist_like
from repro.models import build_architecture, build_toy_gan
from repro.models.base import generator_input
from repro.nn import Sequential
from repro.nn.layers import BatchNorm
from repro.runtime import ChaosTransport, ResidentBackend, TransportError, create_transport
from repro.runtime.ledger import InflightLedger
from repro.runtime.slot import SlotHandler
from repro.serving import GeneratorService, ServiceClosed


def _config(**overrides) -> TrainingConfig:
    base = dict(batch_size=8, seed=11, backend="resident", max_workers=2)
    base.update(overrides)
    return TrainingConfig(**base)


def _wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


def _cnn_factory():
    """A small ``mnist-cnn`` GAN: its generator has BatchNorm layers."""
    train, _ = make_mnist_like(n_train=32, n_test=8, image_size=16, seed=7)
    return build_architecture(
        "mnist-cnn",
        image_shape=train.spec.shape,
        num_classes=train.num_classes,
        width_factor=0.25,
        use_minibatch_discrimination=False,
    )


def _draw_requests(factory, dtype, batch_size, k, seed):
    """Replicate ``sample_generator_images``' draw order: per batch, noise then labels."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(k):
        noise = rng.normal(0.0, 1.0, size=(batch_size, factory.latent_dim))
        noise = noise.astype(dtype, copy=False)
        labels = (
            rng.integers(0, factory.num_classes, size=batch_size)
            if factory.conditional
            else None
        )
        draws.append((noise, labels))
    return draws


class TestBitwiseContract:
    def test_concurrent_requests_match_serial_loop(self, ring_setup):
        # N client threads racing submit() must produce, per request, exactly
        # the batch a serial sample_generator_images loop produces from the
        # same draws.
        _, factory = ring_setup
        k, batch_size = 6, 8
        reference = factory.make_generator(np.random.default_rng(0))
        rng = np.random.default_rng(123)
        expected = [
            sample_generator_images(reference, factory, batch_size, rng, batch_index=j)[0]
            for j in range(k)
        ]

        served = factory.make_generator(np.random.default_rng(0))
        draws = _draw_requests(factory, served.dtype, batch_size, k, seed=123)
        with GeneratorService(served, factory, _config()) as service:
            with ThreadPoolExecutor(max_workers=k) as pool:
                futures = [
                    pool.submit(service.serve, noise=noise, labels=labels)
                    for noise, labels in draws
                ]
                batches = [future.result(timeout=60) for future in futures]
            summary = service.stats.summary()
        assert summary["requests"] == k
        assert summary["failures"] == 0
        for batch, reference_batch in zip(batches, expected):
            assert np.array_equal(batch.images, reference_batch.images)
            assert np.array_equal(batch.noise, reference_batch.noise)
            if factory.conditional:
                assert np.array_equal(batch.labels, reference_batch.labels)

    def test_seeded_requests_are_repeatable_and_backend_independent(self, ring_setup):
        # A per-request seed pins the draws, so the same request answered by
        # the warm pool and by the serial inline path is bitwise identical.
        _, factory = ring_setup
        generator = factory.make_generator(np.random.default_rng(0))
        with GeneratorService(copy.deepcopy(generator), factory, _config()) as resident:
            resident.warmup()
            first = resident.serve(seed=5)
            again = resident.serve(seed=5)
        serial_config = _config(backend="serial")
        with GeneratorService(copy.deepcopy(generator), factory, serial_config) as serial:
            reference = serial.serve(seed=5)
        assert np.array_equal(first.images, again.images)
        assert np.array_equal(first.images, reference.images)
        assert first.latency_seconds > 0.0

    def test_batchnorm_running_stats_match_across_backends(self):
        # Served batches normalise by batch statistics; the running
        # statistics they leave behind on the service generator must follow
        # the same trajectory whether the forwards ran inline or on slots.
        factory = _cnn_factory()
        generator = factory.make_generator(np.random.default_rng(0))
        assert any(isinstance(layer, BatchNorm) for layer in generator.layers)
        k, batch_size = 3, 4
        draws = _draw_requests(factory, generator.dtype, batch_size, k, seed=9)
        served = {}
        for backend in ("serial", "resident"):
            config = _config(backend=backend, batch_size=batch_size)
            with GeneratorService(copy.deepcopy(generator), factory, config) as service:
                images = [
                    service.serve(noise=noise, labels=labels).images for noise, labels in draws
                ]
                served[backend] = (images, service.generator)
        ref_images, ref_generator = served["serial"]
        ref_layers = [layer for layer in ref_generator.layers if isinstance(layer, BatchNorm)]
        images, got_generator = served["resident"]
        for got, ref in zip(images, ref_images):
            assert np.array_equal(got, ref)
        got_layers = [layer for layer in got_generator.layers if isinstance(layer, BatchNorm)]
        for got, ref in zip(got_layers, ref_layers):
            assert np.array_equal(got.running_mean, ref.running_mean)
            assert np.array_equal(got.running_var, ref.running_var)
        # The folds really moved the statistics away from their initial state.
        initial = [layer for layer in generator.layers if isinstance(layer, BatchNorm)]
        assert not np.array_equal(initial[0].running_mean, ref_layers[0].running_mean)


class TestParamCache:
    def test_zero_bytes_when_unchanged_one_reship_per_slot_on_update(self, ring_setup):
        _, factory = ring_setup
        generator = factory.make_generator(np.random.default_rng(0))
        with GeneratorService(generator, factory, _config()) as service:
            service.warmup()  # install + param-cache every slot deterministically
            backend = service.executor
            baseline = backend.param_bytes_sent
            for i in range(5):
                service.serve(seed=i)
            assert backend.param_bytes_sent == baseline, (
                "an unchanged generator must ship zero parameter bytes"
            )

            params = service.generator.get_parameters()
            nbytes = params.nbytes
            service.update_generator((params * 0.5).astype(params.dtype))
            service.warmup()  # touches both slots: exactly one re-ship each
            assert backend.param_bytes_sent == baseline + 2 * nbytes

            baseline = backend.param_bytes_sent
            served = service.serve(seed=123)
            assert backend.param_bytes_sent == baseline

            # The cache skip must serve the *new* weights, not stale copies.
            reference_service = GeneratorService(
                copy.deepcopy(service.generator), factory, _config(backend="serial")
            )
            with reference_service:
                reference = reference_service.serve(seed=123)
            assert np.array_equal(served.images, reference.images)


    def test_parameter_vector_is_copied_only_for_a_stale_slot(self, ring_setup, monkeypatch):
        # The parameter vector is a supplier: a warm dispatch copies nothing,
        # and the first dispatch after an update copies it exactly once for
        # every slot it re-ships to.
        _, factory = ring_setup
        generator = factory.make_generator(np.random.default_rng(0))
        with GeneratorService(generator, factory, _config()) as service:
            service.warmup()
            get_parameters = Sequential.get_parameters
            copies = []

            def counted(model):
                copies.append(model)
                return get_parameters(model)

            monkeypatch.setattr(Sequential, "get_parameters", counted)
            for i in range(5):
                service.serve(seed=i)
            assert copies == []

            params = get_parameters(service.generator)
            service.update_generator((params * 0.5).astype(params.dtype))
            reference = copy.deepcopy(service.generator)
            # One two-batch dispatch on the idle pool: batch j runs on slot j.
            batches = service.warmup(2)
            assert copies == [service.generator]
            for batch in batches:
                g_input = generator_input(batch.noise, batch.labels, factory.num_classes)
                assert np.array_equal(batch.images, reference.forward(g_input, training=True))


def _count_generate_posts(monkeypatch):
    """Record, per ``generate`` frame posted, its slot and the other groups' frames in flight."""
    posted = []
    post = InflightLedger.post

    def counted(ledger, slot_index, op, *args, **kwargs):
        if op == "generate":
            others = [e for e in ledger.entries() if e.owner is not kwargs.get("owner")]
            posted.append((slot_index, len(others)))
        return post(ledger, slot_index, op, *args, **kwargs)

    monkeypatch.setattr(InflightLedger, "post", counted)
    return posted


class TestPipelinedDispatch:
    def test_two_clients_spread_over_both_slots(self, monkeypatch):
        # Concurrent callers share the pool's slots: each group goes on the
        # least-loaded slot, so neither slot idles while the other serves.
        # (A generator with some compute, so that the two clients' requests
        # overlap; an idle pool puts every request on slot 0.)
        factory = _cnn_factory()
        generator = factory.make_generator(np.random.default_rng(0))
        with GeneratorService(generator, factory, _config(batch_size=16)) as service:
            service.warmup()
            posted = _count_generate_posts(monkeypatch)

            def client(first_seed):
                return [service.serve(seed=first_seed + i, timeout=30) for i in range(60)]

            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(client, seed) for seed in (0, 1000)]
                for future in futures:
                    future.result(timeout=120)
            assert service.stats.summary()["failures"] == 0
        slots = [slot for slot, _ in posted]
        assert len(slots) >= 60
        for slot in (0, 1):
            assert slots.count(slot) >= 0.25 * len(slots), slots

    def test_submitted_requests_pipeline_in_arrival_order(self, monkeypatch):
        # One thread submits k requests before collecting any: single-request
        # groups go out while earlier ones are still in flight, and images
        # and BatchNorm running statistics still follow the serial trajectory.
        factory = _cnn_factory()
        generator = factory.make_generator(np.random.default_rng(0))
        draws = _draw_requests(factory, generator.dtype, 4, 6, seed=9)
        served = {}
        for backend in ("serial", "resident"):
            config = _config(backend=backend, batch_size=4)
            service = GeneratorService(copy.deepcopy(generator), factory, config, max_coalesce=1)
            with service:
                if backend == "resident":
                    posted = _count_generate_posts(monkeypatch)
                pending = [service.submit(noise=noise, labels=labels) for noise, labels in draws]
                images = [handle.result(timeout=60).images for handle in pending]
            layers = [layer for layer in service.generator.layers if isinstance(layer, BatchNorm)]
            served[backend] = (images, layers)
        assert max(in_flight for _, in_flight in posted) >= 1, posted
        for got, ref in zip(served["resident"][0], served["serial"][0]):
            assert np.array_equal(got, ref)
        for got, ref in zip(served["resident"][1], served["serial"][1]):
            assert np.array_equal(got.running_mean, ref.running_mean)
            assert np.array_equal(got.running_var, ref.running_var)

    def test_many_clients_under_fast_thread_switching(self, ring_setup, monkeypatch):
        # 8 client threads on a 2-slot pool with the interpreter switching
        # threads every 10 us: groups overlap on the wire, every seeded
        # request is answered bitwise as the serial-inline service answers
        # it, and close() ends the dispatcher.
        _, factory = ring_setup
        handle_frame, first = SlotHandler.__call__, [True]

        def hold_first_generate(handler, op, payload):
            # Patched before the pool forks, so each slot inherits it with its
            # own flag: a slot's first group stays in flight for 0.2 s.
            if op == "generate" and first[0]:
                first[0] = False
                time.sleep(0.2)
            return handle_frame(handler, op, payload)

        monkeypatch.setattr(SlotHandler, "__call__", hold_first_generate)
        posted = _count_generate_posts(monkeypatch)
        generator = factory.make_generator(np.random.default_rng(0))
        seeds = [[100 * client + i for i in range(6)] for client in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            service = GeneratorService(copy.deepcopy(generator), factory, _config())
            try:
                # Held on slot 0 while the clients post: they overlap by construction.
                held = service.submit(seed=10**6)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [
                        pool.submit(lambda ss: [service.serve(seed=s, timeout=60) for s in ss], ss)
                        for ss in seeds
                    ]
                    batches = [future.result(timeout=120) for future in futures]
                held = held.result(timeout=60)
                assert held.latency_seconds >= 0.2  # the forked slot kept the hold
                assert service.stats.summary()["failures"] == 0
                assert max(in_flight for _, in_flight in posted) >= 1
            finally:
                service.close()
            assert not service._dispatcher.is_alive()
        finally:
            sys.setswitchinterval(previous)
        serial = GeneratorService(copy.deepcopy(generator), factory, _config(backend="serial"))
        with serial:
            assert np.array_equal(held.images, serial.serve(seed=10**6).images)
            for client_seeds, client_batches in zip(seeds, batches):
                for seed, batch in zip(client_seeds, client_batches):
                    assert np.array_equal(batch.images, serial.serve(seed=seed).images)


class TestFailStop:
    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_killed_slot_fail_stops_all_requests(self, ring_setup, transport):
        _, factory = ring_setup
        generator = factory.make_generator(np.random.default_rng(0))
        config = _config(batch_size=4, transport=transport)
        service = GeneratorService(generator, factory, config)
        try:
            service.warmup()
            victim = service.executor._transport._processes[0]
            victim.kill()
            victim.join()
            # warmup() enqueues one atomic 2-request group, so both requests
            # are in flight when the dead slot surfaces: the error must be
            # a TransportError naming the slot, broadcast to the whole group.
            with pytest.raises(TransportError) as excinfo:
                service.warmup()
            # Slot indices follow accept order over tcp, so the victim may
            # serve either slot — but the error must name one.
            assert excinfo.value.slot_index in (0, 1)
            assert service.stats.summary()["failures"] == 2
            # Fail-stop: the service refuses further requests, it never
            # silently re-runs lost ones.
            with pytest.raises(ServiceClosed, match="fail-stopped"):
                service.serve(seed=1)
        finally:
            service.close()


    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_killed_slot_fails_every_posted_and_queued_request(self, ring_setup, transport):
        # Two single-request groups in flight on different slots and a third
        # request queued behind them: killing one slot fails all three with
        # the TransportError naming it, and later requests are refused.
        _, factory = ring_setup
        generator = factory.make_generator(np.random.default_rng(0))
        chaos = ChaosTransport(create_transport(transport))
        service = GeneratorService(generator, factory, _config(batch_size=4))
        service.adopt_backend(ResidentBackend(2, transport=chaos), owned=True)
        processes = []
        try:
            service.warmup()
            ledger = service.executor._ledger
            processes = list(chaos.inner._processes)
            for process in processes:  # hold every reply back
                os.kill(process.pid, signal.SIGSTOP)
            first = service.submit(seed=1)
            _wait_for(lambda: ledger.depth(0) == 1)
            second = service.submit(seed=2)
            _wait_for(lambda: ledger.depth(1) == 1)
            third = service.submit(seed=3)  # no idle slot: it stays queued
            chaos.kill_slot(0)
            for process in processes:
                os.kill(process.pid, signal.SIGCONT)
            for pending in (first, second, third):
                with pytest.raises(TransportError) as excinfo:
                    pending.result(timeout=30)
                assert excinfo.value.slot_index == 0
            assert service.stats.summary()["failures"] == 3
            with pytest.raises(ServiceClosed, match="fail-stopped"):
                service.serve(seed=4)
        finally:
            for process in processes:
                if process.is_alive():
                    os.kill(process.pid, signal.SIGCONT)
            service.close()


class TestLifecycle:
    def test_from_trainer_serves_warm_pool_unowned(self, ring_setup):
        shards, factory = ring_setup
        config = _config(iterations=4)
        trainer = MDGANTrainer(factory, shards, config)
        try:
            trainer.train()
            pool = trainer.executor
            service = GeneratorService.from_trainer(trainer)
            assert service.executor is pool

            # Training bumped the shared handle after its last generation, so
            # the first request may re-ship once; after that the slots are
            # provably current and repeat requests ship zero bytes.
            first = service.serve(seed=7)
            baseline = pool.param_bytes_sent
            second = service.serve(seed=7)
            assert np.array_equal(first.images, second.images)
            assert pool.param_bytes_sent == baseline

            # Closing the service must leave the trainer's pool running: the
            # backend was adopted unowned.
            service.close()
            assert trainer._backend is pool
            trainer.train_iteration(config.iterations + 1)
        finally:
            trainer.close()

    def test_closed_service_refuses_requests(self, ring_setup):
        _, factory = ring_setup
        generator = factory.make_generator(np.random.default_rng(0))
        service = GeneratorService(generator, factory, _config(backend="serial"))
        assert service.serve(seed=1).images.shape[0] == 8
        service.close()
        with pytest.raises(ServiceClosed, match="closed"):
            service.submit(seed=2)
        service.close()  # idempotent

    def test_constructor_and_request_validation(self, ring_setup):
        _, factory = ring_setup

        class Unbuilt:
            built = False

        with pytest.raises(ValueError, match="built generator"):
            GeneratorService(Unbuilt(), factory, _config(backend="serial"))
        generator = factory.make_generator(np.random.default_rng(0))
        with pytest.raises(ValueError, match="max_coalesce"):
            GeneratorService(generator, factory, _config(backend="serial"), max_coalesce=0)
        with GeneratorService(generator, factory, _config(backend="serial")) as service:
            with pytest.raises(ValueError, match="batch_size"):
                service.submit(batch_size=0)


class TestRequestValidation:
    @pytest.mark.parametrize("backend", ["serial", "resident"])
    def test_malformed_request_fails_only_its_caller(self, ring_setup, backend):
        # A bad request raises ValueError to its caller before anything is
        # drawn or enqueued: the service keeps serving, and its seeded
        # samples equal those of a service that never saw the bad request.
        _, factory = ring_setup
        generator = factory.make_generator(np.random.default_rng(0))
        latent = factory.latent_dim
        bad_requests = [
            dict(noise=np.zeros((4, latent + 3))),
            dict(noise=np.zeros(latent)),
            dict(noise=np.zeros((0, latent))),
            dict(labels=np.zeros(3, dtype=np.int64)),
            dict(labels=np.zeros((8, 1), dtype=np.int64)),
            dict(labels=np.full(8, factory.num_classes)),
            dict(noise=np.zeros((2, latent)), labels=np.array([0, -1])),
        ]
        config = _config(backend=backend)
        with GeneratorService(copy.deepcopy(generator), factory, config) as service:
            for bad in bad_requests:
                with pytest.raises(ValueError):
                    service.serve(**bad)
            served = [service.serve(), service.serve(seed=5)]
            assert service.stats.summary()["failures"] == 0
        with GeneratorService(copy.deepcopy(generator), factory, config) as clean:
            reference = [clean.serve(), clean.serve(seed=5)]
        for batch, expected in zip(served, reference):
            assert np.array_equal(batch.noise, expected.noise)
            assert np.array_equal(batch.labels, expected.labels)
            assert np.array_equal(batch.images, expected.images)

    def test_labels_rejected_for_unconditional_factory(self):
        train, _ = make_mnist_like(n_train=32, n_test=8, image_size=8, seed=1)
        factory = build_toy_gan(
            image_shape=train.spec.shape,
            num_classes=train.num_classes,
            latent_dim=4,
            hidden=8,
            conditional=False,
        )
        generator = factory.make_generator(np.random.default_rng(0))
        with GeneratorService(generator, factory, _config(backend="serial")) as service:
            with pytest.raises(ValueError, match="not conditional"):
                service.serve(labels=np.zeros(8, dtype=np.int64))
            assert service.serve(seed=1).images.shape[0] == 8


class TestStats:
    def test_summary_counts_and_percentile_order(self, ring_setup):
        _, factory = ring_setup
        generator = factory.make_generator(np.random.default_rng(0))
        with GeneratorService(generator, factory, _config(backend="serial")) as service:
            for i in range(3):
                service.serve(seed=i, batch_size=4)
            summary = service.stats.summary()
        assert summary["requests"] == 3
        assert summary["samples"] == 12
        assert summary["failures"] == 0
        assert summary["mean_coalesce"] >= 1.0
        assert (
            summary["latency_p50_ms"]
            <= summary["latency_p95_ms"]
            <= summary["latency_p99_ms"]
        )
        assert summary["requests_per_second"] > 0
